"""Tests for the Python kernel DSL: tracing, lowering, checkers, stress.

Covers the full pipeline — expression tracing, lowering to
:class:`repro.isa.Program`, derived launches and bounds guards, the
synthesized numpy reference checkers — plus the seeded divergence-stress
generator and its integration with the registry, the runner cache, the
verify harness, and the ``repro kernels`` CLI.
"""

from pathlib import Path

import numpy as np
import pytest

from repro import dsl
from repro.cli import main
from repro.dsl.kernels import DSL_KERNELS, dsl_axpy, dsl_clip
from repro.dsl.lower import GUARD_PARAM
from repro.dsl.stress import (
    parse_stress_name,
    stress_batch,
    stress_name,
    stress_workload,
)
from repro.errors import BuildError, exit_code_for
from repro.gpu.config import GpuConfig
from repro.isa.asm import assemble, program_to_text
from repro.isa.opcodes import Opcode
from repro.isa.types import DType
from repro.kernels import (
    DIVERGENT_WORKLOADS,
    DSL_WORKLOADS,
    WORKLOAD_REGISTRY,
    run_workload,
)
from repro.kernels.workload import digest_buffers

AXPY_GOLDEN = """\
kernel dsl_axpy simd16 slm=0
gid @r2
param x: surface
param y: surface
param a: scalar_f32 @r0

    shl.i32 r4, r2, 2:i32
    load.f32 r8, r4, @surf0
    load.f32 r10, r4, @surf1
    mad.f32 r6, r0, r8, r10
    store.f32 r4, r6, @surf1
    eot
"""


class TestLowering:
    def test_axpy_golden(self):
        """The canonical kernel lowers to exactly the hand-written ideal."""
        assert program_to_text(dsl_axpy.program()) == AXPY_GOLDEN

    def test_mad_fusion_and_address_cse(self):
        opcodes = [i.opcode for i in dsl_axpy.program().instructions]
        assert opcodes.count(Opcode.MAD) == 1  # a*x+y fused
        assert Opcode.MUL not in opcodes and Opcode.ADD not in opcodes
        assert opcodes.count(Opcode.SHL) == 1  # x[i]/y[i] share the address

    def test_lowering_is_deterministic(self):
        assert program_to_text(dsl_clip.program()) == \
            program_to_text(dsl_clip.program())

    @pytest.mark.parametrize("name", sorted(DSL_KERNELS))
    def test_programs_round_trip_bit_identically(self, name):
        program = DSL_KERNELS[name].program()
        rebuilt = assemble(program_to_text(program))
        assert rebuilt.instructions == program.instructions
        assert [p.name for p in rebuilt.params] == \
            [p.name for p in program.params]
        assert (rebuilt.simd_width, rebuilt.gid_reg, rebuilt.lid_reg) == \
            (program.simd_width, program.gid_reg, program.lid_reg)

    def test_variable_index_shares_its_address(self):
        @dsl.kernel(n=64, name="var_index_dot")
        def var_index_dot(k, a=dsl.In("f32"), b=dsl.In("f32"),
                          out=dsl.Out("f32")):
            idx = k.var(k.gid)
            prod = k.var(a[idx] * b[idx])
            prod.set(prod + a[idx])
            out[k.gid] = prod

        opcodes = [i.opcode for i in var_index_dot.program().instructions]
        # One SHL for every a[idx]/b[idx], one for out[gid].
        assert opcodes.count(Opcode.SHL) == 2
        run_workload(var_index_dot())  # the synthesized checker agrees

    def test_variable_index_address_goes_stale(self):
        """Assigning the index variable, or running a loop, retires a
        variable-indexed address: the loop condition, evaluated after
        the body, must not reuse one computed before the loop."""

        @dsl.kernel(n=64, name="stale_index")
        def stale_index(k, a=dsl.In("f32"), out=dsl.Out("f32")):
            j = k.var(k.gid)
            v = k.var(a[j])
            j.set(63 - j)
            v.set(v + a[j])
            steps = k.var(0, "i32")
            with k.while_((a[j] < 0.5) & (steps < 8)):
                j.set((j + 1) & 63)
                steps.set(steps + 1)
            out[k.gid] = v + a[j]

        opcodes = [i.opcode for i in stale_index.program().instructions]
        # a[j] before and after j.set, in the loop test, after the loop;
        # then out[gid].
        assert opcodes.count(Opcode.SHL) == 5
        run_workload(stale_index())  # bit-exact against the reference

    def test_loop_condition_address_is_not_reused_after_the_loop(self):
        """Lanes that break out of a loop never run its condition, so an
        address the condition computes must be recomputed after it."""

        @dsl.kernel(n=64, name="loop_cond_addr")
        def loop_cond_addr(k, a=dsl.In("f32"), out=dsl.Out("f32")):
            t = k.var(0, "i32")
            with k.while_((t < 4) & (a[(k.gid + 1) & 63] > -1.0)):
                t.set(t + 1)
                k.break_if(k.lane < 8)
            out[k.gid] = a[(k.gid + 1) & 63]

        run_workload(loop_cond_addr())  # bit-exact against the reference

    def test_empty_else_arm_is_emitted(self):
        @dsl.kernel(n=64, name="empty_else")
        def empty_else(k, x=dsl.In("f32"), y=dsl.Out("f32")):
            v = k.var(x[k.gid])
            with k.if_(v < 0.5):
                v.set(v * 2.0)
                k.else_()
            y[k.gid] = v

        control = [i.opcode for i in empty_else.program().instructions
                   if i.opcode in (Opcode.IF, Opcode.ELSE, Opcode.ENDIF)]
        assert control == [Opcode.IF, Opcode.ELSE, Opcode.ENDIF]
        run_workload(empty_else())  # bit-exact against the reference

    def test_byte_offsets_are_evaluated_where_they_stand(self):
        @dsl.kernel(n=64, name="byte_pairs")
        def byte_pairs(k, x=dsl.In("f32", size=128),
                       y=dsl.Out("f32", size=128)):
            base = k.var(k.gid << 3)  # two floats per work-item
            y.bytes[base] = x.bytes[base + 4]
            y.bytes[base + 4] = x.bytes[base + 4] + x.bytes[base]

        insts = byte_pairs.program().instructions
        # base's own SHL and nothing scaled; each of the three base + 4
        # accesses adds its offset anew.
        assert [i.opcode for i in insts].count(Opcode.SHL) == 1
        assert sum(i.opcode is Opcode.ADD and i.dtype is DType.I32
                   for i in insts) == 3
        run_workload(byte_pairs())  # bit-exact against the reference

    def test_snapshot_programs_lower_unchanged(self):
        """The example and seeded stress programs lower to the recorded text.

        ``data/dsl_programs.txt`` was recorded before the statement-scoped
        address reuse existed; none of these programs indexes one buffer
        twice by the same variable expression in one statement, so the
        reuse must leave them byte-identical (their timed results are
        pinned elsewhere through these exact programs).
        """
        names = list(DSL_WORKLOADS) + stress_batch(48, seed=0)
        text = "\n".join(program_to_text(WORKLOAD_REGISTRY[name]().program)
                         for name in names)
        snapshot = Path(__file__).parent / "data" / "dsl_programs.txt"
        assert text == snapshot.read_text()

    def test_stress_programs_round_trip_bit_identically(self):
        for name in stress_batch(8):
            program = WORKLOAD_REGISTRY[name]().program
            rebuilt = assemble(program_to_text(program))
            assert rebuilt.instructions == program.instructions, name


class TestLaunchDerivation:
    def test_unaligned_size_gets_padded_guarded_launch(self):
        workload = dsl_clip()  # n=500, SIMD16 -> padded to 512
        (step,) = workload.steps
        assert step.global_size == 512
        assert step.scalars[GUARD_PARAM] == 500
        assert GUARD_PARAM in [p.name for p in workload.program.params]
        opcodes = [i.opcode for i in workload.program.instructions]
        assert Opcode.IF in opcodes and Opcode.ENDIF in opcodes

    def test_aligned_size_has_no_guard(self):
        workload = dsl_axpy()  # n=512 is already a SIMD16 multiple
        (step,) = workload.steps
        assert step.global_size == 512
        assert GUARD_PARAM not in step.scalars
        assert GUARD_PARAM not in [p.name for p in workload.program.params]

    def test_guard_leaves_padding_lanes_untouched(self):
        workload = dsl_clip()
        run_workload(workload)  # raises on checker mismatch
        # The checker itself only covers indices the reference wrote;
        # the tail beyond n must still be pristine zeros.
        assert not workload.buffers["y"][500:].any()


class TestCheckers:
    @pytest.mark.parametrize("name", sorted(DSL_KERNELS))
    def test_examples_pass_their_synthesized_checker(self, name):
        run_workload(DSL_KERNELS[name]())

    def test_checker_detects_tampering(self):
        workload = dsl_axpy()
        run_workload(workload, verify=False)
        workload.buffers["y"][3] += 1.0
        with pytest.raises(AssertionError, match="buffer 'y'"):
            workload.verify()

    def test_scalar_override_flows_into_launch_and_checker(self):
        workload = dsl_axpy(a=3.0)
        (step,) = workload.steps
        assert step.scalars["a"] == 3.0
        run_workload(workload)

    def test_seed_override_changes_data(self):
        assert not np.array_equal(dsl_axpy(seed=1).buffers["x"],
                                  dsl_axpy(seed=2).buffers["x"])

    def test_unknown_override_rejected(self):
        with pytest.raises(BuildError, match="no parameter"):
            dsl_axpy(bogus=1)

    def test_category_is_derived_from_the_trace(self):
        assert dsl_axpy().category == "coherent"
        assert dsl_clip().category == "divergent"


class TestReferenceSemantics:
    """The synthesized checker must mirror interp edge cases exactly."""

    def test_integer_division_by_zero_yields_zero(self):
        @dsl.kernel(n=64, name="_div0")
        def div0(k, x=dsl.In("i32"), y=dsl.Out("i32")):
            i = k.gid
            y[i] = x[i] / (x[i] & 3)

        run_workload(div0())

    def test_shift_amounts_clamp_like_hardware(self):
        @dsl.kernel(n=64, name="_shifts")
        def shifts(k, x=dsl.In("i32"), y=dsl.Out("i32")):
            i = k.gid
            y[i] = (x[i] << (x[i] & 63)) ^ (x[i] >> (x[i] & 63))

        run_workload(shifts())

    def test_scatter_collisions_resolve_highest_lane_wins(self):
        @dsl.kernel(n=64, name="_scatter")
        def scatter(k, x=dsl.In("i32"), y=dsl.Out("i32")):
            y[x[k.gid] & 7] = k.gid

        run_workload(scatter())

    def test_divergent_gather_leaves_disabled_lanes_alone(self):
        @dsl.kernel(n=64, name="_gather")
        def gather(k, x=dsl.In("f32"), y=dsl.InOut("f32")):
            i = k.gid
            with k.if_(k.lane < 5):
                y[i] = x[(i * 3 + 1) & 63] + y[i]

        run_workload(gather())


    @pytest.mark.parametrize("offset, error, text", [
        (2, ValueError, "misaligned f32 access at byte offset 2"),
        (4, IndexError,
         "lane 15 reads byte offset 256, beyond surface of 256 bytes"),
    ], ids=["unaligned", "out-of-range"])
    def test_bad_byte_offset_raises_the_simulator_error(self, offset, error,
                                                        text):
        @dsl.kernel(n=64, name="_bad_bytes")
        def bad_bytes(k, x=dsl.In("f32"), y=dsl.Out("f32")):
            y[k.gid] = x.bytes[(k.gid << 2) + offset]

        workload = bad_bytes()
        with pytest.raises(error) as info:
            workload.check(workload.buffers)
        assert str(info.value) == text
        with pytest.raises(error) as info:
            run_workload(bad_bytes(), GpuConfig(engine="interp"))
        assert str(info.value) == text


class TestBuildErrors:
    def test_exit_code(self):
        assert exit_code_for(BuildError("boom")) == 9

    def test_context_carries_kernel_and_instruction(self):
        err = BuildError("bad operand", kernel="k1", instruction_index=7)
        assert "kernel 'k1'" in str(err)
        assert "instruction 7" in str(err)
        assert (err.kernel, err.instruction_index) == ("k1", 7)

    def test_builder_rejects_bad_simd_width(self):
        from repro.isa.builder import KernelBuilder

        with pytest.raises(BuildError, match="SIMD width"):
            KernelBuilder("k", simd_width=7)

    def test_else_outside_if(self):
        @dsl.kernel(n=16)
        def bad(k, y=dsl.Out("f32")):
            y[k.gid] = 1.0
            k.else_()

        with pytest.raises(BuildError, match="else_"):
            bad()

    def test_break_outside_loop(self):
        @dsl.kernel(n=16)
        def bad(k, y=dsl.Out("f32")):
            y[k.gid] = 1.0
            k.break_if(k.lane < 2)

        with pytest.raises(BuildError, match="break_if"):
            bad()

    def test_store_to_readonly_buffer(self):
        @dsl.kernel(n=16)
        def bad(k, x=dsl.In("f32")):
            x[k.gid] = 1.0

        with pytest.raises(BuildError, match="declared In"):
            bad()

    def test_kernel_without_stores(self):
        @dsl.kernel(n=16)
        def bad(k, x=dsl.In("f32")):
            k.var(x[k.gid])

        with pytest.raises(BuildError, match="never stores"):
            bad()

    def test_literal_var_needs_dtype(self):
        @dsl.kernel(n=16)
        def bad(k, y=dsl.Out("f32")):
            y[k.gid] = k.var(0)

        with pytest.raises(BuildError, match="explicit dtype"):
            bad()

    def test_condition_is_not_a_python_bool(self):
        @dsl.kernel(n=16)
        def bad(k, y=dsl.Out("f32")):
            if k.lane < 2:  # must be k.if_(...)
                y[k.gid] = 1.0

        with pytest.raises(BuildError, match="k.if_"):
            bad()


class TestStressGenerator:
    def test_batch_names_are_distinct(self):
        names = stress_batch(20)
        assert len(set(names)) == 20
        assert all(parse_stress_name(n) is not None for n in names)

    def test_name_round_trip(self):
        name = stress_name(seed=7, depth=3, entropy=80, trip=2, mem=1)
        assert name == "stress_s7_d3_e80_t2_m1"
        assert parse_stress_name(name) == {
            "seed": 7, "depth": 3, "entropy": 80, "trip": 2, "mem": 1}
        assert parse_stress_name("stress_bogus") is None
        assert parse_stress_name("va") is None

    def test_parameter_validation(self):
        with pytest.raises(BuildError, match="power of two"):
            stress_workload(n=100)
        with pytest.raises(BuildError, match="entropy"):
            stress_workload(entropy=101)
        with pytest.raises(BuildError, match="depth"):
            stress_workload(depth=9)

    def test_rebuilds_are_identical(self):
        name = stress_name(seed=11, depth=3, entropy=60, trip=2, mem=1)
        first, second = (WORKLOAD_REGISTRY[name]() for _ in range(2))
        assert program_to_text(first.program) == \
            program_to_text(second.program)
        for buf in first.buffers:
            np.testing.assert_array_equal(first.buffers[buf],
                                          second.buffers[buf])

    def test_twenty_scenarios_pass_and_produce_distinct_results(self):
        digests = set()
        for name in stress_batch(20):
            workload = WORKLOAD_REGISTRY[name]()
            run_workload(workload)  # checker raises on any mismatch
            digests.add(digest_buffers(workload.buffers))
        assert len(digests) == 20

    def test_stress_batch_bit_identical_across_policies_and_engines(self):
        """The paper's core invariant: compaction is timing-only.

        Every generated kernel must produce bit-identical buffers under
        raw/ivb/bcc/scc and under both execution engines; cycle counts
        must be ordered scc <= bcc <= ivb <= raw.  ``run_verify`` checks
        all of that and engine parity per workload.
        """
        from repro.runner import Runner
        from repro.verify import run_verify

        names = stress_batch(20)
        report = run_verify(names, base_config=GpuConfig(),
                            runner=Runner(workers=1, cache=False),
                            fuzz_iterations=0, engine_parity=True)
        failed = [v.workload for v in report.workloads if not v.passed]
        assert not failed, f"verification failures: {failed}"
        assert report.exit_code() == 0
        assert len(report.workloads) == 2 * len(names)  # policies + parity


class TestRegistryIntegration:
    def test_dsl_kernels_are_registered(self):
        for name in DSL_WORKLOADS:
            assert name in WORKLOAD_REGISTRY
            assert WORKLOAD_REGISTRY[name]().name == name

    @pytest.mark.parametrize("name",
                             ["scnv", "dct8", "fwht", "bp", "hmm", "srad"])
    def test_table1_kernels_are_defined_in_the_dsl(self, name):
        assert WORKLOAD_REGISTRY[name]().frontend == "dsl"

    def test_dsl_kernels_stay_out_of_paper_groups(self):
        assert not set(DSL_WORKLOADS) & set(DIVERGENT_WORKLOADS)

    def test_dynamic_stress_lookup(self):
        name = stress_name(seed=5, depth=1, entropy=10, trip=0, mem=0)
        assert name in WORKLOAD_REGISTRY
        assert WORKLOAD_REGISTRY[name]().name == name
        assert WORKLOAD_REGISTRY.get("stress_bogus") is None
        assert "stress_bogus" not in WORKLOAD_REGISTRY

    def test_dynamic_names_never_pollute_iteration(self):
        size = len(WORKLOAD_REGISTRY)
        name = stress_name(seed=99, depth=2, entropy=40, trip=1, mem=1)
        WORKLOAD_REGISTRY[name]  # dynamic resolution must not memoize
        assert len(WORKLOAD_REGISTRY) == size
        assert name not in list(WORKLOAD_REGISTRY)

    def test_stress_factory_accepts_overrides(self):
        name = stress_name(seed=5, depth=1, entropy=10, trip=0, mem=0)
        workload = WORKLOAD_REGISTRY[name](seed=6)
        assert workload.name == stress_name(seed=6, depth=1, entropy=10,
                                            trip=0, mem=0)

    def test_stress_jobs_are_cacheable(self):
        from repro.runner import Job

        name = stress_name(seed=5, depth=1, entropy=10, trip=0, mem=0)
        assert Job(name, GpuConfig()).cacheable
        assert not Job("fault_spin", GpuConfig()).cacheable


class TestKernelsCommand:
    def test_listing_shows_both_frontends(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        rows = {l.split()[0]: l.split()[1] for l in out.splitlines()
                if l.split()}
        assert rows["dsl_axpy"] == "dsl"
        assert rows["va"] == "dsl"  # a registry kernel defined in repro.dsl
        assert rows["bfs"] == "asm"  # multi-launch: stays hand-built

    def test_inspect_with_asm(self, capsys):
        assert main(["kernels", "dsl_axpy", "--asm"]) == 0
        out = capsys.readouterr().out
        assert "frontend       dsl" in out
        assert "mad.f32" in out

    def test_inspect_dynamic_stress_name(self, capsys):
        assert main(["kernels", "stress_s1_d1_e10_t0_m0"]) == 0
        out = capsys.readouterr().out
        assert "stress_s1_d1_e10_t0_m0" in out

    def test_inspect_json(self, capsys):
        import json

        assert main(["kernels", "dsl_axpy", "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["frontend"] == "dsl"
        assert info["instructions"] == 6
        assert "asm" in info

    def test_unknown_name(self, capsys):
        assert main(["kernels", "nonexistent"]) == 2

    def test_verify_accepts_stress_flag(self, capsys):
        assert main(["verify", "--stress", "2", "--fuzz", "0",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "stress_s0_d1_e0_t0_m0" in out

    def test_run_accepts_dynamic_stress_name(self, capsys):
        assert main(["run", "stress_s1_d1_e10_t0_m0",
                     "--policy", "scc"]) == 0
        assert "total_cycles" in capsys.readouterr().out
