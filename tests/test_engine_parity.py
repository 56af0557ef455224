"""Differential tests of the two execution engines (interp vs fast).

The fast engine (batched functional pass + timing replay) must be
behaviorally indistinguishable from the interleaved interpreter:
identical output buffers, instruction counts, CompactionStats
fingerprints, total cycles (for mask-deterministic kernels), and
identical memory-fault semantics (misalignment checked before range,
first offending enabled lane wins).  These tests pin that equivalence on
seeded random programs, hand-built fault kernels, and registry
workloads.
"""

import random

import numpy as np
import pytest

from repro.gpu import GpuConfig, GpuSimulator
from repro.isa.builder import KernelBuilder
from repro.isa.registers import FlagRef
from repro.isa.types import CmpOp, DType
from repro.kernels import WORKLOAD_REGISTRY
from repro.kernels.workload import run_workload
from repro.verify.differential import _stats_fingerprint
from repro.verify.engines import run_engine_parity, verify_engine_results


def _run_both(program, global_size, make_buffers, scalars=None,
              local_size=None, **config_kwargs):
    """Run *program* under both engines on fresh buffers; return results."""
    out = {}
    for engine in ("interp", "fast"):
        buffers = make_buffers()
        config = GpuConfig(engine=engine, **config_kwargs)
        result = GpuSimulator(config).run(
            program, global_size, local_size=local_size,
            buffers=buffers, scalars=dict(scalars or {}))
        out[engine] = (result, buffers)
    return out["interp"], out["fast"]


def _assert_parity(interp, fast):
    """Full behavioral-identity check between two engine runs."""
    interp_result, interp_buffers = interp
    fast_result, fast_buffers = fast
    for name in interp_buffers:
        np.testing.assert_array_equal(
            interp_buffers[name], fast_buffers[name],
            err_msg=f"buffer {name!r} diverges between engines")
    assert fast_result.instructions == interp_result.instructions
    assert fast_result.total_cycles == interp_result.total_cycles
    assert (_stats_fingerprint(fast_result.alu_stats)
            == _stats_fingerprint(interp_result.alu_stats))
    assert (_stats_fingerprint(fast_result.simd_stats)
            == _stats_fingerprint(interp_result.simd_stats))


def _random_program(seed):
    """Seeded random kernel: ALU mix, divergent control flow, memory ops.

    Deliberately exercises the trickier replay paths — predication,
    IF/ELSE reconvergence, a bounded divergent loop, int shifts beyond
    the 32-bit width (the clamp regression), and gather/scatter with a
    write-back at the end so functional divergence is observable.
    """
    rng = random.Random(seed)
    width = rng.choice((8, 16))
    b = KernelBuilder(f"fuzz{seed}", width)
    surf = b.surface_arg("data")
    gid = b.global_id()
    addr = b.shl(b.vreg(DType.I32), gid, 2)
    x = b.load(b.vreg(DType.F32), addr, surf)
    live_f = [x]
    live_i = [gid]
    for _ in range(rng.randrange(8, 20)):
        roll = rng.random()
        if roll < 0.45:
            op = rng.choice(("add", "sub", "mul", "min_", "max_", "mad"))
            a, c = rng.choice(live_f), rng.choice(live_f)
            if op == "mad":
                r = b.mad(b.vreg(DType.F32), a, c, rng.choice(live_f))
            else:
                r = getattr(b, op)(b.vreg(DType.F32), a, c)
            live_f.append(r)
        elif roll < 0.65:
            op = rng.choice(("and_", "or_", "xor", "add", "shl", "shr"))
            a = rng.choice(live_i)
            c = (rng.choice(live_i) if rng.random() < 0.5
                 else rng.randrange(0, 40))
            live_i.append(getattr(b, op)(b.vreg(DType.I32), a, c))
        elif roll < 0.8:
            flag = b.cmp(rng.choice(list(CmpOp)), rng.choice(live_i),
                         rng.randrange(0, width * 4), flag=FlagRef(1))
            live_f.append(b.sel(b.vreg(DType.F32), flag,
                                rng.choice(live_f), rng.choice(live_f)))
        else:
            flag = b.cmp(CmpOp.LT, gid, rng.randrange(1, width * 4),
                         flag=FlagRef(1))
            live_f.append(b.mul(b.vreg(DType.F32), rng.choice(live_f),
                                1.0009765625, pred=flag))
    # Divergent IF/ELSE region with per-branch stores.
    branch = b.cmp(CmpOp.GE, gid, rng.randrange(1, width * 3),
                   flag=FlagRef(1))
    with b.if_(branch):
        b.store(b.add(b.vreg(DType.F32), rng.choice(live_f), 1.0),
                addr, surf)
        b.else_()
        b.store(b.sub(b.vreg(DType.F32), rng.choice(live_f), 2.0),
                addr, surf)
    # Bounded divergent loop: lanes exit at different trip counts.
    it = b.mov(b.vreg(DType.I32), 0)
    limit = b.and_(b.vreg(DType.I32), gid, 3)
    b.do_()
    b.add(it, it, 1)
    again = b.cmp(CmpOp.LT, it, limit, flag=FlagRef(1))
    b.while_(again)
    b.store(b.cvt(b.vreg(DType.F32), it), addr, surf)
    return b.finish(), width


class TestRandomProgramParity:
    """Seeded random kernels run bit- and cycle-identically on both engines."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_kernel_parity(self, seed):
        program, width = _random_program(seed)
        global_size = width * 18  # multiple EUs, partial last workgroup

        def buffers():
            rng = np.random.default_rng(seed)
            return {"data": rng.standard_normal(
                global_size, dtype=np.float32) + 2.0}

        _assert_parity(*_run_both(program, global_size, buffers))

    @pytest.mark.parametrize("seed", (0, 3, 7))
    @pytest.mark.parametrize("policy", ("raw", "scc"))
    def test_parity_holds_across_policies(self, seed, policy):
        from repro.core.policy import parse_policy

        program, width = _random_program(seed)
        global_size = width * 12

        def buffers():
            rng = np.random.default_rng(seed)
            return {"data": rng.standard_normal(
                global_size, dtype=np.float32) + 2.0}

        _assert_parity(*_run_both(program, global_size, buffers,
                                  policy=parse_policy(policy)))

    def test_partial_tail_thread_parity(self):
        """A ragged NDRange (partial dispatch mask) replays identically."""
        program, width = _random_program(5)
        global_size = width * 7 + 3

        def buffers():
            # Round the surface up so in-range lanes stay in range.
            return {"data": np.linspace(
                1.0, 2.0, width * 8, dtype=np.float32)}

        _assert_parity(*_run_both(program, global_size, buffers))


def _random_wide_program(seed):
    """Seeded random kernel over the ops :func:`_random_program` never
    draws, on 32- and 64-bit types.

    Draws ``div`` (integer divisors include zero), ``abs_``, ``floor``,
    ``not_``, ``sqrt``, ``rsqrt``, ``sin``, ``cos``, ``exp``, ``log``,
    ``pow_`` and F32->I32 ``cvt``, some of them predicated or inside a
    divergent IF/ELSE and a loop that lanes leave through BREAK.  I64
    and F64 values span two register slots per lane, and every value is
    written out through a store of its own type, so each engine's
    register reads, masked writes and 64-bit gathers/scatters are what
    the comparison sees.  F32->I32 ``cvt`` only converts values known to
    be finite and in range (the float-to-int cast of NaN is undefined).
    """
    rng = random.Random(seed)
    width = rng.choice((8, 16))
    b = KernelBuilder(f"wide{seed}", width)
    data = b.surface_arg("data")
    out = {dtype: b.surface_arg(f"out_{dtype.label}")
           for dtype in (DType.F32, DType.I32, DType.F64, DType.I64)}
    gid = b.global_id()
    addr4 = b.shl(b.vreg(DType.I32), gid, 2)
    addr8 = b.shl(b.vreg(DType.I32), gid, 3)
    x = b.load(b.vreg(DType.F32), addr4, data)
    # tame: finite values of bounded magnitude, safe to cvt to I32.
    tame = [x, b.sin(b.vreg(DType.F32), x)]
    live = {
        DType.F32: list(tame),
        DType.I32: [gid],
        DType.F64: [b.cvt(b.vreg(DType.F64), x)],
        DType.I64: [b.cvt(b.vreg(DType.I64), gid)],
    }
    unary_f = ("sqrt", "rsqrt", "sin", "cos", "exp", "log", "abs_", "floor")

    def draw(dtype, pred=None):
        pick = rng.choice
        if dtype.is_float:
            roll = rng.random()
            if roll < 0.5:
                op = pick(unary_f)
                src = pick(live[dtype])
                r = getattr(b, op)(b.vreg(dtype), src, pred=pred)
                if dtype is DType.F32 and src in tame and op in (
                        "sin", "cos", "abs_", "floor"):
                    tame.append(r)
            elif roll < 0.75:
                r = b.div(b.vreg(dtype), pick(live[dtype]),
                          pick(live[dtype] + [0.0, 3.0]), pred=pred)
            else:
                r = b.pow_(b.vreg(dtype), pick(live[dtype]),
                           pick(live[dtype] + [0.5, 2.0, -1.0]), pred=pred)
        else:
            roll = rng.random()
            if roll < 0.4:
                # Divisors 0..7: integer divide by zero yields 0.
                divisor = b.and_(b.vreg(dtype), pick(live[dtype]), 7)
                r = b.div(b.vreg(dtype), pick(live[dtype]), divisor,
                          pred=pred)
            elif roll < 0.6:
                r = b.not_(b.vreg(dtype), pick(live[dtype]), pred=pred)
            elif roll < 0.8:
                r = getattr(b, pick(("abs_", "floor")))(
                    b.vreg(dtype), pick(live[dtype]), pred=pred)
            elif dtype is DType.I32:
                r = b.cvt(b.vreg(DType.I32), pick(tame), pred=pred)
            else:
                r = b.cvt(b.vreg(DType.I64), pick(live[DType.I32]),
                          pred=pred)
        live[dtype].append(r)

    dtypes = list(live)
    for _ in range(rng.randrange(10, 20)):
        pred = None
        if rng.random() < 0.25:
            pred = b.cmp(CmpOp.LT, gid, rng.randrange(1, width * 4),
                         flag=FlagRef(1))
        draw(rng.choice(dtypes), pred)
    # Divergent IF/ELSE region computing in both arms.
    branch = b.cmp(CmpOp.GE, gid, rng.randrange(1, width * 3),
                   flag=FlagRef(1))
    with b.if_(branch):
        draw(rng.choice(dtypes))
        b.else_()
        draw(rng.choice(dtypes))
    # Divergent loop: lanes BREAK out at different trip counts.
    it = b.mov(b.vreg(DType.I32), 0)
    limit = b.and_(b.vreg(DType.I32), gid, 7)
    b.do_()
    b.add(it, it, 1)
    leave = b.cmp(CmpOp.GE, it, limit, flag=FlagRef(0))
    b.break_(leave)
    draw(rng.choice(dtypes))
    again = b.cmp(CmpOp.LT, it, 6, flag=FlagRef(1))
    b.while_(again)
    for dtype, surf in out.items():
        addr = addr4 if dtype.size == 4 else addr8
        b.store(rng.choice(live[dtype]), addr, surf)
    return b.finish(), width


class TestWideOpParity:
    """The ops and 64-bit types the first fuzz generator never draws:
    both engines share the op formulas, so this pins how each one reads,
    masks and writes the registers around them."""

    @pytest.mark.parametrize("seed", range(10))
    def test_wide_random_kernel_parity(self, seed):
        program, width = _random_wide_program(seed)
        global_size = width * 10

        def buffers():
            rng = np.random.default_rng(seed)
            # Mostly positive inputs, so sqrt/log/pow yield numbers.
            data = rng.standard_normal(global_size, dtype=np.float32) + 2
            return {"data": data,
                    **{f"out_{dtype.label}": np.zeros(
                        global_size, dtype=dtype.np_dtype)
                       for dtype in (DType.F32, DType.I32, DType.F64,
                                     DType.I64)}}

        interp, fast = _run_both(program, global_size, buffers)
        _assert_parity(interp, fast)
        for name, values in interp[1].items():
            # Bit for bit: assert_array_equal takes any NaN as equal.
            assert values.tobytes() == fast[1][name].tobytes(), name


def _fault_program(width, offsets, dtype=DType.F32, store=False):
    """Kernel that gathers (or scatters) from fixed per-lane offsets."""
    b = KernelBuilder("fault", width)
    surf = b.surface_arg("data")
    gid = b.global_id()
    lane_off = b.vreg(DType.I32)
    # Build the offset vector lane by lane: off = table[lid].
    table = b.surface_arg("offsets")
    b.load(lane_off, b.shl(b.vreg(DType.I32), gid, 2), table)
    if store:
        b.store(b.cvt(b.vreg(DType.F32), gid), lane_off, surf)
    else:
        b.load(b.vreg(dtype), lane_off, surf)
    return b.finish()


def _fault_from_both(width, offsets, store=False):
    """Run the fault kernel under both engines; return raised exceptions."""
    errors = {}
    for engine in ("interp", "fast"):
        buffers = {
            "data": np.ones(width, dtype=np.float32),
            "offsets": np.asarray(offsets, dtype=np.int32),
        }
        config = GpuConfig(engine=engine)
        with pytest.raises((ValueError, IndexError)) as excinfo:
            GpuSimulator(config).run(_fault_program(width, offsets,
                                                    store=store),
                                     width, buffers=buffers)
        errors[engine] = excinfo.value
    return errors["interp"], errors["fast"]


class TestMemoryFaultParity:
    """Gather/scatter error semantics agree exactly between engines."""

    def test_out_of_range_gather(self):
        interp, fast = _fault_from_both(4, [0, 4, 4096, 8])
        assert type(interp) is type(fast) is IndexError
        assert str(interp) == str(fast)
        assert "lane 2" in str(interp)

    def test_misaligned_gather(self):
        interp, fast = _fault_from_both(4, [0, 6, 8, 12])
        assert type(interp) is type(fast) is ValueError
        assert str(interp) == str(fast)
        assert "byte offset 6" in str(interp)

    def test_misalignment_checked_before_range(self):
        # Offset 4097 is both misaligned and out of range: both engines
        # must report the alignment fault, not the range fault.
        interp, fast = _fault_from_both(4, [0, 4097, 4096, 8])
        assert type(interp) is type(fast) is ValueError
        assert str(interp) == str(fast)

    def test_first_offending_lane_wins(self):
        # Lanes 1 and 3 are both out of range: lane 1 must be reported.
        interp, fast = _fault_from_both(4, [0, 4096, 8, 8192])
        assert type(interp) is type(fast) is IndexError
        assert str(interp) == str(fast)
        assert "lane 1" in str(interp)

    def test_negative_offset_out_of_range(self):
        interp, fast = _fault_from_both(4, [0, -4, 8, 12])
        assert type(interp) is type(fast) is IndexError
        assert str(interp) == str(fast)

    def test_scatter_fault_parity(self):
        interp, fast = _fault_from_both(4, [0, 4, 8, 4096], store=True)
        assert type(interp) is type(fast) is IndexError
        assert str(interp) == str(fast)
        assert "writes" in str(interp)


class TestWorkloadParity:
    """Registry workloads agree between engines end to end."""

    @pytest.mark.parametrize("name", ("va", "nested_l2", "bsearch"))
    def test_mask_deterministic_workload(self, name):
        results = {}
        for engine in ("interp", "fast"):
            config = GpuConfig(engine=engine)
            results[engine] = run_workload(WORKLOAD_REGISTRY[name](),
                                           config, verify=True)
        interp, fast = results["interp"], results["fast"]
        assert fast.buffers_digest == interp.buffers_digest
        assert fast.buffers_digest is not None
        assert verify_engine_results(name, interp, fast,
                                     mask_deterministic=True) == []

    def test_mask_nondeterministic_workload_digest_only(self):
        # Level-synchronous BFS races benignly: digests and instruction
        # counts must match, cycles only within tolerance.
        results = {}
        for engine in ("interp", "fast"):
            config = GpuConfig(engine=engine)
            results[engine] = run_workload(WORKLOAD_REGISTRY["bfs"](),
                                           config, verify=True)
        interp, fast = results["interp"], results["fast"]
        assert fast.buffers_digest == interp.buffers_digest
        assert verify_engine_results("bfs", interp, fast,
                                     mask_deterministic=False) == []

    def test_verify_engine_results_flags_divergence(self):
        import dataclasses

        config = GpuConfig()
        result = run_workload(WORKLOAD_REGISTRY["va"](), config, verify=True)
        tampered = dataclasses.replace(
            result, total_cycles=result.total_cycles + 1,
            buffers_digest="0" * 64, instructions=result.instructions + 7)
        violations = verify_engine_results("va", result, tampered,
                                           mask_deterministic=True)
        checks = {v.check for v in violations}
        assert "engine-functional-identity" in checks
        assert "engine-instruction-count" in checks
        assert "engine-total-cycles" in checks

    def test_run_engine_parity_end_to_end(self, tmp_path):
        from repro.runner import Runner

        runner = Runner(workers=1, cache=tmp_path / "cache")
        verdicts = run_engine_parity(["va"], GpuConfig(), runner)
        assert len(verdicts) == 1
        assert verdicts[0].passed, verdicts[0].violations
        assert verdicts[0].workload == "va@engines"
        assert (verdicts[0].metrics["interp"]["total_cycles"]
                == verdicts[0].metrics["fast"]["total_cycles"])
