"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — enumerate simulator workloads and synthetic traces;
* ``kernels`` — list every kernel with its frontend (hand-assembled or
  Python DSL) and instruction count, or inspect one kernel — including
  generated ``stress_*`` names — down to its lowered assembly;
* ``run WORKLOAD`` — simulate one workload and print its metrics;
* ``profile NAME_OR_FILE`` — profile a built-in or on-disk mask trace;
* ``mask HEX`` — analyse one execution mask: cycles under every policy,
  the BCC micro-op schedule, and the SCC swizzle schedule;
* ``experiment NAME`` — regenerate one paper table/figure (``--jobs N``
  parallelizes, ``--no-cache`` bypasses the shared result cache);
* ``sweep`` — run an arbitrary workload x policy x memory grid through
  the shared runner and emit one table/JSON artifact.  ``--resume``
  continues an interrupted sweep from its checkpoint journal.
* ``verify`` — cross-policy differential verification: run workloads
  under all four compaction policies, assert functional identity and
  cycle ordering, fuzz the analytic core, and emit a violation report.
* ``serve`` — long-lived simulation daemon: an HTTP/JSON job service on
  top of the shared runner (submit/status/result/trace/cancel), with
  in-flight dedup, a durable job journal, and graceful SIGTERM drain.
* ``client`` — talk to a running ``serve`` daemon: submit jobs, watch
  them, fetch results/traces/metrics.  Transient failures (connection
  reset, 429, 503) retry transparently with jittered backoff.
* ``worker`` — join a ``serve`` daemon's fleet: long-poll for queued
  jobs, execute them under a heartbeat-renewed lease, and publish
  typed results back.  Run any number, on any number of hosts.

Failures are typed (:mod:`repro.errors`) and map to stable exit codes:
0 success, 1 verification mismatch, 2 usage error, 3 simulated deadlock,
4 wall-clock timeout, 5 worker crash, 6 cache corruption, 7 service
error, 9 kernel build error, 130 interrupt.  Every failure prints a one-line diagnosis on
stderr — never a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .analysis.report import format_table
from .core.bcc import bcc_schedule
from .core.policy import CompactionPolicy, cycles_all_policies, parse_policy
from .core.quads import format_mask
from .core.scc import scc_schedule
from .errors import SimulationError, describe, exit_code_for
from .gpu.config import GpuConfig
from .kernels import (
    DIVERGENT_WORKLOADS,
    DSL_WORKLOADS,
    FAULT_WORKLOADS,
    RODINIA_WORKLOADS,
    WORKLOAD_REGISTRY,
    run_workload,
)
from .trace.format import read_trace
from .trace.profiler import profile_trace
from .trace.workloads import TRACE_PROFILES, trace_events


def _runner_from_args(args, progress=False):
    """Build a shared-engine Runner from the common CLI flags."""
    from .runner import JobEvent, Runner

    def _report(event: JobEvent) -> None:
        note = f" [{describe(event.error)}]" if event.error is not None else ""
        print(f"[{event.index}/{event.total}] {event.job.workload} "
              f"{event.status} ({event.elapsed:.2f}s){note}", file=sys.stderr)

    cache = False if getattr(args, "no_cache", False) else (
        getattr(args, "cache_dir", None) or "default")
    return Runner(workers=getattr(args, "jobs", 1) or 1,
                  cache=cache,
                  verify=not getattr(args, "no_verify", False),
                  progress=_report if progress else None,
                  timeout=getattr(args, "timeout", None),
                  retries=getattr(args, "retries", 2))


def _add_runner_flags(parser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for simulations (default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-sim)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-job wall-clock budget in seconds; hung "
                             "jobs die with a timeout error (default: none)")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retries for transient worker failures "
                             "(default 2); deterministic failures — "
                             "deadlock, verification, timeout — never retry")


def _cmd_list(_args) -> int:
    rows = []
    for name, factory in sorted(WORKLOAD_REGISTRY.items()):
        workload = factory()
        rows.append([name, "simulator", workload.category,
                     workload.description])
    for name, profile in sorted(TRACE_PROFILES.items()):
        rows.append([name, "trace", "divergent",
                     f"synthetic trace, {profile.num_instructions} instructions"])
    print(format_table(["name", "source", "class", "description"], rows))
    return 0


def _cmd_kernels(args) -> int:
    from .isa.asm import program_to_text

    if args.name:
        factory = WORKLOAD_REGISTRY.get(args.name)
        if factory is None:
            print(f"unknown kernel {args.name!r}; `kernels` lists them "
                  f"(generated stress_sS_dD_eE_tT_mM names also resolve)",
                  file=sys.stderr)
            return 2
        workload = factory()
        program = workload.program
        info: Dict[str, Any] = {
            "name": workload.name,
            "frontend": workload.frontend,
            "class": workload.category,
            "simd_width": program.simd_width,
            "instructions": len(program.instructions),
            "registers": program.num_regs,
            "params": [{"name": p.name, "kind": p.kind.name.lower()}
                       for p in program.params],
            "buffers": {bname: {"dtype": str(data.dtype),
                                "size": int(data.size)}
                        for bname, data in sorted(workload.buffers.items())},
            "launches": (len(workload.steps)
                         if isinstance(workload.steps, list) else "host-loop"),
            "description": workload.description,
        }
        if args.asm or args.json:
            info["asm"] = program_to_text(program)
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
            return 0
        for key in ("name", "frontend", "class", "simd_width", "instructions",
                    "registers", "launches", "description"):
            print(f"{key:14} {info[key]}")
        print(f"{'params':14} " + ", ".join(
            f"{p['name']} ({p['kind']})" for p in info["params"]))
        for bname, spec in info["buffers"].items():
            print(f"{'buffer':14} {bname}: {spec['dtype']}[{spec['size']}]")
        if args.asm:
            print()
            print(info["asm"])
        return 0

    rows = []
    records = []
    for name, factory in sorted(WORKLOAD_REGISTRY.items()):
        workload = factory()
        frontend = workload.frontend
        count = len(workload.program.instructions)
        rows.append([name, frontend, workload.category,
                     workload.program.simd_width, count,
                     workload.description])
        records.append({"name": name, "frontend": frontend,
                        "class": workload.category,
                        "simd_width": workload.program.simd_width,
                        "instructions": count})
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    print(format_table(
        ["name", "frontend", "class", "simd", "insts", "description"], rows))
    return 0


def _cmd_run(args) -> int:
    if args.workload not in WORKLOAD_REGISTRY:
        print(f"unknown workload {args.workload!r}; try `list`", file=sys.stderr)
        return 2
    config = GpuConfig(policy=parse_policy(args.policy), engine=args.engine)
    if args.max_cycles:
        config = dataclasses.replace(config, max_cycles=args.max_cycles)
    if args.dc2:
        config = config.with_memory(dc_lines_per_cycle=2.0)
    if args.perfect_l3:
        config = config.with_memory(perfect_l3=True)
    telemetry_level = args.telemetry
    if args.trace_out and telemetry_level == "off":
        telemetry_level = "trace"  # a trace file needs events collected
    if telemetry_level != "off":
        config = config.with_telemetry(telemetry_level)
    profiler = None
    if args.profile or args.profile_out:
        from .telemetry import HostProfiler

        profiler = HostProfiler()
    try:
        if profiler is not None:
            profiler.start()
        try:
            result = run_workload(WORKLOAD_REGISTRY[args.workload](), config,
                                  verify=not args.no_verify,
                                  host_seconds=args.timeout,
                                  hostprof=profiler)
        finally:
            if profiler is not None:
                profiler.stop()
    except AssertionError as exc:
        # VerificationError and plain reference-check AssertionErrors:
        # keep the verbose, actionable message (exit code 1 either way).
        detail = f": {exc}" if str(exc) else ""
        print(f"verification FAILED for workload {args.workload!r}{detail}\n"
              f"(simulated output does not match the host reference; "
              f"use --no-verify to inspect timing anyway)", file=sys.stderr)
        return 1
    if args.json:
        # The same typed payload the serve daemon stores for a job, so
        # daemon-vs-foreground bit-identity is `diff` on two files.
        from .serve.jobs import JobSpec, result_payload

        spec = JobSpec(workload=args.workload, policy=args.policy,
                       engine=args.engine, telemetry=telemetry_level,
                       dc_lines_per_cycle=2.0 if args.dc2 else 1.0,
                       perfect_l3=args.perfect_l3,
                       max_cycles=args.max_cycles,
                       verify=not args.no_verify)
        text = json.dumps(result_payload(spec, result), indent=2,
                          sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text + "\n")
    if args.json != "-":
        summary = result.summary(telemetry=telemetry_level != "off")
        rows = [[key, value] for key, value in sorted(summary.items())]
        print(format_table(["metric", "value"], rows,
                           title=f"{args.workload} under {config.policy.value}"))
        for policy in (CompactionPolicy.BCC, CompactionPolicy.SCC):
            print(f"{policy.value.upper()} EU-cycle reduction vs IVB: "
                  f"{result.eu_cycle_reduction_pct(policy):.1f}%")
    if args.trace_out:
        from .telemetry import export_chrome_trace

        count = export_chrome_trace(result.telemetry, args.trace_out,
                                    kernel=args.workload,
                                    policy=config.policy.value)
        print(f"wrote {count} trace event(s) to {args.trace_out} "
              f"(load in Perfetto / chrome://tracing)", file=sys.stderr)
    if profiler is not None:
        _print_profile(profiler, args, result)
    return 0


def _print_profile(profiler, args, result) -> None:
    """Render the host profile; optionally write a BENCH_*.json record."""
    report = profiler.report()
    rows = [[name, entry["samples"], f"{entry['share']:.1%}",
             f"{entry['est_seconds']:.3f}s"]
            for name, entry in report["subsystems"].items()]
    throughput = result.total_cycles / (report["host_seconds"] or 1e-12)
    print(format_table(["subsystem", "samples", "share", "est time"], rows,
                       title=f"host profile ({report['host_seconds']:.2f}s, "
                             f"{report['samples']} samples, "
                             f"{throughput:,.0f} cycles/s)"))
    opcode_rows = [[name, entry["calls"], f"{entry['seconds']:.4f}s"]
                   for name, entry in list(report["opcodes"].items())[:10]]
    if opcode_rows:
        print(format_table(["opcode", "issues", "host time"], opcode_rows,
                           title="host time by opcode (top 10)"))
    if args.profile_out:
        from .telemetry.hostprof import write_bench_json

        seconds = report["host_seconds"] or 1e-12
        report["workload"] = args.workload
        report["policy"] = args.policy
        report["total_cycles"] = result.total_cycles
        report["instructions"] = result.instructions
        report["cycles_per_second"] = result.total_cycles / seconds
        report["instructions_per_second"] = result.instructions / seconds
        path = write_bench_json(args.profile_out, [report],
                                label=f"run:{args.workload}")
        print(f"wrote host profile to {path}", file=sys.stderr)


def _cmd_profile(args) -> int:
    if args.trace in TRACE_PROFILES:
        events = trace_events(args.trace)
        name = args.trace
    elif Path(args.trace).exists():
        events = read_trace(args.trace)
        name = Path(args.trace).name
    else:
        print(f"no built-in trace or file named {args.trace!r}", file=sys.stderr)
        return 2
    if args.widen > 1:
        from .trace.transform import widen_trace

        events = widen_trace(events, args.widen)
        name = f"{name} (widened x{args.widen})"
    profile = profile_trace(name, events)
    rows = [[key, value] for key, value in sorted(profile.summary().items())]
    print(format_table(["metric", "value"], rows, title=f"trace {name}"))
    return 0


def _cmd_mask(args) -> int:
    mask = int(args.mask, 16)
    width = args.width
    print(f"mask {format_mask(mask, width)}  (SIMD{width})")
    cycles = cycles_all_policies(mask, width, min_cycles=1)
    print(format_table(
        ["policy", "execution cycles"],
        [[policy.value, count] for policy, count in cycles.items()],
    ))
    schedule = bcc_schedule(mask, width)
    issued = ", ".join(f"Q{op.quad}(en={op.lane_enable:04b})"
                       for op in schedule.ops) or "(nothing)"
    print(f"BCC micro-ops: {issued}; suppressed quads: "
          f"{list(schedule.suppressed)}")
    scc = scc_schedule(mask, width)
    for index, cycle in enumerate(scc.cycles):
        slots = ", ".join(
            f"out{slot.out_lane}<-Q{slot.quad}.L{slot.src_lane}"
            + ("*" if slot.swizzled else "")
            for slot in cycle)
        print(f"SCC cycle {index}: {slots}")
    print(f"SCC: {scc.cycle_count} cycles, {scc.swizzle_count} swizzles"
          + (" (BCC-only path)" if scc.bcc_only else ""))
    return 0


def _cmd_experiment(args) -> int:
    from . import experiments

    name = args.name
    runner = _runner_from_args(args)
    if name == "table2":
        print(experiments.table2.render(
            experiments.table2.table2_analytic(), "Table 2 (analytic)"))
    elif name == "fig08":
        print(experiments.fig08.render(
            experiments.fig08.fig8_analytic(), "Figure 8 (analytic)"))
    elif name == "area":
        print(experiments.area.render(experiments.area.area_data()))
    elif name == "fig03":
        print(experiments.fig03.render(
            experiments.fig03.fig3_data(runner=runner)))
    elif name == "fig09":
        print(experiments.fig09.render(
            experiments.fig09.fig9_data(runner=runner)))
    elif name == "fig10":
        print(experiments.fig10.render(
            experiments.fig10.fig10_data(runner=runner)))
    elif name == "fig11":
        print(experiments.fig11.render(
            experiments.fig11.fig11_data(runner=runner)))
    elif name == "fig12":
        print(experiments.fig12.render(
            experiments.fig12.fig12_data(runner=runner)))
    elif name == "table4":
        print(experiments.table4.render(
            experiments.table4.table4_data(runner=runner)))
    else:
        print(f"unknown experiment {name!r}", file=sys.stderr)
        return 2
    stats = runner.last_stats
    if stats.unique:
        print(f"runner: {stats.unique} unique simulation(s), "
              f"{stats.cache_hits} cached, {stats.executed} executed "
              f"in {stats.wall_seconds:.2f}s", file=sys.stderr)
    return 0


#: Named workload groups accepted by ``sweep --workloads``.  The fault
#: injection entries are registry members but never part of a group —
#: they must be named explicitly to run.
WORKLOAD_GROUPS = {
    "all": lambda: tuple(n for n in WORKLOAD_REGISTRY
                         if n not in FAULT_WORKLOADS),
    "divergent": lambda: DIVERGENT_WORKLOADS,
    "rodinia": lambda: RODINIA_WORKLOADS,
    "dsl": lambda: DSL_WORKLOADS,
}


def _with_stress(names: List[str], args) -> List[str]:
    """Append `--stress N` generated scenario names to a workload list."""
    count = getattr(args, "stress", 0) or 0
    if count:
        from .dsl.stress import stress_batch

        names = names + stress_batch(count, seed=args.stress_seed)
    return list(dict.fromkeys(names))


def _add_stress_flags(parser) -> None:
    parser.add_argument("--stress", type=int, default=0, metavar="N",
                        help="also include N generated divergence-stress "
                             "kernels (repro.dsl.stress); with no "
                             "--workloads, run only the stress batch")
    parser.add_argument("--stress-seed", type=int, default=0, metavar="S",
                        help="base seed for the --stress batch (default 0)")


def _sweep_workloads(spec: str) -> List[str]:
    names: List[str] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token in WORKLOAD_GROUPS:
            names.extend(WORKLOAD_GROUPS[token]())
        else:
            names.append(token)
    return list(dict.fromkeys(names))


def _sweep_record(point, result) -> Dict[str, Any]:
    """One deterministic result row of the sweep artifact."""
    name, policy, dc, pl3 = point
    return {
        "workload": name,
        "policy": policy.value,
        "dc_lines_per_cycle": dc,
        "perfect_l3": pl3,
        "total_cycles": result.total_cycles,
        "eu_cycles": result.eu_cycles,
        "instructions": result.instructions,
        "buffers_digest": result.buffers_digest,
        "simd_efficiency": round(result.simd_efficiency, 6),
        "l3_hit_rate": round(result.l3_hit_rate, 6),
        "memory_divergence": round(result.memory_divergence, 6),
        "bcc_eu_reduction_pct": round(
            result.eu_cycle_reduction_pct(CompactionPolicy.BCC), 3),
        "scc_eu_reduction_pct": round(
            result.eu_cycle_reduction_pct(CompactionPolicy.SCC), 3),
    }


def _cmd_sweep(args) -> int:
    from .runner import CheckpointJournal, Job, stable_digest

    spec = args.workloads
    if spec is None:
        spec = "" if args.stress else "divergent"
    names = _with_stress(_sweep_workloads(spec), args)
    unknown = [n for n in names if n not in WORKLOAD_REGISTRY]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}; try `list`",
              file=sys.stderr)
        return 2
    if not names:
        print("nothing to sweep: empty workload list", file=sys.stderr)
        return 2
    try:
        policies = [parse_policy(p) for p in args.policies.split(",") if p]
        dc_values = [float(v) for v in args.dc.split(",") if v]
    except ValueError as exc:
        print(f"bad sweep grid: {exc}", file=sys.stderr)
        return 2
    pl3_values = {"off": (False,), "on": (True,),
                  "both": (False, True)}[args.perfect_l3]
    if args.resume and (not args.json or args.json == "-"):
        print("--resume needs --json PATH (the journal lives beside the "
              "artifact)", file=sys.stderr)
        return 2
    telemetry_level = args.telemetry
    if args.trace_dir and telemetry_level == "off":
        telemetry_level = "trace"  # per-job traces need events collected

    jobs: Dict[Any, Job] = {}
    for name in names:
        for policy in policies:
            for dc in dc_values:
                for pl3 in pl3_values:
                    config = GpuConfig(policy=policy, engine=args.engine)
                    if args.max_cycles:
                        config = dataclasses.replace(
                            config, max_cycles=args.max_cycles)
                    config = config.with_memory(
                        dc_lines_per_cycle=dc, perfect_l3=pl3)
                    if telemetry_level != "off":
                        config = config.with_telemetry(telemetry_level)
                    jobs[(name, policy, dc, pl3)] = Job(name, config)
    grid = {
        "workloads": names,
        "policies": [p.value for p in policies],
        "dc_lines_per_cycle": dc_values,
        "perfect_l3": sorted(pl3_values),
        "engine": args.engine,
    }
    grid_key = stable_digest({**grid, "verify": not args.no_verify,
                              "max_cycles": args.max_cycles or 0,
                              "telemetry": telemetry_level})

    # Checkpoint journal: written beside the JSON artifact whenever one
    # is requested, consumed by --resume, deleted on success.  Only
    # successful jobs are journaled — failures rerun on resume.
    journal = None
    resumed: Dict[str, Any] = {}
    if args.json and args.json != "-":
        journal = CheckpointJournal(Path(args.json + ".journal"), grid_key)
        if args.resume:
            loaded = journal.load()
            if loaded is None:
                print("sweep: no matching journal to resume; starting fresh",
                      file=sys.stderr)
                # A stale file (e.g. a different grid's journal) must be
                # discarded, or append() would keep extending it under
                # the old header and the next --resume would ignore
                # every checkpoint written this run.
                journal.discard()
            else:
                resumed = loaded
                print(f"sweep: resuming, {len(resumed)}/{len(jobs)} job(s) "
                      f"already journaled", file=sys.stderr)
        else:
            journal.discard()  # a stale journal must not leak into this run

    by_key = {job.key: point for point, job in jobs.items()}
    pending = {point: job for point, job in jobs.items()
               if job.key not in resumed}
    interrupt_after = int(os.environ.get("REPRO_FAULT_INTERRUPT_AFTER", 0)
                          or 0)
    completed_this_run = 0

    runner = _runner_from_args(args, progress=args.progress)
    outer_progress = runner.progress

    def _journaling_progress(event) -> None:
        nonlocal completed_this_run
        if outer_progress is not None:
            outer_progress(event)
        if event.status in ("cached", "executed"):
            completed_this_run += 1
            if journal is not None and event.result is not None:
                point = by_key[event.job.key]
                journal.append(event.job.key,
                               {"record": _sweep_record(point, event.result)})
            if interrupt_after and completed_this_run >= interrupt_after:
                # Deterministic interruption point for the fault-injection
                # CI job: stand-in for a Ctrl-C / SIGINT mid-sweep.
                raise KeyboardInterrupt
    runner.progress = _journaling_progress

    try:
        results = runner.run(pending.values(), strict=False)
    except KeyboardInterrupt:
        done = len(resumed) + completed_this_run
        print(f"\nsweep interrupted: {done}/{len(jobs)} job(s) completed"
              + (f"; resume with --resume --json {args.json}"
                 if journal is not None else ""), file=sys.stderr)
        return 130
    stats = runner.last_stats

    records: List[Dict[str, Any]] = []
    failures: List[Dict[str, Any]] = []
    exit_code = 0
    for point, job in jobs.items():  # grid order: deterministic artifact
        if job.key in resumed:
            records.append(resumed[job.key]["record"])
        elif job in results:
            records.append(_sweep_record(point, results[job]))
        elif job.key in stats.failures:
            error = stats.failures[job.key]
            name, policy, dc, pl3 = point
            failures.append({
                "workload": name,
                "policy": policy.value,
                "dc_lines_per_cycle": dc,
                "perfect_l3": pl3,
                "error": describe(error),
                "exit_code": exit_code_for(error),
            })
            if exit_code == 0:
                exit_code = exit_code_for(error)

    if args.trace_dir:
        from .telemetry import export_chrome_trace

        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        exported = skipped = 0
        for point, job in jobs.items():
            result = results.get(job)
            if result is None or result.telemetry is None:
                skipped += 1  # failed, or resumed from a journal record
                continue
            name, policy, dc, pl3 = point
            stem = f"{name}_{policy.value}_dc{dc:g}" + ("_pl3" if pl3 else "")
            export_chrome_trace(result.telemetry, trace_dir / f"{stem}.json",
                                kernel=name, policy=policy.value)
            exported += 1
        note = f"; {skipped} without telemetry skipped" if skipped else ""
        print(f"sweep: wrote {exported} Chrome trace(s) to {trace_dir}{note}",
              file=sys.stderr)

    artifact = {"grid": grid, "results": records, "failures": failures}
    if args.json:
        text = json.dumps(artifact, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text + "\n")
    if args.json != "-":
        rows = [[r["workload"], r["policy"], f"{r['dc_lines_per_cycle']:g}",
                 "yes" if r["perfect_l3"] else "no", r["total_cycles"],
                 r["eu_cycles"], f"{r['simd_efficiency']:.3f}",
                 f"{r['scc_eu_reduction_pct']:.1f}%"]
                for r in records]
        print(format_table(
            ["workload", "policy", "DC", "PL3", "total cycles", "EU cycles",
             "SIMD eff", "SCC EU reduction"],
            rows, title="sweep results"))
    summary = (f"sweep: {len(jobs)} job(s), {stats.unique} unique, "
               f"{stats.cache_hits} cached, {stats.executed} executed in "
               f"{stats.wall_seconds:.2f}s with {runner.workers} worker(s)")
    if stats.executed:
        summary += (f"; {stats.host_seconds:.2f}s simulating at "
                    f"{stats.cycles_per_second:,.0f} cycles/s, "
                    f"{stats.queue_seconds:.2f}s queued")
    if stats.functional_passes or stats.functional_reused:
        summary += (f", {stats.functional_passes} functional passes, "
                    f"{stats.functional_reused} reused")
    if resumed:
        summary += f"; {len(resumed)} resumed from journal"
    if failures:
        summary += f"; {len(failures)} FAILED"
    print(summary, file=sys.stderr)
    for failure in failures:
        print(f"  FAILED {failure['workload']}/{failure['policy']}: "
              f"{failure['error']}", file=sys.stderr)
    if journal is not None and not failures:
        journal.discard()  # sweep complete: the artifact is the record
    return exit_code


def _cmd_verify(args) -> int:
    from .verify import run_verify

    spec = "all" if args.all else args.workloads
    if spec is None:
        spec = "" if args.stress else "all"
    names = _with_stress(_sweep_workloads(spec), args)
    unknown = [n for n in names if n not in WORKLOAD_REGISTRY]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}; try `list`",
              file=sys.stderr)
        return 2
    faulty = [n for n in names if n in FAULT_WORKLOADS]
    if faulty:
        print(f"fault-injection workload(s) cannot be verified: "
              f"{', '.join(faulty)}", file=sys.stderr)
        return 2
    if not names:
        print("nothing to verify: empty workload list", file=sys.stderr)
        return 2
    if args.fuzz < 0:
        print(f"--fuzz must be >= 0, got {args.fuzz}", file=sys.stderr)
        return 2

    runner = _runner_from_args(args, progress=args.progress)
    base_config = GpuConfig(engine=args.engine)
    report = run_verify(names, base_config=base_config, runner=runner,
                        fuzz_iterations=args.fuzz,
                        seed=args.seed, timed_tolerance=args.timed_tolerance,
                        engine_parity=not args.no_engine_parity)

    if args.json:
        text = json.dumps(report.as_artifact(), indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            Path(args.json).write_text(text + "\n")
    if args.json != "-":
        from .verify.engines import PARITY_SUFFIX

        rows = []
        parity_rows = []
        for verdict in report.workloads:
            status = ("ok" if verdict.passed else
                      "ERROR" if verdict.error is not None else
                      f"FAIL({len(verdict.violations)})")
            if verdict.workload.endswith(PARITY_SUFFIX):
                cycles = {eng: verdict.metrics.get(eng, {}).get(
                    "total_cycles", "-") for eng in ("interp", "fast")}
                parity_rows.append(
                    [verdict.workload[:-len(PARITY_SUFFIX)],
                     cycles["interp"], cycles["fast"], status])
                continue
            cycles = {policy: verdict.metrics.get(policy, {}).get(
                "total_cycles", "-") for policy in ("raw", "ivb", "bcc", "scc")}
            rows.append([verdict.workload, cycles["raw"], cycles["ivb"],
                         cycles["bcc"], cycles["scc"], status])
        print(format_table(
            ["workload", "raw", "ivb", "bcc", "scc", "status"],
            rows, title="cross-policy differential verification"))
        if parity_rows:
            print(format_table(
                ["workload", "interp", "fast", "status"], parity_rows,
                title="engine parity (interp vs fast total cycles)"))
        prop_rows = [[prop.name, prop.cases,
                      "ok" if prop.passed else f"FAIL({len(prop.violations)})"]
                     for prop in report.properties]
        if prop_rows:
            print(format_table(["property", "cases", "status"], prop_rows,
                               title="property/fuzz checks"))
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return report.exit_code()


def _cmd_serve(args) -> int:
    import asyncio

    from .serve.http import serve_forever
    from .serve.service import JobService

    data_dir = Path(args.data_dir).expanduser()
    runner = _runner_from_args(args)
    service = JobService(
        data_dir,
        runner=runner,
        queue_limit=args.queue_limit,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        batch_max=args.batch_max,
        lease_ttl=args.lease_ttl,
        max_assignments=args.max_assignments,
        local_exec=not args.no_local_exec,
    )
    recovered = int(service.counters.get("serve.jobs.recovered"))
    if recovered:
        print(f"serve: recovered {recovered} unresolved job(s) from the "
              f"journal", file=sys.stderr)

    def _ready(bound) -> None:
        host, port = bound[0], bound[1]
        print(f"serve: listening on http://{host}:{port} "
              f"(data dir {data_dir}, {runner.workers} worker(s), "
              f"queue limit {args.queue_limit})", file=sys.stderr, flush=True)

    code = asyncio.run(serve_forever(service, args.host, args.port,
                                     ready=_ready))
    pending = len(service.list_jobs(state="queued"))
    note = f"; {pending} queued job(s) journaled for restart" if pending else ""
    print(f"serve: drained cleanly{note}", file=sys.stderr)
    return code


def _client_spec(args) -> Dict[str, Any]:
    """Assemble the POST /jobs payload from ``client submit`` flags."""
    params: Dict[str, Any] = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"bad --param {item!r}; expected KEY=VALUE")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    spec: Dict[str, Any] = {
        "workload": args.workload,
        "policy": args.policy,
        "engine": args.engine,
        "telemetry": args.telemetry,
        "verify": not args.no_verify,
    }
    if args.dc2:
        spec["dc_lines_per_cycle"] = 2.0
    if args.perfect_l3:
        spec["perfect_l3"] = True
    if args.max_cycles:
        spec["max_cycles"] = args.max_cycles
    if params:
        spec["params"] = params
    return spec


def _cmd_client(args) -> int:
    from .serve.client import ServeClient

    client = ServeClient(host=args.host, port=args.port,
                         client_id=args.client_id,
                         max_retries=0 if args.no_retry else args.max_retries)

    def emit(body: Any, path: Optional[str] = None) -> None:
        text = json.dumps(body, indent=2, sort_keys=True)
        if path:
            Path(path).write_text(text + "\n")
            print(f"wrote {path}", file=sys.stderr)
        else:
            print(text)

    action = args.action
    if action == "submit":
        status = client.submit(_client_spec(args))
        if args.watch:
            status = client.watch(status["id"], timeout=args.watch_timeout)
            if status["state"] == "done":
                emit(client.result(status["id"]), args.out)
            else:
                emit(status)
            return 0 if status["state"] == "done" else (
                status.get("exit_code") or 7)
        emit(status)
    elif action == "status":
        emit(client.status(args.job_id))
    elif action == "watch":
        status = client.watch(args.job_id, timeout=args.watch_timeout)
        emit(status)
        return 0 if status["state"] == "done" else (
            status.get("exit_code") or 7)
    elif action == "result":
        body = client.result(args.job_id)
        emit(body, args.out)
        if body.get("state") == "failed":
            return body.get("exit_code") or 7
    elif action == "trace":
        emit(client.trace(args.job_id), args.out)
    elif action == "cancel":
        emit(client.cancel(args.job_id))
    elif action == "jobs":
        emit(client.jobs(state=args.state, workload=args.workload,
                         limit=args.limit))
    elif action == "metrics":
        emit(client.metrics())
    elif action == "health":
        emit(client.health())
    return 0


def _cmd_worker(args) -> int:
    from .serve.client import ServeClient
    from .serve.worker import ServeWorker

    client = ServeClient(host=args.host, port=args.port,
                         timeout=max(args.poll_wait + 30.0, 60.0),
                         max_retries=0 if args.no_retry else args.max_retries)
    worker = ServeWorker(
        client,
        name=args.name,
        max_jobs=args.max_jobs,
        poll_wait=args.poll_wait,
        heartbeat_interval=args.heartbeat_interval,
        exit_on_drain=args.exit_on_drain,
        idle_exit=args.idle_exit,
        startup_timeout=args.startup_timeout,
    )
    worker.install_signal_handlers()
    return worker.run()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SIMD intra-warp compaction reproduction (ISCA 2013)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and traces")

    kernels = sub.add_parser(
        "kernels",
        help="list every kernel with its frontend (asm or Python DSL), or "
             "inspect one kernel down to its lowered assembly")
    kernels.add_argument("name", nargs="?", default=None,
                         help="kernel to inspect (registry names and "
                              "generated stress_* names both resolve); "
                              "omit for the full listing")
    kernels.add_argument("--asm", action="store_true",
                         help="with NAME: also print the kernel's assembly "
                              "(the round-trippable repro.isa.asm text)")
    kernels.add_argument("--json", action="store_true",
                         help="emit JSON to stdout instead of the table")

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("workload")
    run.add_argument("--policy", default="ivb",
                     help="raw | ivb | bcc | scc (default ivb)")
    run.add_argument("--engine", choices=("interp", "fast"), default="interp",
                     help="execution core: 'interp' interleaves functional "
                          "execution with the cycle loop; 'fast' runs a "
                          "batched functional pass first and replays its "
                          "trace through the same timing model (default "
                          "interp)")
    run.add_argument("--dc2", action="store_true",
                     help="double data-cluster bandwidth (Figure 11 DC2)")
    run.add_argument("--perfect-l3", action="store_true",
                     help="infinite L3 (Figure 12 PL3)")
    run.add_argument("--no-verify", action="store_true",
                     help="skip the host reference check")
    run.add_argument("--timeout", type=float, default=None, metavar="SEC",
                     help="wall-clock budget; a hung simulation dies with "
                          "a timeout error instead of spinning forever")
    run.add_argument("--max-cycles", type=int, default=None, metavar="N",
                     help="override the simulator cycle budget (deadlock "
                          "watchdog; default 20M)")
    run.add_argument("--telemetry", choices=("off", "counters", "trace"),
                     default="off",
                     help="telemetry level: 'counters' adds telemetry.* "
                          "rows to the metrics table, 'trace' also records "
                          "per-cycle events (default off)")
    run.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write a Chrome-trace JSON of the run to PATH "
                          "(implies --telemetry trace; open in Perfetto)")
    run.add_argument("--json", metavar="PATH", default=None,
                     help="write the typed result payload (digest, counts, "
                          "stats fingerprints — the same document `repro "
                          "serve` stores per job) to PATH, '-' for stdout")
    run.add_argument("--profile", action="store_true",
                     help="profile the simulator itself: host time by "
                          "subsystem and by opcode")
    run.add_argument("--profile-out", metavar="PATH", default=None,
                     help="also write the host profile as a BENCH_*.json "
                          "record (implies --profile)")

    profile = sub.add_parser("profile", help="profile an execution-mask trace")
    profile.add_argument("trace", help="built-in trace name or file path")
    profile.add_argument("--widen", type=int, default=1,
                         help="fuse N warps into wider ones before "
                              "profiling (models a wider machine)")

    mask = sub.add_parser("mask", help="analyse one execution mask")
    mask.add_argument("mask", help="hex mask, e.g. F0F0")
    mask.add_argument("--width", type=int, default=16)

    experiment = sub.add_parser("experiment", help="regenerate a paper artifact")
    experiment.add_argument(
        "name",
        help="fig03|fig08|fig09|fig10|fig11|fig12|table2|table4|area")
    _add_runner_flags(experiment)

    sweep = sub.add_parser(
        "sweep",
        help="run a workload x policy x memory grid through the shared runner")
    sweep.add_argument("--workloads", default=None,
                       help="comma-separated workload names and/or groups "
                            "(all, divergent, rodinia, dsl); generated "
                            "stress_* names resolve too; default: divergent")
    _add_stress_flags(sweep)
    sweep.add_argument("--engine", choices=("interp", "fast"),
                       default="interp",
                       help="execution core for every grid point (see "
                            "`run --engine`; cache keys include it)")
    sweep.add_argument("--policies", default="ivb,bcc,scc",
                       help="comma-separated policies (default ivb,bcc,scc)")
    sweep.add_argument("--dc", default="1.0",
                       help="comma-separated data-cluster lines/cycle "
                            "values (default 1.0; Figure 11 DC2 is 2.0)")
    sweep.add_argument("--perfect-l3", choices=("off", "on", "both"),
                       default="off",
                       help="include the infinite-L3 memory model in the grid")
    sweep.add_argument("--json", metavar="PATH", default=None,
                       help="write the JSON artifact to PATH ('-' for stdout "
                            "instead of the table)")
    sweep.add_argument("--no-verify", action="store_true",
                       help="skip host reference checks")
    sweep.add_argument("--progress", action="store_true",
                       help="report per-job progress on stderr")
    sweep.add_argument("--resume", action="store_true",
                       help="continue an interrupted sweep from the "
                            "checkpoint journal next to --json PATH")
    sweep.add_argument("--max-cycles", type=int, default=None, metavar="N",
                       help="override the simulator cycle budget for every "
                            "job in the grid")
    sweep.add_argument("--telemetry", choices=("off", "counters", "trace"),
                       default="off",
                       help="telemetry level for every job in the grid; the "
                            "level is part of each job's cache key")
    sweep.add_argument("--trace-dir", metavar="DIR", default=None,
                       help="write one Chrome-trace JSON per grid point to "
                            "DIR (implies --telemetry trace)")
    _add_runner_flags(sweep)

    verify = sub.add_parser(
        "verify",
        help="differentially verify every compaction policy against the "
             "others and fuzz the analytic core")
    verify.add_argument("--workloads", default=None,
                        help="comma-separated workload names and/or groups "
                             "(all, divergent, rodinia, dsl); generated "
                             "stress_* names resolve too; default: all")
    _add_stress_flags(verify)
    verify.add_argument("--all", action="store_true",
                        help="verify every non-fault registry workload "
                             "(same as --workloads all)")
    verify.add_argument("--fuzz", type=int, default=500, metavar="N",
                        help="random cases per property family (default "
                             "500; 0 disables the fuzz layer)")
    verify.add_argument("--seed", type=int, default=0,
                        help="fuzzer seed, recorded in the artifact for "
                             "reproduction (default 0)")
    verify.add_argument("--json", metavar="PATH", default=None,
                        help="write the violation-report artifact to PATH "
                             "('-' for stdout instead of the tables)")
    verify.add_argument("--timed-tolerance", type=float, default=0.01,
                        metavar="FRAC",
                        help="relative slack for the timed total-cycle "
                             "ordering check (default 0.01; analytic EU-"
                             "cycle ordering is always exact)")
    verify.add_argument("--engine", choices=("interp", "fast"),
                        default="interp",
                        help="execution core the cross-policy runs use "
                             "(default interp)")
    verify.add_argument("--no-engine-parity", action="store_true",
                        help="skip the interp-vs-fast engine-parity layer "
                             "(on by default: each workload runs under "
                             "both engines and must agree bit-for-bit)")
    verify.add_argument("--progress", action="store_true",
                        help="report per-job progress on stderr")
    _add_runner_flags(verify)

    serve = sub.add_parser(
        "serve",
        help="run the simulation daemon: an HTTP/JSON job service on top "
             "of the shared runner")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="bind port (default 8642; 0 picks a free port)")
    serve.add_argument("--data-dir",
                       default=os.environ.get("REPRO_SERVE_DIR",
                                              "~/.cache/repro-sim/serve"),
                       help="daemon state directory: job journal + exported "
                            "traces (default $REPRO_SERVE_DIR or "
                            "~/.cache/repro-sim/serve)")
    serve.add_argument("--queue-limit", type=int, default=64, metavar="N",
                       help="max queued jobs before submissions get 503 "
                            "(default 64)")
    serve.add_argument("--rate-limit", type=float, default=None,
                       metavar="PER_SEC",
                       help="per-client submission rate limit; exceeding "
                            "clients get 429 (default: unlimited)")
    serve.add_argument("--rate-burst", type=int, default=None, metavar="N",
                       help="token-bucket burst depth for --rate-limit")
    serve.add_argument("--batch-max", type=int, default=32, metavar="N",
                       help="max queued jobs dispatched to the runner as "
                            "one batch (default 32)")
    serve.add_argument("--no-verify", action="store_true",
                       help="skip host reference checks for served jobs")
    serve.add_argument("--lease-ttl", type=float, default=30.0, metavar="SEC",
                       help="worker lease time-to-live; a job whose worker "
                            "misses this many seconds of heartbeats is "
                            "reassigned (default 30)")
    serve.add_argument("--max-assignments", type=int, default=3, metavar="N",
                       help="times a job may be handed out (lease grants + "
                            "local pickups) before it fails as a worker "
                            "crash (default 3)")
    serve.add_argument("--no-local-exec", action="store_true",
                       help="never execute jobs in-process; act purely as "
                            "the fleet coordinator for `repro worker` "
                            "processes")
    _add_runner_flags(serve)

    client = sub.add_parser(
        "client", help="talk to a running `repro serve` daemon")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=8642)
    client.add_argument("--client-id", default="",
                        help="client identity sent as X-Repro-Client "
                             "(rate limits apply per identity)")
    client.add_argument("--max-retries", type=int, default=3, metavar="N",
                        help="transparent retries for transient failures — "
                             "connection reset, 429, 503 (default 3)")
    client.add_argument("--no-retry", action="store_true",
                        help="fail fast on transient errors (same as "
                             "--max-retries 0)")
    csub = client.add_subparsers(dest="action", required=True)

    submit = csub.add_parser("submit", help="submit one job")
    submit.add_argument("workload")
    submit.add_argument("--policy", default="ivb")
    submit.add_argument("--engine", choices=("interp", "fast"),
                        default="interp")
    submit.add_argument("--telemetry", choices=("off", "counters", "trace"),
                        default="off")
    submit.add_argument("--dc2", action="store_true",
                        help="double data-cluster bandwidth")
    submit.add_argument("--perfect-l3", action="store_true")
    submit.add_argument("--max-cycles", type=int, default=None, metavar="N")
    submit.add_argument("--no-verify", action="store_true")
    submit.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="workload factory parameter (JSON value or "
                             "bare string; repeatable)")
    submit.add_argument("--watch", action="store_true",
                        help="block until the job finishes and print its "
                             "result")
    submit.add_argument("--watch-timeout", type=float, default=300.0,
                        metavar="SEC")
    submit.add_argument("--out", metavar="PATH", default=None,
                        help="with --watch: write the result JSON to PATH")

    status = csub.add_parser("status", help="one job's status")
    status.add_argument("job_id")

    watch = csub.add_parser("watch", help="poll a job to completion")
    watch.add_argument("job_id")
    watch.add_argument("--watch-timeout", type=float, default=300.0,
                       metavar="SEC")

    result = csub.add_parser("result", help="fetch a finished job's result")
    result.add_argument("job_id")
    result.add_argument("--out", metavar="PATH", default=None)

    trace = csub.add_parser("trace", help="fetch a job's Chrome trace")
    trace.add_argument("job_id")
    trace.add_argument("--out", metavar="PATH", default=None)

    cancel = csub.add_parser("cancel", help="cancel a queued job")
    cancel.add_argument("job_id")

    jobs = csub.add_parser("jobs", help="list the daemon's jobs")
    jobs.add_argument("--state", default=None,
                      help="queued|running|done|failed|cancelled")
    jobs.add_argument("--workload", default=None)
    jobs.add_argument("--limit", type=int, default=None)

    csub.add_parser("metrics", help="service counters and gauges")
    csub.add_parser("health", help="daemon liveness")

    worker = sub.add_parser(
        "worker",
        help="join a `repro serve` daemon's fleet: lease queued jobs, "
             "execute them under heartbeat, publish typed results")
    worker.add_argument("--host", default="127.0.0.1",
                        help="daemon address (default 127.0.0.1)")
    worker.add_argument("--port", type=int, default=8642)
    worker.add_argument("--name", default=None, metavar="NAME",
                        help="fleet-unique worker identity (default "
                             "<hostname>-<pid>)")
    worker.add_argument("--max-jobs", type=int, default=0, metavar="N",
                        help="exit after executing N jobs (default: work "
                             "forever)")
    worker.add_argument("--poll-wait", type=float, default=5.0, metavar="SEC",
                        help="long-poll duration per lease request "
                             "(default 5)")
    worker.add_argument("--heartbeat-interval", type=float, default=None,
                        metavar="SEC",
                        help="lease renewal period (default: a third of the "
                             "TTL the daemon grants)")
    worker.add_argument("--exit-on-drain", action="store_true",
                        help="exit 0 when the daemon reports it is draining")
    worker.add_argument("--idle-exit", type=float, default=None, metavar="SEC",
                        help="exit 0 after SEC seconds without work")
    worker.add_argument("--startup-timeout", type=float, default=60.0,
                        metavar="SEC",
                        help="exit 7 if the daemon is never reachable for "
                             "SEC seconds (default 60)")
    worker.add_argument("--max-retries", type=int, default=3, metavar="N",
                        help="transparent retries for transient failures "
                             "(default 3)")
    worker.add_argument("--no-retry", action="store_true",
                        help="fail fast on transient errors")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "kernels": _cmd_kernels,
        "run": _cmd_run,
        "profile": _cmd_profile,
        "mask": _cmd_mask,
        "experiment": _cmd_experiment,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "serve": _cmd_serve,
        "client": _cmd_client,
        "worker": _cmd_worker,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130
    except SimulationError as exc:
        # Typed failures (deadlock, timeout, worker crash, cache
        # corruption, verification) exit with their own code and a
        # one-line diagnosis — never a traceback.
        print(describe(exc), file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
