"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {sweep-cold|verify-parity|serve-fleet}
        [--seed N] [--seconds S] [--trace 0|1]

``sweep-cold``     a Fig. 9/10 divergent sweep plus a seeded stress slice x
                   ivb/bcc/scc on the fast engine, through one in-process
                   Runner(workers=1) on an empty ResultCache per round.
``verify-parity``  repro.verify.run_verify on six workloads, interp base
                   engine, engine parity on, fuzz seeded by --seed.
``serve-fleet``    repro serve --no-local-exec + one repro worker on
                   loopback; one client keeps two seeded jobs outstanding,
                   30% of them resubmissions served from the fleet cache.

The timed phase runs rounds until --seconds are used up (at least one,
three for serve-fleet) and reports medians over rounds.  Every time is in
reference-host seconds: the run interleaves fixed calibration slices with
its work and rescales by them (see ``common.HostClock``), which cancels
the host's drift.  Every output is checked against ``expected.json``;
any failure makes ``correct`` false and the exit code 1.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of one traced round
(spans around each layer's public functions, see ``tracing.py``) plus the
tracing overhead against the untraced rounds run just before and after
it.  A human-readable table goes to stderr either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import expected  # noqa: E402
import serve_fleet  # noqa: E402
from common import (CAL_REFERENCE_S, BenchError, HostClock,  # noqa: E402
                    host_info, log, median, percentile, require_program,
                    run_rounds, scratch_dir)

WORKLOADS = ("sweep-cold", "verify-parity", "serve-fleet")
#: Set-up samples the in-process workloads take (fresh interpreters).
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Size:
    """How much work a round does; only the self-check shrinks it."""

    sweep_workloads: int = len(expected.SWEEP_WORKLOADS)
    stress_pick: int = expected.STRESS_PICK
    verify_workloads: int = len(expected.VERIFY_WORKLOADS)
    serve_jobs: int = serve_fleet.JOBS_PER_ROUND
    #: serve-fleet runs at least this many rounds (each a set-up sample).
    serve_min_rounds: int = 3


FULL = Size()
SMOKE = Size(sweep_workloads=2, stress_pick=1, verify_workloads=1,
             serve_jobs=24, serve_min_rounds=1)

Metrics = Dict[str, Tuple[float, str]]

#: Per-layer metrics read from the daemon's ``/metrics`` counters.
SERVE_COUNTERS = {
    "serve.queue_wait_s": "serve.queue.wait_seconds",
    "serve.exec_s": "serve.exec.seconds",
    "serve.cache.fetch": "serve.cache.fetch",
    "serve.cache.fetch_hits": "serve.cache.fetch_hits",
    "serve.cache.published": "serve.cache.published",
    "serve.leases.granted": "serve.leases.granted",
}


def end_to_end(rounds, setups: List[float], setup_factor: float,
               clock: HostClock) -> Metrics:
    """The end-to-end metrics from raw rounds, in reference-host units.

    Rates and latency percentiles are taken per round, then the median
    over rounds; peak RSS is over set-up and the first round, so it does
    not grow with the number of rounds that fit.
    """
    factor = clock.factor()
    log(f"raw host seconds: rounds {[round(r.wall, 4) for r in rounds]}, "
        f"set-ups {[round(x, 4) for x in setups]}; calibration slice "
        f"mean {clock.mean_slice() * 1000:.4f} ms over {len(clock.slices)}")

    def reference(r) -> List[float]:
        if r.latency_slices:
            return [x * CAL_REFERENCE_S / c
                    for x, c in zip(r.latencies, r.latency_slices)]
        return [x * factor for x in r.latencies]

    def latency_ms(q: float) -> float:
        return median(percentile(reference(r), q) for r in rounds) * 1000.0

    return {
        "setup_s": (median(setups) * setup_factor, "s"),
        "wall_s": (median(r.wall for r in rounds) * factor, "s"),
        "cpu_s": (median(r.cpu for r in rounds) * factor, "s"),
        "sim_kips": (median(r.instructions / r.wall for r in rounds)
                     / factor / 1000.0, "kinst/s"),
        "jobs_per_s": (median(r.jobs / r.wall for r in rounds) / factor,
                       "1/s"),
        "submit_to_result_p50_ms": (latency_ms(50), "ms"),
        "submit_to_result_p95_ms": (latency_ms(95), "ms"),
        "peak_rss_mb": (rounds[0].peak_rss_mb, "MiB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def per_layer(values: Dict[str, float], wall: float, other: float,
              untraced_wall: float, calibration_s: float) -> Metrics:
    """Every per-layer metric (zero where a workload never reaches the
    layer), plus the traced wall, ``other`` and the tracing overhead."""
    from tracing import CALL_COUNT_METRICS, SELF_TIME_METRICS

    names = (list(SELF_TIME_METRICS.values())
             + list(CALL_COUNT_METRICS.values())
             + ["runner.cache_bytes_written", "runner.executed",
                "runner.cache_hits", "serve.submit_ms",
                "serve.cache.hit_ratio"] + list(SERVE_COUNTERS))
    out: Metrics = {name: (float(values.get(name, 0.0)), layer_unit(name))
                    for name in names}
    out["trace.wall_s"] = (wall, "s")
    out["trace.other_s"] = (other, "s")
    out["trace.overhead_s"] = (wall - untraced_wall, "s")
    out["host.calibration_ms"] = (calibration_s * 1000.0, "ms")
    return out


# ---------------------------------------------------------------------------
# In-process workloads


def run_inproc(args, size: Size, gate, work: Path) -> Metrics:
    import inproc
    import tracing

    inproc.setup(args.workload)
    clock = HostClock()
    # Each probe is followed by a few slices; those alone rescale the
    # set-up samples, by the host state they saw.
    setups = []
    for _ in range(SETUP_SAMPLES):
        setups.append(inproc.setup_sample(args.workload))
        clock.pause(5)
    setup_factor = clock.factor()
    if args.workload == "sweep-cold":
        grid = inproc.sweep_grid(args.seed, size.sweep_workloads,
                                 size.stress_pick)

        def one_round(index, clock=clock, check=gate):
            return inproc.sweep_round(grid, check, clock,
                                      work / f"cache-{index}")
    else:
        names = expected.VERIFY_WORKLOADS[:size.verify_workloads]

        def one_round(index, clock=clock, check=gate):
            return inproc.verify_round(args.seed, names, check, clock,
                                       work / f"cache-{index}")

    if not args.trace:
        rounds = run_rounds(one_round, args.seconds)
        return end_to_end(rounds, setups, setup_factor, clock)

    before = one_round("untraced-before", clock=None)
    tracer = tracing.Tracer()
    tracing.install_simulation(tracer)
    traced = one_round("traced", clock=None)
    tracing.uninstall(tracer)
    after = one_round("untraced-after", clock=None)
    self_time, calls, uncovered = tracing.account(tracer.spans,
                                                  traced.window)
    values = tracing.layer_metrics(self_time, calls, tracer.counters)
    wall = traced.window[1] - traced.window[0]
    other = uncovered + tracing.unnamed_self_time(self_time)
    return per_layer(values, wall, other, (before.wall + after.wall) / 2,
                     clock.mean_slice())


# ---------------------------------------------------------------------------
# serve-fleet


def run_serve(args, size: Size, gate, work: Path) -> Metrics:
    import tracing

    clock = HostClock()

    def one_round(index: int, traced: bool = False, check=gate,
                  clock=clock):
        fleet = serve_fleet.Fleet(work / f"round-{index}", traced=traced)
        fleet.root.mkdir()
        try:
            setup = fleet.start()
            result = serve_fleet.serve_round(
                fleet, serve_fleet.job_list(args.seed, index,
                                            size.serve_jobs), check, clock)
            result.setup = setup
        finally:
            fleet.stop()
        return result, fleet

    if not args.trace:
        rounds = run_rounds(lambda index: one_round(index)[0], args.seconds,
                            size.serve_min_rounds)
        return end_to_end(rounds, [r.setup for r in rounds], clock.factor(),
                          clock)

    clock.pause(5)  # only for host.calibration_ms
    before, _ = one_round(0, clock=None)
    traced, fleet = one_round(1, traced=True, clock=None)
    after, _ = one_round(2, clock=None)
    worker_spans, worker_counters = tracing.load_spans(
        fleet.root / "worker.spans")
    daemon_spans, daemon_counters = tracing.load_spans(
        fleet.root / "daemon.spans")
    self_time, calls, uncovered = tracing.account(worker_spans,
                                                  traced.window)
    daemon_time, daemon_calls, _ = tracing.account(daemon_spans,
                                                   traced.window)
    values = tracing.layer_metrics(
        tracing.merge([self_time, daemon_time]), calls + daemon_calls,
        tracing.merge([worker_counters, daemon_counters]))
    for name, counter in SERVE_COUNTERS.items():
        values[name] = traced.counters.get(counter, 0.0)
    fetches = values["serve.cache.fetch"]
    values["serve.cache.hit_ratio"] = (values["serve.cache.fetch_hits"]
                                       / fetches if fetches else 0.0)
    values["serve.submit_ms"] = median(traced.submit_ms)
    # The worker's timeline is what the layer self times account for; the
    # daemon's journal appends overlap it from another process.
    other = uncovered + tracing.unnamed_self_time(self_time)
    wall = traced.window[1] - traced.window[0]
    return per_layer(values, wall, other, (before.wall + after.wall) / 2,
                     clock.mean_slice())


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set-up probes, and the self-check's tiny size and
    # tampered expected table.
    parser.add_argument("--setup-probe", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--expected", type=Path, default=expected.TABLE,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.workload and not args.setup_probe:
        parser.error("--workload is required")
    return args


def report(metrics: Metrics, gate) -> None:
    log(f"host {json.dumps(host_info(), sort_keys=True)}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        log(f"  {name:<{width}}  {value:14.6f} {unit}")
    rate = gate.failed / gate.attempted if gate.attempted else 1.0
    log(f"  {'error_rate':<{width}}  {rate:14.6f} ratio "
        f"({gate.failed} failed of {gate.attempted} attempted)")
    for problem in gate.problems:
        log(f"  FAILED {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_program()
        if args.setup_probe:
            import inproc

            inproc.setup(args.setup_probe)
            print("ready", flush=True)
            return 0
        gate = expected.Gate(expected.load(args.expected))
        size = SMOKE if args.smoke else FULL
        with scratch_dir(args.workload) as work:
            if args.workload == "serve-fleet":
                metrics = run_serve(args, size, gate, work)
            else:
                metrics = run_inproc(args, size, gate, work)
    except BenchError as exc:
        log(f"error: {exc}")
        return 2
    report(metrics, gate)
    correct = gate.failed == 0 and gate.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, gate.attempted),
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
