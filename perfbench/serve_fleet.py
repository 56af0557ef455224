"""The ``serve-fleet`` workload: ``repro serve --no-local-exec`` plus one
``repro worker`` on loopback, driven by one closed-loop client process
that keeps two jobs outstanding (two threads, one request each).

Every round starts a fresh daemon and worker on fresh data and cache
dirs (their spawn-to-ready time is that round's set-up sample), sends a
fixed seeded job list, and shuts both down cleanly.

Submit-to-result latency is the daemon's ``finished_at`` (from
``GET /jobs/{id}``) minus the client's wall clock just before it sent
``POST /jobs``; both read the same host clock, so the poll interval does
not round the latency.
"""

from __future__ import annotations

import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import expected
from common import (BENCH, ENGINE, SWEEP_POLICIES, BenchError, HostClock,
                    Round, child_env, proc_cpu_s, proc_peak_rss_mb,
                    self_peak_rss_mb)

#: Jobs per round, of which RESUBMIT_SHARE resubmit an already finished
#: spec (served from the fleet cache through ``GET /cache/{key}``).
JOBS_PER_ROUND = 240
RESUBMIT_SHARE = 0.3
#: Outstanding jobs the client keeps (one per client thread).
OUTSTANDING = 2
#: A resubmission names a spec at least this many positions back, which
#: with two outstanding jobs has always finished by then.
RESUBMIT_LAG = 3
#: Jobs between two calibration pauses.
CAL_EVERY = 12
STARTUP_TIMEOUT = 30.0
STOP_TIMEOUT = 20.0
JOB_TIMEOUT = 60.0


def job_list(seed: int, round_index: int, count: int = JOBS_PER_ROUND
             ) -> List[Tuple[str, int, str]]:
    """The round's (workload, params seed, policy) sequence."""
    rng = random.Random(f"serve:{seed}:{round_index}")
    pool = [(w, k, p) for w in expected.SERVE_WORKLOADS
            for k in range(expected.SERVE_SEEDS) for p in SWEEP_POLICIES]
    resubmits = int(count * RESUBMIT_SHARE)
    fresh = rng.sample(pool, count - resubmits)
    slots = set(rng.sample(range(RESUBMIT_LAG, count), resubmits))
    jobs: List[Tuple[str, int, str]] = []
    for position in range(count):
        if position in slots:
            jobs.append(rng.choice(jobs[:position - RESUBMIT_LAG + 1]))
        else:
            jobs.append(fresh.pop())
    return jobs


def spec_of(job: Tuple[str, int, str]) -> Dict[str, object]:
    workload, seed, policy = job
    return {"workload": workload, "policy": policy, "engine": ENGINE,
            "telemetry": "off", "verify": True,
            "params": {"seed": seed, "n": expected.SERVE_N}}


# ---------------------------------------------------------------------------
# The fleet


class Fleet:
    """One daemon and one worker on fresh dirs under *root*.

    With *traced*, both start through ``launch.py`` and write their spans
    to ``root/daemon.spans`` and ``root/worker.spans`` on exit.
    """

    def __init__(self, root: Path, traced: bool = False) -> None:
        self.root = root
        self.traced = traced
        self.daemon: Optional[subprocess.Popen] = None
        self.worker: Optional[subprocess.Popen] = None
        self.port = 0

    def _spawn(self, role: str, args: List[str]) -> subprocess.Popen:
        if self.traced:
            cmd = [sys.executable, str(BENCH / "launch.py"), role,
                   str(self.root / f"{role}.spans"), "--"] + args
        else:
            cmd = [sys.executable, "-m", "repro"] + args
        with open(self.root / f"{role}.log", "wb") as log_file:
            return subprocess.Popen(cmd, env=child_env(),
                                    stdout=subprocess.DEVNULL, stderr=log_file)

    def start(self) -> float:
        """Spawn both processes; returns seconds until the worker is
        registered with the daemon (the ready handshake)."""
        tick = time.perf_counter()
        self.daemon = self._spawn("daemon", [
            "serve", "--port", "0", "--no-local-exec",
            "--data-dir", str(self.root / "data"),
            "--cache-dir", str(self.root / "cache")])
        deadline = time.monotonic() + STARTUP_TIMEOUT
        daemon_log = self.root / "daemon.log"
        while not self.port:
            match = re.search(rb"listening on http://[^:]+:(\d+)",
                              daemon_log.read_bytes())
            if match:
                self.port = int(match.group(1))
            elif self.daemon.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"daemon did not come up: "
                                 f"{daemon_log.read_bytes()[-500:]!r}")
            else:
                time.sleep(0.005)
        self.worker = self._spawn("worker", [
            "worker", "--port", str(self.port), "--name", "bench-worker",
            "--poll-wait", "0.5"])
        client = self.client()
        while not client.metrics()["fleet"]["workers_known"]:
            if self.worker.poll() is not None or time.monotonic() > deadline:
                raise BenchError("worker never registered with the daemon")
            time.sleep(0.005)
        return time.perf_counter() - tick

    def client(self):
        from repro.serve.client import ServeClient

        # No retries: a refusal (429/503) must surface as a failure.
        return ServeClient(port=self.port, client_id="perfbench",
                           max_retries=0, timeout=JOB_TIMEOUT)

    def cpu_s(self) -> float:
        return sum(proc_cpu_s(p.pid) for p in (self.daemon, self.worker))

    def peak_rss_mb(self) -> float:
        return max(proc_peak_rss_mb(p.pid) for p in (self.daemon, self.worker))

    def stop(self) -> None:
        """Graceful shutdown, worker first; a process that outlives its
        budget is killed and the run fails."""
        leftover = []
        for proc in (self.worker, self.daemon):
            if proc is None:
                continue
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                leftover.append(proc.args[:4])
        if leftover:
            raise BenchError(f"processes did not shut down: {leftover}")


# ---------------------------------------------------------------------------
# One round


@dataclass
class ServeRound(Round):
    setup: float = 0.0
    submit_ms: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)


def serve_round(fleet: Fleet, jobs: List[Tuple[str, int, str]],
                gate: expected.Gate, clock: Optional[HostClock]) -> ServeRound:
    """Send *jobs* through a started *fleet* with two outstanding.

    With a *clock*, the client lets the fleet go idle after every
    CAL_EVERY jobs and takes one calibration slice, which is not counted
    in the round's time.
    """
    from repro.serve.client import ServeClientError

    client = fleet.client()
    outcomes: List[Dict[str, object]] = [{}] * len(jobs)

    def one(position: int) -> Dict[str, object]:
        sent = time.time()
        tick = time.perf_counter()
        status = client.submit(spec_of(jobs[position]))
        submit_ms = (time.perf_counter() - tick) * 1000.0
        job_id, nap = status["id"], 0.001
        deadline = time.monotonic() + JOB_TIMEOUT
        while status["state"] not in ("done", "failed", "cancelled"):
            if time.monotonic() > deadline:
                raise BenchError(f"job {job_id} timed out")
            time.sleep(nap)
            nap = min(nap * 1.5, 0.01)
            status = client.status(job_id)
        body = client.result(job_id) if status["state"] == "done" else {}
        return {"state": status["state"], "error": status.get("error"),
                "latency": status["finished_at"] - sent if status.get(
                    "finished_at") else None,
                "submit_ms": submit_ms, "cache_hit": status.get("cache_hit"),
                "result": body.get("result")}

    def drain(positions: range) -> None:
        """OUTSTANDING client threads work through *positions* in order."""
        cursor = iter(positions)
        lock = threading.Lock()

        def loop() -> None:
            while True:
                with lock:
                    position = next(cursor, None)
                if position is None:
                    return
                try:
                    outcomes[position] = one(position)
                except (ServeClientError, BenchError, OSError) as exc:
                    outcomes[position] = {"state": "error",
                                          "error": str(exc)}

        threads = [threading.Thread(target=loop) for _ in range(OUTSTANDING)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    step = CAL_EVERY if clock is not None else len(jobs)
    paused0, cal_cpu0 = (clock.paused, clock.cpu) if clock else (0.0, 0.0)
    cpu0 = time.process_time() + fleet.cpu_s()
    start = time.perf_counter()
    for chunk in range(0, len(jobs), step):
        drain(range(chunk, min(chunk + step, len(jobs))))
        if clock is not None:
            clock.pause()
    end = time.perf_counter()
    paused, cal_cpu = ((clock.paused - paused0, clock.cpu - cal_cpu0)
                       if clock else (0.0, 0.0))
    cpu = time.process_time() + fleet.cpu_s() - cpu0 - cal_cpu
    counters = client.metrics()["counters"]
    rss = max(fleet.peak_rss_mb(), self_peak_rss_mb())

    latencies, submit_ms, instructions = [], [], 0
    first: Dict[Tuple[str, int, str], object] = {}
    for job, outcome in zip(jobs, outcomes):
        label = expected.key("serve", *job)
        result = outcome.get("result")
        if outcome.get("state") != "done" or result is None:
            gate.expect(False, f"{label}: {outcome.get('state')} "
                               f"({outcome.get('error')})")
            continue
        latencies.append(outcome["latency"])
        submit_ms.append(outcome["submit_ms"])
        if not outcome["cache_hit"]:
            instructions += result["instructions"]
        gate.check(label, expected.fingerprint(
            result["buffers_digest"], result["total_cycles"],
            result["instructions"]))
        if job in first:
            gate.expect(result == first[job],
                        f"{label}: resubmission differs from its first "
                        f"execution")
        first.setdefault(job, result)
    return ServeRound(wall=end - start - paused, cpu=cpu, jobs=len(latencies),
                      instructions=instructions, latencies=latencies,
                      submit_ms=submit_ms, counters=counters,
                      peak_rss_mb=rss, window=(start, end))
