"""The committed expected-results table and the correctness gate.

Every simulation the benchmark can ask for is drawn from a fixed pool, and
``expected.json`` holds each pool entry's ``[buffers_digest, total_cycles,
instructions]`` as this simulator produced them.  Whatever the seed, every
result a run sees is compared against the table.

Regenerate the table (only when a change is *meant* to move simulated
results) with::

    python3 perfbench/expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

TABLE = Path(__file__).resolve().parent / "expected.json"

#: Fig. 9/10 divergent workloads (``experiments.fig09``), pinned here so a
#: change to the figure's default list cannot change the benchmark, minus
#: the two ``rt_ao_*`` scenes that alone take ~45% of the sweep's host time.
SWEEP_WORKLOADS = (
    "mca", "sobel", "gnoise", "kmeans", "eigenvalue", "scla",
    "gauss", "lu", "bsort", "bsearch", "bp", "hmm", "srad", "glfrag",
    "bfs", "hotspot", "lavamd", "nw", "particlefilter", "rt_pr_conf",
)
#: ``repro.dsl.stress.stress_batch(STRESS_POOL, seed=0)`` is the stress
#: pool; a run's seed picks STRESS_PICK of its scenarios, one per
#: depth/trip/memory combination.
STRESS_POOL = 48
STRESS_PICK = 6

#: verify-parity's fixed subset and the policies/engines its runs cover.
VERIFY_WORKLOADS = ("nested_l2", "gnoise", "bsearch", "bsort",
                    "dsl_collatz", "mt")
VERIFY_POLICIES = ("raw", "ivb", "bcc", "scc")

#: serve-fleet's spec pool: workload x params seed x policy, n fixed.
SERVE_WORKLOADS = ("gnoise", "scnv")
SERVE_SEEDS = 48
SERVE_N = 256


def key(*parts: object) -> str:
    return "|".join(str(p) for p in parts)


def fingerprint(digest: str, cycles: int, instructions: int) -> List[object]:
    return [digest, int(cycles), int(instructions)]


class Gate:
    """Counts checked outputs and the ones that failed, with reasons."""

    def __init__(self, table: Dict[str, List[object]]) -> None:
        self.table = table
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, name: str, got: Sequence[object]) -> bool:
        """One output against its table entry."""
        want = self.table.get(name)
        if want is None:
            return self.expect(False, f"{name}: no expected entry")
        return self.expect(list(got) == list(want),
                           f"{name}: got {list(got)}, expected {want}")

    def expect(self, ok: bool, problem: str) -> bool:
        """One attempted output that is correct iff *ok*."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


def load(path: Path = TABLE) -> Dict[str, List[object]]:
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# Regeneration


def _pool() -> Iterable[Tuple[str, str, Dict[str, int], str, str]]:
    """(table key, workload, params, policy, engine) for every pool entry."""
    from repro.dsl.stress import stress_batch

    for name in list(SWEEP_WORKLOADS) + stress_batch(STRESS_POOL, seed=0):
        for policy in ("ivb", "bcc", "scc"):
            yield key("sweep", name, policy), name, {}, policy, "fast"
    for name in VERIFY_WORKLOADS:
        for policy in VERIFY_POLICIES:
            yield key("verify", name, policy), name, {}, policy, "interp"
        yield key("verify", name, "fast"), name, {}, "ivb", "fast"
    for name in SERVE_WORKLOADS:
        for seed in range(SERVE_SEEDS):
            params = {"seed": seed, "n": SERVE_N}
            for policy in ("ivb", "bcc", "scc"):
                yield (key("serve", name, seed, policy), name, params,
                       policy, "fast")


def regenerate() -> Dict[str, List[object]]:
    from repro.core.policy import parse_policy
    from repro.gpu.config import GpuConfig
    from repro.runner import Job, Runner

    runner = Runner(workers=1, cache=False)
    table: Dict[str, List[object]] = {}
    for name, workload, params, policy, engine in _pool():
        job = Job(workload, GpuConfig(policy=parse_policy(policy),
                                      engine=engine), params=params)
        result = runner.run([job])[job]
        table[name] = fingerprint(result.buffers_digest,
                                  result.total_cycles, result.instructions)
    return table


if __name__ == "__main__":
    from common import require_program

    require_program()
    rows = sorted(regenerate().items())
    TABLE.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows) + "\n}\n")
    print(f"wrote {TABLE}", file=sys.stderr)
