"""Quick self-check of the benchmark at tiny size (about two minutes).

    python3 perfbench/selfcheck.py

Checks that
  * every workload, untraced and traced, prints as its last stdout line a
    result whose metrics are exactly BENCHMARK.json's end-to-end (resp.
    per-layer) metrics, each with its declared unit, and passes its gate;
  * corrupting one entry of the expected table makes the gate fail: the
    run reports ``correct: false`` and exits non-zero;
  * in a directory holding only BENCHMARK.json and the benchmark's files
    the command exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import expected  # noqa: E402
from common import BENCH, ROOT, scratch_dir  # noqa: E402
from run import WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--seed", "0",
                           "--seconds", "0", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, result, proc.stderr


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")
    print(f"ok  {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in (("0", "end_to_end"), ("1", "per_layer"))}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, result, err = bench("--workload", workload, "--trace",
                                      trace, "--smoke")
            label = f"{workload} --trace {trace}"
            check(code == 0 and result is not None,
                  f"{label} exits 0 with a result ({err[-300:]!r})")
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"},
                  f"{label} result has exactly the four keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{label} is correct")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == declared[trace],
                  f"{label} emits every declared metric with its unit")

    with scratch_dir("selfcheck") as tmp:
        table = expected.load()
        entry = expected.key("sweep", expected.SWEEP_WORKLOADS[0], "ivb")
        table[entry] = [table[entry][0], table[entry][1] + 1, table[entry][2]]
        tampered = tmp / "expected.json"
        tampered.write_text(json.dumps(table))
        code, result, _ = bench("--workload", "sweep-cold", "--smoke",
                                "--expected", str(tampered))
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              "a corrupted expected entry fails the correctness gate")

        bare = tmp / "bare"
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, result, _ = bench("--workload", "sweep-cold", cwd=bare,
                                script=bare / BENCH.name / "run.py")
        check(code != 0 and result is None,
              "without the program the command fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
