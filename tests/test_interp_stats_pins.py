"""Pinned interp-engine results for the ``verify-parity`` workloads.

The interp engine counts ``(pc, mask)`` per issue and folds the counts
into its :class:`~repro.core.stats.CompactionStats` when a launch ends.
The values in ``data/interp_stats_pins.json`` were recorded when the
engine still recorded every issue into the stats one by one, so they pin
that the fold is exact: every counter, and the insertion order of the
utilization buckets (which reaches the pickled cache bytes).

``data/kernel_pins.json`` pins the same fields for the registry kernels
that are defined once in :mod:`repro.dsl`.  Its values were recorded
from their hand-built predecessors, whose hand-written numpy checks
passed on exactly these outputs: the default sizes on the interp
engine, and the non-default sizes that experiments and benchmarks run
(``name?key=value,...``) on the fast engine.
"""

import json
from pathlib import Path

import pytest

from repro.core.policy import parse_policy
from repro.gpu.config import GpuConfig
from repro.kernels import WORKLOAD_REGISTRY, run_workload

DATA = Path(__file__).parent / "data"
PINS = json.loads((DATA / "interp_stats_pins.json").read_text())
KERNEL_PINS = json.loads((DATA / "kernel_pins.json").read_text())

WORKLOADS = ("nested_l2", "gnoise", "bsearch", "bsort", "dsl_collatz", "mt")
POLICIES = ("raw", "ivb", "bcc", "scc")


def _stats(stats):
    return {
        "instructions": stats.instructions,
        "enabled_lane_slots": stats.enabled_lane_slots,
        "issued_lane_slots": stats.issued_lane_slots,
        "cycles": [[policy.value, count]
                   for policy, count in stats.cycles.items()],
        "bucket_counts": [list(item) for item in stats.bucket_counts.items()],
        "rf_accesses_baseline": stats.rf_accesses_baseline,
        "rf_accesses_bcc": stats.rf_accesses_bcc,
        "scc_swizzles": stats.scc_swizzles,
    }


def test_pins_cover_the_grid():
    assert sorted(PINS) == sorted(f"{name}/{policy}" for name in WORKLOADS
                                  for policy in POLICIES)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", WORKLOADS)
def test_interp_run_matches_pin(name, policy):
    result = run_workload(WORKLOAD_REGISTRY[name](),
                          GpuConfig(policy=parse_policy(policy),
                                    engine="interp"))
    _assert_pinned(result, PINS[f"{name}/{policy}"])


def _parse_pin_key(key):
    """``name[?k=v,...]/policy`` -> (name, params, policy)."""
    spec, policy = key.rsplit("/", 1)
    name, _, query = spec.partition("?")
    params = {}
    for item in filter(None, query.split(",")):
        param, value = item.split("=")
        params[param] = int(value)
    return name, params, policy


@pytest.mark.parametrize("key", sorted(KERNEL_PINS))
def test_kernel_run_matches_pin(key):
    name, params, policy = _parse_pin_key(key)
    engine = "fast" if params else "interp"
    result = run_workload(WORKLOAD_REGISTRY[name](**params),
                          GpuConfig(policy=parse_policy(policy),
                                    engine=engine))
    _assert_pinned(result, KERNEL_PINS[key])


def _assert_pinned(result, pin):
    assert result.total_cycles == pin["total_cycles"]
    assert result.instructions == pin["instructions"]
    assert result.buffers_digest == pin["buffers_digest"]
    # Lists, so bucket order is compared too.
    assert _stats(result.alu_stats) == pin["alu_stats"]
    assert _stats(result.simd_stats) == pin["simd_stats"]
