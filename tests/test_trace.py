"""Tests for the trace package: format, profiler, synthesis, workloads."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import CompactionPolicy
from repro.core.quads import popcount
from repro.trace import (
    EXPECTED_SCC_REDUCTION_BANDS,
    TRACE_PROFILES,
    PatternFamily,
    SyntheticProfile,
    TraceEvent,
    generate_trace_list,
    load_trace,
    profile_many,
    profile_trace,
    trace_events,
    trace_names,
    write_trace,
)


class TestTraceEvent:
    def test_valid(self):
        TraceEvent(16, 0xF0F0)

    def test_mask_must_fit_width(self):
        with pytest.raises(ValueError):
            TraceEvent(8, 0x100)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            TraceEvent(7, 0)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            TraceEvent(16, 0xF, dtype_factor=0)


class TestTraceFormat:
    def test_round_trip(self):
        events = [TraceEvent(16, 0xF0F0), TraceEvent(8, 0x0F, 2)]
        buffer = io.StringIO()
        count = write_trace(events, buffer)
        assert count == 2
        buffer.seek(0)
        assert load_trace(buffer) == events

    def test_round_trip_via_file(self, tmp_path):
        events = [TraceEvent(16, mask) for mask in (0, 0xFFFF, 0xAAAA)]
        path = tmp_path / "trace.txt"
        write_trace(events, path)
        assert load_trace(path) == events

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n16 f0f0 1\n  # another\n8 0f\n"
        events = load_trace(io.StringIO(text))
        assert events == [TraceEvent(16, 0xF0F0), TraceEvent(8, 0x0F)]

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            load_trace(io.StringIO("16\n"))

    @given(st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=50))
    @settings(max_examples=25)
    def test_round_trip_property(self, masks):
        events = [TraceEvent(16, mask) for mask in masks]
        buffer = io.StringIO()
        write_trace(events, buffer)
        buffer.seek(0)
        assert load_trace(buffer) == events


class TestProfiler:
    def test_f0f0_profile(self):
        profile = profile_trace("t", [TraceEvent(16, 0xF0F0)] * 10)
        assert profile.simd_efficiency == 0.5
        assert profile.bcc_reduction_pct == pytest.approx(50.0)
        assert profile.scc_reduction_pct == pytest.approx(50.0)
        assert profile.scc_additional_pct == pytest.approx(0.0)

    def test_strided_needs_scc(self):
        profile = profile_trace("t", [TraceEvent(16, 0x1111)] * 10)
        assert profile.bcc_reduction_pct == pytest.approx(0.0)
        assert profile.scc_reduction_pct == pytest.approx(75.0)

    def test_divergence_classification(self):
        coherent = profile_trace("c", [TraceEvent(16, 0xFFFF)] * 10)
        divergent = profile_trace("d", [TraceEvent(16, 0x00FF)] * 10)
        assert not coherent.divergent
        assert divergent.divergent

    def test_profile_many_preserves_order(self):
        profiles = profile_many({
            "b": [TraceEvent(16, 0xFFFF)],
            "a": [TraceEvent(16, 0x000F)],
        })
        assert list(profiles) == ["b", "a"]

    def test_summary(self):
        summary = profile_trace("t", [TraceEvent(16, 0x00FF)]).summary()
        assert summary["divergent"] == 1.0


class TestSynthesis:
    def _profile(self, family, active=4, width=16, n=200):
        return SyntheticProfile(
            name="p",
            num_instructions=n,
            width_mix=((width, 1.0),),
            active_histogram=((active, 1.0),),
            pattern_weights=((family, 1.0),),
            seed=7,
        )

    @pytest.mark.parametrize("family", list(PatternFamily))
    def test_active_counts_respected(self, family):
        events = generate_trace_list(self._profile(family))
        for event in events:
            assert popcount(event.mask) == 4

    def test_deterministic(self):
        profile = self._profile(PatternFamily.SCATTERED)
        assert generate_trace_list(profile) == generate_trace_list(profile)

    def test_quad_aligned_is_bcc_friendly(self):
        from repro.core.bcc import is_bcc_friendly

        events = generate_trace_list(self._profile(PatternFamily.QUAD_ALIGNED))
        assert all(is_bcc_friendly(e.mask, e.width) for e in events)

    def test_full_mask_shortcut(self):
        events = generate_trace_list(self._profile(PatternFamily.SCATTERED,
                                                   active=16))
        assert all(e.mask == 0xFFFF for e in events)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticProfile("p", 0, ((16, 1.0),), ((4, 1.0),),
                             ((PatternFamily.SCATTERED, 1.0),))

    def test_strided_pattern_hurts_bcc(self):
        strided = profile_trace(
            "s", generate_trace_list(self._profile(PatternFamily.STRIDED)))
        aligned = profile_trace(
            "a", generate_trace_list(self._profile(PatternFamily.QUAD_ALIGNED)))
        assert strided.bcc_reduction_pct < aligned.bcc_reduction_pct
        # Stride-4 masks give SCC 75 %; stride-2 masks confine lanes to
        # one half, firing the IVB rewrite first, so the mix lands lower.
        assert 60.0 < strided.scc_reduction_pct <= 75.0


class TestCalibratedWorkloads:
    def test_all_profiles_have_bands(self):
        assert set(TRACE_PROFILES) == set(EXPECTED_SCC_REDUCTION_BANDS)

    def test_names(self):
        names = trace_names()
        assert "luxmark_sky" in names and "fd_politicians" in names

    @pytest.mark.parametrize("name", sorted(TRACE_PROFILES))
    def test_scc_reduction_in_paper_band(self, name):
        profile = profile_trace(name, trace_events(name))
        lo, hi = EXPECTED_SCC_REDUCTION_BANDS[name]
        assert lo <= profile.scc_reduction_pct <= hi, (
            f"{name}: SCC reduction {profile.scc_reduction_pct:.1f}% "
            f"outside paper band [{lo}, {hi}]"
        )

    @pytest.mark.parametrize("name", sorted(TRACE_PROFILES))
    def test_all_traces_divergent(self, name):
        profile = profile_trace(name, trace_events(name))
        assert profile.divergent

    def test_scc_subsumes_bcc_everywhere(self):
        for name in TRACE_PROFILES:
            profile = profile_trace(name, trace_events(name))
            assert profile.scc_reduction_pct >= profile.bcc_reduction_pct

    def test_luxmark_is_simd8(self):
        events = generate_trace_list(TRACE_PROFILES["luxmark_sky"])
        assert {e.width for e in events} == {8}

    def test_glbench_scc_dominated(self):
        # Paper: GLBench benefit comes mostly from SCC.
        profile = profile_trace("glbench_egypt", trace_events("glbench_egypt"))
        assert profile.scc_additional_pct > profile.bcc_reduction_pct


class TestSynthDeterminism:
    def test_stream_independent_of_pythonhashseed(self):
        # Regression: the generator was seeded with hash(profile.name),
        # which Python salts per process, so the same trace differed
        # between runs.
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("from repro.trace import trace_events\n"
                "print([(e.width, e.mask, e.dtype_factor)"
                " for e in trace_events('ati_eigenval')])")
        streams = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            streams.append(proc.stdout)
        assert streams[0] == streams[1]
        assert streams[0].startswith("[(")
