"""Tests for Launch/WorkgroupInstance internals (repro.gpu.dispatch)."""

import numpy as np
import pytest

from repro.core.stats import CompactionStats
from repro.eu.eu import ExecutionUnit
from repro.gpu.config import GpuConfig
from repro.gpu.dispatch import Launch, WorkgroupInstance, bind_surfaces
from repro.isa.builder import KernelBuilder
from repro.isa.types import DType
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.slm import SlmTiming


def _program(simd_width=16):
    b = KernelBuilder("k", simd_width)
    gid = b.global_id()
    lid = b.local_id()
    out = b.surface_arg("out")
    addr = b.vreg(DType.I32)
    b.shl(addr, gid, 2)
    b.store(lid, addr, out)
    return b.finish()


def _launch(global_size, local_size=None, config=None):
    config = config or GpuConfig()
    program = _program()
    out = np.zeros(max(global_size, 16), dtype=np.int32)
    surfaces = bind_surfaces(program, {"out": out})
    return Launch(program, global_size, local_size, surfaces, {}, config)


def _eus(config, n=None):
    hierarchy = MemoryHierarchy(config.memory)
    stats = CompactionStats()
    return [ExecutionUnit(i, config, hierarchy, stats, CompactionStats())
            for i in range(n or config.num_eus)]


class TestLaunchGeometry:
    def test_default_local_size(self):
        config = GpuConfig(threads_per_eu=6)
        launch = _launch(1000, config=config)
        assert launch.local_size == 16 * 6
        assert launch.threads_per_wg == 6

    def test_workgroup_count_rounds_up(self):
        launch = _launch(100, local_size=32)
        assert launch.num_workgroups == 4  # ceil(100 / 32)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            _launch(0)

    def test_non_multiple_local_size_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            _launch(64, local_size=20)


class TestDispatchMechanics:
    def test_fills_all_eus_first_pass(self):
        config = GpuConfig(num_eus=3, threads_per_eu=6)
        launch = _launch(16 * 6 * 10, local_size=16 * 6, config=config)
        eus = _eus(config)
        placed = launch.dispatch(eus, now=0)
        assert placed == 3  # one full workgroup per EU
        assert all(eu.free_slots() == 0 for eu in eus)

    def test_no_dispatch_without_room(self):
        config = GpuConfig(num_eus=1, threads_per_eu=6)
        launch = _launch(16 * 6 * 4, local_size=16 * 6, config=config)
        eus = _eus(config)
        assert launch.dispatch(eus, 0) == 1
        assert launch.dispatch(eus, 1) == 0  # EU is full

    def test_partial_tail_thread_mask(self):
        config = GpuConfig(num_eus=1)
        launch = _launch(20, local_size=32, config=config)
        eus = _eus(config)
        launch.dispatch(eus, 0)
        instance = launch.instances[0]
        # 20 items: one full SIMD16 thread + one 4-lane tail thread.
        assert len(instance.threads) == 2
        assert instance.threads[0].masks.dispatch_mask == 0xFFFF
        assert instance.threads[1].masks.dispatch_mask == 0x000F

    def test_thread_ids_unique(self):
        config = GpuConfig(num_eus=2, threads_per_eu=6)
        launch = _launch(16 * 12, local_size=16 * 6, config=config)
        eus = _eus(config)
        launch.dispatch(eus, 0)
        ids = [t.thread_id for wg in launch.instances for t in wg.threads]
        assert len(ids) == len(set(ids))

    def test_dispatch_latency_applied(self):
        config = GpuConfig(num_eus=1, dispatch_latency=25)
        launch = _launch(16, config=config)
        eus = _eus(config)
        launch.dispatch(eus, now=100)
        thread = launch.instances[0].threads[0]
        assert thread.stall_until == 125


class TestWorkgroupBarrierBookkeeping:
    def _instance(self, num_threads=3):
        program = _program()
        instance = WorkgroupInstance(0, [], None, SlmTiming())
        from repro.eu.thread import EUThread

        for i in range(num_threads):
            instance.threads.append(
                EUThread(i, program, 0xFFFF, workgroup=instance))
        return instance

    def test_barrier_releases_when_all_arrive(self):
        instance = self._instance(3)
        from repro.eu.thread import ThreadState

        for thread in instance.threads[:2]:
            thread.state = ThreadState.AT_BARRIER
            instance.arrive_barrier(thread, now=10, release_latency=2)
        assert all(t.state is ThreadState.AT_BARRIER
                   for t in instance.threads[:2])
        last = instance.threads[2]
        last.state = ThreadState.AT_BARRIER
        instance.arrive_barrier(last, now=20, release_latency=2)
        assert all(t.state is ThreadState.ACTIVE for t in instance.threads)
        assert all(t.stall_until == 22 for t in instance.threads)

    def test_thread_exit_unblocks_barrier(self):
        # Two threads wait at a barrier; the third finishes (EOT) without
        # reaching it -- the barrier must release the remaining two.
        instance = self._instance(3)
        from repro.eu.thread import ThreadState

        for thread in instance.threads[:2]:
            thread.state = ThreadState.AT_BARRIER
            instance.arrive_barrier(thread, now=5, release_latency=1)
        instance.threads[2].state = ThreadState.DONE
        instance.thread_done(now=9)
        assert all(t.state is ThreadState.ACTIVE
                   for t in instance.threads[:2])

    def test_done_property(self):
        instance = self._instance(2)
        assert not instance.done
        instance.thread_done(0)
        instance.thread_done(0)
        assert instance.done


class TestThreadState:
    """Only the interp engine executes, so only its threads carry the
    architectural state (registers, flags, mask stack)."""

    ARCH_STATE = ("grf", "flags", "masks")

    @staticmethod
    def _threads(engine, monkeypatch):
        from repro.eu.replay import ReplayLaunch
        from repro.gpu import GpuSimulator

        made = []
        for cls in (Launch, ReplayLaunch):
            original = cls._make_thread

            def spy(self, *args, _original=original, **kwargs):
                thread = _original(self, *args, **kwargs)
                made.append(thread)
                return thread

            monkeypatch.setattr(cls, "_make_thread", spy)
        out = np.zeros(64, dtype=np.int32)
        GpuSimulator(GpuConfig(engine=engine)).run(
            _program(), 64, buffers={"out": out})
        return made

    def test_fast_engine_threads_carry_no_arch_state(self, monkeypatch):
        from repro.eu.replay import ReplayThread

        threads = self._threads("fast", monkeypatch)
        assert threads and all(type(t) is ReplayThread for t in threads)
        for thread in threads:
            assert not any(hasattr(thread, a) for a in self.ARCH_STATE)
            assert thread.scoreboard is not None

    def test_interp_threads_carry_arch_state(self, monkeypatch):
        threads = self._threads("interp", monkeypatch)
        assert threads
        for thread in threads:
            assert all(hasattr(thread, a) for a in self.ARCH_STATE)
