"""Key-range lock manager (§3.4.2)."""

import threading

import pytest

from repro.core import KeyRangeLockManager
from repro.errors import ConfigurationError


class TestKeyRangeLockManager:
    def test_stripe_partitioning(self):
        manager = KeyRangeLockManager(num_levels=2, capacity=32768,
                                      granularity=8192)
        assert manager.stripes_per_level == 4
        assert manager.stripe_of(0) == 0
        assert manager.stripe_of(8191) == 0
        assert manager.stripe_of(8192) == 1
        assert manager.stripe_of(32767) == 3

    def test_rounds_partial_stripe_up(self):
        manager = KeyRangeLockManager(num_levels=1, capacity=10000,
                                      granularity=8192)
        assert manager.stripes_per_level == 2

    def test_invalid_granularity(self):
        with pytest.raises(ConfigurationError):
            KeyRangeLockManager(1, 1024, granularity=0)

    def test_locks_are_acquirable_and_distinct(self):
        manager = KeyRangeLockManager(num_levels=2, capacity=16384,
                                      granularity=8192)
        lock_a = manager.lock_for(0, 0)
        lock_b = manager.lock_for(0, 8192)
        lock_c = manager.lock_for(1, 0)
        assert lock_a is not lock_b
        assert lock_a is not lock_c
        with lock_a:
            assert lock_b.acquire(blocking=False)
            lock_b.release()

    def test_same_range_same_lock(self):
        manager = KeyRangeLockManager(num_levels=1, capacity=16384,
                                      granularity=8192)
        assert manager.lock_for(0, 5) is manager.lock_for(0, 8000)

    def test_acquisition_accounting(self):
        manager = KeyRangeLockManager(num_levels=2, capacity=1024,
                                      granularity=128)
        for slot in (0, 1, 500):
            manager.lock_for(0, slot)
        manager.lock_for(1, 0)
        assert manager.acquisitions == [3, 1]
        assert manager.total_acquisitions() == 4

    def test_allocator_locks_per_level(self):
        manager = KeyRangeLockManager(num_levels=3, capacity=1024)
        locks = {id(manager.allocator_lock(level)) for level in range(3)}
        assert len(locks) == 3


class TestLockDiscipline:
    """Balance, ordering and stats coherence of the lock manager."""

    def test_acquire_release_balance_under_exceptions(self):
        # the canonical client pattern: acquire, work, release in finally;
        # the lock must be re-acquirable afterwards even when work raises
        manager = KeyRangeLockManager(num_levels=1, capacity=1024,
                                      granularity=128)
        lock = manager.lock_for(0, 5)
        with pytest.raises(ValueError):
            lock.acquire()
            try:
                raise ValueError("work failed")
            finally:
                lock.release()
        assert lock.acquire(blocking=False)
        lock.release()

    def test_stats_lock_independent_of_stripe_locks(self):
        # lock_for takes only _stats_lock internally, so calling it while
        # holding a stripe lock must not deadlock (acyclic lock order:
        # stripe locks never nest inside the stats lock)
        manager = KeyRangeLockManager(num_levels=1, capacity=1024,
                                      granularity=128)
        first = manager.lock_for(0, 0)
        with first:
            second = manager.lock_for(0, 500)  # re-enters accounting
            assert second is not first
            assert second.acquire(blocking=False)
            second.release()

    def test_level_then_stripe_order_is_consistent(self):
        # allocator lock before stripe lock is the documented order for
        # parallel builds; both directions on *different* levels must
        # still be independent (no shared lock between levels)
        manager = KeyRangeLockManager(num_levels=2, capacity=1024,
                                      granularity=128)
        with manager.allocator_lock(0):
            with manager.lock_for(0, 0):
                assert manager.allocator_lock(1).acquire(blocking=False)
                manager.allocator_lock(1).release()

    def test_concurrent_acquisition_accounting_exact(self):
        # the acquisitions table is annotated shared[lock=_stats_lock];
        # concurrent lock_for traffic must not lose counts
        manager = KeyRangeLockManager(num_levels=2, capacity=4096,
                                      granularity=256)
        threads = 8
        per_thread = 2000
        barrier = threading.Barrier(threads)

        def worker(tid):
            barrier.wait(timeout=60)
            for i in range(per_thread):
                lock = manager.lock_for(tid % 2, i % 4096)
                with lock:
                    pass

        pool = [threading.Thread(target=worker, args=(tid,), daemon=True)
                for tid in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
        assert manager.total_acquisitions() == threads * per_thread
        assert manager.acquisitions == [threads // 2 * per_thread] * 2

    def test_locks_module_passes_concurrency_analysis(self):
        # the shared[lock=_stats_lock] annotation in repro/core/locks.py
        # is checked by RA703: the module itself must scan clean
        from pathlib import Path

        import repro.core.locks as locks_module
        from repro.analysis import analyze_paths

        findings = analyze_paths([Path(locks_module.__file__)])
        assert [f for f in findings if f.rule.startswith("RA7")] == []
