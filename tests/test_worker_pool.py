"""The shared worker pool's lifecycle: republish, crash, cleanup.

The stage-level differentials (bitwise selections and the SIGKILL chaos
test) live in ``tests/test_seeds_parallel.py``; this module pins what
the pool itself promises: tasks run in worker processes and come back
in task order, a republished context releases the workers' old
mappings, a dead worker closes the pool with a typed error and no
leaked segment, and a pool dropped without ``close()`` still stops its
workers and unlinks its segments.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.core.errors import ReproError
from repro.core.pool import SharedWorkerPool, WorkerPoolBroken
from repro.obs import recording
from tests.test_plan_sharded import _shm_segments, _worker_processes


def _total(arrays: dict[str, np.ndarray], offset: float) -> float:
    """Context builder: the sum of the shared array plus an offset."""
    return float(arrays["values"].sum()) + offset


def _add(state: float, task: int) -> float:
    return state + task


def _pid(state: float, task: int) -> int:
    return os.getpid()


def _die(state: float, task: int) -> None:
    """Task: end the worker process without a result."""
    os._exit(1)


def _mapped_segments(state: float, task: int) -> list[str]:
    """The shared-memory files this worker process currently maps."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        return sorted(
            {line.split()[-1] for line in handle if "/psm_" in line}
        )


def _publish(pool: SharedWorkerPool, size: int, offset: float = 0.0) -> None:
    pool.publish("ctx", {"values": np.arange(size, dtype=np.float64)}, _total, offset)


class TestInProcess:
    """The checks the parent makes before any task leaves it."""

    def test_closed_pool_rejects_publish_and_map(self):
        pool = SharedWorkerPool(2)
        _publish(pool, 4)
        pool.close()
        with pytest.raises(ReproError, match="closed"):
            pool.map("ctx", _add, [1])
        with pytest.raises(ReproError, match="closed"):
            _publish(pool, 4)

    def test_unknown_context_is_an_error(self):
        with SharedWorkerPool(1) as pool:
            with pytest.raises(ReproError, match="no context"):
                pool.map("missing", _add, [1])


class TestWorkers:
    def test_results_in_task_order_and_equal_to_in_process(self):
        """Worker results equal the same builder and task run here."""
        values = np.arange(100, dtype=np.float64)
        state = _total({"values": values}, 0.25)
        tasks = list(range(12))
        with SharedWorkerPool(2) as pool:
            _publish(pool, 100, offset=0.25)
            assert pool.map("ctx", _add, tasks) == [_add(state, t) for t in tasks]
            assert os.getpid() not in pool.map("ctx", _pid, tasks)

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
    )
    def test_republish_releases_worker_mappings(self):
        with SharedWorkerPool(2) as pool:
            _publish(pool, 1000)
            (first,) = {tuple(m) for m in pool.map("ctx", _mapped_segments, [0])}
            assert len(first) == 1
            _publish(pool, 2000)
            _publish(pool, 3000)
            # Every worker that ran a task maps exactly the current segment.
            mapped = {tuple(m) for m in pool.map("ctx", _mapped_segments, [0, 1, 2, 3])}
            assert len(mapped) == 1
            (current,) = mapped
            assert len(current) == 1 and current != first
            assert pool.map("ctx", _add, [0]) == [float(sum(range(3000)))]


class TestAbnormalExit:
    def test_dead_worker_closes_the_pool(self):
        """A worker death counts a fallback, releases all, and raises."""
        before = _shm_segments()
        with recording() as rec:
            pool = SharedWorkerPool(2)
            _publish(pool, 1000)
            with pytest.raises(WorkerPoolBroken):
                pool.map("ctx", _die, [0, 1])
            assert rec.registry.counter("pool.fallbacks", pool="ctx").value == 1
        assert pool._resources.executor is None
        assert not (_shm_segments() - before), "a shared-memory segment survived"
        with pytest.raises(ReproError, match="closed"):
            pool.map("ctx", _add, [1])
        pool.close()  # idempotent

    def test_unclosed_pool_is_released_on_gc(self):
        """Dropping the last reference stops the workers and unlinks."""
        before = _shm_segments()
        pool = SharedWorkerPool(2)
        _publish(pool, 1000)
        pool.map("ctx", _add, [1, 2])
        workers = _worker_processes(pool)
        assert workers and _shm_segments() - before
        del pool
        gc.collect()
        assert not (_shm_segments() - before), "a shared-memory segment survived"
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
