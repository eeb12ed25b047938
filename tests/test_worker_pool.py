"""The shared worker pool's lifecycle: in-process mode, republish, cleanup.

The stage-level differentials (bitwise selections, votes, plans, and the
SIGKILL chaos test) live in ``tests/test_seeds_parallel.py`` and
``tests/test_plan_sharded.py``; this module pins what the pool itself
promises: one worker never spawns or exports, a republished context
releases the workers' old mappings, and a pool dropped without
``close()`` still stops its workers and unlinks its segments.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.core.errors import ReproError
from repro.core.pool import SharedWorkerPool
from tests.test_plan_sharded import _shm_segments, _worker_processes


def _total(arrays: dict[str, np.ndarray], offset: float) -> float:
    """Context builder: the sum of the shared array plus an offset."""
    return float(arrays["values"].sum()) + offset


def _add(state: float, task: int) -> float:
    return state + task


def _mapped_segments(state: float, task: int) -> list[str]:
    """The shared-memory files this worker process currently maps."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        return sorted(
            {line.split()[-1] for line in handle if "/psm_" in line}
        )


def _publish(pool: SharedWorkerPool, size: int, offset: float = 0.0) -> None:
    pool.publish("ctx", {"values": np.arange(size, dtype=np.float64)}, _total, offset)


class TestInProcess:
    def test_one_worker_never_spawns_or_exports(self):
        before = _shm_segments()
        with SharedWorkerPool(1) as pool:
            _publish(pool, 10, offset=0.5)
            assert not (_shm_segments() - before)
            assert pool.map("ctx", _add, [1, 2, 3]) == [46.5, 47.5, 48.5]
            assert pool._resources.executor is None

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
        with SharedWorkerPool(2) as pooled, SharedWorkerPool(1) as local:
            for pool in (pooled, local):
                _publish(pool, 100, offset=0.25)
            tasks = list(range(12))
            assert pooled.map("ctx", _add, tasks) == local.map("ctx", _add, tasks)

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
