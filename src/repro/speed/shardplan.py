"""The plan-compile process pool: district structure compiles in workers.

:class:`~repro.speed.plan.IntervalPlanner` compiles one
:class:`~repro.speed.plan._SeedStructure` per district. With a
:class:`PlanCompilePool` those compiles run across a spawn process pool:
the regression's centred history matrix and the store's column order
are exported once through :class:`~repro.core.shm.SharedArrayExport`,
so workers fit regressions without pickling the HLM, and the returned
coefficient blocks are bitwise equal to an in-process compile. The
planner hands each task its district's slice of the influence index.

A worker that dies surfaces as :class:`~concurrent.futures.process.
BrokenProcessPool` from :meth:`PlanCompilePool.compile_shards`; the
planner then closes the pool and compiles in-process (see
:meth:`~repro.speed.plan.IntervalPlanner._compile_districts`).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Sequence

import numpy as np

from repro.core.errors import InferenceError
from repro.core.shm import SharedArrayExport, attach_shared_array
from repro.history.store import HistoricalSpeedStore
from repro.obs import get_recorder
from repro.speed.hlm import HierarchicalLinearModel, HlmParams, JointSeedRegression
from repro.speed.plan import _SeedStructure, compile_seed_structure

__all__ = ["PlanCompilePool"]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_plan_regression: JointSeedRegression | None = None


def _init_plan_worker(specs: dict, params: HlmParams) -> None:
    """Pool initializer: rebuild the regression over shared arrays."""
    global _plan_regression
    centred = attach_shared_array(specs["centred"])
    road_ids = tuple(int(r) for r in attach_shared_array(specs["road_ids"]))
    _plan_regression = JointSeedRegression.from_arrays(centred, road_ids, params)


def _compile_shard_task(
    task: tuple[tuple[int, ...], tuple[int, ...], dict[int, dict[int, float]]]
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
    list[np.ndarray], float,
]:
    """Worker task: compile one district's structure rows."""
    seeds, members, influence = task
    assert _plan_regression is not None
    start = time.perf_counter()
    structure = compile_seed_structure(
        _plan_regression, _plan_regression.params, seeds, members, influence
    )
    compile_s = time.perf_counter() - start
    return (
        structure.coef,
        structure.seed_idx,
        structure.reg_weight,
        structure.has_reg,
        structure.residual_std,
        structure.rows_by_seed,
        compile_s,
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class PlanCompilePool:
    """A process pool for district structure compiles on one history.

    Exports the joint regression's centred deviation matrix and the
    store's column order once; workers fit per-road ridge regressions
    against the shared (bit-identical) matrix, so returned coefficient
    blocks are bitwise equal to an in-process compile. Create once per
    fitted system and reuse across seed sets; close explicitly (or via
    the owning pipeline) to release workers and shared segments.
    """

    def __init__(
        self,
        hlm: HierarchicalLinearModel,
        store: HistoricalSpeedStore,
        num_workers: int = 0,
    ) -> None:
        self._export = SharedArrayExport(
            {
                "centred": hlm.regression.centred,
                "road_ids": np.asarray(store.road_ids, dtype=np.int64),
            }
        )
        self.num_workers = max(1, num_workers or (os.cpu_count() or 1))
        self._pool = ProcessPoolExecutor(
            max_workers=self.num_workers,
            mp_context=get_context("spawn"),
            initializer=_init_plan_worker,
            initargs=(self._export.specs, hlm.params),
        )
        self._closed = False
        recorder = get_recorder()
        recorder.gauge("plan.parallel.workers", self.num_workers)
        recorder.gauge("plan.parallel.shared_bytes", self._export.nbytes)

    def compile_shards(
        self,
        seeds: tuple[int, ...],
        tasks: Sequence[tuple[tuple[int, ...], dict[int, dict[int, float]]]],
    ) -> list[tuple[_SeedStructure, float]]:
        """One (structure, worker compile seconds) per task, in order.

        Raises :class:`~concurrent.futures.process.BrokenProcessPool`
        when a worker died; the pool is unusable after that.
        """
        if self._closed:
            raise InferenceError("plan compile pool is closed")
        futures = [
            self._pool.submit(_compile_shard_task, (seeds, members, influence))
            for members, influence in tasks
        ]
        structures: list[tuple[_SeedStructure, float]] = []
        # future order == district order == stitch order, never
        # completion order.
        for future in futures:
            (
                coef, seed_idx, reg_weight, has_reg, residual_std,
                rows_by_seed, compile_s,
            ) = future.result()
            structures.append(
                (
                    _SeedStructure(
                        seeds=seeds,
                        coef=coef,
                        seed_idx=seed_idx,
                        reg_weight=reg_weight,
                        has_reg=has_reg,
                        residual_std=residual_std,
                        rows_by_seed=rows_by_seed,
                    ),
                    compile_s,
                )
            )
        return structures

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        self._export.close()

    def __enter__(self) -> "PlanCompilePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
