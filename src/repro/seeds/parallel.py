"""Process-parallel district selection and Step-1 voting at metropolitan scale.

The single-process partition path (:mod:`repro.seeds.partition`) already
restricts every marginal-gain evaluation to one district; at 50k+ roads
the districts themselves become the unit of parallelism. This module
runs them across a process pool:

* The CSR fidelity arrays (``indptr``/``indices``/``data``) and the
  objective's road weights are exported **once** to
  :mod:`multiprocessing.shared_memory` — workers map them read-only, so
  a pool over a 50k-road graph costs one copy of the graph, not one per
  worker.
* Each worker rebuilds a :class:`~repro.history.fidelity.CSRFidelityGraph`
  view over the shared buffers and runs the *unchanged*
  :func:`~repro.seeds.lazy.lazy_greedy_select` against a duck-typed
  objective that computes sparse influence rows with the block kernel
  (CELF's empty-set scan fetches a whole district in one batch) and
  memoises them for the duration of one district task. Because the
  kernel, the transform math and the weight construction are
  byte-identical to the parent's, each district returns the **identical
  seed sequence** the single-process path would have produced for that
  chunk.
* Stitching is deterministic: district results are concatenated in
  district order (the same order the serial loop uses), never in
  completion order, and the final global rescoring runs in the parent.

The same pool also accumulates Step-1 propagation votes per district
(:meth:`DistrictPool.vote_accumulator`): each worker sums its district
seeds' signed log-odds rows into one partial vote vector and the parent
adds the partials in district order — exact up to float re-association
(asserted ≤ 1e-9 against the serial kernel in the differential tests).

Rows are :class:`~repro.history.fidelity.SparseRow` pairs, so a row
costs its reach, not N: a district task keeps every row it computes
(each candidate's row is computed exactly once per task), and the
vote path keeps a seed-keyed row memo for the pool's lifetime — warm
rounds on the same seeds compute no rows at all. That memo is safe
because the pool is bound to one CSR snapshot of the graph, and the
system closes the pool whenever a graph delta changes it. Tasks report
``rows_computed`` and ``nonzeros`` (total row support) alongside
``evaluations``; the parent puts them on the ``seeds.parallel.select``
span.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np

from repro.core.errors import InferenceError, SelectionError
from repro.core.shm import SharedArrayExport, attach_shared_array
from repro.history.fidelity import (
    CSRFidelityGraph,
    SparseRow,
    _transform_row,
    sparse_fidelity_rows,
)
from repro.obs import get_recorder
from repro.seeds.greedy import SelectionResult, validate_budget
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import CoverageState, SeedSelectionObjective
from repro.seeds.partition import allocate_budget, partition_graph

__all__ = ["DistrictPool", "parallel_partition_select"]


# ----------------------------------------------------------------------
# Shared-memory export
# ----------------------------------------------------------------------
class _SharedGraphExport(SharedArrayExport):
    """The CSR fidelity arrays + road ids + weights, published once."""

    def __init__(self, csr: CSRFidelityGraph, weights: np.ndarray) -> None:
        super().__init__(
            {
                "indptr": csr.indptr,
                "indices": csr.indices,
                "data": csr.data,
                "road_ids": np.asarray(csr.road_ids, dtype=np.int64),
                "weights": np.asarray(weights, dtype=np.float64),
            }
        )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
_worker_csr: CSRFidelityGraph | None = None
_worker_weights: np.ndarray | None = None
_worker_min_fidelity: float = 0.05
_worker_transform: str = "variance"
# Seed road -> sparse log-odds row, for the pool's lifetime.
_worker_vote_rows: dict[int, SparseRow] = {}


def _init_worker(specs: dict, min_fidelity: float, transform: str) -> None:
    """Pool initializer: map the shared arrays and rebuild the CSR view."""
    global _worker_csr, _worker_weights, _worker_min_fidelity, _worker_transform
    road_ids = tuple(int(r) for r in attach_shared_array(specs["road_ids"]))
    _worker_csr = CSRFidelityGraph(
        road_ids=road_ids,
        index={road: i for i, road in enumerate(road_ids)},
        indptr=attach_shared_array(specs["indptr"]),
        indices=attach_shared_array(specs["indices"]),
        data=attach_shared_array(specs["data"]),
    )
    _worker_weights = attach_shared_array(specs["weights"])
    _worker_min_fidelity = float(min_fidelity)
    _worker_transform = transform
    _worker_vote_rows.clear()


class _SharedArrayObjective:
    """Duck-typed objective over the worker's shared CSR arrays.

    Exposes exactly the surface :class:`~repro.seeds.objective.
    CoverageState` and :func:`~repro.seeds.lazy.lazy_greedy_select`
    touch (``num_roads``/``road_ids``/``index``/``weights``/
    ``influence_row``/``influence_rows``/``new_state``), with rows
    computed from the shared arrays by the same kernel + transform
    math the parent's cache service uses — so gains, tie-breaks and
    therefore seed sequences are bitwise identical to the parent's.
    Built once per district task; its row memo lives exactly as long.
    """

    def __init__(
        self,
        csr: CSRFidelityGraph,
        weights: np.ndarray,
        members: list[int],
        min_fidelity: float,
        transform: str,
    ) -> None:
        self._csr = csr
        self.num_roads = csr.num_roads
        self.index = csr.index
        self._min_fidelity = min_fidelity
        self._transform = transform
        # Zero weights outside the district, the district's own global
        # weights inside — the same array clone_with_weights builds.
        self.weights = np.zeros(csr.num_roads, dtype=np.float64)
        positions = [csr.index[road] for road in members]
        self.weights[positions] = weights[positions]
        self._rows: dict[int, SparseRow] = {}
        self.rows_computed = 0
        self.nonzeros = 0

    @property
    def road_ids(self) -> list[int]:
        return list(self._csr.road_ids)

    def influence_row(self, road: int) -> SparseRow:
        row = self._rows.get(road)
        if row is None:
            row = self.influence_rows([road])[0]
        return row

    def influence_rows(self, roads: list[int]) -> list[SparseRow]:
        memo = self._rows
        missing = list(dict.fromkeys(road for road in roads if road not in memo))
        if missing:
            positions = [self.index[road] for road in missing]
            raws = sparse_fidelity_rows(self._csr, positions, self._min_fidelity)
            for road, position, raw in zip(missing, positions, raws):
                memo[road] = _transform_row(raw, position, self._transform)
                self.nonzeros += raw.indices.size
            self.rows_computed += len(missing)
        return [memo[road] for road in roads]

    def new_state(self) -> CoverageState:
        return CoverageState(self)


def _select_chunk(
    task: tuple[list[int], int]
) -> tuple[tuple[int, ...], int, int, int]:
    """Worker task: CELF inside one district.

    Returns ``(seeds, evaluations, rows_computed, nonzeros)``.
    """
    chunk, share = task
    assert _worker_csr is not None and _worker_weights is not None
    objective = _SharedArrayObjective(
        _worker_csr,
        _worker_weights,
        chunk,
        _worker_min_fidelity,
        _worker_transform,
    )
    result = lazy_greedy_select(objective, share, candidates=chunk)  # type: ignore[arg-type]
    return (
        result.seeds,
        result.evaluations,
        objective.rows_computed,
        objective.nonzeros,
    )


def _vote_chunk(
    pairs: tuple[tuple[int, float], ...]
) -> tuple[np.ndarray, int]:
    """Worker task: partial Step-1 vote vector for one district's seeds."""
    assert _worker_csr is not None
    csr = _worker_csr
    memo = _worker_vote_rows
    seeds = dict.fromkeys(road for road, _ in pairs)
    missing = [road for road in seeds if road not in memo]
    positions = [csr.index[road] for road in missing]
    raws = sparse_fidelity_rows(csr, positions, _worker_min_fidelity)
    for road, position, raw in zip(missing, positions, raws):
        memo[road] = _transform_row(raw, position, "logodds")
    votes = np.zeros(csr.num_roads, dtype=np.float64)
    nonzeros = 0
    for road, sign in pairs:
        row = memo[road]
        nonzeros += int(np.count_nonzero(row.values))
        # Off the support a dense add would add +-0.0: a no-op here.
        votes[row.indices] += sign * row.values
    return votes, nonzeros


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class DistrictPool:
    """A process pool bound to one objective's graph via shared arrays.

    Create once, reuse for every selection and Step-1 round on the same
    system (spawning workers and exporting the arrays is the expensive
    part). Close explicitly (or use as a context manager) to release
    the pool and unlink the shared segments.
    """

    def __init__(
        self,
        objective: SeedSelectionObjective,
        num_partitions: int = 8,
        num_workers: int = 0,
    ) -> None:
        self._objective = objective
        self._graph = objective.graph
        self._partitions = partition_graph(objective, num_partitions)
        self._district_of = {
            road: district
            for district, chunk in enumerate(self._partitions)
            for road in chunk
        }
        csr = objective.fidelity_service.csr(self._graph)
        self._export = _SharedGraphExport(csr, objective.weights)
        workers = num_workers or (os.cpu_count() or 1)
        self.num_workers = max(1, min(workers, len(self._partitions)))
        self._pool = ProcessPoolExecutor(
            max_workers=self.num_workers,
            mp_context=get_context("spawn"),
            initializer=_init_worker,
            initargs=(
                self._export.specs,
                objective.min_fidelity,
                objective.transform,
            ),
        )
        self._closed = False
        recorder = get_recorder()
        recorder.gauge("seeds.parallel.workers", self.num_workers)
        recorder.gauge("seeds.parallel.districts", len(self._partitions))
        recorder.gauge("seeds.parallel.shared_bytes", self._export.nbytes)

    @property
    def partitions(self) -> list[list[int]]:
        return [list(chunk) for chunk in self._partitions]

    def _check_open(self) -> None:
        if self._closed:
            raise SelectionError("district pool is closed")

    def select(self, budget: int) -> SelectionResult:
        """District-parallel partition greedy; deterministic stitching.

        Identical output to :func:`~repro.seeds.partition.
        partition_greedy_select` with the same ``num_partitions`` —
        same seed sequence, same gains/values — because each worker
        runs the same CELF on bitwise-equal rows and districts are
        stitched in district order, not completion order.
        """
        self._check_open()
        validate_budget(self._objective, budget)
        shares = allocate_budget(self._partitions, budget)
        recorder = get_recorder()
        with recorder.span(
            "seeds.parallel.select",
            budget=budget,
            districts=len(self._partitions),
            workers=self.num_workers,
        ) as span:
            futures = [
                (self._pool.submit(_select_chunk, (chunk, share)))
                for chunk, share in zip(self._partitions, shares)
                if share > 0
            ]
            seeds: list[int] = []
            evaluations = rows_computed = nonzeros = 0
            # future order == district order == serial stitch order.
            for future in futures:
                chunk_seeds, chunk_evaluations, chunk_rows, chunk_nonzeros = (
                    future.result()
                )
                seeds.extend(chunk_seeds)
                evaluations += chunk_evaluations
                rows_computed += chunk_rows
                nonzeros += chunk_nonzeros

            # Global rescoring in the parent, exactly as the serial path.
            state = self._objective.new_state()
            gains: list[float] = []
            values: list[float] = []
            for seed in seeds:
                gains.append(state.add(seed))
                values.append(state.value)
            span.set(
                evaluations=evaluations,
                rows_computed=rows_computed,
                nonzeros=nonzeros,
                objective=round(state.value, 3),
            )
        return SelectionResult(
            method="partition-greedy-parallel",
            seeds=tuple(seeds),
            gains=tuple(gains),
            values=tuple(values),
            evaluations=evaluations,
        )

    def vote_accumulator(
        self, graph, seeds: list[int], signs: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """District-partial Step-1 vote accumulation.

        Drop-in for the serial ``signs @ logodds_rows`` matmul in
        :class:`~repro.trend.propagation.TrendPropagationInference`:
        each district's partial vote vector is computed by a worker and
        the partials are summed in district order, so the result is
        deterministic and within float re-association (≤ 1e-9) of the
        serial kernel. Never materialises the (S, N) stacked matrix.
        """
        self._check_open()
        if graph is not self._graph:
            raise InferenceError(
                "district pool is bound to a different correlation graph"
            )
        buckets: dict[int, list[tuple[int, float]]] = {}
        for road, sign in zip(seeds, signs):
            buckets.setdefault(self._district_of[road], []).append(
                (road, float(sign))
            )
        votes = np.zeros(self._export.specs["weights"].shape[0], dtype=np.float64)
        ordered = [
            self._pool.submit(_vote_chunk, tuple(buckets[district]))
            for district in sorted(buckets)
        ]
        nonzeros = 0
        for future in ordered:
            partial, partial_nonzeros = future.result()
            votes += partial
            nonzeros += partial_nonzeros
        get_recorder().count(
            "trend.propagation.parallel_votes", nonzeros, districts=len(buckets)
        )
        return votes, nonzeros

    def close(self) -> None:
        """Shut the pool down and unlink the shared segments."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        self._export.close()

    def __enter__(self) -> "DistrictPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parallel_partition_select(
    objective: SeedSelectionObjective,
    budget: int,
    num_partitions: int = 8,
    num_workers: int = 0,
) -> SelectionResult:
    """One-shot district-parallel partition greedy (pool per call).

    Systems running many rounds should hold a :class:`DistrictPool`
    instead and amortise the worker spawn + shared export.
    """
    with DistrictPool(objective, num_partitions, num_workers) as pool:
        return pool.select(budget)
