"""Partitioned seed selection: the district stage.

The paper picks its crowdsourcing seeds by greedy influence coverage
under a budget K; :class:`DistrictStage` approximates that district by
district. The correlation graph is split into BFS-grown districts
(:func:`~repro.seeds.partition.partition_graph`), the budget is split
across them (:func:`~repro.seeds.partition.allocate_budget`), each
district with a share runs the *unchanged*
:func:`~repro.seeds.lazy.lazy_greedy_select` with influence restricted
to its members, and the picks are stitched in district order and
rescored against the global objective in the parent.

Where a district's CELF runs is the only thing that varies, and the
stage decides it per selection from its pool:

* **In the parent** — no pool, a one-worker pool, or a pool that has
  fallen back to in-process. The objective is
  ``objective.clone_with_weights(...)``, so every row the district
  computes lands in the shared
  :class:`~repro.history.fidelity.FidelityCacheService` for Step 2 and
  later selections to reuse.
* **On the pool** — the ``"district"`` context is the CSR fidelity
  arrays (``indptr``/``indices``/``data``), the road ids and the
  objective's road weights, exported **once** to shared memory, so a
  pool over a 50k-road graph costs one copy of the graph, not one per
  worker. A worker builds a
  :class:`~repro.history.fidelity.CSRFidelityGraph` view once per
  context, and each task runs CELF against a duck-typed objective that
  computes sparse influence rows with the block kernel and memoises
  them for the duration of one district task.

The kernel, the transform math and the weight construction are
byte-identical either way, so both return the identical seed sequence,
gains and values; ``tests/oracles/partition.py`` keeps the original
single-process loop as the reference. Stitching follows district
order, never completion order.

Step-1 votes do not run here: they are one sparse sum in the parent
(:class:`~repro.trend.propagation.TrendPropagationInference`) for
every config, over the same cached rows Step 2 reads.

Rows are :class:`~repro.history.fidelity.SparseRow` pairs, so a row
costs its reach, not N: a pooled district task keeps every row it
computes (each candidate's row is computed exactly once per task).
Pooled tasks report ``rows_computed`` and ``nonzeros`` (total row
support) on the ``seeds.parallel.select`` span; in the parent the
fidelity service counts them (``fidelity.cache``,
``fidelity.row_nonzeros``).
"""

from __future__ import annotations

import numpy as np

from repro.core.pool import SharedWorkerPool
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

__all__ = ["DistrictStage"]


# ----------------------------------------------------------------------
# Worker side: the "district" context and its tasks
# ----------------------------------------------------------------------
class _DistrictState:
    """One worker's district context: the CSR view and the road weights."""

    def __init__(
        self, arrays: dict[str, np.ndarray], min_fidelity: float, transform: str
    ) -> None:
        road_ids = tuple(int(r) for r in arrays["road_ids"])
        self.csr = CSRFidelityGraph(
            road_ids=road_ids,
            index={road: i for i, road in enumerate(road_ids)},
            indptr=arrays["indptr"],
            indices=arrays["indices"],
            data=arrays["data"],
        )
        self.weights = arrays["weights"]
        self.min_fidelity = float(min_fidelity)
        self.transform = transform


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
    state: _DistrictState, task: tuple[list[int], int]
) -> tuple[SelectionResult, int, int]:
    """Task: CELF inside one district over the shared arrays.

    Returns ``(result, rows_computed, nonzeros)``.
    """
    chunk, share = task
    objective = _SharedArrayObjective(
        state.csr, state.weights, chunk, state.min_fidelity, state.transform
    )
    result = lazy_greedy_select(objective, share, candidates=chunk)  # type: ignore[arg-type]
    return result, objective.rows_computed, objective.nonzeros


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class DistrictStage:
    """The partition selector, bound to one objective's graph.

    ``pool`` decides where district tasks run (see the module
    docstring); ``None`` runs them in the parent. Before each selection
    the stage checks the fidelity service's CSR export of the graph:
    when it is a new object (a graph delta or a wholesale invalidation
    rebuilt it), the districts are re-partitioned and, for pooled
    tasks, the ``"district"`` context is republished on the same
    workers.
    """

    def __init__(
        self,
        objective: SeedSelectionObjective,
        pool: SharedWorkerPool | None = None,
        num_partitions: int = 8,
    ) -> None:
        self._objective = objective
        self._graph = objective.graph
        self._pool = pool
        self._num_partitions = num_partitions
        self._csr: CSRFidelityGraph | None = None
        self._partitions: list[list[int]] = []

    def _pooled(self) -> bool:
        """Whether district tasks go to worker processes this time.

        A pool never leaves in-process mode once in it, so a stage that
        bound in the parent never needs the context published later.
        """
        return self._pool is not None and not self._pool.in_process

    def _bind(self, pooled: bool) -> None:
        """Bind the stage to the current CSR, re-partitioning if it changed."""
        csr = self._objective.fidelity_service.csr(self._graph)
        if csr is self._csr:
            return
        self._partitions = partition_graph(self._objective, self._num_partitions)
        if pooled:
            self._pool.publish(
                "district",
                {
                    "indptr": csr.indptr,
                    "indices": csr.indices,
                    "data": csr.data,
                    "road_ids": np.asarray(csr.road_ids, dtype=np.int64),
                    "weights": np.asarray(self._objective.weights, dtype=np.float64),
                },
                _DistrictState,
                self._objective.min_fidelity,
                self._objective.transform,
            )
        self._csr = csr
        get_recorder().gauge("seeds.parallel.districts", len(self._partitions))

    @property
    def csr(self) -> CSRFidelityGraph | None:
        """The CSR export the current districts were built from."""
        return self._csr

    @property
    def partitions(self) -> list[list[int]]:
        self._bind(self._pooled())
        return [list(chunk) for chunk in self._partitions]

    def select(self, budget: int) -> SelectionResult:
        """Partitioned lazy greedy; deterministic district-order stitching."""
        validate_budget(self._objective, budget)
        pooled = self._pooled()
        self._bind(pooled)
        partitions = self._partitions
        shares = allocate_budget(partitions, budget)
        tasks = [(chunk, share) for chunk, share in zip(partitions, shares) if share]
        objective = self._objective
        with get_recorder().span(
            "seeds.parallel.select",
            budget=budget,
            districts=len(partitions),
            workers=self._pool.num_workers if pooled else 1,
        ) as span:
            if pooled:
                outcomes = self._pool.map("district", _select_chunk, tasks)
                results = [result for result, _, _ in outcomes]
                span.set(
                    rows_computed=sum(rows for _, rows, _ in outcomes),
                    nonzeros=sum(nonzeros for _, _, nonzeros in outcomes),
                )
            else:
                results = [
                    lazy_greedy_select(
                        objective.clone_with_weights(
                            {
                                road: float(objective.weights[objective.index[road]])
                                for road in chunk
                            }
                        ),
                        share,
                        candidates=chunk,
                    )
                    for chunk, share in tasks
                ]
            seeds = [seed for result in results for seed in result.seeds]
            evaluations = sum(result.evaluations for result in results)

            # Score the stitched set against the *global* objective so
            # results are comparable across methods.
            state = objective.new_state()
            gains: list[float] = []
            values: list[float] = []
            for seed in seeds:
                gains.append(state.add(seed))
                values.append(state.value)
            span.set(evaluations=evaluations, objective=round(state.value, 3))
        return SelectionResult(
            method="partition-greedy",
            seeds=tuple(seeds),
            gains=tuple(gains),
            values=tuple(values),
            evaluations=evaluations,
        )
