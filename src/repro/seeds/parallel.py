"""District seed selection as tasks on the shared worker pool.

The single-process partition path (:mod:`repro.seeds.partition`) already
restricts every marginal-gain evaluation to one district; at 50k+ roads
the districts themselves become the unit of parallelism. This module
turns them into tasks on a :class:`~repro.core.pool.SharedWorkerPool`:

* The ``"district"`` context is the CSR fidelity arrays
  (``indptr``/``indices``/``data``), the road ids and the objective's
  road weights, exported **once** to shared memory — a pool over a
  50k-road graph costs one copy of the graph, not one per worker.
* A worker builds the context state once per context: a
  :class:`~repro.history.fidelity.CSRFidelityGraph` view over the shared
  buffers. A selection task runs the *unchanged*
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

Step-1 votes do not run here: they are one sparse sum in the parent
(:class:`~repro.trend.propagation.TrendPropagationInference`) for
every config, over the same cached rows Step 2 reads.

Rows are :class:`~repro.history.fidelity.SparseRow` pairs, so a row
costs its reach, not N: a district task keeps every row it computes
(each candidate's row is computed exactly once per task). Tasks report
``rows_computed`` and ``nonzeros`` (total row support) alongside
``evaluations``; the parent puts them on the ``seeds.parallel.select``
span.
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
) -> tuple[tuple[int, ...], int, int, int]:
    """Task: CELF inside one district.

    Returns ``(seeds, evaluations, rows_computed, nonzeros)``.
    """
    chunk, share = task
    objective = _SharedArrayObjective(
        state.csr, state.weights, chunk, state.min_fidelity, state.transform
    )
    result = lazy_greedy_select(objective, share, candidates=chunk)  # type: ignore[arg-type]
    return (
        result.seeds,
        result.evaluations,
        objective.rows_computed,
        objective.nonzeros,
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class DistrictStage:
    """District selection as tasks on a worker pool.

    Bound to one objective's graph. Before each batch the stage checks
    the fidelity service's CSR export of that graph: when it is a new
    object (a graph delta or a wholesale invalidation rebuilt it), the
    districts are re-partitioned and the ``"district"`` context is
    republished on the same workers.
    """

    def __init__(
        self,
        objective: SeedSelectionObjective,
        pool: SharedWorkerPool,
        num_partitions: int = 8,
    ) -> None:
        self._objective = objective
        self._graph = objective.graph
        self._pool = pool
        self._num_partitions = num_partitions
        self._csr: CSRFidelityGraph | None = None
        self._partitions: list[list[int]] = []

    def _publish(self) -> None:
        """Bind the stage to the current CSR, republishing if it changed."""
        csr = self._objective.fidelity_service.csr(self._graph)
        if csr is self._csr:
            return
        self._partitions = partition_graph(self._objective, self._num_partitions)
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
        """The CSR export the published context was built from."""
        return self._csr

    @property
    def partitions(self) -> list[list[int]]:
        self._publish()
        return [list(chunk) for chunk in self._partitions]

    def select(self, budget: int) -> SelectionResult:
        """District-parallel partition greedy; deterministic stitching.

        Identical output to :func:`~repro.seeds.partition.
        partition_greedy_select` with the same ``num_partitions`` —
        same seed sequence, same gains/values — because each task runs
        the same CELF on bitwise-equal rows and districts are stitched
        in district order, not completion order.
        """
        validate_budget(self._objective, budget)
        self._publish()
        shares = allocate_budget(self._partitions, budget)
        recorder = get_recorder()
        with recorder.span(
            "seeds.parallel.select",
            budget=budget,
            districts=len(self._partitions),
            workers=self._pool.num_workers,
        ) as span:
            results = self._pool.map(
                "district",
                _select_chunk,
                [
                    (chunk, share)
                    for chunk, share in zip(self._partitions, shares)
                    if share > 0
                ],
            )
            seeds: list[int] = []
            evaluations = rows_computed = nonzeros = 0
            for chunk_seeds, chunk_evaluations, chunk_rows, chunk_nonzeros in results:
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
