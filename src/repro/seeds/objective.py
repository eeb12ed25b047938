"""The seed-selection objective: probabilistic influence coverage.

A seed helps exactly to the extent that its evidence reaches other
roads, so the quality of a seed set ``S`` is measured by how well it
covers the network with influence::

    Q(S) = Σ_r w_r · (1 − Π_{u ∈ S} (1 − q(u → r)))

where ``q(u → r)`` derives from the best-path fidelity from seed ``u``
to road ``r`` over the correlation graph (the same influence notion the
fast Step-1 inference uses) and ``w_r`` is an optional road importance
weight. The inner product treats seeds as independent coverage trials —
the probabilistic-coverage form standard in influence maximisation.

**Influence calibration.** Raw trend fidelity ``q = 2p − 1`` measures
*sign* agreement, which under-states how much of a road's speed
variance a seed explains: for jointly Gaussian deviations the Pearson
correlation is ``ρ = sin(πq/2) ≥ q``. The default ``"variance"``
transform therefore scores a seed's influence as the variance explained
``ρ² = sin²(πq/2)``, which aligns the coverage objective with the
downstream Step-2 regression error (verified in experiment F5). The
``"fidelity"`` transform keeps raw ``q`` for analyses of the trend step
itself.

**Implementation.** Influence rows come from the shared
:class:`~repro.history.fidelity.FidelityCacheService` as sparse
``(indices, values)`` rows (one cache across selection, Step-1
inference and Step-2 regression; clones and partitioned selection
share it for free), so a marginal-gain query is one dot product over
the row's support and a seed addition is a residual update over the
same support — both O(reach), independent of N. The original dict-walk
implementation lives on as a test oracle
(``tests/oracles/objective.py``); experiment F4 asserts both produce
byte-identical greedy/CELF seed sequences.

**Properties** (exploited by the greedy algorithms and property-tested
in the suite):

* *Monotone*: adding a seed never decreases Q.
* *Submodular*: the marginal gain of a seed shrinks as the set grows,
  because ``(1 − q)`` factors only ever multiply the residual down.

Hence plain greedy achieves the (1 − 1/e) approximation of Nemhauser et
al., and lazy evaluation (CELF) is valid. Maximising Q exactly is
NP-hard — ``tests/oracles/hardness.py`` holds the machine-checked
reduction from Set Cover.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.errors import SelectionError
from repro.history.correlation import CorrelationGraph
from repro.history.fidelity import (
    FidelityCacheService,
    SparseRow,
    get_fidelity_service,
)

#: Supported influence transforms (see module docstring).
INFLUENCE_TRANSFORMS = ("variance", "fidelity")


class CoverageState:
    """Mutable residual-coverage tracker for one growing seed set.

    ``residual[r] = Π_{u∈S} (1 − q(u→r))`` — the probability road ``r``
    is still *uncovered*. The state makes marginal-gain queries O(reach)
    and additions O(reach). Seed membership is tracked in a set
    alongside the ordered list, so the CELF inner loop's gain queries
    cost O(1) membership checks instead of O(K) list scans; adding an
    already-selected seed is a no-op (gain 0, state untouched).
    """

    def __init__(self, objective: "SeedSelectionObjective") -> None:
        self._objective = objective
        self.residual = np.ones(objective.num_roads)
        # weights * residual entry for entry (the same IEEE products the
        # gain would form), kept in step by add so a gain is one gather
        # and one dot product over the support.
        self._weighted = np.array(objective.weights, dtype=np.float64)
        self.seeds: list[int] = []
        self._selected: set[int] = set()
        self.value = 0.0

    def gain(self, candidate: int) -> float:
        """Marginal gain of adding ``candidate`` to the current set."""
        if candidate in self._selected:
            return 0.0
        objective = self._objective
        if candidate not in objective.index:
            raise SelectionError(f"candidate {candidate} not in correlation graph")
        indices, values = objective.influence_row(candidate)
        return float(self._weighted[indices] @ values)

    def gains(self, candidates: list[int]) -> list[float]:
        """:meth:`gain` of each candidate, in order.

        The scan form (CELF's empty-set heap, incremental re-selection's
        dirty rescan): the rows the scan lacks are fetched in one batch
        the block kernel computes together, instead of one kernel call
        per candidate.
        """
        objective = self._objective
        unknown = [c for c in candidates if c not in objective.index]
        if unknown:
            raise SelectionError(f"candidate {unknown[0]} not in correlation graph")
        selected = self._selected
        weighted = self._weighted
        return [
            0.0 if candidate in selected else float(weighted[indices] @ values)
            for candidate, (indices, values) in zip(
                candidates, objective.influence_rows(candidates)
            )
        ]

    def add(self, seed: int) -> float:
        """Add a seed; returns its realised marginal gain.

        Re-adding a seed already in the set returns 0 and leaves
        ``residual``, ``seeds`` and ``value`` unchanged.
        """
        gain = self.gain(seed)
        if seed in self._selected:
            return gain
        objective = self._objective
        indices, values = objective.influence_row(seed)
        self.residual[indices] *= 1.0 - values
        self._weighted[indices] = objective.weights[indices] * self.residual[indices]
        self.seeds.append(seed)
        self._selected.add(seed)
        self.value += gain
        return gain


class SeedSelectionObjective:
    """Influence-coverage objective over a correlation graph.

    ``min_fidelity`` truncates influence propagation (matching the fast
    inference); ``road_weights`` defaults to uniform. A road always
    covers itself with fidelity 1, so Q(S) ≥ Σ_{u∈S} w_u.
    ``fidelity_service`` is the shared cross-stage influence cache
    (defaults to the process-wide service).
    """

    def __init__(
        self,
        graph: CorrelationGraph,
        min_fidelity: float = 0.05,
        road_weights: dict[int, float] | None = None,
        transform: str = "variance",
        fidelity_service: FidelityCacheService | None = None,
    ) -> None:
        if transform not in INFLUENCE_TRANSFORMS:
            raise SelectionError(
                f"unknown influence transform {transform!r}; "
                f"choose from {INFLUENCE_TRANSFORMS}"
            )
        self._graph = graph
        self._min_fidelity = min_fidelity
        self._transform = transform
        self._service = fidelity_service or get_fidelity_service()
        # Influence rows are CSR-ordered; the objective adopts the same
        # (sorted road id) order so rows need no re-indexing.
        self._road_ids = list(self._service.csr(graph).road_ids)
        self.index: dict[int, int] = {road: i for i, road in enumerate(self._road_ids)}
        if road_weights is None:
            self.weights = np.ones(len(self._road_ids))
        else:
            missing = set(road_weights) - set(self._road_ids)
            if missing:
                raise SelectionError(
                    f"weights given for unknown roads {sorted(missing)[:5]}"
                )
            self.weights = np.array(
                [road_weights.get(road, 0.0) for road in self._road_ids]
            )
            if np.any(self.weights < 0):
                raise SelectionError("road weights must be non-negative")
        # A reference memo over the service cache (same arrays, no second
        # copy) so the CELF inner loop skips service bookkeeping.
        self._row_memo: dict[int, SparseRow] = {}
        self._service.subscribe(self._on_rows_invalidated)

    def _on_rows_invalidated(self, graph, roads) -> None:
        """Drop the memoized rows the service dropped (all on ``None``).

        The memo holds references into the shared service cache, so
        without this the objective would serve dropped rows forever.
        """
        if graph is not None and graph is not self._graph:
            return
        if roads is None:
            self._row_memo.clear()
            return
        for road in roads:
            self._row_memo.pop(road, None)

    @property
    def graph(self) -> CorrelationGraph:
        return self._graph

    @property
    def fidelity_service(self) -> FidelityCacheService:
        return self._service

    @property
    def num_roads(self) -> int:
        return len(self._road_ids)

    @property
    def road_ids(self) -> list[int]:
        return list(self._road_ids)

    @property
    def max_value(self) -> float:
        """The objective's ceiling: every road fully covered."""
        return float(self.weights.sum())

    @property
    def transform(self) -> str:
        return self._transform

    @property
    def min_fidelity(self) -> float:
        return self._min_fidelity

    def influence_row(self, road: int) -> SparseRow:
        """Sparse transformed influence row for ``road`` (read-only).

        ``indices`` are :attr:`index` positions of the roads ``road``
        reaches (itself included, with self-influence 1); unreachable
        roads are simply absent.
        """
        row = self._row_memo.get(road)
        if row is None:
            row = self.influence_rows([road])[0]
        return row

    def influence_rows(self, roads: list[int]) -> list[SparseRow]:
        """:meth:`influence_row` of each road, in order.

        Roads missing from the memo are fetched from the service in one
        :meth:`~repro.history.fidelity.FidelityCacheService.sparse_rows`
        batch, each exactly once.
        """
        memo = self._row_memo
        missing = list(dict.fromkeys(road for road in roads if road not in memo))
        if missing:
            fetched = self._service.sparse_rows(
                self._graph,
                missing,
                min_fidelity=self._min_fidelity,
                transform=self._transform,
            )
            memo.update(zip(missing, fetched))
        return [memo[road] for road in roads]

    def clone_with_weights(
        self, road_weights: dict[int, float]
    ) -> "SeedSelectionObjective":
        """A same-settings objective with different road weights.

        The influence cache is shared through the fidelity service
        (influence depends only on the graph, floor and transform),
        which is what makes partitioned selection cheap.
        """
        return SeedSelectionObjective(
            self._graph,
            min_fidelity=self._min_fidelity,
            road_weights=road_weights,
            transform=self._transform,
            fidelity_service=self._service,
        )

    def new_state(self) -> CoverageState:
        """A fresh empty-set coverage state."""
        return CoverageState(self)

    def value(self, seeds: Iterable[int]) -> float:
        """Q(S) computed from scratch (use CoverageState when iterating)."""
        state = self.new_state()
        for seed in dict.fromkeys(seeds):  # preserve order, drop duplicates
            state.add(seed)
        return state.value

    def coverage_fraction(self, seeds: Iterable[int]) -> float:
        """Q(S) normalised by its ceiling, in [0, 1]."""
        ceiling = self.max_value
        if ceiling <= 0:
            raise SelectionError("objective ceiling is zero; no weighted roads")
        return self.value(seeds) / ceiling
