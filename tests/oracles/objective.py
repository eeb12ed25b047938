"""Dict-walk influence coverage: the reference for ``CoverageState``.

:class:`ScalarCoverageObjective` exposes the surface the selection
algorithms touch (``graph``, ``num_roads``, ``road_ids``, ``index``,
``weights``, ``new_state``, ``clone_with_weights``), so
``greedy_select``, ``lazy_greedy_select`` and the partition reference
(:mod:`tests.oracles.partition`) run on it unchanged. Influence maps
come from the scalar rows in :mod:`tests.oracles.fidelity`, iterated in
road id order (the order the production rows are stored in).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.errors import SelectionError
from repro.history.correlation import CorrelationGraph
from tests.oracles.fidelity import propagate_fidelity


class ScalarCoverageState:
    """Residual coverage for one growing seed set, one dict walk per query."""

    def __init__(self, objective: "ScalarCoverageObjective") -> None:
        self._objective = objective
        self.residual = np.ones(objective.num_roads)
        self.seeds: list[int] = []
        self._selected: set[int] = set()
        self.value = 0.0

    def gain(self, candidate: int) -> float:
        if candidate in self._selected:
            return 0.0
        objective = self._objective
        if candidate not in objective.index:
            raise SelectionError(f"candidate {candidate} not in correlation graph")
        gain = 0.0
        weights = objective.weights
        index = objective.index
        for road, q in objective.influence_map(candidate).items():
            i = index[road]
            gain += weights[i] * self.residual[i] * q
        return gain

    def gains(self, candidates: list[int]) -> list[float]:
        return [self.gain(candidate) for candidate in candidates]

    def add(self, seed: int) -> float:
        gain = self.gain(seed)
        if seed in self._selected:
            return gain
        index = self._objective.index
        for road, q in self._objective.influence_map(seed).items():
            self.residual[index[road]] *= 1.0 - q
        self.seeds.append(seed)
        self._selected.add(seed)
        self.value += gain
        return gain


class ScalarCoverageObjective:
    """Influence coverage ``Q(S) = Σ_r w_r (1 − Π_u (1 − q(u→r)))``."""

    def __init__(
        self,
        graph: CorrelationGraph,
        min_fidelity: float = 0.05,
        road_weights: dict[int, float] | None = None,
        transform: str = "variance",
        maps: dict[int, dict[int, float]] | None = None,
    ) -> None:
        self.graph = graph
        self.min_fidelity = min_fidelity
        self.transform = transform
        self.road_ids = sorted(graph.road_ids)
        self.num_roads = len(self.road_ids)
        self.index = {road: i for i, road in enumerate(self.road_ids)}
        if road_weights is None:
            self.weights = np.ones(self.num_roads)
        else:
            self.weights = np.array(
                [road_weights.get(road, 0.0) for road in self.road_ids]
            )
        # Clones share the map memo, as production clones share rows.
        self._maps = {} if maps is None else maps

    def influence_map(self, road: int) -> dict[int, float]:
        """road -> transformed influence from ``road`` (incl. itself)."""
        mapping = self._maps.get(road)
        if mapping is None:
            fidelities = sorted(
                propagate_fidelity(self.graph, road, self.min_fidelity).items()
            )
            if self.transform == "variance":
                mapping = {
                    r: math.sin(math.pi * q / 2.0) ** 2 for r, q in fidelities
                }
            else:
                mapping = dict(fidelities)
            self._maps[road] = mapping
        return mapping

    def clone_with_weights(
        self, road_weights: dict[int, float]
    ) -> "ScalarCoverageObjective":
        return ScalarCoverageObjective(
            self.graph,
            self.min_fidelity,
            road_weights,
            self.transform,
            maps=self._maps,
        )

    def new_state(self) -> ScalarCoverageState:
        return ScalarCoverageState(self)
