"""The scalar Step-1 vote loop: the reference for ``TrendPropagationInference``."""

from __future__ import annotations

import math
import weakref

import numpy as np

from repro.trend.model import TrendInstance, TrendPosterior
from repro.trend.propagation import instance_graph
from tests.oracles.fidelity import propagate_fidelity


class ScalarPropagationInference:
    """Prior log-odds plus one dict walk per seed vote, then evidence clamps.

    Evidence on roads absent from the instance's index or from the
    correlation graph neither votes nor (when unindexed) clamps. Each
    seed's scalar fidelity row is computed once per graph, as the
    production cache does, so warm timings compare vote loops only.
    """

    def __init__(
        self,
        min_fidelity: float = 0.05,
        max_hops: int | None = None,
        prior_weight: float = 1.0,
    ) -> None:
        self._min_fidelity = min_fidelity
        self._max_hops = max_hops
        self._prior_weight = prior_weight
        self._rows: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def infer(self, instance: TrendInstance) -> TrendPosterior:
        prior = np.clip(instance.prior_rise, 1e-6, 1.0 - 1e-6)
        log_odds = self._prior_weight * np.log(prior / (1.0 - prior))
        graph = instance_graph(instance)
        index = instance.index
        rows = self._rows.setdefault(graph, {})
        for seed_road in sorted(instance.evidence):
            if seed_road not in index or not graph.has_road(seed_road):
                continue
            sign = float(int(instance.evidence[seed_road]))
            fidelities = rows.get(seed_road)
            if fidelities is None:
                fidelities = rows[seed_road] = propagate_fidelity(
                    graph, seed_road, self._min_fidelity, self._max_hops
                )
            for road, q in fidelities.items():
                if road == seed_road:
                    continue
                i = index.get(road)
                if i is None:
                    continue
                q = min(q, 1.0 - 1e-9)
                log_odds[i] += sign * math.log((1.0 + q) / (1.0 - q))

        p_rise = 1.0 / (1.0 + np.exp(-np.clip(log_odds, -500, 500)))
        for road, trend in instance.evidence.items():
            i = index.get(road)
            if i is None:
                continue
            p_rise[i] = 1.0 if trend.value == 1 else 0.0
        return TrendPosterior(instance.road_ids, p_rise)
