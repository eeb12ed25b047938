"""The whole-city Step-2 plan: the reference for compiled and refreshed plans.

:class:`~repro.speed.plan.IntervalPlanner` compiles a seed set's
structure as a refresh from the prior: it ranks every road's seeds,
fits only the rows whose ranked seeds differ from the structure's and
patches them in place, and after a graph delta refits only the rows
the delta re-ranked. This oracle fits every road in one gather and
one batch (:func:`compile_seed_structure`). Every plan the production
planner serves, cold or refreshed, must match it bit for bit.

:func:`oracle_estimator` builds a
:class:`~repro.speed.estimator.TwoStepEstimator` that serves rounds
through :class:`MonolithicPlanner`: the production planner with only
the structure build and the row invalidation replaced. A row
invalidation that drops a seed's row drops that seed set's structure,
so the next plan refits the whole city from the fresh rows.
"""

from __future__ import annotations

import numpy as np

from repro.speed.estimator import TwoStepEstimator
from repro.speed.hlm import FitBatch, HlmParams, fit_batch
from repro.speed.plan import IntervalPlanner, _SeedStructure


def compile_seed_structure(params: HlmParams, batch: FitBatch) -> _SeedStructure:
    """Fit every row of ``batch`` into a fresh structure, in batch order."""
    rows = np.arange(batch.rows.size)
    structure = _SeedStructure(batch.seeds, rows.size, batch.width)
    structure.patch(rows, fit_batch(params, batch))
    structure.stale = False
    return structure


class MonolithicPlanner(IntervalPlanner):
    """The planner with every structure fitted whole-city in one batch."""

    def _build_structure(self, seeds: tuple[int, ...]) -> _SeedStructure:
        moments = self._hlm.regression.moments(seeds, self.road_ids)
        batch = moments.gather(
            np.arange(len(self.road_ids)), moments.rank(self._rows(seeds))
        )
        return compile_seed_structure(self._hlm.params, batch)

    def _mark_stale(self, roads: set[int]) -> int:
        """Drop each set whose seeds lost a row; it is never refreshed."""
        for seeds in [seeds for seeds in self._held if not roads.isdisjoint(seeds)]:
            del self._held[seeds]
        return 0


def oracle_estimator(network, store, graph, **kwargs) -> TwoStepEstimator:
    """A :class:`~repro.speed.estimator.TwoStepEstimator` whose Step 2
    is served through :class:`MonolithicPlanner` (``kwargs`` as the
    estimator's)."""
    estimator = TwoStepEstimator(network, store, graph, **kwargs)
    planner = estimator._planner
    estimator._planner = MonolithicPlanner(
        store, network, estimator.hlm, planner.road_ids, planner._rows
    )
    return estimator
