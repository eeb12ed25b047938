"""Fast trend inference by seed-evidence propagation.

This is the reproduction of the paper's *efficient* inference algorithm —
the one behind the "2 orders of magnitude in efficiency" claim. Instead
of iterating message passing over the whole graph, evidence flows
outward from each seed along **best-fidelity paths**:

* An edge with trend-agreement ``p`` behaves like a binary symmetric
  channel: it transmits a trend correctly with probability ``p``, so its
  *fidelity* is ``q = 2p - 1 ∈ (0, 1)`` (the correlation of the two
  endpoint trends).
* Fidelity composes multiplicatively along a path (channel chaining),
  so the influence of seed ``s`` on road ``r`` is the maximum over paths
  of the product of edge fidelities — computed by the shared
  :mod:`repro.history.fidelity` kernel, pruned once fidelity drops
  below ``min_fidelity``.
* Each seed's evidence then contributes an independent log-likelihood-
  ratio vote of magnitude ``log((1+q)/(1-q))``, signed by the seed's
  observed trend, added to the road's prior log-odds.

Because propagation is pruned at a fidelity floor, per-seed work is a
small constant neighbourhood, making inference near-linear in the number
of seeds and independent of total network size — which is exactly the
scaling experiment F3 demonstrates.

The hot path is one sparse sum in the calling process: per-seed
``log((1+q)/(1-q))`` vote rows are served by the shared
:class:`~repro.history.fidelity.FidelityCacheService` (one cache across
inference, seed selection and Step-2 regression) as
:class:`~repro.history.fidelity.SparseRow` supports, and one interval's
votes are a single ``np.bincount`` over the concatenated supports,
weighted by the signed row values. Each road's votes add up in seed
order, so the result does not depend on any worker count, and no
``(S, N)`` matrix is ever built: the work is the seeds' total reach.
The original dict/heap vote loop lives on as a test oracle
(``tests/oracles/propagation.py``): experiment F3 asserts this path
matches it to 1e-9 while being several times faster.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InferenceError
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import (
    CSRFidelityGraph,
    FidelityCacheService,
    get_fidelity_service,
)
from repro.obs import get_recorder
from repro.trend.model import TrendInstance, TrendPosterior

__all__ = ["TrendPropagationInference", "instance_graph"]


def instance_graph(instance: TrendInstance) -> CorrelationGraph:
    """The correlation graph an instance was built from.

    Instances produced by :class:`~repro.trend.model.TrendModel` carry a
    reference to their source graph; hand-built instances (tests) get a
    graph reconstructed from their edge list.
    """
    if instance.graph is not None:
        return instance.graph
    roads = list(instance.road_ids)
    edges = [CorrelationEdge(roads[i], roads[j], p) for i, j, p in instance.edges]
    return CorrelationGraph(roads, edges)


class TrendPropagationInference:
    """The fast Step-1 inference: independent seed votes in log-odds space.

    ``fidelity_service`` is the shared cross-stage influence cache
    (defaults to the process-wide service). Evidence on roads absent
    from the instance's index or the correlation graph is skipped
    consistently in both the vote and the clamp stage.
    """

    def __init__(
        self,
        min_fidelity: float = 0.05,
        prior_weight: float = 1.0,
        fidelity_service: FidelityCacheService | None = None,
    ) -> None:
        if prior_weight < 0.0:
            raise InferenceError("prior_weight must be non-negative")
        self._min_fidelity = min_fidelity
        self._prior_weight = prior_weight
        self._service = fidelity_service or get_fidelity_service()

    @property
    def fidelity_service(self) -> FidelityCacheService:
        return self._service

    def infer(self, instance: TrendInstance) -> TrendPosterior:
        """Posterior P(RISE) per road from prior + seed votes."""
        recorder = get_recorder()
        with recorder.span(
            "trend.propagation",
            roads=instance.num_roads,
            seeds=len(instance.evidence),
        ) as span:
            prior = np.clip(instance.prior_rise, 1e-6, 1.0 - 1e-6)
            log_odds = self._prior_weight * np.log(prior / (1.0 - prior))

            graph = instance_graph(instance)
            csr = self._service.csr(graph)
            if csr.road_ids == instance.road_ids:
                index = csr.index
            else:
                index = instance.index
            before = self._service.stats()
            votes = self._accumulate(graph, csr, instance, index, log_odds)
            after = self._service.stats()
            cache_hits = after.hits - before.hits
            cache_misses = after.misses - before.misses

            p_rise = 1.0 / (1.0 + np.exp(-np.clip(log_odds, -500, 500)))
            for road, trend in instance.evidence.items():
                i = index.get(road)
                if i is None:
                    continue
                p_rise[i] = 1.0 if trend.value == 1 else 0.0
            span.set(votes=votes, cache_misses=cache_misses)
            recorder.count("trend.propagation.votes", votes)
            if cache_hits:
                recorder.count("trend.propagation.cache", cache_hits, hit="true")
            if cache_misses:
                recorder.count(
                    "trend.propagation.cache", cache_misses, hit="false"
                )
            return TrendPosterior(instance.road_ids, p_rise)

    def _accumulate(
        self,
        graph: CorrelationGraph,
        csr: CSRFidelityGraph,
        instance: TrendInstance,
        index: dict[int, int],
        log_odds: np.ndarray,
    ) -> int:
        """One sparse sum: ``log_odds += sum_s sign_s * log((1+q)/(1-q))``."""
        # Evidence roads missing from the instance index or from the
        # correlation graph do not vote — the same unknown-evidence
        # policy the clamp stage applies. Sorted: the canonical order.
        seeds = [
            road
            for road in sorted(instance.evidence)
            if road in index and graph.has_road(road)
        ]
        if not seeds:
            return 0
        rows = self._service.sparse_rows(
            graph, seeds, self._min_fidelity, "logodds"
        )
        signs = np.fromiter(
            (float(int(instance.evidence[s])) for s in seeds),
            dtype=np.float64,
            count=len(seeds),
        )
        sizes = np.fromiter(
            (row.indices.size for row in rows), dtype=np.int64, count=len(rows)
        )
        weights = np.repeat(signs, sizes) * np.concatenate([row.values for row in rows])
        # bincount adds each road's weights in array order: seed order.
        votes_csr = np.bincount(
            np.concatenate([row.indices for row in rows]),
            weights=weights,
            minlength=csr.num_roads,
        )
        if csr.index is index:
            log_odds += votes_csr
        else:
            gather = np.fromiter(
                (index.get(road, -1) for road in csr.road_ids),
                dtype=np.int64,
                count=csr.num_roads,
            )
            valid = gather >= 0
            log_odds[gather[valid]] += votes_csr[valid]
        return int(np.count_nonzero(weights))
