"""The Step-1 graphical model over road trends.

A pairwise Markov random field on the correlation graph:

* one binary variable per road, ``t_r ∈ {RISE, FALL}`` — the road's
  current speed relative to its historical bucket mean;
* node potential ``φ_r(RISE) = prior`` from the road's historical rise
  frequency in the current time bucket;
* edge potential ``ψ_uv(t_u, t_v) = p(u,v)`` when the trends agree and
  ``1 - p(u,v)`` when they disagree, where ``p`` is the mined
  trend-agreement probability;
* crowdsourced seed roads are *clamped* to their observed trend.

A :class:`TrendModel` is the reusable, interval-independent part
(structure + potentials); calling :meth:`TrendModel.instance` binds it to
one interval's bucket priors and seed evidence, producing the
:class:`TrendInstance` consumed by every inference algorithm in this
package. Inference results are returned as :class:`TrendPosterior`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.errors import InferenceError
from repro.core.types import Trend
from repro.history.correlation import CorrelationGraph
from repro.history.store import HistoricalSpeedStore

#: Edge potentials are clipped into ``[eps, 1 - eps]``.
_POTENTIAL_EPS = 0.02


@dataclass(frozen=True, init=False)
class TrendInstance:
    """One interval's MRF: priors, edges and clamped evidence.

    ``road_ids`` fixes the variable order; ``prior_rise[i]`` is
    P(t_i = RISE) before evidence; ``edges`` holds ``(i, j, agreement)``
    index triples; ``evidence`` maps road id to its observed trend.
    ``edges`` may also be passed as a zero-argument callable returning
    the triples: it is called on the first read of :attr:`edges`, so an
    algorithm that never reads them (propagation) never builds them.
    """

    road_ids: tuple[int, ...]
    prior_rise: np.ndarray
    evidence: dict[int, Trend]
    #: The correlation graph the edges came from, when available; lets
    #: propagation inference reuse cached per-seed fidelity maps.
    graph: "CorrelationGraph | None"
    _edges: object = field(repr=False, compare=False)

    def __init__(
        self,
        road_ids: tuple[int, ...],
        prior_rise: np.ndarray,
        edges: "tuple[tuple[int, int, float], ...] | Callable[[], tuple]",
        evidence: dict[int, Trend],
        graph: "CorrelationGraph | None" = None,
        validate: bool = True,
    ) -> None:
        """``validate=False`` is the trusted construction:
        :class:`TrendModel` builds its static parts (road order, clipped
        potentials, bucket priors) valid by construction and validates
        evidence itself, so its per-interval instances skip the
        O(roads + edges) re-validation — the serving path builds one
        instance per interval. Hand-built instances keep the default
        and are fully checked.
        """
        init = object.__setattr__
        init(self, "road_ids", road_ids)
        init(self, "prior_rise", prior_rise)
        init(self, "evidence", evidence)
        init(self, "graph", graph)
        init(self, "_edges", edges)
        if validate:
            self._validate()

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The ``(i, j, agreement)`` triples (a callable is read once)."""
        if callable(self._edges):
            object.__setattr__(self, "_edges", self._edges())
        return self._edges

    def _validate(self) -> None:
        if self.prior_rise.shape != (len(self.road_ids),):
            raise InferenceError(
                f"prior array shape {self.prior_rise.shape} does not match "
                f"{len(self.road_ids)} roads"
            )
        if np.any(self.prior_rise <= 0.0) or np.any(self.prior_rise >= 1.0):
            raise InferenceError("priors must lie strictly inside (0, 1)")
        index = self.index
        for road in self.evidence:
            if road not in index:
                raise InferenceError(f"evidence on unknown road {road}")
        for i, j, p in self.edges:
            if not 0 <= i < len(self.road_ids) or not 0 <= j < len(self.road_ids):
                raise InferenceError(f"edge ({i}, {j}) index out of range")
            if not 0.0 < p < 1.0:
                raise InferenceError(f"edge potential {p} must be in (0, 1)")

    @property
    def index(self) -> dict[int, int]:
        """road id -> variable index."""
        return {road: i for i, road in enumerate(self.road_ids)}

    @property
    def num_roads(self) -> int:
        return len(self.road_ids)

    def evidence_indices(self) -> dict[int, Trend]:
        """Variable index -> clamped trend."""
        index = self.index
        return {index[road]: trend for road, trend in self.evidence.items()}

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """Per-variable neighbour list: (neighbour index, agreement)."""
        adj: list[list[tuple[int, float]]] = [[] for _ in self.road_ids]
        for i, j, p in self.edges:
            adj[i].append((j, p))
            adj[j].append((i, p))
        return adj


class TrendPosterior:
    """Per-road posterior P(trend = RISE) plus MAP trends."""

    def __init__(self, road_ids: tuple[int, ...], p_rise: np.ndarray) -> None:
        if p_rise.shape != (len(road_ids),):
            raise InferenceError("posterior shape does not match road count")
        if np.any(p_rise < 0.0) or np.any(p_rise > 1.0):
            raise InferenceError("posterior probabilities must be in [0, 1]")
        self._road_ids = road_ids
        self._p_rise = p_rise
        # Built lazily: the vectorized serving path consumes the whole
        # posterior as an array and never needs per-road lookups, so the
        # O(n) dict build would be pure per-interval overhead there.
        self._lazy_index: dict[int, int] | None = None

    @property
    def _index(self) -> dict[int, int]:
        if self._lazy_index is None:
            self._lazy_index = {road: i for i, road in enumerate(self._road_ids)}
        return self._lazy_index

    @property
    def road_ids(self) -> tuple[int, ...]:
        return self._road_ids

    def p_rise(self, road_id: int) -> float:
        try:
            return float(self._p_rise[self._index[road_id]])
        except KeyError:
            raise InferenceError(f"road {road_id} not in posterior") from None

    def trend(self, road_id: int) -> Trend:
        """MAP trend (ties break toward RISE, matching Trend.from_speeds)."""
        return Trend.RISE if self.p_rise(road_id) >= 0.5 else Trend.FALL

    def confidence(self, road_id: int) -> float:
        """max(p, 1-p): how certain the posterior is about this road."""
        p = self.p_rise(road_id)
        return max(p, 1.0 - p)

    def as_array(self) -> np.ndarray:
        return self._p_rise.copy()

    def as_dict(self) -> dict[int, float]:
        return {road: float(p) for road, p in zip(self._road_ids, self._p_rise)}


class TrendModel:
    """Binds a correlation graph and historical store into an MRF factory."""

    def __init__(
        self, graph: CorrelationGraph, store: HistoricalSpeedStore
    ) -> None:
        missing = set(graph.road_ids) - set(store.road_ids)
        if missing:
            raise InferenceError(
                f"correlation graph covers roads absent from history: "
                f"{sorted(missing)[:5]}"
            )
        self._graph = graph
        self._store = store
        self._road_ids = tuple(graph.road_ids)
        self._index = {road: i for i, road in enumerate(self._road_ids)}
        # Built on first read (see _current_edges); None means stale.
        self._edges: tuple[tuple[int, int, float], ...] | None = None
        # Priors depend only on the bucket, not on evidence, so they are
        # computed once per bucket and shared across intervals.
        self._prior_cache: dict[int, np.ndarray] = {}

    @staticmethod
    def _clip(p: float) -> float:
        """Keep potentials strictly inside (0, 1) for numerical safety."""
        return min(1.0 - _POTENTIAL_EPS, max(_POTENTIAL_EPS, p))

    def _read_edges(self) -> tuple[tuple[int, int, float], ...]:
        """``(i, j, clip(p))`` per graph edge, in ``(u, v)`` road-id order.

        Read from :meth:`~repro.history.correlation.CorrelationGraph.
        edge_positions` without edge objects; the elementwise clip
        selects the same floats :meth:`_clip` does. Entries are shared
        Python objects (the index's ints, one float per distinct
        potential): the tuple lives as long as the model, and a fresh
        int, int and float per edge would add ~50 bytes an edge.
        """
        low, high, agreement = self._graph.edge_positions()
        clipped = np.minimum(
            1.0 - _POTENTIAL_EPS, np.maximum(_POTENTIAL_EPS, agreement)
        )
        potentials, which = np.unique(clipped, return_inverse=True)
        position = list(self._index.values()).__getitem__
        return tuple(
            zip(
                map(position, low.tolist()),
                map(position, high.tolist()),
                map(potentials.tolist().__getitem__, which.tolist()),
            )
        )

    def _current_edges(self) -> tuple[tuple[int, int, float], ...]:
        """The ``(i, j, clip(p))`` triples, read from the graph on first use.

        Only BP, Gibbs, exact and temporal inference read them, so the
        default propagation path never builds the tuple.
        """
        if self._edges is None:
            self._edges = self._read_edges()
        return self._edges

    def refresh_edges(self) -> None:
        """Mark the edge potentials stale; the next read re-reads them.

        Incremental re-mining mutates the graph **in place** (see
        :meth:`~repro.history.correlation.CorrelationGraph.apply_delta`)
        while this model's edge tuple is a baked copy; deployments that
        ingest days must call this (the estimator's row-invalidation
        hook does) so BP/Gibbs instances see the new weights. The tuple
        is rebuilt at most once per delta, on the first read of an
        instance's ``edges``. The road set of a delta never changes, so
        the index stays valid.
        """
        self._edges = None

    def _bucket_prior(self, bucket: int) -> np.ndarray:
        cached = self._prior_cache.get(bucket)
        if cached is None:
            cached = np.array(
                [self._store.rise_prior(road, bucket) for road in self._road_ids]
            )
            self._prior_cache[bucket] = cached
        return cached

    @property
    def graph(self) -> CorrelationGraph:
        return self._graph

    @property
    def store(self) -> HistoricalSpeedStore:
        return self._store

    @property
    def road_ids(self) -> tuple[int, ...]:
        return self._road_ids

    def instance(
        self, interval: int, seed_trends: dict[int, Trend]
    ) -> TrendInstance:
        """The MRF for ``interval`` with ``seed_trends`` clamped."""
        bucket = self._store.grid.bucket_of(interval)
        prior = self._bucket_prior(bucket)
        unknown = [road for road in seed_trends if road not in self._index]
        if unknown:
            raise InferenceError(f"seed trends on unknown roads {unknown[:5]}")
        return TrendInstance(
            road_ids=self._road_ids,
            prior_rise=prior,
            edges=self._current_edges,
            evidence=dict(seed_trends),
            graph=self._graph,
            validate=False,
        )

    def uniform_instance(
        self, interval: int, seed_trends: dict[int, Trend], agreement: float = 0.7
    ) -> TrendInstance:
        """An ablation instance with every edge potential set to ``agreement``.

        Used by experiment F7c to measure the value of *learned* edge
        potentials versus uniform smoothing.
        """
        bucket = self._store.grid.bucket_of(interval)
        prior = self._bucket_prior(bucket)
        edges = tuple(
            (i, j, self._clip(agreement)) for i, j, _ in self._current_edges()
        )
        return TrendInstance(
            road_ids=self._road_ids,
            prior_rise=prior,
            edges=edges,
            evidence=dict(seed_trends),
            validate=False,
        )
