"""Shared best-fidelity influence subsystem: CSR kernel + cross-stage cache.

Both halves of the paper's fast path are built on the same spatial
structure: the **best-path fidelity** from a road to every other road
over the correlation graph. Step-1 propagation inference turns those
fidelities into log-odds votes; the seed-selection objective turns them
into coverage probabilities; the Step-2 regression weights seed
observations by them. Historically each consumer recomputed and cached
the maps independently — three uncoordinated dict caches and three
pure-Python Dijkstra loops on the hot path.

This module makes the structure first-class:

* :class:`CSRFidelityGraph` — a frozen CSR (``indptr``/``indices``/
  ``data``) export of a :class:`~repro.history.correlation.
  CorrelationGraph` with cached integer road indexing.  ``data`` holds
  *edge fidelities* ``q = max(0, 2p - 1)``, not raw agreements.
* :func:`best_fidelity_row` — a vectorized multi-source-ready kernel:
  frontier-synchronous max-product relaxation over the CSR arrays,
  pruned at ``min_fidelity`` and (optionally) ``max_hops``.  After
  ``h`` frontier rounds the row is exactly the optimum over all paths
  of at most ``h`` hops, which is the *sound* ``max_hops`` semantics (a
  weaker-but-shorter path is never shadowed by a stronger-but-longer
  one, unlike single-label Dijkstra pruning).
  :func:`sparse_fidelity_row` keeps only its support as a
  :class:`SparseRow` — the one row form anything caches: influence is
  local (pruned at the floor), so a row's support is its reach, not N.
  Rows are bitwise equal to the dict/heap reference in
  ``tests/oracles/fidelity.py``, which the test suite checks.
* :class:`FidelityCacheService` — the single shared cache keyed by
  graph identity (weakly), fidelity floor, hop budget and transform.
  :class:`~repro.trend.propagation.TrendPropagationInference`,
  :class:`~repro.seeds.objective.SeedSelectionObjective` (including
  clones and partitioned selection) and
  :class:`~repro.speed.estimator.TwoStepEstimator` all draw from one
  service, so a fidelity row computed by any stage is a cache hit for
  every other stage.  Rows are stored as read-only ``(indices,
  values)`` pairs whose raw and transformed forms share one index
  array; returned maps are :class:`types.MappingProxyType` views, so
  callers cannot poison the cache by mutating results.

Cache hits and misses flow into the existing :mod:`repro.obs` metrics
as ``fidelity.cache`` counts (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from repro.core.errors import InferenceError
from repro.history.correlation import CorrelationGraph
from repro.obs import get_recorder

#: Transforms a cached fidelity row can be served under.
#:
#: * ``"fidelity"`` — the raw best-path fidelity ``q``;
#: * ``"variance"`` — variance explained ``sin^2(pi q / 2)`` (the
#:   seed-selection calibration, see :mod:`repro.seeds.objective`);
#: * ``"logodds"`` — the propagation vote magnitude
#:   ``log((1 + q)/(1 - q))`` with the source entry zeroed (a seed
#:   never votes on itself).
ROW_TRANSFORMS = ("fidelity", "variance", "logodds")

#: Clamp applied to ``q`` before the log-odds vote, matching the
#: scalar vote reference exactly.
_LOGODDS_CLAMP = 1.0 - 1e-9


def edge_fidelity(agreement: float) -> float:
    """Channel fidelity of a correlation edge: ``2p - 1``.

    Agreement at or below 0.5 carries no information and maps to 0.
    """
    return max(0.0, 2.0 * agreement - 1.0)


def _validate(min_fidelity: float) -> None:
    if not 0.0 < min_fidelity < 1.0:
        raise InferenceError(f"min_fidelity {min_fidelity} must be in (0, 1)")


# ----------------------------------------------------------------------
# CSR export
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CSRFidelityGraph:
    """CSR adjacency of a correlation graph with edge *fidelities*.

    ``indices[indptr[i]:indptr[i + 1]]`` are the neighbour positions of
    the road at position ``i`` (positions follow ``road_ids``, which is
    the graph's sorted road-id order) and ``data`` carries the matching
    edge fidelities. All arrays are read-only.
    """

    road_ids: tuple[int, ...]
    index: dict[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def num_roads(self) -> int:
        return len(self.road_ids)

    @classmethod
    def from_graph(cls, graph: CorrelationGraph) -> "CSRFidelityGraph":
        road_ids = tuple(graph.road_ids)
        index = {road: i for i, road in enumerate(road_ids)}
        n = len(road_ids)
        road_u, road_v, agreement = graph.edge_arrays()
        positions = np.asarray(road_ids, dtype=np.int64)
        iu = np.searchsorted(positions, road_u)
        iv = np.searchsorted(positions, road_v)
        # Elementwise edge_fidelity: the same IEEE operations, bitwise.
        q = np.maximum(0.0, 2.0 * agreement - 1.0)
        u = np.concatenate([iu, iv])
        v = np.concatenate([iv, iu])
        # (u, v) pairs are unique, so the sorted order is input-independent.
        order = np.lexsort((v, u))
        indices = v[order]
        data = np.concatenate([q, q])[order]
        counts = np.bincount(u, minlength=n)
        indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )
        for arr in (indptr, indices, data):
            arr.setflags(write=False)
        return cls(
            road_ids=road_ids,
            index=index,
            indptr=indptr,
            indices=indices,
            data=data,
        )


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def best_fidelity_row(
    csr: CSRFidelityGraph,
    source: int,
    min_fidelity: float = 0.05,
    max_hops: int | None = None,
) -> np.ndarray:
    """Dense best-path fidelity row from CSR position ``source``.

    Frontier-synchronous max-product relaxation: after round ``h`` the
    row holds the optimum over all paths of at most ``h`` hops whose
    running product never drops below ``min_fidelity`` (products only
    shrink along a path, so prefix pruning is exact). Entries below the
    floor are 0; the source is 1.
    """
    _validate(min_fidelity)
    n = csr.num_roads
    if not 0 <= source < n:
        raise InferenceError(f"source position {source} out of range [0, {n})")
    best = np.zeros(n, dtype=np.float64)
    best[source] = 1.0
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    frontier = np.array([source], dtype=np.int64)
    scratch = np.zeros(n, dtype=np.float64)
    hop = 0
    while frontier.size and (max_hops is None or hop < max_hops):
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        counts = ends - starts
        busy = counts > 0
        if not busy.all():
            frontier = frontier[busy]
            starts = starts[busy]
            ends = ends[busy]
            counts = counts[busy]
        total = int(counts.sum())
        if total == 0:
            break
        # Concatenated per-frontier edge ranges, without a Python loop:
        # cumsum over unit steps with range-boundary jumps patched in.
        steps = np.ones(total, dtype=np.int64)
        steps[0] = starts[0]
        boundaries = np.cumsum(counts)
        steps[boundaries[:-1]] = starts[1:] - ends[:-1] + 1
        edge_idx = np.cumsum(steps)
        candidate = np.repeat(best[frontier], counts) * data[edge_idx]
        destination = indices[edge_idx]
        keep = candidate >= min_fidelity
        if not keep.any():
            break
        scratch.fill(0.0)
        np.maximum.at(scratch, destination[keep], candidate[keep])
        improved = scratch > best
        if not improved.any():
            break
        best[improved] = scratch[improved]
        frontier = np.flatnonzero(improved)
        hop += 1
    return best


def best_fidelity_rows(
    csr: CSRFidelityGraph,
    sources: list[int],
    min_fidelity: float = 0.05,
    max_hops: int | None = None,
) -> np.ndarray:
    """Stacked :func:`best_fidelity_row` for several sources: ``(S, N)``."""
    if not sources:
        return np.zeros((0, csr.num_roads), dtype=np.float64)
    return np.stack(
        [best_fidelity_row(csr, s, min_fidelity, max_hops) for s in sources]
    )


class SparseRow(NamedTuple):
    """A read-only influence row over its support only.

    ``indices`` are the sorted CSR positions whose influence is at or
    above the fidelity floor (the source always included); ``values``
    are the matching entries. Raw and transformed rows of one source
    share the same ``indices`` array.
    """

    indices: np.ndarray
    values: np.ndarray

    @classmethod
    def frozen(cls, indices: np.ndarray, values: np.ndarray) -> "SparseRow":
        indices.setflags(write=False)
        values.setflags(write=False)
        return cls(indices, values)

    def dense(self, num_roads: int) -> np.ndarray:
        """The N-length row (zeros off the support), freshly allocated."""
        out = np.zeros(num_roads, dtype=np.float64)
        out[self.indices] = self.values
        return out


def sparse_fidelity_row(
    csr: CSRFidelityGraph,
    source: int,
    min_fidelity: float = 0.05,
    max_hops: int | None = None,
) -> SparseRow:
    """:func:`best_fidelity_row` reduced to its support."""
    best = best_fidelity_row(csr, source, min_fidelity, max_hops)
    indices = np.flatnonzero(best)
    return SparseRow.frozen(indices, best[indices])


def _transform_row(raw: SparseRow, source: int, transform: str) -> SparseRow:
    """Transform a raw sparse row; the result shares ``raw.indices``.

    One pass over the support with the per-entry :mod:`math`
    expressions of the scalar oracles in ``tests/oracles``, so values
    are bitwise identical to them (``np.sin`` differs from
    ``math.sin`` in the last place on some inputs). ``source`` is the
    row's own CSR position, always in the support; the ``"logodds"``
    transform zeroes it in place rather than dropping it, which keeps
    the index array shared.
    """
    if transform == "fidelity":
        return raw
    fidelities = raw.values.tolist()
    if transform == "variance":
        sin, pi = math.sin, math.pi
        values = [sin(pi * q / 2.0) ** 2 for q in fidelities]
    elif transform == "logodds":
        log, clamp = math.log, _LOGODDS_CLAMP
        values = [
            log((1.0 + q) / (1.0 - q))
            for q in (min(p, clamp) for p in fidelities)
        ]
        values[int(np.searchsorted(raw.indices, source))] = 0.0
    else:
        raise InferenceError(
            f"unknown fidelity transform {transform!r}; choose from {ROW_TRANSFORMS}"
        )
    return SparseRow.frozen(raw.indices, np.array(values, dtype=np.float64))


# ----------------------------------------------------------------------
# The shared cache service
# ----------------------------------------------------------------------
class WeakRowListener:
    """A row-invalidation listener that does not pin its owner.

    The process-default service outlives any one consumer; registering
    a bound method directly would keep every consumer ever built alive
    through the listener list. Dead wrappers become no-ops, and the
    service prunes them (see :attr:`dead`).
    """

    def __init__(self, method) -> None:
        self._ref = weakref.WeakMethod(method)

    @property
    def dead(self) -> bool:
        """True once the owner has been garbage-collected."""
        return self._ref() is None

    def __call__(self, graph, roads) -> None:
        method = self._ref()
        if method is not None:
            method(graph, roads)


@dataclass(frozen=True)
class CacheStats:
    """Cumulative row/map cache accounting of a service."""

    hits: int
    misses: int

    @property
    def total(self) -> int:
        return self.hits + self.misses


class _GraphEntry:
    """Everything cached for one correlation graph."""

    __slots__ = ("csr", "rows", "maps")

    def __init__(self) -> None:
        self.csr: CSRFidelityGraph | None = None
        # (min_fidelity, max_hops, transform) -> {road -> SparseRow}.
        # Invariant: every cached transformed row has its raw
        # ("fidelity") sibling cached too, sharing its index array.
        self.rows: dict[tuple, dict[int, SparseRow]] = {}
        # same key -> {road -> MappingProxyType}
        self.maps: dict[tuple, dict[int, Mapping[int, float]]] = {}


class FidelityCacheService:
    """The single cross-stage cache of best-fidelity influence rows.

    Caches are keyed by graph *identity* (weakly, so dropped graphs
    free their rows), fidelity floor, hop budget and transform — mining
    a new correlation graph or changing a floor can never serve stale
    rows. Rows are held as :class:`SparseRow` pairs only, so the cache
    grows with total reach, not with N per source.
    """

    def __init__(self) -> None:
        self._graphs: "weakref.WeakKeyDictionary[CorrelationGraph, _GraphEntry]" = (
            weakref.WeakKeyDictionary()
        )
        self._hits = 0
        self._misses = 0
        self._listeners: list = []
        self._row_listeners: list = []

    # -- bookkeeping ----------------------------------------------------
    def _entry(self, graph: CorrelationGraph) -> _GraphEntry:
        entry = self._graphs.get(graph)
        if entry is None:
            entry = _GraphEntry()
            self._graphs[graph] = entry
        return entry

    @staticmethod
    def _key(
        min_fidelity: float, max_hops: int | None, transform: str
    ) -> tuple:
        if transform not in ROW_TRANSFORMS:
            raise InferenceError(
                f"unknown fidelity transform {transform!r}; "
                f"choose from {ROW_TRANSFORMS}"
            )
        return (float(min_fidelity), max_hops, transform)

    def stats(self) -> CacheStats:
        return CacheStats(hits=self._hits, misses=self._misses)

    def add_invalidation_listener(self, listener) -> None:
        """Call ``listener(graph)`` whenever this service invalidates.

        Dependent caches (e.g. compiled interval plans, which bake
        fidelity-derived regressions into their coefficient blocks)
        register here so they can never outlive the rows they derive
        from.
        """
        self._listeners.append(listener)

    def add_row_invalidation_listener(self, listener) -> None:
        """Call ``listener(graph, roads)`` on row-level invalidations.

        ``roads`` is the sorted tuple of source roads whose cached
        influence rows were dropped, or ``None`` for a whole-graph
        invalidation (which also fires these listeners — a coarse
        invalidation must never look *narrower* than a fine one).
        Incremental CELF re-selection registers here to learn which
        candidates' cached gains are dirty. Dead
        :class:`WeakRowListener` wrappers are pruned here and on every
        dispatch, so short-lived consumers do not pile up.
        """
        self._live_row_listeners().append(listener)

    def _live_row_listeners(self) -> list:
        self._row_listeners = [
            listener
            for listener in self._row_listeners
            if not (isinstance(listener, WeakRowListener) and listener.dead)
        ]
        return self._row_listeners

    def invalidate(self, graph: CorrelationGraph | None = None) -> None:
        """Drop cached rows for ``graph`` (or everything)."""
        if graph is None:
            self._graphs = weakref.WeakKeyDictionary()
        else:
            self._graphs.pop(graph, None)
        get_recorder().count("fidelity.invalidations", scope="graph")
        for listener in list(self._listeners):
            listener(graph)
        for listener in list(self._live_row_listeners()):
            listener(graph, None)

    def invalidate_rows(self, graph: CorrelationGraph, roads) -> None:
        """Drop the cached influence rows of specific source roads.

        Narrower than :meth:`invalidate`: only the sparse rows and maps
        of the given source roads are dropped; every other road's cache
        survives. Row listeners receive the sorted road tuple so
        dependents (incremental CELF) can mark exactly those candidates
        dirty. Roads with nothing
        cached are fine to name — invalidation is idempotent.
        """
        dropped = tuple(sorted(set(roads)))
        if not dropped:
            return
        entry = self._graphs.get(graph)
        if entry is not None:
            for per_key in (*entry.rows.values(), *entry.maps.values()):
                for road in dropped:
                    per_key.pop(road, None)
        get_recorder().count("fidelity.invalidations", len(dropped), scope="rows")
        for listener in list(self._live_row_listeners()):
            listener(graph, dropped)

    def apply_graph_delta(self, graph: CorrelationGraph, delta) -> tuple[int, ...]:
        """Selective invalidation after ``delta`` was applied to ``graph``.

        Call right after :meth:`~repro.history.correlation.
        CorrelationGraph.apply_delta` mutated ``graph`` in place. A
        cached best-fidelity row can only change if some changed edge
        lies on one of its (new or old) best paths, and any such path's
        prefix up to the *first* changed edge is an all-old-edges path
        whose running product — never below the row's floor — puts that
        edge's endpoint in the old row's support. So rows (and maps)
        whose support misses every touched endpoint are provably
        unaffected and survive; the rest are dropped through
        :meth:`invalidate_rows`, which also tells row listeners
        (compiled plans, CELF gains, influence memos) exactly which
        sources went stale. Touched endpoints are always dropped — their
        own incident edges changed. Returns the sorted dropped sources.
        """
        touched = set(delta.touched_roads())
        if not touched:
            return ()
        affected = set(touched)
        entry = self._graphs.get(graph)
        if entry is not None:
            # CSR positions follow the graph's sorted road-id order, so
            # the mask needs no CSR (entry.csr is None after an earlier
            # delta, and rebuilding it here would be wasted work).
            touched_mask = np.isin(
                np.asarray(graph.road_ids, dtype=np.int64),
                np.fromiter(touched, dtype=np.int64, count=len(touched)),
            )
            # Transformed rows share their raw sibling's indices and
            # maps derive from cached rows, so the raw rows decide all.
            for (_, _, transform), per_key in entry.rows.items():
                if transform != "fidelity":
                    continue
                for source, row in per_key.items():
                    if source not in affected and touched_mask[row.indices].any():
                        affected.add(source)
            # The CSR arrays bake in the old edge weights; rebuild lazily.
            entry.csr = None
        dropped = tuple(sorted(affected))
        self.invalidate_rows(graph, dropped)
        return dropped

    def csr(self, graph: CorrelationGraph) -> CSRFidelityGraph:
        """The (cached) CSR export of ``graph``."""
        entry = self._entry(graph)
        if entry.csr is None:
            entry.csr = CSRFidelityGraph.from_graph(graph)
        return entry.csr

    # -- rows -----------------------------------------------------------
    def row(
        self,
        graph: CorrelationGraph,
        road: int,
        min_fidelity: float = 0.05,
        max_hops: int | None = None,
        transform: str = "fidelity",
    ) -> SparseRow:
        """Influence row for ``road`` as a read-only :class:`SparseRow`.

        ``indices`` are CSR positions (sorted road-id order); use
        :meth:`SparseRow.dense` for the N-length form.
        """
        key = self._key(min_fidelity, max_hops, transform)
        entry = self._entry(graph)
        per_key = entry.rows.get(key)
        if per_key is None:
            per_key = entry.rows[key] = {}
        cached = per_key.get(road)
        if cached is not None:
            self._hits += 1
            get_recorder().count("fidelity.cache", hit="true")
            return cached
        computed = self._compute_row(graph, entry, road, key)
        per_key[road] = computed
        self._misses += 1
        get_recorder().count("fidelity.cache", hit="false")
        return computed

    def rows(
        self,
        graph: CorrelationGraph,
        roads: list[int],
        min_fidelity: float = 0.05,
        max_hops: int | None = None,
        transform: str = "fidelity",
    ) -> np.ndarray:
        """Stacked dense ``(S, N)`` rows, densified from the cached rows.

        The one dense form, built per call and never cached: Step-1's
        ``signs @ matrix`` vote product consumes it, and densifying
        keeps that product bitwise equal to the dense-row
        implementation. Read-only, like every returned row.
        """
        matrix = np.zeros((len(roads), self.csr(graph).num_roads), dtype=np.float64)
        for i, road in enumerate(roads):
            indices, values = self.row(graph, road, min_fidelity, max_hops, transform)
            matrix[i, indices] = values
        matrix.setflags(write=False)
        return matrix

    def fidelity_map(
        self,
        graph: CorrelationGraph,
        road: int,
        min_fidelity: float = 0.05,
        max_hops: int | None = None,
        transform: str = "fidelity",
    ) -> Mapping[int, float]:
        """Sparse ``{road id -> influence}`` view (read-only, cached).

        The dict form of :meth:`row`, for scalar consumers: only roads
        at or above the fidelity floor appear (the source always does,
        except under the ``"logodds"`` transform, which zeroes it).
        """
        key = self._key(min_fidelity, max_hops, transform)
        entry = self._entry(graph)
        per_key = entry.maps.get(key)
        if per_key is None:
            per_key = entry.maps[key] = {}
        cached = per_key.get(road)
        if cached is not None:
            return cached
        indices, values = self.row(graph, road, min_fidelity, max_hops, transform)
        road_ids = self.csr(graph).road_ids
        proxy = MappingProxyType(
            {
                road_ids[i]: q
                for i, q in zip(indices.tolist(), values.tolist())
                if q != 0.0
            }
        )
        per_key[road] = proxy
        return proxy

    # -- computation ----------------------------------------------------
    def _compute_row(
        self,
        graph: CorrelationGraph,
        entry: _GraphEntry,
        road: int,
        key: tuple,
    ) -> SparseRow:
        min_fidelity, max_hops, transform = key
        # Every transform of the same (graph, floor, hops) derives from
        # one cached raw propagation; the raw fetch below does not touch
        # the hit/miss stats, so one cold transformed row counts as
        # exactly one miss.
        raw = self._raw_row(graph, entry, road, min_fidelity, max_hops)
        if transform == "fidelity":
            return raw
        return _transform_row(raw, self.csr(graph).index[road], transform)

    def _raw_row(
        self,
        graph: CorrelationGraph,
        entry: _GraphEntry,
        road: int,
        min_fidelity: float,
        max_hops: int | None,
    ) -> SparseRow:
        key = (float(min_fidelity), max_hops, "fidelity")
        per_key = entry.rows.setdefault(key, {})
        cached = per_key.get(road)
        if cached is not None:
            return cached
        csr = self.csr(graph)
        source = csr.index.get(road)
        if source is None:
            raise InferenceError(f"source road {road} not in correlation graph")
        row = sparse_fidelity_row(csr, source, min_fidelity, max_hops)
        get_recorder().count("fidelity.row_nonzeros", row.indices.size)
        per_key[road] = row
        return row


_default_service = FidelityCacheService()


def get_fidelity_service() -> FidelityCacheService:
    """The process-default shared cache service."""
    return _default_service


def set_fidelity_service(service: FidelityCacheService) -> FidelityCacheService:
    """Replace the process-default service; returns the previous one."""
    global _default_service
    previous = _default_service
    _default_service = service
    return previous
