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
* :func:`sparse_fidelity_rows` — the one vectorized multi-source
  kernel: frontier-synchronous max-product relaxation over the CSR
  arrays for a block of sources at once, pruned at ``min_fidelity``
  and (optionally) ``max_hops``.  After ``h`` frontier rounds a row is
  exactly the optimum over all paths of at most ``h`` hops, which is
  the *sound* ``max_hops`` semantics (a weaker-but-shorter path is
  never shadowed by a stronger-but-longer one, unlike single-label
  Dijkstra pruning).  Each row keeps only its support as a
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
  array, so callers cannot poison the cache by mutating results; the
  sparse row is the only form cached or handed out.
  :meth:`FidelityCacheService.sparse_rows` fetches many rows at once,
  computing the missing ones in kernel blocks; CELF scans, Step-1
  votes and the Step-2 influence index go through it (district
  selection workers batch the kernel directly).

Cache hits and misses flow into the existing :mod:`repro.obs` metrics
as ``fidelity.cache`` counts (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
        # Channel fidelity max(0, 2p - 1) per edge: the same IEEE operations
        # as the scalar edge_fidelity in tests/oracles/fidelity.py, bitwise.
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
#: Dense scratch entries (sources x roads) one block of
#: :func:`sparse_fidelity_rows` may use: a block holds this many // N
#: sources (at least one), so its three scratch arrays (8 bytes an
#: entry) stay near 1.5 MB at any N. Measured on 6.4k roads, blocks of
#: 2^16 and 2^17 entries ran fastest; 2^19 was ~35% slower.
_BLOCK_ENTRIES = 1 << 16


def row_block_size(num_roads: int) -> int:
    """How many sources :func:`sparse_fidelity_rows` relaxes together."""
    return max(1, _BLOCK_ENTRIES // max(1, num_roads))


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


def sparse_fidelity_rows(
    csr: CSRFidelityGraph,
    sources: Sequence[int],
    min_fidelity: float = 0.05,
    max_hops: int | None = None,
) -> list[SparseRow]:
    """Best-path fidelity rows from CSR positions ``sources``, one per source.

    Frontier-synchronous max-product relaxation: after round ``h`` a
    row holds the optimum over all paths of at most ``h`` hops whose
    running product never drops below ``min_fidelity`` (products only
    shrink along a path, so prefix pruning is exact). Each row keeps
    its support only — entries at or above the floor, the source at 1.

    Sources are relaxed in blocks of :func:`row_block_size`: source
    ``s`` of a block owns keys ``s * N + v`` of one dense scratch, so
    one set of numpy passes per hop serves the whole block. Per
    candidate the arithmetic is the single-source one — ``best[u] * q``,
    kept when it beats both the floor and the current entry, the max
    per key, strict improvement — so rows are bitwise equal to the
    scalar reference in ``tests/oracles/fidelity.py``. A hop costs its
    frontier's edges, not N: the scratch is reset over the reached
    keys only, and improved keys are de-duplicated with a stamp array
    instead of a sort. Total work is O(reach x degree) per row; the
    ``history.fidelity.rows`` span reports ``relaxations`` (candidate
    edges examined) alongside ``rows`` and ``nonzeros``.
    """
    _validate(min_fidelity)
    n = csr.num_roads
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    bad = sources[(sources < 0) | (sources >= n)]
    if bad.size:
        raise InferenceError(f"source position {int(bad[0])} out of range [0, {n})")
    rows: list[SparseRow] = []
    if not sources.size:
        return rows
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    block = min(row_block_size(n), sources.size)
    # Unreached entries hold the largest float below the floor, so one
    # comparison ``candidate > best`` applies both the floor and the
    # strict-improvement test.
    unreached = np.nextafter(min_fidelity, 0.0)
    best = np.full(block * n, unreached)
    peak = np.zeros(block * n)
    # Never reset: each hop reads stamps only at keys it just wrote.
    stamp = np.empty(block * n, dtype=np.int64)
    relaxations = 0
    with get_recorder().span("history.fidelity.rows") as span:
        for lo in range(0, sources.size, block):
            m = min(block, sources.size - lo)
            keys = sources[lo : lo + m] + np.arange(m, dtype=np.int64) * n
            best[keys] = 1.0
            reached = [keys]
            hop = 0
            while keys.size and (max_hops is None or hop < max_hops):
                nodes = keys % n
                starts = indptr[nodes]
                counts = indptr[nodes + 1] - starts
                ends = np.cumsum(counts)
                total = int(ends[-1])
                if total == 0:
                    break
                relaxations += total
                # Concatenated per-frontier edge ranges, without a loop.
                edge = np.repeat(starts - ends + counts, counts) + np.arange(total)
                candidate = np.repeat(best[keys], counts) * data[edge]
                target = np.repeat(keys - nodes, counts) + indices[edge]
                keep = candidate > best[target]
                target = target[keep]
                if not target.size:
                    break
                np.maximum.at(peak, target, candidate[keep])
                order = np.arange(target.size)
                stamp[target] = order
                keys = target[stamp[target] == order]
                reached.append(keys[best[keys] == unreached])
                best[keys] = peak[keys]
                peak[keys] = 0.0
                hop += 1
            support = np.sort(np.concatenate(reached))
            values = best[support]
            best[support] = unreached
            bounds = np.searchsorted(support, np.arange(m + 1) * n)
            for s in range(m):
                a, b = bounds[s], bounds[s + 1]
                rows.append(SparseRow.frozen(support[a:b] - s * n, values[a:b]))
        span.set(
            rows=len(rows),
            nonzeros=sum(row.indices.size for row in rows),
            relaxations=relaxations,
        )
    return rows


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
@dataclass(frozen=True)
class CacheStats:
    """Cumulative row cache accounting of a service."""

    hits: int
    misses: int

    @property
    def total(self) -> int:
        return self.hits + self.misses


class _GraphEntry:
    """Everything cached for one correlation graph."""

    __slots__ = ("csr", "rows")

    def __init__(self) -> None:
        self.csr: CSRFidelityGraph | None = None
        # (min_fidelity, max_hops, transform) -> {road -> SparseRow}.
        # Invariant: every cached transformed row has its raw
        # ("fidelity") sibling cached too, sharing its index array.
        self.rows: dict[tuple, dict[int, SparseRow]] = {}


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
        self._subscribers: list[weakref.WeakMethod] = []

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

    def subscribe(self, method) -> None:
        """Call the bound ``method(graph, roads)`` on every invalidation.

        ``roads`` is the sorted tuple of source roads whose cached
        influence rows were dropped, or ``None`` for a wholesale
        invalidation of ``graph`` (``graph`` is ``None`` too when every
        graph went). Every cache derived from fidelity rows — compiled
        plans, influence indexes, row memos, CELF gains — subscribes
        here once. The method is held as a :class:`weakref.WeakMethod`:
        the process-default service outlives any one consumer, so a
        subscription never keeps its owner alive, and dead references
        are pruned on every subscription and dispatch.
        """
        self._live_subscribers().append(weakref.WeakMethod(method))

    def _live_subscribers(self) -> list[weakref.WeakMethod]:
        self._subscribers = [ref for ref in self._subscribers if ref() is not None]
        return self._subscribers

    def _notify(self, graph: CorrelationGraph | None, roads) -> None:
        for ref in list(self._live_subscribers()):
            method = ref()
            if method is not None:
                method(graph, roads)

    def invalidate(self, graph: CorrelationGraph | None = None) -> None:
        """Drop cached rows for ``graph`` (or everything)."""
        if graph is None:
            self._graphs = weakref.WeakKeyDictionary()
        else:
            self._graphs.pop(graph, None)
        get_recorder().count("fidelity.invalidations", scope="graph")
        self._notify(graph, None)

    def invalidate_rows(self, graph: CorrelationGraph, roads) -> None:
        """Drop the cached influence rows of specific source roads.

        Narrower than :meth:`invalidate`: only the sparse rows of the
        given source roads are dropped; every other road's cache
        survives. Subscribers receive the sorted road tuple so
        dependents (incremental CELF) can mark exactly those candidates
        dirty. Roads with nothing
        cached are fine to name — invalidation is idempotent.
        """
        dropped = tuple(sorted(set(roads)))
        if not dropped:
            return
        entry = self._graphs.get(graph)
        if entry is not None:
            for per_key in entry.rows.values():
                for road in dropped:
                    per_key.pop(road, None)
        get_recorder().count("fidelity.invalidations", len(dropped), scope="rows")
        self._notify(graph, dropped)

    def apply_graph_delta(self, graph: CorrelationGraph, delta) -> tuple[int, ...]:
        """Selective invalidation after ``delta`` was applied to ``graph``.

        Call right after :meth:`~repro.history.correlation.
        CorrelationGraph.apply_delta` mutated ``graph`` in place. A
        cached best-fidelity row can only change if some changed edge
        lies on one of its (new or old) best paths, and any such path's
        prefix up to the *first* changed edge is an all-old-edges path
        whose running product — never below the row's floor — puts that
        edge's endpoint in the old row's support. So rows whose support misses every touched endpoint are provably
        unaffected and survive; the rest are dropped through
        :meth:`invalidate_rows`, which also tells subscribers
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
            # Transformed rows share their raw sibling's indices, so the
            # raw rows decide all.
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
        return self.sparse_rows(graph, [road], min_fidelity, max_hops, transform)[0]

    def sparse_rows(
        self,
        graph: CorrelationGraph,
        roads: Sequence[int],
        min_fidelity: float = 0.05,
        max_hops: int | None = None,
        transform: str = "fidelity",
    ) -> list[SparseRow]:
        """Influence rows for several roads, in order: the batch :meth:`row`.

        Missing raw rows are computed together by the block kernel
        (:func:`sparse_fidelity_rows`). The cache accounting is exactly
        that of one :meth:`row` call per entry of ``roads``: a road not
        yet cached is one miss, every other entry (repeats included) a
        hit.
        """
        key = self._key(min_fidelity, max_hops, transform)
        entry = self._entry(graph)
        per_key = entry.rows.setdefault(key, {})
        missing = [road for road in dict.fromkeys(roads) if road not in per_key]
        if missing:
            self._compute_rows(graph, entry, missing, key)
        hits = len(roads) - len(missing)
        self._hits += hits
        self._misses += len(missing)
        recorder = get_recorder()
        if hits:
            recorder.count("fidelity.cache", hits, hit="true")
        if missing:
            recorder.count("fidelity.cache", len(missing), hit="false")
        return [per_key[road] for road in roads]

    # -- computation ----------------------------------------------------
    def _compute_rows(
        self,
        graph: CorrelationGraph,
        entry: _GraphEntry,
        roads: list[int],
        key: tuple,
    ) -> None:
        """Cache the ``key`` rows of ``roads`` (distinct, none cached yet).

        Every transform of the same (graph, floor, hops) derives from
        one cached raw propagation; raw rows fetched here do not touch
        the hit/miss stats, so one cold transformed row counts as
        exactly one miss.
        """
        min_fidelity, max_hops, transform = key
        csr = self.csr(graph)
        unknown = [road for road in roads if road not in csr.index]
        if unknown:
            raise InferenceError(f"source road {unknown[0]} not in correlation graph")
        raw_rows = entry.rows.setdefault((min_fidelity, max_hops, "fidelity"), {})
        cold = [road for road in roads if road not in raw_rows]
        if cold:
            computed = sparse_fidelity_rows(
                csr, [csr.index[road] for road in cold], min_fidelity, max_hops
            )
            raw_rows.update(zip(cold, computed))
            get_recorder().count(
                "fidelity.row_nonzeros", sum(row.indices.size for row in computed)
            )
        if transform != "fidelity":
            per_key = entry.rows[key]
            for road in roads:
                per_key[road] = _transform_row(
                    raw_rows[road], csr.index[road], transform
                )


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
