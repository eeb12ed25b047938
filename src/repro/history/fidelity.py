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
  arrays for a block of sources at once, pruned at ``min_fidelity``.
  Each row keeps only its support as a
  :class:`SparseRow` — the one row form anything caches: influence is
  local (pruned at the floor), so a row's support is its reach, not N.
  Rows are bitwise equal to the dict/heap reference in
  ``tests/oracles/fidelity.py``, which the test suite checks.
* :class:`FidelityCacheService` — the single shared cache keyed by
  graph identity (weakly), fidelity floor and transform.
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
  votes and Step-2 regressions read their rows through it (district
  selection workers batch the kernel directly, on one thread). A fill
  of at least two blocks relaxes its second half on one long-lived
  helper thread while the caller relaxes the first: numpy releases
  the GIL inside the kernel's array passes, so the two halves overlap.
  The helper runs only the kernel core (:func:`_relax`), which records
  nothing; the caller builds every row and records the span.
  :meth:`FidelityCacheService.apply_graph_delta` drops only the rows
  a streamed graph delta may change, by a sound tight-edge test
  against the old edge fidelities (proof in its docstring; a row
  whose best value ties across paths may still drop), and a dropped
  row's re-fetch re-transforms only its changed entries.

Cache hits and misses flow into the existing :mod:`repro.obs` metrics
as ``fidelity.cache`` counts (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import math
import os
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def max_degree(self) -> int:
        """The largest number of neighbours of any road."""
        return int(np.diff(self.indptr).max(initial=0))

    @classmethod
    def from_graph(cls, graph: CorrelationGraph) -> "CSRFidelityGraph":
        road_ids = tuple(graph.road_ids)
        index = {road: i for i, road in enumerate(road_ids)}
        n = len(road_ids)
        iu, iv, agreement = graph.edge_positions()
        # Channel fidelity max(0, 2p - 1) per edge: the same IEEE operations
        # as the scalar edge_fidelity in tests/oracles/fidelity.py, bitwise.
        q = np.maximum(0.0, 2.0 * agreement - 1.0)
        u = np.concatenate([iu, iv])
        v = np.concatenate([iv, iu])
        # Directed keys u * n + v are unique, so the order is input-independent.
        order = np.argsort(u * n + v, kind="stable")
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
#: Dense scratch entries (sources x roads) one thread's kernel block
#: may use: a block holds this many // N sources (at least one), so its
#: three scratch arrays (8 bytes an entry) stay near 1.5 MB at any N.
#: Measured with two threads (cold lazy selection, median of 3, shared
#: 2-vCPU host): 2^15 / 2^16 / 2^17 took 1.14 / 1.15 / 0.94 s at 3,210
#: roads and 1.75 / 1.57 / 1.45 s at 6,438 roads (one thread at 2^16:
#: 1.24 and 1.96 s), while the helper thread's malloc arena kept 3.0 /
#: 4.9 / 9.7 MB more than one thread after a whole-city fill. 2^17 is
#: faster but its arena puts stream-days ``peak_rss_mb`` near +5%.
_BLOCK_ENTRIES = 1 << 16

#: Candidate edges one frontier slice of a hop relaxes at a time: a
#: hop's edge-long temporaries (four arrays, 8 bytes an entry) stay
#: near 2 MB however large the block's frontier grows.
_HOP_EDGES = 1 << 16

#: Kernel blocks one step of a cache fill computes and transforms
#: before the next (see FidelityCacheService._compute_rows).
_REFETCH_BLOCKS = 16


#: The one helper thread of cache fills (see :func:`_helper`).
_helper_thread: ThreadPoolExecutor | None = None


def _helper() -> ThreadPoolExecutor | None:
    """The long-lived helper thread of cache fills, or ``None`` on one CPU.

    Created on the first fill that asks for it (its thread starts on
    the first fill of at least two blocks) and kept for the process's
    life, idle between fills. A process allowed only one CPU never
    starts it, and a forked child forgets its parent's.
    """
    global _helper_thread
    if len(os.sched_getaffinity(0)) < 2:
        return None
    if _helper_thread is None:
        _helper_thread = ThreadPoolExecutor(1, thread_name_prefix="fidelity-rows")
    return _helper_thread


def _forget_helper() -> None:
    global _helper_thread
    _helper_thread = None


os.register_at_fork(after_in_child=_forget_helper)


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
) -> list[SparseRow]:
    """Best-path fidelity rows from CSR positions ``sources``, one per source.

    Frontier-synchronous max-product relaxation until no entry improves:
    a row holds the optimum over all paths whose running product never
    drops below ``min_fidelity`` (products only shrink along a path, so
    prefix pruning is exact). Each row keeps its support only — entries
    at or above the floor, the source at 1.

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

    Runs on the calling thread: district-selection workers call it, and
    their processes already occupy every CPU. The cache service's fills
    split their sources over two threads (:func:`_split_rows`).
    """
    return _split_rows(csr, sources, min_fidelity, None)


def _split_rows(
    csr: CSRFidelityGraph,
    sources: Sequence[int],
    min_fidelity: float,
    helper: ThreadPoolExecutor | None,
) -> list[SparseRow]:
    """:func:`sparse_fidelity_rows`, the second half of the sources on ``helper``.

    With a ``helper`` and at least two blocks of sources, the caller
    relaxes the first half while the helper relaxes the second (numpy
    drops the GIL inside the hop's array passes). A source's row
    depends on its own keys only, so the rows are bitwise what one
    thread returns. The helper runs :func:`_relax` alone: the caller
    builds every row, copying its values out of the kernel's arrays so
    cached rows live in the caller's malloc arena, and records the one
    ``history.fidelity.rows`` span with the summed counts.
    """
    _validate(min_fidelity)
    n = csr.num_roads
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    bad = sources[(sources < 0) | (sources >= n)]
    if bad.size:
        raise InferenceError(f"source position {int(bad[0])} out of range [0, {n})")
    if not sources.size:
        return []
    with get_recorder().span("history.fidelity.rows") as span:
        if helper is None or sources.size < 2 * row_block_size(n):
            blocks, relaxations = _relax(csr, sources, min_fidelity)
        else:
            cut = (sources.size + 1) // 2
            theirs = helper.submit(_relax, csr, sources[cut:], min_fidelity)
            try:
                blocks, relaxations = _relax(csr, sources[:cut], min_fidelity)
            finally:
                wait([theirs])
            more, extra = theirs.result()
            blocks += more
            relaxations += extra
        rows = []
        for m, support, values in blocks:
            bounds = np.searchsorted(support, np.arange(m + 1) * n).tolist()
            for s in range(m):
                a, b = bounds[s], bounds[s + 1]
                rows.append(SparseRow.frozen(support[a:b] - s * n, values[a:b].copy()))
        span.set(
            rows=len(rows),
            nonzeros=sum(row.indices.size for row in rows),
            relaxations=relaxations,
        )
    return rows


def _relax(
    csr: CSRFidelityGraph, sources: np.ndarray, floor: float
) -> tuple[list[tuple[int, np.ndarray, np.ndarray]], int]:
    """The kernel core: relax ``sources`` in blocks of :func:`row_block_size`.

    Returns one ``(m, support, values)`` per block of ``m`` sources —
    the sorted reached keys ``s * N + v`` and their values — and the
    number of candidate edges examined. It only reads ``csr`` and
    records nothing, so it may run on the helper thread beside a
    caller that relaxes other sources.
    """
    n = csr.num_roads
    block = min(row_block_size(n), sources.size)
    # Unreached entries hold the largest float below the floor, so one
    # comparison ``candidate > best`` applies both the floor and the
    # strict-improvement test.
    unreached = np.nextafter(floor, 0.0)
    best = np.full(block * n, unreached)
    peak = np.zeros(block * n)
    # Never reset: each hop reads stamps only at keys it just wrote.
    stamp = np.empty(block * n, dtype=np.int64)
    step = max(1, _HOP_EDGES // max(1, csr.max_degree))
    relaxations = 0
    blocks = []
    for lo in range(0, sources.size, block):
        m = min(block, sources.size - lo)
        keys = sources[lo : lo + m] + np.arange(m, dtype=np.int64) * n
        best[keys] = 1.0
        reached = [keys]
        while keys.size:
            # ``best`` changes only after the whole hop, and the max per
            # key is the same in any order, so slicing the frontier
            # changes no value.
            parts = [
                _candidates(csr, best, keys[a : a + step])
                for a in range(0, keys.size, step)
            ]
            relaxations += sum(total for _, _, total in parts)
            for target, candidate, _ in parts:
                np.maximum.at(peak, target, candidate)
            target = np.concatenate([target for target, _, _ in parts])
            if not target.size:
                break
            order = np.arange(target.size)
            stamp[target] = order
            keys = target[stamp[target] == order]
            reached.append(keys[best[keys] == unreached])
            best[keys] = peak[keys]
            peak[keys] = 0.0
        support = np.sort(np.concatenate(reached))
        values = best[support]
        best[support] = unreached
        blocks.append((m, support, values))
    return blocks, relaxations


def _candidates(
    csr: CSRFidelityGraph, best: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """One frontier slice's improving ``(targets, candidates)`` and its edge count."""
    n = csr.num_roads
    nodes = keys % n
    starts = csr.indptr[nodes]
    counts = csr.indptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1])
    # Concatenated per-frontier edge ranges, without a loop; updating
    # in place keeps at most four edge-long arrays alive.
    edge = np.repeat(starts - ends + counts, counts)
    edge += np.arange(total)
    candidate = np.repeat(best[keys], counts)
    candidate *= csr.data[edge]
    target = np.repeat(keys - nodes, counts)
    target += csr.indices[edge]
    del edge
    keep = candidate > best[target]
    return target[keep], candidate[keep], total


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
    values = _transform_values(raw.values, transform)
    if transform == "logodds":
        values[int(np.searchsorted(raw.indices, source))] = 0.0
    return SparseRow.frozen(raw.indices, np.array(values, dtype=np.float64))


def _retransform(
    raw: SparseRow, source: int, transform: str, old_raw: SparseRow, old: SparseRow
) -> tuple[SparseRow, int]:
    """:func:`_transform_row` of a re-fetched row, reusing a dropped one.

    ``old`` is the ``transform`` row a graph delta dropped for the same
    source and ``old_raw`` its raw sibling. Wherever the new raw row
    holds the same index with the same value, ``old``'s entry is reused;
    only the other entries run the :mod:`math` expression. The
    transform is a function of the entry alone (the ``"logodds"`` source
    entry is 0 either way), so the row is bitwise what
    :func:`_transform_row` returns. Also returns how many entries were
    reused.
    """
    at = np.minimum(
        np.searchsorted(old_raw.indices, raw.indices), old_raw.indices.size - 1
    )
    same = (old_raw.indices[at] == raw.indices) & (old_raw.values[at] == raw.values)
    values = np.empty(raw.values.size, dtype=np.float64)
    values[same] = old.values[at[same]]
    fresh = ~same
    values[fresh] = _transform_values(raw.values[fresh], transform)
    if transform == "logodds":
        values[int(np.searchsorted(raw.indices, source))] = 0.0
    return SparseRow.frozen(raw.indices, values), int(np.count_nonzero(same))


def _transform_values(fidelities: np.ndarray, transform: str) -> list[float]:
    """The per-entry ``transform`` of raw fidelities, as a list."""
    if transform == "variance":
        sin, pi = math.sin, math.pi
        return [sin(pi * q / 2.0) ** 2 for q in fidelities.tolist()]
    if transform == "logodds":
        log, clamp = math.log, _LOGODDS_CLAMP
        return [
            log((1.0 + q) / (1.0 - q))
            for q in (min(p, clamp) for p in fidelities.tolist())
        ]
    raise InferenceError(
        f"unknown fidelity transform {transform!r}; choose from {ROW_TRANSFORMS}"
    )


# ----------------------------------------------------------------------
# Delta invalidation
# ----------------------------------------------------------------------
class _ChangedEdges(NamedTuple):
    """A graph delta's edges whose fidelity changed, as CSR positions.

    ``q0`` is an edge's fidelity before the delta (0 where absent) and
    ``q1`` after it (0 where removed); ``q0 != q1`` on every edge.
    """

    u: np.ndarray
    v: np.ndarray
    q0: np.ndarray
    q1: np.ndarray


def _edge_fidelities(csr: CSRFidelityGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``csr``'s fidelity of each edge ``(u[k], v[k])``, 0 where absent."""
    n = csr.num_roads
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr)) * n
    keys += csr.indices
    if not keys.size:
        return np.zeros(u.size)
    want = u * n + v
    at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return np.where(keys[at] == want, csr.data[at], 0.0)


def _changed_edges(
    before: CSRFidelityGraph, after: CSRFidelityGraph, delta
) -> _ChangedEdges:
    """The edges ``delta`` names whose fidelity differs from ``before`` to ``after``.

    Both fidelities are read from the CSR exports, not from the delta,
    so a delta that reaches the cache twice, or names an edge the
    graph already had at that weight, changes nothing.
    """
    roads = np.asarray(before.road_ids, dtype=np.int64)
    u, v = (np.searchsorted(roads, ends) for ends in delta.changed_ends())
    q0, q1 = _edge_fidelities(before, u, v), _edge_fidelities(after, u, v)
    changed = q0 != q1
    return _ChangedEdges(u[changed], v[changed], q0[changed], q1[changed])


#: Changed edges one pass of :func:`_stale_rows`' test takes at a time;
#: rows that pass leave before the next pass.
_EDGE_CHUNK = 256


def _stale_rows(
    rows: list[SparseRow],
    edges: _ChangedEdges,
    min_fidelity: float,
    num_roads: int,
) -> tuple[int, np.ndarray]:
    """Which cached raw ``rows`` the changed ``edges`` may change.

    Returns the number of rows whose support holds a changed edge's
    endpoint (the rows checked) and the sorted positions in ``rows`` of
    those that are dropped: those where some edge passes the tight-edge
    test of :meth:`FidelityCacheService.apply_graph_delta`.

    The support gather reads every cached entry once, in chunks of
    about 2^18 entries, and keeps those at an endpoint. Checked rows
    then go in blocks onto a dense (rows x endpoints) scratch, unreached
    entries at ``nextafter(floor, 0)``, and the test runs on whole
    columns, :data:`_EDGE_CHUNK` edges at a time; a row that passed
    takes no further part. A row drops as soon as any edge passes, so
    the order of the edges cannot change the result, and the edges
    likeliest to pass go first: added and removed ones, then the
    re-weighted ones by how far their fidelity moved.
    """
    endpoints = np.unique(np.concatenate([edges.u, edges.v]))
    width = endpoints.size
    column = np.full(num_roads, -1, dtype=np.int64)
    column[endpoints] = np.arange(width)
    at_endpoint = column >= 0
    sizes = np.fromiter(map(len, (row.indices for row in rows)), np.int64, len(rows))
    ends = np.cumsum(sizes)
    chunk = 4 * _BLOCK_ENTRIES
    cuts = np.unique(
        np.concatenate(
            [[0], np.searchsorted(ends, np.arange(chunk, ends[-1], chunk)), [len(rows)]]
        )
    )
    hit_row, hit_col, hit_val = [], [], []
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        flat = np.concatenate([row.indices for row in rows[a:b]])
        at = np.flatnonzero(at_endpoint[flat])
        if at.size:
            offsets = ends[a:b] - ends[a] + sizes[a]
            hit_row.append(a + np.searchsorted(offsets, at, "right"))
            hit_col.append(column[flat[at]])
            hit_val.append(np.concatenate([row.values for row in rows[a:b]])[at])
    if not hit_row:
        return 0, np.zeros(0, dtype=np.int64)
    hit_row = np.concatenate(hit_row)
    # Hits come in row order, so each checked row's hits are one run.
    first = np.diff(hit_row, prepend=-1) != 0
    checked = hit_row[first]
    rank = np.cumsum(first) - 1
    hit_col = np.concatenate(hit_col)
    hit_val = np.concatenate(hit_val)
    moved = np.abs(edges.q1 - edges.q0)
    moved[(edges.q0 == 0.0) | (edges.q1 == 0.0)] = np.inf
    order = np.argsort(-moved, kind="stable")
    eu, ev = column[edges.u[order]], column[edges.v[order]]
    q0, q1 = edges.q0[order], edges.q1[order]
    unreached = np.nextafter(min_fidelity, 0.0)
    block = max(1, _BLOCK_ENTRIES // width)
    bounds = np.searchsorted(rank, np.arange(0, checked.size + block, block))
    stale = []
    for lo, a, b in zip(range(0, checked.size, block), bounds[:-1], bounds[1:]):
        scratch = np.full((min(block, checked.size - lo), width), unreached)
        scratch[rank[a:b] - lo, hit_col[a:b]] = hit_val[a:b]
        live = np.arange(scratch.shape[0])
        for e in range(0, q0.size, _EDGE_CHUNK):
            if not live.size:
                break
            b_live = scratch[live]
            part = slice(e, e + _EDGE_CHUNK)
            hit = _passes(
                b_live[:, eu[part]], b_live[:, ev[part]], q0[part], q1[part], min_fidelity
            ).any(axis=1)
            stale.append(live[hit] + lo)
            live = live[~hit]
    return checked.size, checked[np.sort(np.concatenate(stale))]


def _passes(
    b_u: np.ndarray, b_v: np.ndarray, q0: np.ndarray, q1: np.ndarray, floor: float
) -> np.ndarray:
    """The tight-edge test of each changed edge ``(u, v)`` (columns) per row.

    An up-edge passes when ``u`` or ``v`` now improves the other; a
    down-edge when it carried a reached entry's best value.
    """
    up = q1 > q0
    q = np.where(up, q1, q0)
    via_u, via_v = b_u * q, b_v * q
    rises = (via_u > b_v) | (via_v > b_u)
    tight = ((b_v == via_u) & (b_v >= floor)) | ((b_u == via_v) & (b_u >= floor))
    return np.where(up, rises, tight)


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

    __slots__ = ("csr", "rows", "stash")

    def __init__(self) -> None:
        # Invariant: while any row is cached, ``csr`` is the export the
        # cached rows were computed on; apply_graph_delta reads the old
        # edge fidelities from it, then replaces it with the new export.
        self.csr: CSRFidelityGraph | None = None
        # (min_fidelity, transform) -> {road -> SparseRow}.
        # Invariant: every cached transformed row has its raw
        # ("fidelity") sibling cached too, sharing its index array.
        self.rows: dict[tuple, dict[int, SparseRow]] = {}
        # min_fidelity -> {road -> (raw, {transform: row})}:
        # the transformed rows the last graph delta dropped, with their
        # raw sibling, kept until a re-fetch consumes them.
        self.stash: dict[float, dict[int, tuple[SparseRow, dict[str, SparseRow]]]] = {}


class FidelityCacheService:
    """The single cross-stage cache of best-fidelity influence rows.

    Caches are keyed by graph *identity* (weakly, so dropped graphs
    free their rows), fidelity floor and transform — mining
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
    def _key(min_fidelity: float, transform: str) -> tuple:
        if transform not in ROW_TRANSFORMS:
            raise InferenceError(
                f"unknown fidelity transform {transform!r}; "
                f"choose from {ROW_TRANSFORMS}"
            )
        return (float(min_fidelity), transform)

    def stats(self) -> CacheStats:
        return CacheStats(hits=self._hits, misses=self._misses)

    def subscribe(self, method) -> None:
        """Call the bound ``method(graph, roads)`` on every invalidation.

        ``roads`` is the sorted tuple of source roads whose cached
        influence rows were dropped (empty when a graph delta changed
        no cached row: the graph itself still changed), or ``None`` for
        a wholesale invalidation of ``graph`` (``graph`` is ``None`` too
        when every graph went). Every cache derived from fidelity rows
        — compiled plans, row memos, CELF gains —
        subscribes here once. The method is held as a :class:`weakref.WeakMethod`:
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
        """Drop the cached rows ``delta`` may change; returns their sources.

        Call right after :meth:`~repro.history.correlation.
        CorrelationGraph.apply_delta` mutated ``graph`` in place. Each
        changed edge ``(u, v)`` goes from fidelity ``q0`` (read from the
        CSR the cached rows were computed on) to ``q1``, 0 meaning
        absent. For a cached raw row ``b``, with unreached entries at
        the kernel's ``nextafter(floor, 0)``, the **tight-edge rule**
        drops the row iff some changed edge

        * went up (``q1 > q0``) and ``b[u]·q1 > b[v]`` or
          ``b[v]·q1 > b[u]``, or
        * went down (``q1 < q0``) and was tight at a reached target:
          ``b[v] == b[u]·q0`` with ``b[v]`` at or above the floor, or
          the mirror case.

        The rule is sound: it drops every row whose value changes, and
        every row it keeps is bitwise what a recompute on the new graph
        gives. It is not exact: a down-edge that ties with another path
        at a reached entry drops the row although the tie keeps the
        entry's value. The kernel's entry at ``t`` is the best left-to-right
        rounded product over paths from the source whose running
        product stays at or above the floor; rounded multiplication is
        monotone and a factor ``q <= 1`` never raises it, so ``b`` is
        the fixpoint ``b[t] = max_p fl(b[p]·q(p, t))`` over reached
        ``p``. Let ``b'`` be the row on the new graph and assume no
        changed edge passes.

        * ``b' <= b``: a path whose value beats ``b`` at its end has a
          first node ``x_i`` where its running value ``w_i > b[x_i]``;
          there ``w_{i-1} <= b[x_{i-1}]`` and ``w_i >= floor``. The
          edge into ``x_i`` cannot be unchanged or down (then
          ``fl(b[x_{i-1}]·q0) >= w_i > b[x_i]`` breaks the fixpoint), so
          it is an up-edge with ``b[x_{i-1}]·q1 >= w_i > b[x_i]``: its
          test passes. Every improved path has a first up-edge whose
          test must pass.
        * ``b' >= b``: take a road ``x`` with ``b'[x] < b[x] = v``, ``v``
          largest among such roads, and a path realizing ``v``. From
          its last node valued above ``v`` (or the source) on, every
          edge is tight and each running value equals ``v >= floor``;
          at that node ``b' >= b`` by the choice of ``v``. A tight edge
          is not a changed down-edge (its test would pass), so each
          keeps or raises its factor, and ``b'[x] >= v``. With no tight
          down-edge, each reached entry keeps its tight predecessor
          chain.

        The kernel's rows equal the max-over-paths oracle in
        ``tests/oracles/fidelity.py`` bitwise, so ``b' == b`` means the
        kept row is what a recompute returns.

        Only rows whose support holds a changed edge's endpoint can
        pass (an unreached ``b[u]`` passes neither test), so those are
        checked, in blocks (:func:`_stale_rows`).

        Dropped rows, with their transformed siblings, move to a stash
        that replaces the previous delta's; a re-fetch re-transforms
        only the entries whose raw value changed (:func:`_retransform`).
        ``q0`` and ``q1`` are read for the edges the delta names from
        the old cached CSR and a fresh export of ``graph``, which
        replaces it in the same call, so cached rows always sit beside
        the CSR they were computed on, across back-to-back deltas too.
        A delta that reaches the cache twice changes no fidelity the
        second time and drops nothing.
        Subscribers hear the sorted dropped sources (possibly none: the
        graph still changed). The ``fidelity.apply_delta`` span reports
        ``edges_up``, ``edges_down``, ``rows_checked`` (support hits)
        and ``rows_dropped``; ``tests/test_delta_invalidation.py`` pins
        them and the dropped set to the scalar rule in
        ``tests/oracles/fidelity.py``.
        """
        if delta.is_empty:
            return ()
        entry = self._graphs.get(graph)
        dropped: set[int] = set()
        with get_recorder().span("fidelity.apply_delta") as span:
            checked = removed = 0
            if entry is not None and entry.csr is not None:
                before, entry.csr = entry.csr, CSRFidelityGraph.from_graph(graph)
                edges = _changed_edges(before, entry.csr, delta)
                up = int(np.count_nonzero(edges.q1 > edges.q0))
                span.set(edges_up=up, edges_down=edges.q0.size - up)
                stash = {}
                for (floor, transform), raw_rows in list(entry.rows.items()):
                    if transform != "fidelity" or not raw_rows or not edges.u.size:
                        continue
                    hits, stale = _stale_rows(
                        list(raw_rows.values()), edges, floor, entry.csr.num_roads
                    )
                    sources = list(raw_rows)
                    gone = [sources[i] for i in stale.tolist()]
                    stash[floor] = self._evict(entry, floor, gone)
                    checked += hits
                    removed += len(gone)
                    dropped.update(gone)
                entry.stash = stash
            span.set(rows_checked=checked, rows_dropped=removed)
        roads = tuple(sorted(dropped))
        if roads:
            get_recorder().count("fidelity.invalidations", len(roads), scope="rows")
        self._notify(graph, roads)
        return roads

    @staticmethod
    def _evict(entry: _GraphEntry, floor: float, gone: list[int]) -> dict:
        """Pop ``gone``'s rows of one floor; return their stash."""
        raw = entry.rows[(floor, "fidelity")]
        old_raw = {road: raw.pop(road) for road in gone}
        stash: dict[int, tuple[SparseRow, dict[str, SparseRow]]] = {}
        for (f, transform), per_key in entry.rows.items():
            if f != floor or transform == "fidelity":
                continue
            for road in gone:
                row = per_key.pop(road, None)
                if row is not None:
                    stash.setdefault(road, (old_raw[road], {}))[1][transform] = row
        return stash

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
        transform: str = "fidelity",
    ) -> SparseRow:
        """Influence row for ``road`` as a read-only :class:`SparseRow`.

        ``indices`` are CSR positions (sorted road-id order); use
        :meth:`SparseRow.dense` for the N-length form.
        """
        return self.sparse_rows(graph, [road], min_fidelity, transform)[0]

    def sparse_rows(
        self,
        graph: CorrelationGraph,
        roads: Sequence[int],
        min_fidelity: float = 0.05,
        transform: str = "fidelity",
    ) -> list[SparseRow]:
        """Influence rows for several roads, in order: the batch :meth:`row`.

        Missing raw rows are computed together by the block kernel
        (:func:`sparse_fidelity_rows`). The cache accounting is exactly
        that of one :meth:`row` call per entry of ``roads``: a road not
        yet cached is one miss, every other entry (repeats included) a
        hit.
        """
        key = self._key(min_fidelity, transform)
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

        Every transform of the same (graph, floor) derives from
        one cached raw propagation; raw rows fetched here do not touch
        the hit/miss stats, so one cold transformed row counts as
        exactly one miss. A transformed row the last graph delta dropped
        is re-transformed only where its raw entries changed, and leaves
        the stash; the ``fidelity.retransform`` count tags those entries
        ``reused`` or ``transformed``.
        """
        min_fidelity, transform = key
        csr = self.csr(graph)
        unknown = [road for road in roads if road not in csr.index]
        if unknown:
            raise InferenceError(f"source road {unknown[0]} not in correlation graph")
        raw_rows = entry.rows.setdefault((min_fidelity, "fidelity"), {})
        per_key = entry.rows[key]
        stash = entry.stash.get(min_fidelity, {})
        reused = transformed = 0
        # A few kernel blocks at a time, each transformed (freeing its
        # stash entries) before the next: a re-fetch after a delta never
        # holds all dropped rows beside all their replacements.
        step = _REFETCH_BLOCKS * row_block_size(csr.num_roads)
        for lo in range(0, len(roads), step):
            part = roads[lo : lo + step]
            cold = [road for road in part if road not in raw_rows]
            if cold:
                computed = _split_rows(
                    csr, [csr.index[road] for road in cold], min_fidelity, _helper()
                )
                raw_rows.update(zip(cold, computed))
                get_recorder().count(
                    "fidelity.row_nonzeros", sum(row.indices.size for row in computed)
                )
            if transform == "fidelity":
                continue
            for road in part:
                raw, source = raw_rows[road], csr.index[road]
                old_raw, old_rows = stash.get(road, (None, {}))
                old = old_rows.pop(transform, None)
                if old is None:
                    per_key[road] = _transform_row(raw, source, transform)
                    continue
                if not old_rows:
                    del stash[road]
                per_key[road], same = _retransform(raw, source, transform, old_raw, old)
                reused += same
                transformed += raw.indices.size - same
        if reused or transformed:
            recorder = get_recorder()
            recorder.count("fidelity.retransform", reused, entries="reused")
            recorder.count("fidelity.retransform", transformed, entries="transformed")


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
