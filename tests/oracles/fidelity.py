"""Scalar best-path fidelity rows: the reference for the CSR kernel.

Also the scalar channel fidelity :func:`edge_fidelity` the CSR export
vectorizes, :func:`best_fidelity_row` / :func:`best_fidelity_rows`,
the dense ``N``-length forms of the kernel's sparse rows that the
tests compare against dict rows, :func:`tight_rule_dropped`, the
one-row-one-edge form of the delta invalidation rule, and the per-road
influence index of Step 2 (:func:`influence_index`) with
:func:`influence_rows`, which turns such an index back into the seed
rows :meth:`~repro.speed.hlm.SeedMoments.gather` reads.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.history.correlation import CorrelationGraph
from repro.history.fidelity import CSRFidelityGraph, SparseRow, sparse_fidelity_rows
from tests.oracles.delta import EdgeTuples


def edge_fidelity(agreement: float) -> float:
    """Channel fidelity of a correlation edge: ``2p - 1``.

    Agreement at or below 0.5 carries no information and maps to 0.
    """
    return max(0.0, 2.0 * agreement - 1.0)


def best_fidelity_row(
    csr: CSRFidelityGraph,
    source: int,
    min_fidelity: float = 0.05,
) -> np.ndarray:
    """Dense best-path fidelity row from CSR position ``source``.

    The N-length form of one :func:`~repro.history.fidelity.
    sparse_fidelity_rows` row: entries below the floor are 0; the source
    is 1.
    """
    return best_fidelity_rows(csr, [source], min_fidelity)[0]


def best_fidelity_rows(
    csr: CSRFidelityGraph,
    sources: list[int],
    min_fidelity: float = 0.05,
) -> np.ndarray:
    """Stacked :func:`best_fidelity_row` for several sources: ``(S, N)``."""
    out = np.zeros((len(sources), csr.num_roads), dtype=np.float64)
    for i, row in enumerate(sparse_fidelity_rows(csr, sources, min_fidelity)):
        out[i, row.indices] = row.values
    return out


def propagate_fidelity(
    graph: CorrelationGraph,
    source: int,
    min_fidelity: float = 0.05,
) -> dict[int, float]:
    """Best-path fidelity from ``source`` to every road at or above the floor.

    Semantically identical to :func:`best_fidelity_row`: a pruned
    max-product Dijkstra. The source itself has fidelity 1.
    """
    best: dict[int, float] = {source: 1.0}
    # Max-heap via negated fidelity.
    heap: list[tuple[float, int]] = [(-1.0, source)]
    while heap:
        neg_fid, road = heapq.heappop(heap)
        fidelity = -neg_fid
        if fidelity < best.get(road, 0.0):
            continue
        for edge in graph.neighbours(road):
            other = edge.other(road)
            candidate = fidelity * edge_fidelity(edge.agreement)
            if candidate < min_fidelity:
                continue
            if candidate > best.get(other, 0.0):
                best[other] = candidate
                heapq.heappush(heap, (-candidate, other))
    return best


def influence_index(
    graph: CorrelationGraph, seeds, min_fidelity: float
) -> dict[int, dict[int, float]]:
    """road id -> {seed -> fidelity} over the scalar rows of ``seeds``.

    Seeds are walked in sorted order; a seed's own entry is left out.
    """
    index: dict[int, dict[int, float]] = {}
    for seed in sorted(seeds):
        for road, q in propagate_fidelity(graph, seed, min_fidelity).items():
            if road != seed:
                index.setdefault(road, {})[seed] = q
    return index


def influence_rows(
    influence_by_road: dict[int, dict[int, float]], seeds, road_ids
) -> list[SparseRow]:
    """The seed rows an influence index holds, over positions in ``road_ids``.

    One :class:`~repro.history.fidelity.SparseRow` per seed, in
    ``seeds`` order, with sorted positions: the form
    :meth:`~repro.speed.hlm.SeedMoments.gather` reads.
    """
    position = {road: i for i, road in enumerate(road_ids)}
    by_seed: dict[int, dict[int, float]] = {seed: {} for seed in seeds}
    for road, row in influence_by_road.items():
        for seed, q in row.items():
            by_seed[seed][position[road]] = q
    rows = []
    for seed in seeds:
        entries = sorted(by_seed[seed].items())
        rows.append(
            SparseRow.frozen(
                np.array([i for i, _ in entries], dtype=np.int64),
                np.array([q for _, q in entries], dtype=np.float64),
            )
        )
    return rows


def tight_rule_dropped(
    rows: dict[tuple, dict[int, object]],
    before: CorrelationGraph,
    delta,
) -> tuple[tuple[int, ...], dict[str, int]]:
    """The sources the tight-edge delta rule drops, and its work counts.

    ``rows`` is a service's row cache before the delta (``(floor,
    transform) -> {road -> SparseRow}``), ``before`` the graph before
    the delta. One changed edge and one cached raw row at a time: ``q0``
    is the edge fidelity in ``before`` and ``q1`` after the delta (0
    where absent), ``b`` the row with unreached entries at
    ``nextafter(floor, 0)``. A row whose support holds no endpoint of an
    edge with ``q0 != q1`` is not checked. A checked row is dropped iff
    some edge went up with ``b[u]·q1 > b[v]`` or ``b[v]·q1 > b[u]``, or
    went down and was tight at a reached target: ``b[v] == b[u]·q0``
    with ``b[v] >= floor``, or the mirror case.

    Returns the sorted dropped sources and the counts the
    ``fidelity.apply_delta`` span reports: ``edges_up``,
    ``edges_down``, ``rows_checked`` and ``rows_dropped``.
    """
    position = {road: i for i, road in enumerate(sorted(before.road_ids))}
    delta = EdgeTuples.of(delta)
    changes = []
    for edge in (*delta.added, *delta.reweighted):
        old = before.agreement(edge.road_u, edge.road_v)
        q0 = 0.0 if old is None else edge_fidelity(old)
        changes.append((edge.road_u, edge.road_v, q0, edge_fidelity(edge.agreement)))
    for u, v in delta.removed:
        changes.append((u, v, edge_fidelity(before.agreement(u, v)), 0.0))
    changes = [
        (position[u], position[v], q0, q1) for u, v, q0, q1 in changes if q0 != q1
    ]
    counts = {
        "edges_up": sum(1 for *_, q0, q1 in changes if q1 > q0),
        "edges_down": sum(1 for *_, q0, q1 in changes if q1 < q0),
        "rows_checked": 0,
        "rows_dropped": 0,
    }
    dropped: set[int] = set()
    for (floor, transform), per_key in rows.items():
        if transform != "fidelity":
            continue
        unreached = float(np.nextafter(floor, 0.0))
        for source, row in per_key.items():
            b = dict(zip(row.indices.tolist(), row.values.tolist()))
            if not any(u in b or v in b for u, v, _, _ in changes):
                continue
            counts["rows_checked"] += 1
            if not any(
                _passes(b.get(u, unreached), b.get(v, unreached), q0, q1, floor)
                for u, v, q0, q1 in changes
            ):
                continue
            counts["rows_dropped"] += 1
            dropped.add(source)
    return tuple(sorted(dropped)), counts


def _passes(bu: float, bv: float, q0: float, q1: float, floor: float) -> bool:
    """Does one changed edge ``(u, v)`` pass the tight-edge test?"""
    if q1 > q0:
        return bu * q1 > bv or bv * q1 > bu
    return (bv == bu * q0 and bv >= floor) or (bu == bv * q0 and bu >= floor)
