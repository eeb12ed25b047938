"""Scalar best-path fidelity rows: the reference for the CSR kernel.

Also the scalar channel fidelity :func:`edge_fidelity` the CSR export
vectorizes, :func:`best_fidelity_row` / :func:`best_fidelity_rows`,
the dense ``N``-length forms of the kernel's sparse rows that the
tests compare against dict rows, and :func:`tight_rule_dropped`, the
one-row-one-edge form of the delta invalidation rule.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.history.correlation import CorrelationGraph
from repro.history.fidelity import CSRFidelityGraph, sparse_fidelity_rows


def edge_fidelity(agreement: float) -> float:
    """Channel fidelity of a correlation edge: ``2p - 1``.

    Agreement at or below 0.5 carries no information and maps to 0.
    """
    return max(0.0, 2.0 * agreement - 1.0)


def best_fidelity_row(
    csr: CSRFidelityGraph,
    source: int,
    min_fidelity: float = 0.05,
    max_hops: int | None = None,
) -> np.ndarray:
    """Dense best-path fidelity row from CSR position ``source``.

    The N-length form of one :func:`~repro.history.fidelity.
    sparse_fidelity_rows` row: entries below the floor are 0; the source
    is 1.
    """
    return best_fidelity_rows(csr, [source], min_fidelity, max_hops)[0]


def best_fidelity_rows(
    csr: CSRFidelityGraph,
    sources: list[int],
    min_fidelity: float = 0.05,
    max_hops: int | None = None,
) -> np.ndarray:
    """Stacked :func:`best_fidelity_row` for several sources: ``(S, N)``."""
    out = np.zeros((len(sources), csr.num_roads), dtype=np.float64)
    for i, row in enumerate(
        sparse_fidelity_rows(csr, sources, min_fidelity, max_hops)
    ):
        out[i, row.indices] = row.values
    return out


def propagate_fidelity(
    graph: CorrelationGraph,
    source: int,
    min_fidelity: float = 0.05,
    max_hops: int | None = None,
) -> dict[int, float]:
    """Best-path fidelity from ``source`` to every road at or above the floor.

    Semantically identical to :func:`best_fidelity_row`: without a hop
    budget it is a pruned max-product Dijkstra; with one it is the same
    frontier-synchronous relaxation in dict form, because single-label Dijkstra cannot bound hops soundly —
    a weaker-but-shorter path must survive alongside a
    stronger-but-longer one. The source itself has fidelity 1.
    """
    if max_hops is not None:
        return _bounded(graph, source, min_fidelity, max_hops)

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


def _bounded(
    graph: CorrelationGraph, source: int, min_fidelity: float, max_hops: int
) -> dict[int, float]:
    """Hop-bounded best fidelity: synchronous layered relaxation.

    After layer ``h``, ``best`` is the optimum over paths of <= ``h``
    hops — the candidate path's own hop count is what gets bounded, so
    a road reachable only through a short weak path is never dropped
    because a longer strong path reached it first.
    """
    best: dict[int, float] = {source: 1.0}
    frontier: dict[int, float] = {source: 1.0}
    for _ in range(max_hops):
        improved: dict[int, float] = {}
        for road, fidelity in frontier.items():
            for edge in graph.neighbours(road):
                other = edge.other(road)
                candidate = fidelity * edge_fidelity(edge.agreement)
                if candidate < min_fidelity:
                    continue
                if candidate > best.get(other, 0.0) and candidate > improved.get(
                    other, 0.0
                ):
                    improved[other] = candidate
        if not improved:
            break
        best.update(improved)
        frontier = improved
    return best


def tight_rule_dropped(
    rows: dict[tuple, dict[int, object]],
    before: CorrelationGraph,
    delta,
) -> tuple[tuple[int, ...], dict[str, int]]:
    """The sources the tight-edge delta rule drops, and its work counts.

    ``rows`` is a service's row cache before the delta (``(floor, hops,
    transform) -> {road -> SparseRow}``), ``before`` the graph before
    the delta. One changed edge and one cached raw row at a time: ``q0``
    is the edge fidelity in ``before`` and ``q1`` after the delta (0
    where absent), ``b`` the row with unreached entries at
    ``nextafter(floor, 0)``. A row whose support holds no endpoint of an
    edge with ``q0 != q1`` is not checked. A checked row with a hop
    budget is dropped; otherwise it is dropped iff some edge went up
    with ``b[u]·q1 > b[v]`` or ``b[v]·q1 > b[u]``, or went down and was
    tight at a reached target: ``b[v] == b[u]·q0`` with ``b[v] >=
    floor``, or the mirror case.

    Returns the sorted dropped sources and the counts the
    ``fidelity.apply_delta`` span reports: ``edges_up``,
    ``edges_down``, ``rows_checked`` and ``rows_dropped``.
    """
    position = {road: i for i, road in enumerate(sorted(before.road_ids))}
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
    for (floor, hops, transform), per_key in rows.items():
        if transform != "fidelity":
            continue
        unreached = float(np.nextafter(floor, 0.0))
        for source, row in per_key.items():
            b = dict(zip(row.indices.tolist(), row.values.tolist()))
            if not any(u in b or v in b for u, v, _, _ in changes):
                continue
            counts["rows_checked"] += 1
            if hops is None and not any(
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
