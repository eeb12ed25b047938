"""Scalar best-path fidelity rows: the reference for the CSR kernel.

Also the scalar channel fidelity :func:`edge_fidelity` the CSR export
vectorizes, and :func:`best_fidelity_row` / :func:`best_fidelity_rows`,
the dense ``N``-length forms of the kernel's sparse rows that the
tests compare against dict rows.
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
