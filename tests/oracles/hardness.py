"""NP-hardness of seed selection: the Set Cover reduction, executable.

The paper proves seed selection NP-hard. This module materialises the
reduction so the test suite can *machine-verify* it on small instances
instead of taking the proof on faith.

**Reduction.** Given a Set Cover instance (universe ``U``, collection
``C`` of subsets, budget ``k``), build a correlation graph with

* one *element road* per element of ``U``,
* one *set road* per subset in ``C``,
* an edge of agreement ``p`` (fidelity ``q = 2p − 1``) between set road
  ``S`` and element road ``e`` iff ``e ∈ S``,

and ask the **threshold-coverage decision**: does a seed set of size
``k`` exist giving every element road best-path influence at least
``θ``, with ``q² < θ ≤ q``?

The threshold separates path lengths: influence ``≥ θ`` forces a path of
length ≤ 1, so an element road is covered only by itself or by a set
road containing it. Hence a size-``k`` covering seed set exists **iff**
a size-``k`` set cover exists (replace any chosen element road by an
arbitrary set containing it — it covers no less). Both directions are
checked exhaustively by the tests via the brute-force helpers below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.core.errors import SelectionError
from repro.history.correlation import CorrelationEdge, CorrelationGraph
from repro.history.fidelity import get_fidelity_service
from tests.oracles.fidelity import edge_fidelity


@dataclass(frozen=True)
class SeedSelectionHardnessInstance:
    """The seed-selection instance produced by the reduction."""

    graph: CorrelationGraph
    element_roads: tuple[int, ...]
    set_roads: tuple[int, ...]
    threshold: float
    min_fidelity: float  # propagation floor strictly below q²


def set_cover_to_seed_selection(
    num_elements: int,
    sets: list[frozenset[int]],
    agreement: float = 0.9,
) -> SeedSelectionHardnessInstance:
    """Build the seed-selection instance for a Set Cover instance.

    Elements are ``0 .. num_elements-1``; each set must be a subset of
    the universe. Element roads get ids ``0 .. num_elements-1`` and set
    roads ``num_elements .. num_elements+len(sets)-1``.
    """
    if num_elements < 1:
        raise SelectionError("universe must be non-empty")
    if not sets:
        raise SelectionError("need at least one set")
    if not 0.75 < agreement < 1.0:
        # q = 2p−1 must satisfy q² < q with a usable gap; p > 0.75 gives
        # q > 0.5 and a θ window of width q(1−q) > 0.
        raise SelectionError(f"agreement {agreement} must be in (0.75, 1)")
    universe = set(range(num_elements))
    for i, s in enumerate(sets):
        if not s:
            raise SelectionError(f"set {i} is empty")
        if not s <= universe:
            raise SelectionError(f"set {i} contains non-universe elements")

    element_roads = tuple(range(num_elements))
    set_roads = tuple(range(num_elements, num_elements + len(sets)))
    edges = [
        CorrelationEdge(set_roads[i], element, agreement)
        for i, members in enumerate(sets)
        for element in sorted(members)
    ]
    graph = CorrelationGraph(list(element_roads) + list(set_roads), edges)
    q = edge_fidelity(agreement)
    threshold = (q + q * q) / 2.0
    return SeedSelectionHardnessInstance(
        graph=graph,
        element_roads=element_roads,
        set_roads=set_roads,
        threshold=threshold,
        min_fidelity=q * q * 0.5,
    )


def covers_all_elements(
    instance: SeedSelectionHardnessInstance, seeds: tuple[int, ...]
) -> bool:
    """Whether every element road has influence ≥ θ from ``seeds``."""
    service = get_fidelity_service()
    best: dict[int, float] = {}
    for seed in seeds:
        for road, fidelity in service.fidelity_map(
            instance.graph, seed, min_fidelity=instance.min_fidelity
        ).items():
            if fidelity > best.get(road, 0.0):
                best[road] = fidelity
    return all(
        best.get(element, 0.0) >= instance.threshold
        for element in instance.element_roads
    )


def min_seed_budget(instance: SeedSelectionHardnessInstance) -> int | None:
    """Brute-force minimum seed-set size achieving full element coverage.

    Exponential — for reduction verification on small instances only.
    Returns None when even seeding every road fails (an element in no set
    would still cover itself, so None only occurs for empty inputs, which
    the constructor rejects; kept for interface symmetry).
    """
    roads = instance.graph.road_ids
    for size in range(1, len(roads) + 1):
        for combo in itertools.combinations(roads, size):
            if covers_all_elements(instance, combo):
                return size
    return None


def min_set_cover_size(
    num_elements: int, sets: list[frozenset[int]]
) -> int | None:
    """Brute-force minimum set-cover size; None when uncoverable."""
    universe = set(range(num_elements))
    covered_total: set[int] = set().union(*sets)
    if not universe <= covered_total:
        return None
    for size in range(1, len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), size):
            if universe <= set().union(*(sets[i] for i in combo)):
                return size
    return None
