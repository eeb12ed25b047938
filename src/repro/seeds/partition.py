"""District partition and budget split for partitioned seed selection.

:class:`~repro.seeds.parallel.DistrictStage` splits the correlation
graph into connected chunks (:func:`partition_graph`), gives each chunk
a budget share proportional to its size (:func:`allocate_budget`) and
runs lazy greedy *inside* each chunk with influence restricted to chunk
members.

Rationale: influence is local (pruned at a fidelity floor), so the gain
a seed earns outside its own neighbourhood is limited; ignoring
cross-partition coverage loses little objective value but makes every
marginal-gain evaluation touch only a chunk. Experiment F4 measures the
speed-up and F5 the objective cost versus exact greedy.
"""

from __future__ import annotations

from collections import deque

from repro.core.errors import SelectionError
from repro.seeds.objective import SeedSelectionObjective


def partition_graph(
    objective: SeedSelectionObjective, num_partitions: int
) -> list[list[int]]:
    """Deterministic BFS-grown partition of the correlation graph.

    Chunks are grown to ``ceil(n / num_partitions)`` roads from the
    smallest-id unassigned road, following correlation edges (strongest
    first, as ordered by the graph), so chunks are connected whenever the
    graph is. Returns non-empty chunks covering every road exactly once.
    The count may differ from ``num_partitions`` either way: fewer when
    the graph is small (ceil-sized chunks use the roads up early), more
    when a connected component runs out before its chunk reaches the
    target size — that chunk closes short and the next one starts, so
    a fragmented graph yields extra, possibly tiny, chunks (16 requested
    on the 6,438-road perfbench city come back as 19, the two smallest
    with 2 and 4 roads).
    """
    if num_partitions < 1:
        raise SelectionError(f"num_partitions must be >= 1, got {num_partitions}")
    graph = objective.graph
    roads = graph.road_ids
    target = -(-len(roads) // num_partitions)  # ceil division
    unassigned = set(roads)
    partitions: list[list[int]] = []
    while unassigned:
        start = min(unassigned)
        chunk: list[int] = []
        # deque.popleft() is O(1); a list.pop(0) here is O(queue) and made
        # the whole partition quadratic at metropolitan scale (50k+ roads).
        queue: deque[int] = deque([start])
        unassigned.discard(start)
        while queue and len(chunk) < target:
            road = queue.popleft()
            chunk.append(road)
            for neighbour in graph.neighbour_ids(road):
                if neighbour in unassigned:
                    unassigned.discard(neighbour)
                    queue.append(neighbour)
        # Roads pulled into the queue but not placed return to the pool.
        unassigned.update(queue)
        partitions.append(sorted(chunk))
    return partitions


def allocate_budget(partitions: list[list[int]], budget: int) -> list[int]:
    """Largest-remainder proportional budget split, ≥0 per chunk.

    Each chunk gets at most its own size; the total always equals
    ``budget`` (which callers must ensure does not exceed total roads).
    """
    total = sum(len(p) for p in partitions)
    if budget > total:
        raise SelectionError(f"budget {budget} exceeds {total} partitioned roads")
    exact = [budget * len(p) / total for p in partitions]
    shares = [min(len(p), int(e)) for p, e in zip(partitions, exact)]
    remainders = sorted(
        range(len(partitions)),
        key=lambda i: (exact[i] - int(exact[i]), -len(partitions[i])),
        reverse=True,
    )
    shortfall = budget - sum(shares)
    for i in remainders:
        if shortfall == 0:
            break
        room = len(partitions[i]) - shares[i]
        if room > 0:
            add = min(room, shortfall)
            shares[i] += add
            shortfall -= add
    if shortfall:
        # Distribute anything left to whichever chunks still have room.
        for i in range(len(partitions)):
            room = len(partitions[i]) - shares[i]
            add = min(room, shortfall)
            shares[i] += add
            shortfall -= add
            if shortfall == 0:
                break
    return shares
