"""Lazy greedy (CELF) seed selection.

Exploits submodularity: a candidate's marginal gain can only *shrink*
as the seed set grows, so a stale upper bound from an earlier round is
still an upper bound. Candidates live in a max-heap keyed by their last
known gain; a pop whose bound is already up to date is provably the true
argmax and is taken without touching the rest of the heap. In practice
this skips the vast majority of gain evaluations while returning the
*identical* seed sequence to plain greedy (ties broken by road id) —
both facts are asserted in the test suite and measured in F4.
"""

from __future__ import annotations

import heapq

from repro.core.clock import get_clock
from repro.obs import get_recorder
from repro.seeds.greedy import SelectionResult, validate_budget, validate_candidates
from repro.seeds.objective import SeedSelectionObjective


def lazy_greedy_select(
    objective: SeedSelectionObjective,
    budget: int,
    candidates: list[int] | None = None,
) -> SelectionResult:
    """CELF: greedy with lazy marginal-gain re-evaluation."""
    validate_budget(objective, budget)
    pool = validate_candidates(objective, budget, candidates)

    state = objective.new_state()
    ordered = sorted(pool)

    # Heap entries: (-gain, road, round_evaluated). Road id is the
    # tie-breaker, matching plain greedy's sorted scan.
    heap: list[tuple[float, int, int]] = []
    for candidate, gain in zip(ordered, state.gains(ordered)):
        heapq.heappush(heap, (-gain, candidate, 0))
    return run_celf(objective, budget, heap, state, len(ordered))


def run_celf(
    objective: SeedSelectionObjective,
    budget: int,
    heap: list[tuple[float, int, int]],
    state,
    evaluations: int,
    method: str = "lazy-greedy",
) -> SelectionResult:
    """The CELF pop/re-evaluate loop over a pre-seeded bound heap.

    ``heap`` holds ``(-gain, road, 0)`` empty-set bounds — heap *order*
    (entries are totally ordered, road id breaking gain ties) fully
    determines the pick sequence, so any construction of the same bound
    set (cold scan or a warm-started cache) yields the identical seed
    sequence. ``evaluations`` counts the gain queries already spent
    building the heap; the incremental re-selection path passes the
    number of *dirty* candidates it actually recomputed.
    """
    recorder = get_recorder()
    clock = get_clock()
    seeds: list[int] = []
    gains: list[float] = []
    values: list[float] = []
    current_round = 0
    # Heap accounting for the CELF win: a "hit" is a pop whose stale
    # bound was already the true argmax; a "miss" forces a re-evaluation.
    heap_hits = 0
    heap_misses = 0
    pick_start = clock.monotonic()
    while len(seeds) < budget:
        neg_gain, candidate, evaluated_round = heapq.heappop(heap)
        if evaluated_round == current_round:
            # Bound is fresh: this is the true argmax.
            realised = state.add(candidate)
            seeds.append(candidate)
            gains.append(realised)
            values.append(state.value)
            current_round += 1
            heap_hits += 1
            now = clock.monotonic()
            recorder.observe("seeds.pick_seconds", now - pick_start, method="lazy")
            pick_start = now
        else:
            gain = state.gain(candidate)
            evaluations += 1
            heap_misses += 1
            heapq.heappush(heap, (-gain, candidate, current_round))
    recorder.count("seeds.evaluations", evaluations, method="lazy")
    recorder.count("seeds.lazy.heap_pops", heap_hits, fresh="true")
    recorder.count("seeds.lazy.heap_pops", heap_misses, fresh="false")
    if heap_hits + heap_misses:
        recorder.gauge(
            "seeds.lazy.heap_hit_rate", heap_hits / (heap_hits + heap_misses)
        )
    return SelectionResult(
        method=method,
        seeds=tuple(seeds),
        gains=tuple(gains),
        values=tuple(values),
        evaluations=evaluations,
    )
