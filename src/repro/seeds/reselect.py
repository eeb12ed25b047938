"""Incremental CELF re-selection across crowdsourcing rounds.

Re-selecting seeds from scratch every round repeats the most expensive
part of CELF — the initial empty-set gain scan over every candidate
(O(n) influence-row evaluations). But empty-set gains depend only on a
candidate's influence row and the road weights, so on a stable network
they are *still valid* next round. :class:`IncrementalCelfSelector`
keeps them cached and subscribes to the invalidations of the
objective's :class:`~repro.history.fidelity.FidelityCacheService`
(:meth:`~repro.history.fidelity.FidelityCacheService.subscribe`):
a re-selection recomputes only candidates whose influence rows were
invalidated since the last round and warm-starts the CELF heap from the
cache for everyone else.

Correctness: the CELF pick sequence is fully determined by the bound
*set* (entries are totally ordered; see
:func:`~repro.seeds.lazy.run_celf`), and a cached gain equals the gain
a cold scan would recompute — rows are deterministic functions of the
(graph, floor, transform) triple. So a warm-started re-selection
returns the **identical** sequence to a cold ``lazy_greedy_select``, at
the cost of only the dirty candidates (``seeds.reselect.*`` metrics
record exactly how many that was).

The same argument lets a round with no dirty candidate skip CELF
altogether: every candidate's row is unchanged (other roads' rows are
never read), so the pass would repeat the previous one step for step.
The selector keeps its last result and returns it for the same budget
(``seeds.reselect.reused`` counts these rounds). Every row change
reaches the selector through its one ``subscribe`` callback, so a
stale result cannot be reused.
"""

from __future__ import annotations

import dataclasses
import heapq

from repro.obs import get_recorder
from repro.seeds.greedy import (
    SelectionResult,
    validate_budget,
    validate_candidates,
)
from repro.seeds.lazy import run_celf
from repro.seeds.objective import SeedSelectionObjective

__all__ = ["IncrementalCelfSelector"]


class IncrementalCelfSelector:
    """Warm-started CELF: pay only for candidates whose rows changed.

    Bind one selector to one objective for the lifetime of a system
    (it subscribes, weakly, to the objective's fidelity service).
    A :meth:`select` call with no dirty candidate and the previous
    call's budget returns the previous picks without a gain query
    (``evaluations == 0``); any dirty candidate, a wholesale
    invalidation or a new budget runs a full CELF pass whose empty-set
    scan re-evaluates only the dirty candidates. The
    ``seeds.reselect.reevaluated`` and ``seeds.reselect.reused``
    counters back both costs; ``tests/test_seeds_reselect.py`` pins
    them.
    """

    def __init__(
        self,
        objective: SeedSelectionObjective,
        candidates: list[int] | None = None,
    ) -> None:
        self._objective = objective
        self._pool = sorted(validate_candidates(objective, 1, candidates))
        self._pool_set = set(self._pool)
        self._gains: dict[int, float] = {}
        self._dirty: set[int] = set(self._pool)
        self._last: tuple[int, SelectionResult] | None = None
        self.rounds = 0
        objective.fidelity_service.subscribe(self._on_rows_invalidated)

    @property
    def dirty_candidates(self) -> set[int]:
        """Candidates whose cached gains are stale right now."""
        return set(self._dirty)

    def _on_rows_invalidated(self, graph, roads) -> None:
        if graph is not None and graph is not self._objective.graph:
            return
        # The objective's own subscription evicts its row memos.
        if roads is None:
            self._dirty.update(self._pool)
        else:
            self._dirty.update(road for road in roads if road in self._pool_set)

    def select(self, budget: int) -> SelectionResult:
        """The previous picks while nothing is dirty, else a full CELF
        pass with a warm-started empty-set gain heap."""
        validate_budget(self._objective, budget)
        if len(self._pool) < budget:
            from repro.core.errors import SelectionError

            raise SelectionError(
                f"candidate pool of {len(self._pool)} cannot fill "
                f"budget {budget}"
            )
        recorder = get_recorder()
        self.rounds += 1
        last = self._last
        reuse = not self._dirty and last is not None and last[0] == budget
        with recorder.span(
            "seeds.reselect",
            budget=budget,
            pool=len(self._pool),
            dirty=len(self._dirty),
            reused=reuse,
        ) as span:
            state = self._objective.new_state()
            dirty = sorted(self._dirty)
            self._gains.update(zip(dirty, state.gains(dirty)))
            reevaluated = len(dirty)
            self._dirty.clear()
            cached = len(self._pool) - reevaluated
            recorder.count("seeds.reselect.reevaluated", reevaluated)
            recorder.count("seeds.reselect.cached", cached)
            if self._pool:
                recorder.gauge(
                    "seeds.reselect.warm_fraction", cached / len(self._pool)
                )
            if reuse:
                recorder.count("seeds.reselect.reused")
                # No gain query runs, so the reused result reports none.
                result = dataclasses.replace(last[1], evaluations=0)
            else:
                heap = [
                    (-self._gains[candidate], candidate, 0)
                    for candidate in self._pool
                ]
                heapq.heapify(heap)
                result = run_celf(
                    self._objective,
                    budget,
                    heap,
                    state,
                    reevaluated,
                    method="lazy-greedy-incremental",
                )
                self._last = (budget, result)
            span.set(evaluations=result.evaluations, reevaluated=reevaluated)
        return result
