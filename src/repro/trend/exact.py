"""Exact trend-MRF inference by enumeration.

Sums the unnormalised joint over all 2^n assignments of the free (not
clamped) variables. Exponential, so it is capped at a small variable
count — its role is to be the *oracle* against which loopy BP, Gibbs
sampling and the fast propagation method are validated in tests and in
experiment F2.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.errors import InferenceError
from repro.obs import get_recorder
from repro.trend.model import TrendInstance, TrendPosterior

#: Enumeration above this many free variables is refused.
MAX_FREE_VARIABLES = 20


class ExactEnumerationInference:
    """Brute-force exact marginals for small instances."""

    def __init__(self, max_free_variables: int = MAX_FREE_VARIABLES) -> None:
        if max_free_variables < 1:
            raise InferenceError("max_free_variables must be >= 1")
        self._max_free = max_free_variables

    def infer(self, instance: TrendInstance) -> TrendPosterior:
        """Exact posterior P(RISE) for every road."""
        n = instance.num_roads
        evidence = instance.evidence_indices()
        free = [i for i in range(n) if i not in evidence]
        if len(free) > self._max_free:
            raise InferenceError(
                f"{len(free)} free variables exceed the exact-inference cap "
                f"of {self._max_free}; use loopy BP or propagation instead"
            )

        assignment = np.zeros(n, dtype=np.int8)
        for i, trend in evidence.items():
            assignment[i] = int(trend)

        with get_recorder().span(
            "trend.exact", roads=n, free=len(free)
        ) as span:
            rise_mass = np.zeros(n)
            total_mass = 0.0
            for bits in itertools.product((1, -1), repeat=len(free)):
                for i, bit in zip(free, bits):
                    assignment[i] = bit
                weight = self._joint_weight(instance, assignment)
                total_mass += weight
                rise_mass[assignment == 1] += weight
            span.set(assignments=2 ** len(free))
            get_recorder().count("trend.exact.assignments", 2 ** len(free))

        if total_mass <= 0.0:
            raise InferenceError("joint distribution has zero total mass")
        return TrendPosterior(instance.road_ids, rise_mass / total_mass)

    @staticmethod
    def _joint_weight(instance: TrendInstance, assignment: np.ndarray) -> float:
        """Unnormalised probability of one complete assignment."""
        weight = 1.0
        for i in range(instance.num_roads):
            p = instance.prior_rise[i]
            weight *= p if assignment[i] == 1 else 1.0 - p
        for i, j, p in instance.edges:
            weight *= p if assignment[i] == assignment[j] else 1.0 - p
        return weight
