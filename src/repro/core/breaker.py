"""A consecutive-failure circuit breaker, shared across subsystems.

Born in the crowdsourcing platform (PR 1) to stop a round from burning
its full retry budget on every task of a platform-wide outage, the
breaker is equally the right shape for the serving side: after
``failure_threshold`` consecutive failures it *opens* and callers stop
paying for work that keeps failing; each new round (or probe window) it
goes *half-open* and grants exactly one probe, whose outcome decides
whether it closes again or re-opens.

The three verdicts callers report:

* :meth:`CircuitBreaker.record_success` — the protected operation
  worked; the breaker closes.
* :meth:`CircuitBreaker.record_failure` — it failed; enough of these in
  a row open the breaker (a half-open probe failing re-opens it
  immediately).
* :meth:`CircuitBreaker.record_inconclusive` — the operation yielded
  evidence of neither recovery nor outage (e.g. a task dropped in
  transit before any worker saw it); a half-open probe it consumed is
  re-armed so the breaker cannot wedge.

The :mod:`repro.crowd` package facade re-exports both names; modules
import them from here.
"""

from __future__ import annotations

import enum

from repro.core.errors import ConfigError


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker over whole protected operations."""

    def __init__(self, failure_threshold: int = 3) -> None:
        if failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        self._threshold = failure_threshold
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probe_spent = False
        self.times_tripped = 0

    @property
    def state(self) -> BreakerState:
        return self._state

    def begin_round(self) -> None:
        """A new round starts: an open breaker becomes half-open and
        grants exactly one probe.

        A breaker still HALF_OPEN from the previous round gets a fresh
        probe too: its probe can be consumed by an operation that yields
        neither success nor failure (dropped in transit), and without
        re-arming the breaker would wedge half-open and skip every
        operation of every future round.
        """
        if self._state in (BreakerState.OPEN, BreakerState.HALF_OPEN):
            self._state = BreakerState.HALF_OPEN
            self._probe_spent = False

    def allow(self) -> bool:
        """May the next operation proceed?"""
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.HALF_OPEN and not self._probe_spent:
            self._probe_spent = True
            return True
        return False

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._state = BreakerState.CLOSED

    def record_inconclusive(self) -> None:
        """The operation vanished before yielding a verdict: evidence of
        neither recovery nor outage, so a half-open probe it consumed is
        re-armed for the next operation."""
        if self._state is BreakerState.HALF_OPEN:
            self._probe_spent = False

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if (
            self._state is BreakerState.HALF_OPEN
            or self._consecutive_failures >= self._threshold
        ):
            if self._state is not BreakerState.OPEN:
                self.times_tripped += 1
            self._state = BreakerState.OPEN
