"""The batch re-mine: the reference for incremental correlation mining.

:class:`BatchRollingHistory` keeps the rolling window of
:class:`~repro.history.online.RollingHistory` (same day eviction, same
store rebuild, same re-mine rate limit) but mines every due re-mine
from scratch with the per-road oracle miner
:func:`~tests.oracles.correlation.batch_mine_correlation_graph`: a
fresh graph object each time, no co-trend counts, no delta. The
incremental graph must equal its graph on every window.
"""

from __future__ import annotations

from collections import deque

from repro.core.field import SpeedField
from repro.history.correlation import CorrelationGraph
from repro.history.store import HistoricalSpeedStore
from repro.history.timebuckets import TimeGrid
from repro.roadnet.network import RoadNetwork
from tests.oracles.correlation import batch_mine_correlation_graph


class BatchRollingHistory:
    """A rolling window that re-mines its whole window when due."""

    def __init__(
        self,
        network: RoadNetwork,
        grid: TimeGrid,
        window_days: int = 21,
        remine_every_days: int = 7,
        max_hops: int = 2,
        min_agreement: float = 0.6,
        min_valid_fraction: float = 0.1,
    ) -> None:
        self._network = network
        self._grid = grid
        self._window_days = window_days
        self._remine_every = remine_every_days
        self._max_hops = max_hops
        self._min_agreement = min_agreement
        self._min_valid_fraction = min_valid_fraction
        self._days: deque[SpeedField] = deque(maxlen=window_days)
        self._days_since_mining = 0
        self.store: HistoricalSpeedStore | None = None
        self.graph: CorrelationGraph | None = None

    def ingest_day(self, field: SpeedField) -> None:
        """Add one day, drop the oldest beyond the window, re-mine if due."""
        self._days.append(field)
        self.store = HistoricalSpeedStore.from_fields(self._grid, list(self._days))
        self._days_since_mining += 1
        if self.graph is None or self._days_since_mining >= self._remine_every:
            self.graph = batch_mine_correlation_graph(
                self._network,
                self.store,
                max_hops=self._max_hops,
                min_agreement=self._min_agreement,
                min_valid_fraction=self._min_valid_fraction,
            )
            self._days_since_mining = 0
