"""Historical speed database: time buckets, columnar store, correlation mining."""

from repro.history.correlation import (
    CorrelationEdge,
    CorrelationGraph,
    IncrementalCoTrendStats,
    mine_correlation_graph,
)
from repro.history.fidelity import (
    CSRFidelityGraph,
    FidelityCacheService,
    SparseRow,
    get_fidelity_service,
    set_fidelity_service,
    sparse_fidelity_rows,
)
from repro.history.incremental import GraphDelta, diff_edges
from repro.history.online import RollingHistory
from repro.history.persistence import (
    load_field,
    load_graph,
    load_store,
    save_field,
    save_graph,
    save_store,
)
from repro.history.store import HistoricalSpeedStore
from repro.history.timebuckets import MINUTES_PER_DAY, TimeGrid

__all__ = [
    "CSRFidelityGraph",
    "CorrelationEdge",
    "CorrelationGraph",
    "FidelityCacheService",
    "GraphDelta",
    "HistoricalSpeedStore",
    "IncrementalCoTrendStats",
    "MINUTES_PER_DAY",
    "RollingHistory",
    "SparseRow",
    "TimeGrid",
    "get_fidelity_service",
    "set_fidelity_service",
    "sparse_fidelity_rows",
    "load_field",
    "load_graph",
    "load_store",
    "mine_correlation_graph",
    "save_field",
    "save_graph",
    "save_store",
]
