"""Binary persistence for speed fields, stores and correlation graphs.

A deployment does not resimulate or re-mine at every restart: the speed
archive, the aggregated store and the mined correlation graph are saved
as compact ``.npz`` files and reloaded in milliseconds. Formats are
versioned; loading a mismatched version fails loudly rather than
misinterpreting arrays.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.errors import DataError
from repro.core.field import SpeedField
from repro.history.correlation import CorrelationGraph
from repro.history.store import HistoricalSpeedStore
from repro.history.timebuckets import TimeGrid

FIELD_FORMAT = 1
STORE_FORMAT = 1
GRAPH_FORMAT = 1


# ----------------------------------------------------------------------
# SpeedField
# ----------------------------------------------------------------------
def save_field(field: SpeedField, path: str | Path) -> None:
    """Write a speed field to ``path`` (npz)."""
    np.savez_compressed(
        path,
        format=np.array([FIELD_FORMAT]),
        speeds=field.matrix,
        road_ids=np.array(field.road_ids, dtype=np.int64),
        first_interval=np.array([field.intervals.start], dtype=np.int64),
    )


def load_field(path: str | Path) -> SpeedField:
    """Load a speed field written by :func:`save_field`."""
    data = _open(path, expected_format=FIELD_FORMAT, kind="speed field")
    return SpeedField(
        data["speeds"],
        [int(r) for r in data["road_ids"]],
        int(data["first_interval"][0]),
    )


# ----------------------------------------------------------------------
# HistoricalSpeedStore
# ----------------------------------------------------------------------
def save_store(store: HistoricalSpeedStore, path: str | Path) -> None:
    """Write a historical store (raw training matrix + grid) to npz.

    The raw matrix is kept because correlation mining and model fitting
    need interval-level history; aggregates are recomputed on load,
    which guarantees they can never drift from the data.
    """
    np.savez_compressed(
        path,
        format=np.array([STORE_FORMAT]),
        interval_minutes=np.array([store.grid.interval_minutes]),
        distinguish_weekend=np.array(
            [1 if store.grid.distinguish_weekend else 0]
        ),
        road_ids=np.array(store.road_ids, dtype=np.int64),
        speeds=store._speeds,  # noqa: SLF001 - persistence is a friend
        intervals=store.training_intervals,
    )


def load_store(path: str | Path) -> HistoricalSpeedStore:
    """Load a store written by :func:`save_store`."""
    data = _open(path, expected_format=STORE_FORMAT, kind="historical store")
    grid = TimeGrid(
        int(data["interval_minutes"][0]),
        distinguish_weekend=bool(int(data["distinguish_weekend"][0])),
    )
    return HistoricalSpeedStore(
        grid,
        [int(r) for r in data["road_ids"]],
        data["speeds"],
        data["intervals"],
    )


# ----------------------------------------------------------------------
# CorrelationGraph
# ----------------------------------------------------------------------
def save_graph(graph: CorrelationGraph, path: str | Path) -> None:
    """Write a correlation graph to npz (edge arrays + road ids), read
    straight from the graph's key arrays."""
    edge_u, edge_v, agreement = graph.edge_arrays()
    np.savez_compressed(
        path,
        format=np.array([GRAPH_FORMAT]),
        road_ids=np.array(graph.road_ids, dtype=np.int64),
        edge_u=edge_u,
        edge_v=edge_v,
        agreement=agreement,
    )


def load_graph(path: str | Path) -> CorrelationGraph:
    """Load a graph written by :func:`save_graph`."""
    data = _open(path, expected_format=GRAPH_FORMAT, kind="correlation graph")
    return CorrelationGraph.from_arrays(
        data["road_ids"], data["edge_u"], data["edge_v"], data["agreement"]
    )


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _open(path: str | Path, expected_format: int, kind: str):
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such {kind} file: {path}")
    try:
        data = np.load(path)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {kind} from {path}: {exc}") from exc
    if "format" not in data:
        raise DataError(f"{path} is not a {kind} file (no format marker)")
    version = int(data["format"][0])
    if version != expected_format:
        raise DataError(
            f"{kind} format {version} unsupported (expected {expected_format})"
        )
    return data
