"""Read-only road-keyed mappings stored as aligned numpy columns.

A round's estimates and prediction bands cover every road in the city,
but most consumers read them as whole columns: the bands are array ops
over the speed column, the snapshot persists column bytes, and the
store's read path indexes per-publish lists. :class:`RoadColumns` keeps
one array per field, aligned with a tuple of road ids, and still
behaves as a ``road id -> record`` mapping for the callers that want
records: a record is built only when one is asked for.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.errors import InferenceError


class RoadColumns(Mapping):
    """A read-only ``road id -> record`` mapping over aligned columns.

    Subclasses list their columns in :attr:`FIELDS` as (column, record
    attribute, dtype), make each column a slot, and build one record
    from a position in :meth:`_record`. Every
    column has one entry per road in ``road_ids`` and is set
    non-writeable, so a mapping can be shared by any number of readers.
    Iteration follows ``road_ids``. ``position`` (road id -> index) is
    built on first use unless the producer already holds one.
    """

    FIELDS: tuple[tuple[str, str, type], ...] = ()
    COLUMNS: tuple[str, ...] = ()
    __slots__ = ("road_ids", "interval", "_position")

    def __init__(
        self,
        road_ids: tuple[int, ...],
        interval: int,
        position: dict[int, int] | None = None,
        **columns: np.ndarray,
    ) -> None:
        self.road_ids = tuple(road_ids)
        self.interval = interval
        self._position = position
        n = len(self.road_ids)
        if set(columns) != set(self.COLUMNS):
            raise TypeError(
                f"{type(self).__name__} takes columns {self.COLUMNS}, "
                f"got {tuple(columns)}"
            )
        for name in self.COLUMNS:
            array = np.asarray(columns[name])
            if array.shape != (n,):
                raise ValueError(
                    f"column {name!r} has shape {array.shape}, expected ({n},)"
                )
            array.setflags(write=False)
            setattr(self, name, array)

    @property
    def position(self) -> dict[int, int]:
        """Road id -> index into the columns."""
        if self._position is None:
            self._position = {road: i for i, road in enumerate(self.road_ids)}
        return self._position

    def _record(self, i: int):
        raise NotImplementedError

    @classmethod
    def from_mapping(cls, records: Mapping, interval: int | None = None):
        """Columns for any record mapping (itself when already columns).

        With ``interval`` given, the records take that interval;
        otherwise every record must share one.
        """
        if isinstance(records, cls):
            if interval is None or interval == records.interval:
                return records
            return cls(
                records.road_ids, interval, records.position, **records._columns()
            )
        values = list(records.values())
        if interval is None:
            intervals = {record.interval for record in values}
            if len(intervals) != 1:
                raise InferenceError(
                    f"records span {len(intervals)} intervals; expected one"
                )
            (interval,) = intervals
        n = len(values)
        return cls(
            tuple(records),
            interval,
            **{
                name: np.fromiter((getattr(r, attr) for r in values), dtype, n)
                for name, attr, dtype in cls.FIELDS
            },
        )

    def _columns(self, **replaced: np.ndarray) -> dict[str, np.ndarray]:
        """Every column by name, with ``replaced`` swapped in."""
        return {name: getattr(self, name) for name in self.COLUMNS} | replaced

    def aligned_to(self, road_ids: tuple[int, ...]):
        """The same records in ``road_ids`` order (self when already so)."""
        if road_ids is self.road_ids or road_ids == self.road_ids:
            return self
        rows = np.fromiter(
            map(self.position.__getitem__, road_ids), np.int64, len(road_ids)
        )
        return type(self)(
            road_ids,
            self.interval,
            **{name: column[rows] for name, column in self._columns().items()},
        )

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, road: int):
        return self._record(self.position[road])

    def __contains__(self, road: object) -> bool:
        return road in self.position

    def __iter__(self):
        return iter(self.road_ids)

    def __len__(self) -> int:
        return len(self.road_ids)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(roads={len(self)}, interval={self.interval})"
        )
