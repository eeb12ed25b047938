"""Read-only numpy arrays shared with spawn workers through shared memory.

The plumbing both process pools use: the district pool
(:mod:`repro.seeds.parallel`) ships the CSR fidelity arrays and road
weights, the plan-compile pool (:mod:`repro.speed.shardplan`) ships the
centred history matrix. The parent publishes the arrays once through a
:class:`SharedArrayExport` and hands its ``specs`` to the pool
initializer; each worker maps them with :func:`attach_shared_array`.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Mapping

import numpy as np

__all__ = ["SharedArrayExport", "attach_shared_array"]


@dataclass(frozen=True)
class _ArraySpec:
    """Address of one read-only array in shared memory."""

    name: str
    shape: tuple[int, ...]
    dtype: str


class SharedArrayExport:
    """Named read-only numpy arrays published once to shared memory.

    Owns the shared-memory segments: :meth:`close` both closes and
    unlinks them (workers keep their own mappings alive until exit).
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self.specs: dict[str, _ArraySpec] = {}
        try:
            for field, source in arrays.items():
                array = np.ascontiguousarray(source)
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, array.nbytes)
                )
                self._segments.append(segment)
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                view[...] = array
                del view
                self.specs[field] = _ArraySpec(
                    segment.name, tuple(array.shape), array.dtype.str
                )
        except BaseException:
            self.close()
            raise
        self.nbytes = sum(segment.size for segment in self._segments)

    def close(self) -> None:
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments = []


# Worker-side mappings, kept open for the worker's lifetime.
_worker_segments: list[shared_memory.SharedMemory] = []


def attach_shared_array(spec: _ArraySpec) -> np.ndarray:
    """Worker-side read-only view of one exported array.

    Workers attach by name; the parent owns creation and unlinking. The
    resource tracker is shared with the parent under spawn, so the
    attach-side registration is a set-level no-op there.
    """
    segment = shared_memory.SharedMemory(name=spec.name)
    _worker_segments.append(segment)
    array: np.ndarray = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
    )
    array.setflags(write=False)
    return array
