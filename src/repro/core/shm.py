"""Read-only numpy arrays shared with spawn workers through shared memory.

The plumbing under :class:`~repro.core.pool.SharedWorkerPool`: the
parent publishes a context's arrays once through a
:class:`SharedArrayExport` and ships its ``specs`` with each task; a
worker maps them with :func:`attach_shared_arrays` and closes the
mappings once the context is replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Mapping

import numpy as np

__all__ = ["SharedArrayExport", "attach_shared_arrays"]


@dataclass(frozen=True)
class _ArraySpec:
    """Address of one read-only array in shared memory."""

    name: str
    shape: tuple[int, ...]
    dtype: str


class SharedArrayExport:
    """Named read-only numpy arrays published once to shared memory.

    Owns the shared-memory segments: :meth:`close` both closes and
    unlinks them (workers keep their own mappings alive until they
    close them).
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


def attach_shared_arrays(
    specs: Mapping[str, _ArraySpec],
) -> tuple[dict[str, np.ndarray], list[shared_memory.SharedMemory]]:
    """Worker-side read-only views of exported arrays, plus their segments.

    Workers attach by name; the parent owns creation and unlinking. The
    caller closes the returned segments once no view of them is alive.
    The resource tracker is shared with the parent under spawn, so the
    attach-side registration is a set-level no-op there.
    """
    arrays: dict[str, np.ndarray] = {}
    segments: list[shared_memory.SharedMemory] = []
    for field, spec in specs.items():
        segment = shared_memory.SharedMemory(name=spec.name)
        segments.append(segment)
        array: np.ndarray = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
        )
        array.setflags(write=False)
        arrays[field] = array
    return arrays, segments
