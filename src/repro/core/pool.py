"""The crash-safe process pool that pooled district selection runs on.

Only district seed selection (:mod:`repro.seeds.parallel`) submits
tasks to a :class:`SharedWorkerPool`, and tasks run only in worker
processes. Every other stage (Step-1 votes, Step-2 plan compiles) and
district selection without a pool run in the parent on their one path:

* A stage **publishes a named context**: read-only numpy arrays plus a
  module-level ``builder(arrays, *args)`` that turns them into the
  worker state its tasks need (a CSR view). The arrays are
  exported once to :mod:`multiprocessing.shared_memory`
  (:class:`~repro.core.shm.SharedArrayExport`); a worker maps them and
  runs the builder on first use, and keeps the state until the context
  is republished, when it closes the old mappings.
* :meth:`SharedWorkerPool.map` runs ``fn(state, task)`` for every task
  and returns the results in task order, never completion order. The
  ``spawn`` executor starts on the first batch and starts worker
  processes on demand.
* **A dead worker ends the pool, not the batch.** On
  :class:`~concurrent.futures.process.BrokenProcessPool` the pool drops
  any partial results, counts ``pool.fallbacks{pool=<context>}``, shuts
  the executor down, unlinks every segment, closes itself for good and
  raises :class:`WorkerPoolBroken`. The caller re-runs the batch on its
  own in-parent path (:class:`~repro.seeds.parallel.DistrictStage`
  re-runs it on clones of the objective, with the same output).
* Workers and segments are released by :meth:`close`, and by a
  :func:`weakref.finalize` when a pool is garbage-collected unclosed.
"""

from __future__ import annotations

import itertools
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.core.errors import ReproError
from repro.core.shm import SharedArrayExport, _ArraySpec, attach_shared_arrays
from repro.obs import get_recorder

__all__ = ["SharedWorkerPool", "WorkerPoolBroken"]


class WorkerPoolBroken(ReproError):
    """A worker died mid-batch; the pool has released everything and closed."""


@dataclass(frozen=True)
class _ContextRef:
    """Everything a worker needs to build one published context."""

    name: str
    version: int
    specs: Mapping[str, _ArraySpec]
    builder: Callable[..., Any]
    args: tuple


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
# Context name -> (version, state, mapped segments), per worker process.
_attached: dict[str, tuple[int, Any, list]] = {}


def _worker_state(ref: _ContextRef) -> Any:
    current = _attached.get(ref.name)
    if current is not None and current[0] == ref.version:
        return current[1]
    if current is not None:
        # Republished: drop the old state first, so no view pins the
        # old mappings when they are closed.
        segments = current[2]
        del _attached[ref.name], current
        for segment in segments:
            segment.close()
    arrays, segments = attach_shared_arrays(ref.specs)
    state = ref.builder(arrays, *ref.args)
    _attached[ref.name] = (ref.version, state, segments)
    return state


def _run_task(ref: _ContextRef, fn: Callable[[Any, Any], Any], task: Any) -> Any:
    return fn(_worker_state(ref), task)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _Resources:
    """The OS resources of one pool: its executor and its exports.

    Kept apart from the pool so :func:`weakref.finalize` can release them
    after the pool itself is unreachable.
    """

    def __init__(self) -> None:
        self.executor: ProcessPoolExecutor | None = None
        self.exports: dict[str, SharedArrayExport] = {}

    def replace_export(self, name: str, export: SharedArrayExport) -> None:
        previous = self.exports.pop(name, None)
        self.exports[name] = export
        if previous is not None:
            previous.close()

    def release(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(wait=True, cancel_futures=True)
            self.executor = None
        for export in self.exports.values():
            export.close()
        self.exports.clear()


class SharedWorkerPool:
    """A ``spawn`` process pool over named shared-memory contexts.

    Create once per system and reuse for every batch (spawning workers
    and exporting arrays is the expensive part); close explicitly (or
    use as a context manager) to stop the workers and unlink the
    segments.
    """

    def __init__(self, num_workers: int) -> None:
        self.num_workers = max(1, num_workers)
        self._contexts: dict[str, _ContextRef] = {}
        self._versions = itertools.count()
        self._resources = _Resources()
        self._finalizer = weakref.finalize(self, self._resources.release)
        get_recorder().gauge("pool.workers", self.num_workers)

    def _check_open(self) -> None:
        if not self._finalizer.alive:
            raise ReproError("worker pool is closed")

    def publish(
        self,
        name: str,
        arrays: Mapping[str, np.ndarray],
        builder: Callable[..., Any],
        *args: Any,
    ) -> None:
        """Publish (or replace) context ``name``.

        ``builder(arrays, *args)`` must be a module-level function; it
        runs once per worker on the shared views. Replacing a context
        unlinks its old segments; workers close their mappings on their
        next task of that context. A name belongs to one publisher: the
        system's district stage publishes ``"district"``.
        """
        self._check_open()
        export = SharedArrayExport(
            {field: np.ascontiguousarray(array) for field, array in arrays.items()}
        )
        self._resources.replace_export(name, export)
        self._contexts[name] = _ContextRef(
            name, next(self._versions), export.specs, builder, args
        )
        get_recorder().gauge("pool.shared_bytes", export.nbytes, pool=name)

    def map(
        self, name: str, fn: Callable[[Any, Any], Any], tasks: Iterable[Any]
    ) -> list[Any]:
        """``[fn(state, task) for task in tasks]`` over context ``name``.

        ``fn`` must be a module-level function. Results come back in
        task order. A worker death closes the pool and raises
        :class:`WorkerPoolBroken`; no partial result survives.
        """
        self._check_open()
        ref = self._contexts.get(name)
        if ref is None:
            raise ReproError(f"no context {name!r} published on this worker pool")
        executor = self._resources.executor
        if executor is None:
            executor = self._resources.executor = ProcessPoolExecutor(
                max_workers=self.num_workers, mp_context=get_context("spawn")
            )
        try:
            futures = [executor.submit(_run_task, ref, fn, task) for task in tasks]
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            get_recorder().count("pool.fallbacks", pool=name)
            self.close()
            raise WorkerPoolBroken(
                f"a worker died running context {name!r}; the pool is closed"
            ) from exc

    def close(self) -> None:
        """Stop the workers and unlink every segment (idempotent)."""
        self._finalizer()
        self._contexts.clear()

    def __enter__(self) -> "SharedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
