"""One crash-safe process pool that every pooled stage submits tasks to.

District seed selection (:mod:`repro.seeds.parallel`) and Step-2
district plan compiles (:mod:`repro.speed.plan`) both run on one
:class:`SharedWorkerPool`; Step-1 votes are a sparse sum in the parent
and never use it:

* A stage **publishes a named context**: read-only numpy arrays plus a
  module-level ``builder(arrays, *args)`` that turns them into the
  worker state its tasks need (a CSR view, a regression). The arrays are
  exported once to :mod:`multiprocessing.shared_memory`
  (:class:`~repro.core.shm.SharedArrayExport`); a worker maps them and
  runs the builder on first use, and keeps the state until the context
  is republished, when it closes the old mappings.
* :meth:`SharedWorkerPool.map` runs ``fn(state, task)`` for every task
  and returns the results in task order, never completion order. The
  ``spawn`` executor starts on the first batch and starts worker
  processes on demand.
* **One worker means in-process**: tasks run against the state built
  from the parent's own arrays, with no spawn and no export.
* **A dead worker costs a fallback, not a batch.** On
  :class:`~concurrent.futures.process.BrokenProcessPool` the pool drops
  any partial results, counts ``pool.fallbacks{pool=<context>}``, shuts
  the executor down, unlinks every segment and re-runs the whole batch
  in-process; later batches stay in-process. The in-process state comes
  from the same builder over the same bytes, so the fallback's output
  is bitwise equal by construction.
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

__all__ = ["SharedWorkerPool"]


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
class _Context:
    """A published context: its address for workers and the parent's arrays."""

    def __init__(self, ref: _ContextRef, arrays: dict[str, np.ndarray]) -> None:
        self.ref = ref
        self._arrays = arrays
        self._state: Any = None

    def state(self) -> Any:
        """The in-process state, built on first use from the parent's arrays."""
        if self._state is None:
            self._state = self.ref.builder(self._arrays, *self.ref.args)
        return self._state


class _Resources:
    """The OS resources of one pool: its executor and its exports.

    Kept apart from the pool so :func:`weakref.finalize` can release them
    after the pool itself is unreachable.
    """

    def __init__(self) -> None:
        self.executor: ProcessPoolExecutor | None = None
        self.exports: dict[str, SharedArrayExport] = {}

    def replace_export(self, name: str, export: SharedArrayExport | None) -> None:
        previous = self.exports.pop(name, None)
        if export is not None:
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
        self._contexts: dict[str, _Context] = {}
        self._versions = itertools.count()
        self._in_process = self.num_workers == 1
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
        runs once per worker on the shared views, and once in-process on
        the parent's arrays when tasks run here. Replacing a context
        unlinks its old segments; workers close their mappings on their
        next task of that context. A name belongs to one publisher: the
        system's district stage publishes ``"district"`` and its planner
        ``"plan"``.
        """
        self._check_open()
        contiguous = {
            field: np.ascontiguousarray(array) for field, array in arrays.items()
        }
        export = None if self._in_process else SharedArrayExport(contiguous)
        self._resources.replace_export(name, export)
        ref = _ContextRef(
            name,
            next(self._versions),
            export.specs if export is not None else {},
            builder,
            args,
        )
        self._contexts[name] = _Context(ref, contiguous)
        get_recorder().gauge(
            "pool.shared_bytes", export.nbytes if export is not None else 0, pool=name
        )

    def map(
        self, name: str, fn: Callable[[Any, Any], Any], tasks: Iterable[Any]
    ) -> list[Any]:
        """``[fn(state, task) for task in tasks]`` over context ``name``.

        ``fn`` must be a module-level function. Results come back in
        task order. A worker death re-runs the whole batch in-process.
        """
        self._check_open()
        context = self._contexts.get(name)
        if context is None:
            raise ReproError(f"no context {name!r} published on this worker pool")
        tasks = list(tasks)
        if not self._in_process:
            try:
                return self._map_workers(context.ref, fn, tasks)
            except BrokenProcessPool:
                get_recorder().count("pool.fallbacks", pool=name)
                self._in_process = True
                self._resources.release()
        state = context.state()
        return [fn(state, task) for task in tasks]

    def _map_workers(
        self, ref: _ContextRef, fn: Callable[[Any, Any], Any], tasks: list[Any]
    ) -> list[Any]:
        executor = self._resources.executor
        if executor is None:
            executor = self._resources.executor = ProcessPoolExecutor(
                max_workers=self.num_workers, mp_context=get_context("spawn")
            )
        futures = [executor.submit(_run_task, ref, fn, task) for task in tasks]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Stop the workers and unlink every segment (idempotent)."""
        self._finalizer()
        self._contexts.clear()

    def __enter__(self) -> "SharedWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
