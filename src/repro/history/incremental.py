"""Graph deltas: what a streamed re-mine changes in the live graph.

A deployed system slides its history window one day at a time and
re-mines it with the co-trend counts of
:class:`~repro.history.correlation.IncrementalCoTrendStats`, the one
miner :func:`~repro.history.correlation.mine_correlation_graph` also
runs. This module holds what carries a re-mine into the caches:

* :class:`GraphDelta` / :func:`diff_edges` — the edge-level difference
  between a live :class:`~repro.history.correlation.CorrelationGraph`
  and freshly mined edge arrays: edges added, removed, and re-weighted
  beyond a tolerance, found by sorted-key array matching and held as
  arrays, so a re-mine builds no edge object. Applying it with
  :meth:`~repro.history.correlation.CorrelationGraph.apply_delta`
  mutates the graph in place, which is what lets identity-keyed caches
  (the fidelity service and everything subscribed to it) survive a
  re-mine and evict selectively — see
  :meth:`repro.history.fidelity.FidelityCacheService.apply_graph_delta`.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import DataError
from repro.history.correlation import CorrelationGraph

__all__ = ["GraphDelta", "diff_edges"]


class GraphDelta:
    """Edge-level difference between two minings of one road set.

    Held as read-only arrays: ``added`` and ``reweighted`` are
    ``(road_u, road_v, agreement)`` and ``removed`` is ``(road_u,
    road_v)``, each kept in the order given (:func:`diff_edges` gives
    key order with ``road_u < road_v``) as ``added_arrays``,
    ``removed_arrays`` and ``reweighted_arrays``. Two deltas are ``==``
    when their arrays are, order included. A delta is what flows from
    :meth:`~repro.history.online.RollingHistory.ingest_day` through the
    cache stack: only the cached fidelity rows its changed edges can
    move are dropped, and only the compiled plan rows they re-rank.
    """

    __slots__ = ("added_arrays", "removed_arrays", "reweighted_arrays")

    def __init__(self, added, removed, reweighted) -> None:
        self.added_arrays = _frozen(added)
        self.removed_arrays = _frozen(removed)
        self.reweighted_arrays = _frozen(reweighted)

    @property
    def num_added(self) -> int:
        return self.added_arrays[0].size

    @property
    def num_removed(self) -> int:
        return self.removed_arrays[0].size

    @property
    def num_reweighted(self) -> int:
        return self.reweighted_arrays[0].size

    @property
    def num_changes(self) -> int:
        return self.num_added + self.num_removed + self.num_reweighted

    @property
    def is_empty(self) -> bool:
        return self.num_changes == 0

    def changed_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """``(road_u, road_v)`` of every named edge: added, reweighted,
        then removed."""
        named = (self.added_arrays, self.reweighted_arrays, self.removed_arrays)
        return (
            np.concatenate([arrays[0] for arrays in named]),
            np.concatenate([arrays[1] for arrays in named]),
        )

    def touched_roads(self) -> tuple[int, ...]:
        """Sorted road ids that are an endpoint of any changed edge."""
        return tuple(np.unique(np.concatenate(self.changed_ends())).tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphDelta):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs)
            for kind in ("added_arrays", "removed_arrays", "reweighted_arrays")
            for mine, theirs in zip(getattr(self, kind), getattr(other, kind))
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"GraphDelta(added={self.num_added}, removed={self.num_removed}, "
            f"reweighted={self.num_reweighted})"
        )


def _frozen(arrays) -> tuple[np.ndarray, ...]:
    """Read-only copies of ``arrays``: int64 road ids, then a float64
    agreement array if there is a third; all of one length."""
    dtypes = (np.int64, np.int64, np.float64)
    out = tuple(
        np.array(array, dtype=dtype).reshape(-1) for array, dtype in zip(arrays, dtypes)
    )
    if len({array.size for array in out}) > 1:
        raise DataError("delta edge arrays differ in length")
    for array in out:
        array.setflags(write=False)
    return out


#: The delta of a re-mine that changed nothing.
EMPTY_DELTA = GraphDelta(
    added=((), (), ()), removed=((), ()), reweighted=((), (), ())
)


def diff_edges(
    graph: CorrelationGraph,
    road_u: np.ndarray,
    road_v: np.ndarray,
    agreement: np.ndarray,
    tolerance: float = 0.0,
) -> GraphDelta:
    """The :class:`GraphDelta` turning ``graph`` into the mined edges
    ``(road_u, road_v, agreement)`` (one array entry per edge).

    ``tolerance`` bounds weight churn: a surviving edge whose new
    agreement differs from the current one by at most ``tolerance``
    keeps its **current** weight (it does not appear in the delta), so
    downstream caches are not evicted for sub-tolerance drift. The
    default 0.0 reports every weight change, which is what makes the
    applied graph exactly equal to a cold re-mine.

    The mined edges are keyed like the graph's own
    (:meth:`~repro.history.correlation.CorrelationGraph.keys_of`, which
    raises on an unknown road) and matched against
    :meth:`~repro.history.correlation.CorrelationGraph.edge_keys` with
    ``searchsorted`` (:meth:`~repro.history.correlation.CorrelationGraph.
    locate`). The delta's arrays come out in key order and no
    edge object is built; ``tests/test_delta_oracle.py`` pins the delta
    (order included) to the list-form oracle in ``tests/oracles/delta.py``.
    """
    if tolerance < 0.0:
        raise DataError(f"delta tolerance must be >= 0, got {tolerance}")
    new_keys = graph.keys_of(road_u, road_v)
    order = np.argsort(new_keys, kind="stable")
    new_keys = new_keys[order]
    new_p = np.asarray(agreement, dtype=np.float64)[order]
    old_keys, old_p = graph.edge_keys()

    at, kept = graph.locate(new_keys)
    moved = np.zeros_like(kept)
    moved[kept] = np.abs(new_p[kept] - old_p[at[kept]]) > tolerance
    survives = np.zeros(old_keys.size, dtype=bool)
    survives[at[kept]] = True
    return GraphDelta(
        added=(*graph.key_ends(new_keys[~kept]), new_p[~kept]),
        removed=graph.key_ends(old_keys[~survives]),
        reweighted=(*graph.key_ends(new_keys[moved]), new_p[moved]),
    )
