"""Scalar reference implementations the production fast paths must match.

Each oracle is the original dict-walk form of one stage, kept with its
arithmetic unchanged so the differential tests and benchmarks can pin
the vectorized production code against it:

* :mod:`tests.oracles.fidelity` — best-path fidelity rows by dict/heap
  Dijkstra, and by layered relaxation under a hop budget;
* :mod:`tests.oracles.objective` — the influence-coverage objective
  with a dict-walk coverage state, accepted by ``greedy_select``,
  ``lazy_greedy_select`` and ``partition_greedy_select``;
* :mod:`tests.oracles.propagation` — the Step-1 seed-vote loop;
* :mod:`tests.oracles.estimator` — the per-road Step-2 solve over
  :meth:`~repro.speed.hlm.HierarchicalLinearModel.estimate_road`;
* :mod:`tests.oracles.plan` — the whole-city Step-2 plan (one seed
  structure over every road), the reference for district partitions;
* :mod:`tests.oracles.uncertainty` — the per-road prediction-band loop
  over :meth:`~repro.speed.hlm.JointSeedRegression.for_road`;
* :mod:`tests.oracles.snapshot` — the per-road ``SpeedEstimate`` round
  loop and the format-2 (one JSON row per road) snapshot writer.

Nothing under ``src/`` may import this package.
"""

from tests.oracles.estimator import ScalarTwoStep
from tests.oracles.fidelity import propagate_fidelity
from tests.oracles.objective import ScalarCoverageObjective
from tests.oracles.plan import MonolithicPlanner
from tests.oracles.propagation import ScalarPropagationInference
from tests.oracles.uncertainty import ScalarBands

__all__ = [
    "MonolithicPlanner",
    "ScalarBands",
    "ScalarCoverageObjective",
    "ScalarPropagationInference",
    "ScalarTwoStep",
    "propagate_fidelity",
]
