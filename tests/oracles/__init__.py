"""Reference code the package is tested against; none of it ships.

Most oracles are the original dict-walk form of one stage, kept with
its arithmetic unchanged so the differential tests and benchmarks can
pin the vectorized production code against it:

* :mod:`tests.oracles.fidelity` — best-path fidelity rows by dict/heap
  Dijkstra, and by layered relaxation under a hop budget, plus the
  scalar channel fidelity ``edge_fidelity``, the dense row forms
  ``best_fidelity_row``/``best_fidelity_rows`` of the CSR kernel, and
  ``tight_rule_dropped``, the row-by-row, edge-by-edge form of the
  service's graph-delta invalidation rule;
* :mod:`tests.oracles.objective` — the influence-coverage objective
  with a dict-walk coverage state, accepted by ``greedy_select``,
  ``lazy_greedy_select`` and ``partition_greedy_select``;
* :mod:`tests.oracles.partition` — ``partition_greedy_select``, the
  single-process partitioned greedy loop, the reference for
  :class:`~repro.seeds.parallel.DistrictStage` with or without a pool;
* :mod:`tests.oracles.propagation` — the Step-1 seed-vote loop;
* :mod:`tests.oracles.hlm` — the per-road Step-2 definition:
  ``ScalarSeedRegression.for_road``, one joint ridge regression per
  road with its own gather and solve, memoised per (road, seed set),
  the reference for the batched fits of
  :class:`~repro.speed.hlm.JointSeedRegression`, and
  ``ScalarHlm.estimate_road``, the per-road speed the plans compile;
* :mod:`tests.oracles.estimator` — the per-road Step-2 solve over
  ``ScalarHlm.estimate_road``;
* :mod:`tests.oracles.plan` — the whole-city Step-2 plan (one seed
  structure over every road), the reference for district partitions;
* :mod:`tests.oracles.uncertainty` — the per-road prediction-band loop,
  each road fitted alone as a one-road batch of the production kernel
  (bitwise equal to its row in any plan), and
  ``normal_confidences``, the confidence levels the band tests sweep;
* :mod:`tests.oracles.snapshot` — the per-road ``SpeedEstimate`` round
  loop and the format-2 (one JSON row per road) snapshot writer;
* :mod:`tests.oracles.delta` — the list-form graph diff
  ``diff_edges`` (dicts over materialised edge objects), the reference
  for the array diff of a streamed re-mine;
* :mod:`tests.oracles.crowd` — the per-task MAD filter and outlier mask
  (``np.median`` per task) and ``PerTaskPlatform``, a crowd round that
  aggregates each task right after its draws.

The others are exact or naive references the paper's claims and the
production algorithms are checked against:

* :mod:`tests.oracles.mapcut` — exact MAP trend assignments by graph
  cut (a Dinic max-flow) and by enumeration;
* :mod:`tests.oracles.hardness` — the executable Set Cover → seed
  selection reduction behind the NP-hardness claim, with brute-force
  minimum budgets;
* :mod:`tests.oracles.map_matching` — independent nearest-segment
  snapping, the baseline the HMM matcher is tested against.

Nothing under ``src/`` may import this package.
"""

from tests.oracles.crowd import PerTaskPlatform
from tests.oracles.estimator import ScalarTwoStep
from tests.oracles.fidelity import propagate_fidelity
from tests.oracles.hlm import ScalarHlm, ScalarSeedRegression
from tests.oracles.objective import ScalarCoverageObjective
from tests.oracles.partition import partition_greedy_select
from tests.oracles.plan import MonolithicPlanner
from tests.oracles.propagation import ScalarPropagationInference
from tests.oracles.uncertainty import ScalarBands

__all__ = [
    "MonolithicPlanner",
    "PerTaskPlatform",
    "ScalarBands",
    "ScalarCoverageObjective",
    "ScalarHlm",
    "ScalarPropagationInference",
    "ScalarSeedRegression",
    "ScalarTwoStep",
    "partition_greedy_select",
    "propagate_fidelity",
]
