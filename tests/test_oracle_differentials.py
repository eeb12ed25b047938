"""Production fast paths against the scalar oracles, on random graphs.

The F4b benchmark pins byte-identical seed sequences on one 528-road
city. Random graphs produce exact gain ties, where a one-ulp difference
may break the tie either way, so here the contract is numeric: every
candidate's marginal gain at every greedy step within 1e-12, final
selection values within 1e-9, and Step-1 posteriors within 1e-9.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Trend
from repro.history.fidelity import FidelityCacheService
from repro.seeds.greedy import greedy_select
from repro.seeds.lazy import lazy_greedy_select
from repro.seeds.objective import INFLUENCE_TRANSFORMS, SeedSelectionObjective
from repro.trend.model import TrendInstance
from repro.trend.propagation import TrendPropagationInference
from tests.oracles import ScalarCoverageObjective, ScalarPropagationInference
from tests.strategies import random_graphs

FLOORS = st.sampled_from([1e-6, 0.05, 0.3])


def road_weights(data, graph):
    """Non-negative weights per road, exact zeros included."""
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0))
    return {road: data.draw(weight) for road in graph.road_ids}


@settings(max_examples=80, deadline=None)
@given(
    graph=random_graphs(max_roads=10),
    min_fidelity=FLOORS,
    transform=st.sampled_from(INFLUENCE_TRANSFORMS),
    data=st.data(),
)
def test_coverage_gains_match_oracle(graph, min_fidelity, transform, data):
    weights = road_weights(data, graph)
    production = SeedSelectionObjective(
        graph,
        min_fidelity,
        weights,
        transform,
        fidelity_service=FidelityCacheService(),
    )
    oracle = ScalarCoverageObjective(graph, min_fidelity, weights, transform)
    roads = sorted(graph.road_ids)

    # Walk both states through the production greedy picks.
    state, reference = production.new_state(), oracle.new_state()
    for _ in roads:
        gains = {road: state.gain(road) for road in roads}
        for road, gain in gains.items():
            assert abs(gain - reference.gain(road)) <= 1e-12
        pick = max(roads, key=lambda road: (gains[road], -road))
        assert abs(state.add(pick) - reference.add(pick)) <= 1e-12
        assert abs(state.value - reference.value) <= 1e-12

    budget = data.draw(st.integers(min_value=1, max_value=len(roads)))
    for select in (greedy_select, lazy_greedy_select):
        got = select(production, budget).final_value
        want = select(oracle, budget).final_value
        assert abs(got - want) <= 1e-9


@settings(max_examples=80, deadline=None)
@given(
    graph=random_graphs(max_roads=10),
    min_fidelity=FLOORS,
    prior_weight=st.sampled_from([0.0, 1.0, 2.5]),
    data=st.data(),
)
def test_step1_posteriors_match_oracle(graph, min_fidelity, prior_weight, data):
    roads = tuple(sorted(graph.road_ids))
    prior = data.draw(
        st.lists(
            st.floats(
                min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True
            ),
            min_size=len(roads),
            max_size=len(roads),
        )
    )
    observed = data.draw(st.sets(st.sampled_from(roads)))
    evidence = {
        road: data.draw(st.sampled_from([Trend.RISE, Trend.FALL]))
        for road in sorted(observed)
    }
    instance = TrendInstance(
        road_ids=roads,
        prior_rise=np.array(prior),
        edges=(),
        evidence=evidence,
        graph=graph,
    )
    got = TrendPropagationInference(
        min_fidelity,
        prior_weight,
        fidelity_service=FidelityCacheService(),
    ).infer(instance)
    want = ScalarPropagationInference(min_fidelity, prior_weight).infer(instance)
    np.testing.assert_allclose(got.as_array(), want.as_array(), atol=1e-9, rtol=0)
