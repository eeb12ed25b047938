"""Production correlation mining against the per-road oracle miner.

:func:`repro.history.correlation.mine_correlation_graph` counts every
candidate pair's co-trend integers once and thresholds them in one
pass. :func:`tests.oracles.correlation.batch_mine_correlation_graph`
is the per-road loop it replaced: a float64 matmul per road for ±1
trends and per-pair masks when any trend is 0. Pinned here, over small
line and grid networks whose store covers a strict subset of the
roads, zero-free and zero-bearing trends (zeros in some or all roads'
columns, 1-interval windows included),
``max_hops`` 1–3 and every threshold pairing drawn: the two graphs hold
equal edge keys and bitwise-equal agreements.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.history.correlation import mine_correlation_graph
from repro.roadnet.generators import grid_city
from repro.roadnet.geometry import Point
from repro.roadnet.network import RoadNetwork
from tests.oracles.correlation import batch_mine_correlation_graph


class _StubStore:
    """Just enough store surface for mining: ids + a crafted trend matrix."""

    def __init__(self, road_ids, trends):
        self.road_ids = list(road_ids)
        self._trends = trends

    def trend_matrix(self):
        return self._trends


def _line_network(num_roads):
    net = RoadNetwork()
    for node in range(num_roads + 1):
        net.add_intersection(node, Point(100.0 * node, 0))
    for road in range(num_roads):
        net.add_segment(road, road, road + 1)
    return net


NETWORKS = {"line": _line_network(8), "grid": grid_city(3, 3)}


@st.composite
def _windows(draw):
    """A network, a store over a strict subset of its roads (in any
    order) and a trend window over that subset."""
    network = NETWORKS[draw(st.sampled_from(sorted(NETWORKS)))]
    roads = sorted(network.road_ids())
    covered = draw(
        st.lists(
            st.sampled_from(roads), min_size=1, max_size=len(roads) - 1, unique=True
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 12)), len(covered))
    trends = rng.choice(np.array([-1, 1], dtype=np.int8), size=shape)
    if draw(st.booleans()):
        # Zero-bearing: zeros only in some roads' columns, so pairs with
        # a zero-free side are masked too; at least one zero.
        columns = draw(
            st.lists(st.integers(0, shape[1] - 1), min_size=1, unique=True)
        )
        zeros = draw(st.sampled_from([0.1, 0.4, 0.9]))
        flat = rng.random((shape[0], len(columns))) < zeros
        flat[draw(st.integers(0, shape[0] - 1)), 0] = True
        trends[:, columns] = np.where(flat, 0, trends[:, columns])
    return network, _StubStore(covered, trends)


@settings(max_examples=200, deadline=None)
@given(
    window=_windows(),
    max_hops=st.integers(1, 3),
    min_agreement=st.sampled_from([0.5, 0.6, 0.75, 1.0]),
    min_valid_fraction=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_mined_graph_is_bitwise_the_oracle_graph(
    window, max_hops, min_agreement, min_valid_fraction
):
    network, store = window
    thresholds = dict(
        max_hops=max_hops,
        min_agreement=min_agreement,
        min_valid_fraction=min_valid_fraction,
    )
    mined = mine_correlation_graph(network, store, **thresholds)
    expected = batch_mine_correlation_graph(network, store, **thresholds)
    assert mined.road_ids == expected.road_ids
    keys, agreement = mined.edge_keys()
    want_keys, want_agreement = expected.edge_keys()
    np.testing.assert_array_equal(keys, want_keys)
    np.testing.assert_array_equal(
        agreement.view(np.int64), want_agreement.view(np.int64)
    )
