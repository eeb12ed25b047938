"""Cross-validation of the four trend-inference algorithms.

Exact enumeration is the oracle: BP must match it on trees, Gibbs must
converge to it everywhere (small instances), and propagation must match
it on chains/trees with uniform priors and be directionally correct in
general. These are the correctness guarantees behind experiment F2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import InferenceError
from repro.core.types import Trend
from repro.trend.bp import LoopyBeliefPropagation
from repro.trend.exact import ExactEnumerationInference
from repro.trend.gibbs import GibbsSamplingInference
from repro.trend.model import TrendInstance
from repro.trend.propagation import TrendPropagationInference
from tests.oracles.mapcut import exact_map_assignment


def chain_instance(potentials=(0.9, 0.8, 0.7), priors=None, evidence=None):
    n = len(potentials) + 1
    priors = priors if priors is not None else np.full(n, 0.5)
    return TrendInstance(
        road_ids=tuple(range(100, 100 + n)),
        prior_rise=np.asarray(priors, dtype=float),
        edges=tuple((i, i + 1, p) for i, p in enumerate(potentials)),
        evidence=evidence if evidence is not None else {100: Trend.RISE},
    )


def loop_instance():
    """A 4-cycle with one observed node."""
    return TrendInstance(
        road_ids=(0, 1, 2, 3),
        prior_rise=np.array([0.5, 0.55, 0.45, 0.5]),
        edges=((0, 1, 0.8), (1, 2, 0.75), (2, 3, 0.7), (3, 0, 0.85)),
        evidence={0: Trend.FALL},
    )


class TestExact:
    def test_chain_marginal_closed_form(self):
        """One edge with agreement p: neighbour marginal equals p."""
        inst = chain_instance(potentials=(0.9,))
        post = ExactEnumerationInference().infer(inst)
        assert post.p_rise(101) == pytest.approx(0.9)

    def test_chain_composes_like_channels(self):
        """Two edges: P = p1*p2 + (1-p1)(1-p2) with uniform priors."""
        inst = chain_instance(potentials=(0.9, 0.8))
        post = ExactEnumerationInference().infer(inst)
        assert post.p_rise(102) == pytest.approx(0.9 * 0.8 + 0.1 * 0.2)

    def test_evidence_clamped(self):
        inst = chain_instance()
        post = ExactEnumerationInference().infer(inst)
        assert post.p_rise(100) == 1.0

    def test_no_evidence_respects_priors_on_isolated_node(self):
        inst = TrendInstance(
            road_ids=(0, 1),
            prior_rise=np.array([0.7, 0.3]),
            edges=(),
            evidence={},
        )
        post = ExactEnumerationInference().infer(inst)
        assert post.p_rise(0) == pytest.approx(0.7)
        assert post.p_rise(1) == pytest.approx(0.3)

    def test_size_cap(self):
        inst = TrendInstance(
            road_ids=tuple(range(30)),
            prior_rise=np.full(30, 0.5),
            edges=(),
            evidence={},
        )
        with pytest.raises(InferenceError, match="exceed"):
            ExactEnumerationInference(max_free_variables=20).infer(inst)

    def test_map_assignment_follows_evidence(self):
        inst = chain_instance(potentials=(0.9, 0.9, 0.9))
        assignment = exact_map_assignment(inst)
        assert all(t is Trend.RISE for t in assignment.values())


class TestLoopyBP:
    def test_matches_exact_on_tree(self):
        inst = chain_instance(potentials=(0.85, 0.7, 0.65),
                              priors=[0.5, 0.6, 0.45, 0.5])
        exact = ExactEnumerationInference().infer(inst)
        bp = LoopyBeliefPropagation(tolerance=1e-10).infer(inst)
        for road in inst.road_ids:
            assert bp.p_rise(road) == pytest.approx(exact.p_rise(road), abs=1e-4)

    def test_close_to_exact_on_small_loop(self):
        inst = loop_instance()
        exact = ExactEnumerationInference().infer(inst)
        bp = LoopyBeliefPropagation().infer(inst)
        for road in inst.road_ids:
            assert bp.p_rise(road) == pytest.approx(exact.p_rise(road), abs=0.05)

    def test_converges(self):
        engine = LoopyBeliefPropagation()
        engine.infer(loop_instance())
        assert engine.last_converged

    def test_no_edges(self):
        inst = TrendInstance(
            road_ids=(0, 1),
            prior_rise=np.array([0.7, 0.3]),
            edges=(),
            evidence={1: Trend.RISE},
        )
        post = LoopyBeliefPropagation().infer(inst)
        assert post.p_rise(0) == pytest.approx(0.7)
        assert post.p_rise(1) == 1.0

    def test_parameter_validation(self):
        with pytest.raises(InferenceError):
            LoopyBeliefPropagation(max_iterations=0)
        with pytest.raises(InferenceError):
            LoopyBeliefPropagation(damping=1.0)
        with pytest.raises(InferenceError):
            LoopyBeliefPropagation(tolerance=0)


class TestGibbs:
    def test_matches_exact_on_loop(self):
        inst = loop_instance()
        exact = ExactEnumerationInference().infer(inst)
        gibbs = GibbsSamplingInference(
            num_samples=20000, burn_in=2000, seed=1
        ).infer(inst)
        for road in inst.road_ids:
            assert gibbs.p_rise(road) == pytest.approx(
                exact.p_rise(road), abs=0.03
            )

    def test_deterministic_given_seed(self):
        inst = chain_instance()
        a = GibbsSamplingInference(num_samples=500, seed=4).infer(inst)
        b = GibbsSamplingInference(num_samples=500, seed=4).infer(inst)
        assert np.array_equal(a.as_array(), b.as_array())

    def test_parameter_validation(self):
        with pytest.raises(InferenceError):
            GibbsSamplingInference(num_samples=0)
        with pytest.raises(InferenceError):
            GibbsSamplingInference(burn_in=-1)

    def test_extreme_potentials_stay_finite(self):
        """Near-zero agreements must not overflow the conditional sigmoid.

        An edge potential of 5e-324 contributes log-odds of about -744,
        far past the ~709 range of exp; the naive ``1/(1+exp(-x))``
        raised overflow warnings and the sampler saw garbage. The stable
        form saturates cleanly, so the chain follows the evidence.
        """
        inst = chain_instance(
            potentials=(5e-324, 5e-324, 5e-324),
            evidence={100: Trend.RISE},
        )
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            post = GibbsSamplingInference(
                num_samples=400, burn_in=100, seed=3
            ).infer(inst)
        arr = post.as_array()
        assert np.all(np.isfinite(arr))
        assert np.all((arr >= 0.0) & (arr <= 1.0))
        # Disagreement potentials: each hop flips the trend almost surely.
        assert post.p_rise(101) < 0.05
        assert post.p_rise(102) > 0.95


class TestPropagation:
    def test_matches_exact_on_chain_with_uniform_priors(self):
        inst = chain_instance(potentials=(0.9, 0.8, 0.7))
        exact = ExactEnumerationInference().infer(inst)
        prop = TrendPropagationInference().infer(inst)
        for road in inst.road_ids:
            assert prop.p_rise(road) == pytest.approx(
                exact.p_rise(road), abs=1e-9
            )

    def test_fall_evidence_pushes_down(self):
        inst = chain_instance(evidence={100: Trend.FALL})
        prop = TrendPropagationInference().infer(inst)
        assert prop.p_rise(101) < 0.5
        assert prop.p_rise(100) == 0.0

    def test_competing_seeds_balance(self):
        """RISE at one end, FALL at the other, symmetric chain."""
        inst = TrendInstance(
            road_ids=(0, 1, 2),
            prior_rise=np.full(3, 0.5),
            edges=((0, 1, 0.8), (1, 2, 0.8)),
            evidence={0: Trend.RISE, 2: Trend.FALL},
        )
        prop = TrendPropagationInference().infer(inst)
        assert prop.p_rise(1) == pytest.approx(0.5)

    def test_closer_seed_dominates(self):
        inst = TrendInstance(
            road_ids=(0, 1, 2, 3),
            prior_rise=np.full(4, 0.5),
            edges=((0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)),
            evidence={0: Trend.RISE, 3: Trend.FALL},
        )
        prop = TrendPropagationInference().infer(inst)
        assert prop.p_rise(1) > 0.5  # closer to the RISE seed
        assert prop.p_rise(2) < 0.5

    def test_min_fidelity_truncates(self):
        inst = chain_instance(potentials=(0.6, 0.6, 0.6))  # q = 0.2 per hop
        prop = TrendPropagationInference(min_fidelity=0.1).infer(inst)
        # Two hops: q = 0.04 < 0.1 -> prior only.
        assert prop.p_rise(102) == pytest.approx(0.5)
        assert prop.p_rise(103) == pytest.approx(0.5)

    def test_prior_only_without_evidence(self):
        inst = TrendInstance(
            road_ids=(0, 1),
            prior_rise=np.array([0.7, 0.4]),
            edges=((0, 1, 0.8),),
            evidence={},
        )
        prop = TrendPropagationInference().infer(inst)
        assert prop.p_rise(0) == pytest.approx(0.7)
        assert prop.p_rise(1) == pytest.approx(0.4)


@settings(max_examples=25, deadline=None)
@given(
    potentials=st.lists(
        st.floats(min_value=0.55, max_value=0.95), min_size=1, max_size=6
    ),
    priors=st.lists(
        st.floats(min_value=0.1, max_value=0.9), min_size=2, max_size=7
    ),
    rise=st.booleans(),
)
def test_bp_equals_exact_on_random_chains(potentials, priors, rise):
    """Property: BP is exact on trees for arbitrary priors/potentials."""
    n = min(len(potentials) + 1, len(priors))
    if n < 2:
        return
    inst = TrendInstance(
        road_ids=tuple(range(n)),
        prior_rise=np.asarray(priors[:n]),
        edges=tuple((i, i + 1, potentials[i]) for i in range(n - 1)),
        evidence={0: Trend.RISE if rise else Trend.FALL},
    )
    exact = ExactEnumerationInference().infer(inst)
    bp = LoopyBeliefPropagation(max_iterations=500, tolerance=1e-12).infer(inst)
    for road in inst.road_ids:
        assert bp.p_rise(road) == pytest.approx(exact.p_rise(road), abs=1e-5)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_all_methods_agree_on_map_direction_for_strong_evidence(data):
    """With strong agreement and one seed, all methods point the same way."""
    n = data.draw(st.integers(min_value=3, max_value=8))
    rise = data.draw(st.booleans())
    inst = TrendInstance(
        road_ids=tuple(range(n)),
        prior_rise=np.full(n, 0.5),
        edges=tuple((i, i + 1, 0.92) for i in range(n - 1)),
        evidence={0: Trend.RISE if rise else Trend.FALL},
    )
    expected = Trend.RISE if rise else Trend.FALL
    exact = ExactEnumerationInference().infer(inst)
    prop = TrendPropagationInference(min_fidelity=0.01).infer(inst)
    bp = LoopyBeliefPropagation().infer(inst)
    for road in range(min(n, 4)):  # within propagation reach
        assert exact.trend(road) is expected
        assert prop.trend(road) is expected
        assert bp.trend(road) is expected
