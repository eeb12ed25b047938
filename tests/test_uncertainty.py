"""Tests for speed prediction intervals."""

import numpy as np
import pytest

from repro.core.errors import InferenceError
from repro.speed.estimator import TwoStepEstimator
from repro.speed.uncertainty import (
    SpeedBand,
    UncertaintyModel,
    sharpness_kmh,
    z_for_confidence,
)
from tests.oracles.uncertainty import normal_confidences


@pytest.fixture(scope="module")
def banded(small_dataset):
    estimator = TwoStepEstimator(
        small_dataset.network, small_dataset.store, small_dataset.graph
    )
    model = UncertaintyModel(estimator, small_dataset.store, confidence=0.90)
    seeds = small_dataset.network.road_ids()[::10][:12]
    interval = small_dataset.test_day_intervals()[36]
    truth = small_dataset.test.speeds_at(interval)
    seed_speeds = {r: truth[r] for r in seeds}
    estimates = estimator.estimate_interval(interval, seed_speeds)
    bands = model.bands_for(estimates, seed_speeds)
    return small_dataset, model, seeds, truth, estimates, bands


class TestHelpers:
    def test_z_values(self):
        assert z_for_confidence(0.90) == pytest.approx(1.6449)
        assert z_for_confidence(0.99) > z_for_confidence(0.80)
        with pytest.raises(InferenceError):
            z_for_confidence(0.5)

    def test_confidence_list(self):
        assert 0.90 in normal_confidences()

    def test_band_geometry(self):
        band = SpeedBand(1, 0, 30.0, 25.0, 35.0, 3.0, 0.9)
        assert band.width_kmh == 10.0
        assert band.contains(25.0) and band.contains(35.0)
        assert not band.contains(36.0)


class TestBands:
    def test_every_road_gets_a_band(self, banded):
        dataset, _, _, _, estimates, bands = banded
        assert set(bands) == set(estimates)

    def test_bands_centred_on_estimates(self, banded):
        *_, estimates, bands = banded
        for road, band in bands.items():
            assert band.lower_kmh <= estimates[road].speed_kmh <= band.upper_kmh

    def test_seed_bands_are_tight(self, banded):
        _, _, seeds, _, _, bands = banded
        seed_widths = [bands[r].width_kmh for r in seeds]
        non_seed_widths = [
            b.width_kmh for r, b in bands.items() if r not in set(seeds)
        ]
        assert max(seed_widths) < np.mean(non_seed_widths)

    def test_coverage_near_nominal(self, banded):
        dataset, model, seeds, truth, _, bands = banded
        coverage = model.empirical_coverage(bands, truth, set(seeds))
        # Nominal 90%; in-sample residual stds give approximate bands.
        assert 0.75 <= coverage <= 1.0

    def test_higher_confidence_wider_and_more_covering(self, small_dataset):
        estimator = TwoStepEstimator(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        seeds = small_dataset.network.road_ids()[::10][:12]
        interval = small_dataset.test_day_intervals()[36]
        truth = small_dataset.test.speeds_at(interval)
        seed_speeds = {r: truth[r] for r in seeds}
        estimates = estimator.estimate_interval(interval, seed_speeds)
        narrow = UncertaintyModel(estimator, small_dataset.store, 0.80)
        wide = UncertaintyModel(estimator, small_dataset.store, 0.99)
        bands80 = narrow.bands_for(estimates, seed_speeds)
        bands99 = wide.bands_for(estimates, seed_speeds)
        assert sharpness_kmh(bands99) > sharpness_kmh(bands80)
        cov80 = narrow.empirical_coverage(bands80, truth, set(seeds))
        cov99 = wide.empirical_coverage(bands99, truth, set(seeds))
        assert cov99 >= cov80

    def test_coverage_over_full_day(self, banded):
        """Averaged across a day, 90% bands cover 75-99% of truths."""
        dataset, model, seeds, _, _, _ = banded
        estimator = TwoStepEstimator(
            dataset.network, dataset.store, dataset.graph
        )
        day_model = UncertaintyModel(estimator, dataset.store, 0.90)
        covered = []
        for interval in dataset.test_day_intervals(stride=8):
            truth = dataset.test.speeds_at(interval)
            seed_speeds = {r: truth[r] for r in seeds}
            estimates = estimator.estimate_interval(interval, seed_speeds)
            bands = day_model.bands_for(estimates, seed_speeds)
            covered.append(
                day_model.empirical_coverage(bands, truth, set(seeds))
            )
        assert 0.75 <= float(np.mean(covered)) <= 0.99

    def test_validation(self, small_dataset):
        estimator = TwoStepEstimator(
            small_dataset.network, small_dataset.store, small_dataset.graph
        )
        with pytest.raises(InferenceError):
            UncertaintyModel(estimator, small_dataset.store, confidence=0.5)
        with pytest.raises(InferenceError):
            sharpness_kmh({})
