"""Robust aggregation of crowd answers into one speed per task.

Workers are noisy, biased and occasionally spamming; the aggregator's
job is to turn a handful of their reports into a usable speed. The
platform defaults to MAD-filtered mean, which tolerates the spammer
rates the worker model produces; the plain mean is the fragile
reference it is compared against.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import CrowdsourcingError


def mean_aggregate(answers: list[float]) -> float:
    """Plain mean — the fragile reference aggregator."""
    _check(answers)
    return float(np.mean(answers))


def mad_filtered_mean(answers: list[float], threshold: float = 3.0) -> float:
    """Mean of answers within ``threshold`` MADs of the median.

    The median absolute deviation (MAD) is a robust scale estimate;
    answers further than ``threshold`` scaled MADs from the median are
    treated as outliers (spam) and dropped before averaging. Falls back
    to the median when the MAD is zero (all answers identical) or when
    filtering would discard everything.
    """
    _check(answers)
    if threshold <= 0:
        raise CrowdsourcingError("MAD threshold must be positive")
    values = np.asarray(answers, dtype=np.float64)
    med = np.median(values)
    mad = np.median(np.abs(values - med))
    if mad == 0.0:
        return float(med)
    scaled = 1.4826 * mad  # consistency factor for normal data
    kept = values[np.abs(values - med) <= threshold * scaled]
    if kept.size == 0:
        return float(med)
    return float(kept.mean())


def _check(answers: list[float]) -> None:
    if not answers:
        raise CrowdsourcingError("cannot aggregate zero answers")
    if any(a < 0 for a in answers):
        raise CrowdsourcingError("negative speed answer")
