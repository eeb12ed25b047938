"""Robust aggregation of crowd answers into one speed per task.

Workers are noisy, biased and occasionally spamming; the aggregator's
job is to turn a handful of their reports into a usable speed. The
platform defaults to MAD-filtered mean, which tolerates the spammer
rates the worker model produces; the plain mean is the fragile
reference it is compared against.

:func:`mad_filter_rows` is the one MAD implementation: it filters a
whole round's answers in one array pass, and its outlier mask is
exactly the complement of what it keeps, so the platform blames a
worker for an outlier if and only if that worker's answer was dropped.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.errors import CrowdsourcingError

#: Consistency factor making the MAD comparable to a normal std.
MAD_SCALE = 1.4826


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
    filtering would discard everything. One row of
    :func:`mad_filter_rows`.
    """
    means, _ = mad_filter_rows([answers], threshold)
    return means[0]


def mad_filter_rows(
    rows: Sequence[Sequence[float]], threshold: float = 3.0
) -> tuple[list[float], np.ndarray]:
    """MAD-filtered mean and outlier mask of every row, in one pass.

    ``rows`` holds one task's answers each (ragged, none empty). Returns
    the filtered mean of every row and a ``(rows, longest row)`` mask
    whose entry ``[i, j]`` says answer ``j`` of row ``i`` lies more than
    ``threshold`` scaled MADs from the row's median; padding is False.
    An answer is kept iff it is not flagged, and a row whose MAD is zero
    flags nothing. Means are bitwise those of the per-row arithmetic:
    the medians take the same one or two middle values, and each row's
    kept answers are summed as one contiguous row.
    """
    if threshold <= 0:
        raise CrowdsourcingError("MAD threshold must be positive")
    counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    if counts.size == 0:
        return [], np.zeros((0, 0), dtype=bool)
    if counts.min() == 0:
        raise CrowdsourcingError("cannot aggregate zero answers")
    valid = np.arange(counts.max()) < counts[:, None]
    values = np.full(valid.shape, np.inf)
    values[valid] = [answer for row in rows for answer in row]
    if (values < 0).any():
        raise CrowdsourcingError("negative speed answer")
    index = np.arange(counts.size)
    low, high = (counts - 1) // 2, counts // 2

    def median(padded: np.ndarray) -> np.ndarray:
        ordered = np.sort(padded, axis=1)  # the inf padding sorts last
        return (ordered[index, low] + ordered[index, high]) / 2

    centre = median(values)
    deviation = np.abs(values - centre[:, None])
    mad = median(deviation)
    cutoff = threshold * (MAD_SCALE * mad)
    outliers = valid & (deviation > cutoff[:, None]) & (mad > 0)[:, None]
    kept = valid & ~outliers
    # A zero MAD (most answers identical) serves the median as is.
    num_kept = np.where(mad > 0, kept.sum(axis=1), 0)
    means = centre.copy()
    for size in set(num_kept.tolist()) - {0}:
        group = np.flatnonzero(num_kept == size)
        block = values[group][kept[group]].reshape(group.size, size)
        means[group] = block.sum(axis=1) / size
    return means.tolist(), outliers


def _check(answers: list[float]) -> None:
    if not answers:
        raise CrowdsourcingError("cannot aggregate zero answers")
    if any(a < 0 for a in answers):
        raise CrowdsourcingError("negative speed answer")
