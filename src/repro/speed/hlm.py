"""The Step-2 hierarchical linear model: trends + seeds → speeds.

Given the Step-1 trend posterior and the crowdsourced seed speeds, each
non-seed road's deviation ratio is predicted as a precision-weighted
linear blend of two evidence sources:

1. **The hierarchical prior** — the trend-conditional deviation mean
   from :class:`~repro.speed.hierarchy.DeviationHierarchy`, weighted by
   ``prior_weight``. This is what the road "usually does" when its trend
   is the inferred one, and it carries the estimate wherever seed
   influence is thin.
2. **Regressed seed deviations** — for every seed ``u`` whose influence
   reaches road ``r`` (best-path fidelity ≥ the floor), the no-intercept
   linear regression ``(d_r − 1) ≈ β_ru (d_u − 1)`` fitted on the
   training history projects the seed's observed deviation onto ``r``.
   The seed's weight is the regression's **R²** — how much of ``r``'s
   historical variance that seed actually explains — scaled by **trend
   consistency**: the posterior probability that ``r`` shares the seed's
   observed trend. A seed contradicting the inferred trend is softly
   down-weighted rather than dropped.

The roads' joint regressions are fitted in batches, never road by road:
:class:`SeedMoments` reads every row's Gram matrix and moment from one
product of the plan's seed columns against the history, and
:func:`fit_batch` solves all rows with the same seed count in one
stacked solve. The per-road fit and the per-road speed
(``estimate_road``) are the test oracle in ``tests/oracles/hlm.py``.

The predicted speed is ``d̂_r × historical_mean_r(bucket)``, clamped to
physical limits; :mod:`repro.speed.plan` compiles it into array ops.
Ablation switches reproduce experiments F7a (skip the trend machinery
entirely) and F7b (flat, non-hierarchical prior).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.errors import DataError, InferenceError
from repro.history.correlation import CorrelationGraph
from repro.history.store import HistoricalSpeedStore
from repro.obs import get_recorder
from repro.roadnet.network import RoadNetwork
from repro.speed.hierarchy import DeviationHierarchy

#: Width of the fixed column blocks, in the store's column order, in
#: which the seed × road product is computed. A road's moments always
#: come from the block holding its column, so they never depend on which
#: other roads one call fits; the block bounds the product's memory to
#: ``seeds × MOMENT_BLOCK_COLUMNS`` floats at any city size.
MOMENT_BLOCK_COLUMNS = 2048


@dataclass(frozen=True)
class HlmParams:
    """Tuning knobs of the hierarchical linear model."""

    prior_weight: float = 1.0
    min_fidelity: float = 0.05
    shrinkage_kappa: float = 8.0
    slope_clip: float = 1.5
    ridge_alpha: float = 0.1
    max_seeds_per_road: int = 12
    max_regression_weight: float = 25.0
    max_over_free_flow: float = 1.2
    min_speed_kmh: float = 2.0
    #: F7a ablation: ignore trends (flat prior at 1.0, no consistency weights).
    use_trend: bool = True
    #: F7b ablation: replace the hierarchy with the global trend mean.
    hierarchical: bool = True

    def __post_init__(self) -> None:
        if self.prior_weight < 0:
            raise DataError("prior_weight must be >= 0")
        if not 0.0 < self.min_fidelity < 1.0:
            raise DataError("min_fidelity must be in (0, 1)")
        if self.slope_clip <= 0:
            raise DataError("slope_clip must be positive")
        if self.ridge_alpha < 0:
            raise DataError("ridge_alpha must be >= 0")
        if self.max_seeds_per_road < 1:
            raise DataError("max_seeds_per_road must be >= 1")


class JointSeedRegression:
    """Batched joint ridge regressions of roads on their ranked seeds.

    Road ``r``'s influencing seeds are ranked by fidelity (ties by seed
    id) and capped at ``max_seeds_per_road``; with ``X`` their centred
    historical deviation columns and ``m`` their count it solves::

        γ = argmin ‖y − Xγ‖² + λ‖γ‖²,   λ = ridge_alpha · tr(XᵀX)/m

    Fits are batched per plan seed tuple (:meth:`moments`, then
    :func:`fit_batch`) and kept by the compiled plans, not here. A row's
    fit is a deterministic function of (road, its ranked seeds, the
    plan's seed tuple): district partition, batch composition and
    order, process and compile history never change its bits.
    """

    def __init__(self, store: HistoricalSpeedStore, params: HlmParams) -> None:
        self._params = params
        self._centred = store.deviation_matrix() - 1.0
        self._norms = (self._centred * self._centred).sum(axis=0)
        self._column = {road: i for i, road in enumerate(store.road_ids)}

    @property
    def params(self) -> HlmParams:
        return self._params

    def moments(self, seeds: tuple[int, ...]) -> "SeedMoments":
        """The product inputs of every fit under the plan seed tuple ``seeds``."""
        return SeedMoments(self, seeds)


@dataclass(frozen=True)
class FitBatch:
    """One district's regression rows with every product input gathered.

    ``groups`` holds one entry per seed count ``m``: the rows' indices
    local to the district ``(k,)``, their plan-seed positions in rank
    order ``(k, m)``, Gram matrices ``(k, m, m)``, moments ``(k, m)``
    and total sums of squares ``(k,)``. ``blocks`` counts the product's
    column blocks the rows read. Fitting a batch takes no product of
    the history, so a worker needs nothing but the batch and the params.
    """

    seeds: tuple[int, ...]
    num_roads: int
    width: int
    num_samples: int
    groups: tuple[tuple[np.ndarray, ...], ...]
    blocks: int

    @property
    def rows_fitted(self) -> int:
        return sum(len(group[0]) for group in self.groups)


class FittedRows(NamedTuple):
    """A batch's fits as padded ``(roads, width)`` rows.

    Row ``i`` holds road ``i``'s coefficients in rank order; padding
    has zero coefficients and seed position ``len(seeds)``. Rows with
    no regression (seed roads, roads no seed reaches) are all padding,
    with weight and residual std 0.
    """

    coef: np.ndarray
    seed_idx: np.ndarray
    weight: np.ndarray
    has_reg: np.ndarray
    residual_std: np.ndarray


class SeedMoments:
    """The product inputs of one plan seed tuple's regressions.

    With ``X`` the seeds' centred history columns, the seed Gram matrix
    ``XᵀX`` is computed on first use and kept. Each :meth:`gather` call
    computes the seed × road product ``XᵀC`` only in the fixed column
    blocks (:data:`MOMENT_BLOCK_COLUMNS`) that hold a row it fits, each
    block once, however many districts the call gathers.
    """

    def __init__(
        self, regression: JointSeedRegression, seeds: tuple[int, ...]
    ) -> None:
        self.seeds = seeds
        self._regression = regression
        self._position = {seed: k for k, seed in enumerate(seeds)}
        self._seed_ids = np.asarray(seeds, dtype=np.int64)
        self._sorter = np.argsort(self._seed_ids, kind="stable")
        self._gram: np.ndarray | None = None

    def _seed_columns(self) -> np.ndarray:
        """The plan seeds' centred history columns ``X`` (samples × seeds)."""
        column = self._regression._column
        cols = []
        for seed in self.seeds:
            col = column.get(seed)
            if col is None:
                raise InferenceError(f"seed road {seed} not in historical store")
            cols.append(col)
        return self._regression._centred[:, cols]

    def _positions(self, seed_ids: np.ndarray) -> np.ndarray:
        """Plan-seed positions of ``seed_ids``; every id must be a plan seed."""
        if not seed_ids.size:
            return seed_ids
        ordered = self._seed_ids[self._sorter]
        found = np.minimum(np.searchsorted(ordered, seed_ids), len(ordered) - 1)
        positions = self._sorter[found]
        stray = seed_ids[self._seed_ids[positions] != seed_ids]
        if stray.size:
            raise InferenceError(
                f"influencing seed {int(stray[0])} is not a plan seed"
            )
        return positions

    def gather(
        self,
        districts: Sequence[Sequence[int]],
        influence_by_road: Mapping[int, Mapping[int, float]],
    ) -> list[FitBatch]:
        """One :class:`FitBatch` per district of road ids.

        A district's rows to fit are its non-seed roads that some seed
        influences (``influence_by_road``: road -> {seed -> fidelity});
        seed roads are observation pass-throughs and uninfluenced roads
        keep the prior, so neither is fitted.
        """
        regression = self._regression
        params = regression.params
        num_seeds = len(self.seeds)
        width = max(1, min(params.max_seeds_per_road, num_seeds))
        column = regression._column
        recorder = get_recorder()
        with recorder.span("speed.hlm.moments", seeds=num_seeds) as span:
            owner: list[int] = []
            local: list[int] = []
            cols: list[int] = []
            sizes: list[int] = []
            entry_seeds: list[int] = []
            entry_q: list[float] = []
            for district, members in enumerate(districts):
                for i, road in enumerate(members):
                    influence = influence_by_road.get(road)
                    if not influence or road in self._position:
                        continue
                    col = column.get(road)
                    if col is None:
                        raise InferenceError(f"road {road} not in historical store")
                    owner.append(district)
                    local.append(i)
                    cols.append(col)
                    sizes.append(len(influence))
                    entry_seeds.extend(influence)
                    entry_q.extend(influence.values())
            num_rows = len(cols)
            row_cols = np.asarray(cols, dtype=np.int64)
            counts = np.minimum(np.asarray(sizes, dtype=np.int64), width)
            seed_idx = self._ranked(sizes, entry_seeds, entry_q, width)
            block_of = row_cols // MOMENT_BLOCK_COLUMNS
            blocks = np.unique(block_of)
            moment = np.zeros((num_rows, width))
            if num_rows:
                x = self._seed_columns()
                if self._gram is None:
                    self._gram = x.T @ x
                centred = regression._centred
                clipped = np.minimum(seed_idx, num_seeds - 1)
                for block in blocks.tolist():
                    lo = block * MOMENT_BLOCK_COLUMNS
                    product = x.T @ centred[:, lo : lo + MOMENT_BLOCK_COLUMNS]
                    rows = np.flatnonzero(block_of == block)
                    moment[rows] = product[clipped[rows], (row_cols[rows] - lo)[:, None]]
            totals = regression._norms[row_cols]
            span.set(rows=num_rows, blocks=len(blocks))
        recorder.count("speed.hlm.regression_fits", num_rows)

        owner_arr = np.asarray(owner, dtype=np.int64)
        local_arr = np.asarray(local, dtype=np.int64)
        batches = []
        for district, members in enumerate(districts):
            mine = np.flatnonzero(owner_arr == district)
            groups = []
            for m in np.unique(counts[mine]).tolist():
                rows = mine[counts[mine] == m]
                idx = seed_idx[rows, :m]
                gram = self._gram[idx[:, :, None], idx[:, None, :]]
                groups.append(
                    (local_arr[rows], idx, gram, moment[rows, :m], totals[rows])
                )
            batches.append(
                FitBatch(
                    seeds=self.seeds,
                    num_roads=len(members),
                    width=width,
                    num_samples=regression._centred.shape[0],
                    groups=tuple(groups),
                    blocks=len(np.unique(block_of[mine])),
                )
            )
        return batches

    def _ranked(
        self,
        sizes: list[int],
        entry_seeds: list[int],
        entry_q: list[float],
        width: int,
    ) -> np.ndarray:
        """Each row's top ``width`` plan-seed positions, padded with ``len(seeds)``.

        Seeds rank by fidelity, ties by seed id. The flattened entries
        are grouped by row in row order.
        """
        sizes_arr = np.asarray(sizes, dtype=np.int64)
        seed_ids = np.asarray(entry_seeds, dtype=np.int64)
        q = np.asarray(entry_q, dtype=np.float64)
        entry_row = np.repeat(np.arange(len(sizes_arr)), sizes_arr)
        # Rows stay grouped in order, so ``entry_row`` holds for the
        # sorted entries too.
        order = np.lexsort((seed_ids, -q, entry_row))
        rank = np.arange(len(order)) - (np.cumsum(sizes_arr) - sizes_arr)[entry_row]
        keep = rank < width
        seed_idx = np.full((len(sizes_arr), width), len(self.seeds), dtype=np.int64)
        seed_idx[entry_row[keep], rank[keep]] = self._positions(seed_ids[order[keep]])
        return seed_idx


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right.

    Elementwise adds, so a row's sum takes the same additions in any
    batch (a numpy reduction may pick its order by the array's shape).
    """
    total = terms[..., 0].copy()
    for j in range(1, terms.shape[-1]):
        total += terms[..., j]
    return total


def _solve(matrices: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Stacked ``matrices⁻¹ · moments``; a singular stack re-solves row by row.

    LAPACK factors each matrix of a stack on its own, so a row solved
    alone has the bits it has in any stack. A singular row falls back to
    least squares.
    """
    try:
        return np.linalg.solve(matrices, moments[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(matrices) == 1:
            return np.linalg.lstsq(matrices[0], moments[0], rcond=None)[0][None]
        return np.concatenate(
            [_solve(matrices[i : i + 1], moments[i : i + 1]) for i in range(len(matrices))]
        )


def fit_batch(params: HlmParams, batch: FitBatch) -> FittedRows:
    """Fit every row of ``batch``: one stacked solve per seed count.

    Per row: ``λ = ridge_alpha · tr(G)/m``, ``γ = (G + λI)⁻¹ b``,
    ``R² = clip(γ·b / ‖y‖², 0, 0.999)`` (0 for a zero-variance road),
    weight ``min(max_regression_weight, R²/(1 − R²))`` and residual std
    ``sqrt(max(‖y‖² − 2γ·b + γᵀGγ, 0) / samples)``.
    """
    n, width = batch.num_roads, batch.width
    coef = np.zeros((n, width))
    seed_idx = np.full((n, width), len(batch.seeds), dtype=np.int64)
    weight = np.zeros(n)
    has_reg = np.zeros(n, dtype=bool)
    residual_std = np.zeros(n)
    for rows, idx, gram, moment, total in batch.groups:
        m = idx.shape[1]
        diag = np.arange(m)
        lam = params.ridge_alpha * _row_sum(gram[:, diag, diag]) / m
        regularised = gram.copy()
        regularised[:, diag, diag] += lam[:, None]
        gamma = _solve(regularised, moment)
        explained = _row_sum(gamma * moment)
        r_squared = np.zeros(len(rows))
        varied = total > 1e-12
        r_squared[varied] = np.clip(explained[varied] / total[varied], 0.0, 0.999)
        quadratic = _row_sum(gamma * _row_sum(gram * gamma[:, None, :]))
        rss = total - 2.0 * explained + quadratic
        coef[rows, :m] = gamma
        seed_idx[rows, :m] = idx
        weight[rows] = np.minimum(
            params.max_regression_weight, r_squared / (1.0 - r_squared)
        )
        has_reg[rows] = True
        residual_std[rows] = np.sqrt(np.maximum(rss, 0.0) / batch.num_samples)
    return FittedRows(coef, seed_idx, weight, has_reg, residual_std)


class HierarchicalLinearModel:
    """The fitted Step-2 model. Build with :meth:`fit`."""

    def __init__(
        self,
        store: HistoricalSpeedStore,
        network: RoadNetwork,
        hierarchy: DeviationHierarchy,
        regression: JointSeedRegression,
        params: HlmParams,
    ) -> None:
        self._store = store
        self._network = network
        self._hierarchy = hierarchy
        self._regression = regression
        self._params = params

    @classmethod
    def fit(
        cls,
        store: HistoricalSpeedStore,
        network: RoadNetwork,
        graph: CorrelationGraph | None = None,
        params: HlmParams | None = None,
    ) -> "HierarchicalLinearModel":
        """Fit the hierarchy from the historical store.

        ``graph`` is accepted for interface symmetry with the rest of the
        pipeline but is not needed: seed regressions are fitted when a
        plan for a seed set is compiled, against whatever roads those
        seeds influence.
        """
        del graph
        params = params or HlmParams()
        with get_recorder().span("speed.hlm.fit", roads=len(store.road_ids)):
            hierarchy = DeviationHierarchy(
                store, network, kappa=params.shrinkage_kappa
            )
            regression = JointSeedRegression(store, params)
            return cls(store, network, hierarchy, regression, params)

    @property
    def params(self) -> HlmParams:
        return self._params

    @property
    def store(self) -> HistoricalSpeedStore:
        """The historical store the model was fitted on."""
        return self._store

    @property
    def network(self) -> RoadNetwork:
        """The road network the model was fitted on."""
        return self._network

    @property
    def hierarchy(self) -> DeviationHierarchy:
        return self._hierarchy

    @property
    def regression(self) -> JointSeedRegression:
        return self._regression
