"""The format-2 snapshot writer and the per-road round it persisted.

Before the binary column format (``SNAPSHOT_FORMAT`` 3), a snapshot was
one canonical-JSON body holding a row per road, and a round was a dict
of per-road :class:`~repro.core.types.SpeedEstimate` objects.
Production code only *reads* format 2 now (``load_snapshot`` and
``recover_latest`` accept it); this module keeps the writer, so tests
can check such files still load and can persist an oracle round the way
the per-road path did.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.types import SpeedEstimate, Trend
from repro.history.store import HistoricalSpeedStore
from repro.serving.snapshot import RoundProvenance, snapshot_path
from repro.speed.estimator import TwoStepEstimator
from repro.speed.uncertainty import SpeedBand

FORMAT = 2


def body_row(est: SpeedEstimate, band: SpeedBand) -> list:
    return [
        est.speed_kmh,
        int(est.trend),
        est.trend_probability,
        1 if est.is_seed else 0,
        1 if est.degraded else 0,
        band.lower_kmh,
        band.upper_kmh,
        band.std_kmh,
        band.confidence,
    ]


def encode(body: dict) -> bytes:
    """The canonical encoding of a format-2 body: the bytes hashed."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")


def format2_body(
    version: int,
    interval: int,
    estimates: Mapping[int, SpeedEstimate],
    bands: Mapping[int, SpeedBand],
    substituted: Mapping[int, str] | None = None,
    degraded: bool = False,
    provenance: RoundProvenance | None = None,
) -> dict:
    substituted = dict(substituted or {})
    return {
        "format": FORMAT,
        "version": version,
        "interval": interval,
        "degraded": bool(degraded) or bool(substituted),
        "substituted": {str(r): v for r, v in substituted.items()},
        "provenance": provenance.to_dict() if provenance is not None else None,
        "roads": {
            str(road): body_row(est, bands[road]) for road, est in estimates.items()
        },
    }


def format2_bytes(body: dict, separators=(",", ":")) -> bytes:
    """``{"body":…,"checksum":"<sha256 of the canonical body>"}``.

    ``separators`` other than the canonical ones give the whitespace of
    releases that wrote the envelope with ``json.dumps`` defaults.
    """
    checksum = hashlib.sha256(encode(body)).hexdigest()
    if separators == (",", ":"):
        return b'{"body":' + encode(body) + b',"checksum":' + json.dumps(
            checksum
        ).encode("utf-8") + b"}"
    return json.dumps(
        {"body": body, "checksum": checksum}, sort_keys=True, separators=separators
    ).encode("utf-8")


def write_format2(snapshot, directory: str | Path, separators=(",", ":")) -> Path:
    """Persist ``snapshot`` as a format-2 file; returns the file written."""
    body = format2_body(
        snapshot.version,
        snapshot.interval,
        snapshot.estimates,
        snapshot.bands,
        snapshot.substituted,
        snapshot.degraded,
        snapshot.provenance,
    )
    path = snapshot_path(directory, snapshot.version)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(format2_bytes(body, separators))
    return path


def per_road_round(
    estimator: TwoStepEstimator,
    store: HistoricalSpeedStore,
    inference,
    interval: int,
    seed_speeds: dict[int, float],
    roads: list[int] | None = None,
) -> dict[int, SpeedEstimate]:
    """One round as the per-road ``SpeedEstimate`` loop built it.

    Step 1 runs through ``inference`` (the object the estimator was
    built with) and Step 2 through the estimator's compiled plan; the
    result is a dict of records built road by road. ``roads`` None
    means every road in graph order, else the sorted unique subset.
    """
    bucket = store.grid.bucket_of(interval)
    seed_trends: dict[int, Trend] = {}
    seed_deviations: dict[int, float] = {}
    for road, speed in seed_speeds.items():
        historical = store.mean(road, bucket)
        seed_trends[road] = Trend.RISE if speed >= historical else Trend.FALL
        seed_deviations[road] = speed / historical
    posterior = inference.infer(
        estimator.trend_model.instance(interval, seed_trends)
    )
    plan = estimator.plan_for(interval, seed_speeds)
    deviations = np.array([seed_deviations[s] for s in plan.seeds])
    p_rise = np.array([posterior.p_rise(road) for road in plan.road_ids])
    speed_list = plan.evaluate(deviations, p_rise).tolist()
    p_list = p_rise.tolist()
    ordered = plan.road_ids if roads is None else sorted(set(roads))
    estimates: dict[int, SpeedEstimate] = {}
    for road in ordered:
        if road in seed_speeds:
            trend = seed_trends[road]
            estimates[road] = SpeedEstimate(
                road,
                interval,
                seed_speeds[road],
                trend,
                1.0 if trend is Trend.RISE else 0.0,
                True,
            )
            continue
        i = plan.index[road]
        p = p_list[i]
        estimates[road] = SpeedEstimate(
            road,
            interval,
            speed_list[i],
            Trend.RISE if p >= 0.5 else Trend.FALL,
            p,
        )
    return estimates
