"""Round-level benchmark of the crowdsourced speed-estimation system.

Run from the repository root::

    python3 perfbench/run.py --workload serve-rounds --seed 1 --seconds 15 --trace 0

Workloads are ``serve-rounds``, ``cold-start`` and ``stream-days`` (see
``perfbench/README.md``). The run prints a readable summary, then as its
last line one JSON object: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. The exit code is 0 only when
the run completed; ``correct`` is false when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_mean_ref": "ref",
    "round_p90_ref": "ref",
    "read_mean_ref": "ref",
    "read_p99_ref": "ref",
    "cold_round_ref": "ref",
    "warm_cycle_ref": "ref",
    "cold_cycle_ref": "ref",
    "mae_kmh": "km/h",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "history.ingest_s": "s",
    "history.delta_edges": "count",
    "fidelity.hits": "count",
    "fidelity.misses": "count",
    "fidelity.hit_ratio": "ratio",
    "seeds.select_s": "s",
    "seeds.evaluations": "count",
    "seeds.objective": "score",
    "pool.worker_rss_mb": "MB",
    "crowd.collect_s": "s",
    "crowd.tasks_failed": "count",
    "speed.estimate_s": "s",
    "plan.hits": "count",
    "plan.misses": "count",
    "plan.row_evictions": "count",
    "plan.shard_evictions": "count",
    "uncertainty.bands_s": "s",
    "snapshot.build_s": "s",
    "snapshot.save_s": "s",
    "snapshot.bytes": "bytes",
    "store.publish_s": "s",
    "store.read_s": "s",
    "publisher.self_s": "s",
    "trace.round_p50_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}

#: Layers inside a published round, as recorded under its publisher span.
ROUND_LAYERS = (
    "crowd.collect",
    "speed.estimate",
    "uncertainty.bands",
    "snapshot.build",
    "snapshot.save",
    "store.publish",
    "publisher",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def _stop_resource_tracker() -> None:
    """Stop the process multiprocessing starts to track shared memory, and
    wait for it, so the benchmark leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _install_tracer():
    """Wrap the public entry points of every layer the metrics name."""
    import repro.datasets.synthetic
    import repro.serving.publisher
    from layer_trace import LayerTracer
    from repro.core.pipeline import SpeedEstimationSystem
    from repro.crowd.platform import CrowdsourcingPlatform
    from repro.history.online import RollingHistory
    from repro.serving import EstimateStore, SnapshotPublisher
    from repro.serving.snapshot import EstimateSnapshot
    from repro.speed.uncertainty import UncertaintyModel

    tracer = LayerTracer()
    tracer.wrap(RollingHistory, "ingest_day", "history")
    tracer.wrap(repro.datasets.synthetic, "mine_correlation_graph", "history")
    tracer.wrap(SpeedEstimationSystem, "select_seeds", "seeds")
    tracer.wrap(SpeedEstimationSystem, "reselect_seeds", "seeds")
    tracer.wrap(SpeedEstimationSystem, "estimate", "speed.estimate")
    tracer.wrap(CrowdsourcingPlatform, "collect", "crowd.collect")
    tracer.wrap(UncertaintyModel, "bands_for", "uncertainty.bands")
    tracer.wrap(EstimateSnapshot, "build", "snapshot.build")
    tracer.wrap(repro.serving.publisher, "save_snapshot", "snapshot.save")
    tracer.wrap(EstimateStore, "publish", "store.publish")
    tracer.wrap(EstimateStore, "get_many", "store.read")
    tracer.wrap(SnapshotPublisher, "publish_round", "publisher")
    return tracer


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean after dropping the fastest and slowest ``cut`` of the samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    drop = int(len(ordered) * cut)
    return statistics.fmean(ordered[drop:len(ordered) - drop])


def end_to_end(run) -> dict[str, float]:
    from workloads import peak_rss_mb

    return {
        "setup_s": run.setup_s,
        "round_mean_ref": _trimmed_mean(run.rounds_ref),
        "round_p90_ref": _percentile(run.rounds_ref, 90),
        "read_mean_ref": _trimmed_mean(run.reads_ref),
        "read_p99_ref": _percentile(run.reads_ref, 99),
        "cold_round_ref": _trimmed_mean(run.cold_round_ref),
        "warm_cycle_ref": _trimmed_mean(run.warm_cycles_ref),
        "cold_cycle_ref": _trimmed_mean(run.cold_cycles_ref),
        "mae_kmh": run.abs_error_sum / max(1, run.scored_roads),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run) -> dict[str, float]:
    import resource

    from workloads import peak_rss_mb

    tracer = run.tracer
    by_round = tracer.self_times_under("publisher")
    rounds = [by_round[span] for span in run.measured_round_spans if span in by_round]

    def round_median(layer: str) -> float:
        return _median([times.get(layer, 0.0) for times in rounds])

    lookups = run.fidelity_hits + run.fidelity_misses
    traced_p50 = _median(run.traced_rounds_s)
    layer_sum = sum(round_median(layer) for layer in ROUND_LAYERS)
    return {
        "history.ingest_s": tracer.call_median("history"),
        "history.delta_edges": run.delta_edges,
        "fidelity.hits": run.fidelity_hits,
        "fidelity.misses": run.fidelity_misses,
        "fidelity.hit_ratio": run.fidelity_hits / lookups if lookups else 0.0,
        "seeds.select_s": tracer.call_median("seeds"),
        "seeds.evaluations": _median(run.evaluations),
        "seeds.objective": _median(run.objectives),
        "pool.worker_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "crowd.collect_s": round_median("crowd.collect"),
        "crowd.tasks_failed": run.tasks_failed,
        "speed.estimate_s": round_median("speed.estimate"),
        "plan.hits": run.plan_stats.get("hits", 0),
        "plan.misses": run.plan_stats.get("misses", 0),
        "plan.row_evictions": run.plan_stats.get("row_evictions", 0),
        "plan.shard_evictions": run.plan_stats.get("shard_evictions", 0),
        "uncertainty.bands_s": round_median("uncertainty.bands"),
        "snapshot.build_s": round_median("snapshot.build"),
        "snapshot.save_s": round_median("snapshot.save"),
        "snapshot.bytes": _median(run.snapshot_bytes),
        "store.publish_s": round_median("store.publish"),
        "store.read_s": tracer.call_median("store.read"),
        "publisher.self_s": round_median("publisher"),
        "trace.round_p50_s": traced_p50,
        "trace.overhead_s": traced_p50 - _median(run.untraced_rounds_s),
        "trace.unaccounted_s": traced_p50 - layer_sum,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import multiprocessing
    import shutil

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    snapshot_dir = os.path.join(OUT_DIR, f"snapshots-{tag}-{os.getpid()}")
    shm_before = _shm_segments()
    run = workloads.RunRecord(args.seed)
    if args.trace:
        run.tracer = _install_tracer()
    try:
        workloads.WORKLOADS[args.workload](run, args.seconds, snapshot_dir)
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
        shutil.rmtree(snapshot_dir, ignore_errors=True)
        for child in multiprocessing.active_children():
            child.join()

    leaked = sorted(_shm_segments() - shm_before)
    if leaked:
        run.failed += 1
        run.problems.append(f"{len(leaked)} /dev/shm segments survived: {leaked[:5]}")
    _stop_resource_tracker()
    e2e = end_to_end(run)
    run.check(
        e2e["mae_kmh"] < run.baseline_error_sum / max(1, run.scored_roads),
        "published speeds are no better than the historical baseline",
    )
    digest = run.digest.hexdigest()
    with open(os.path.join(OUT_DIR, f"samples-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({
            "digest": digest,
            "setup_s": run.setup_s,
            "cold_round_ref": run.cold_round_ref,
            "rounds_s": run.rounds_s,
            "reads_s": run.reads_s,
            "rounds_ref": run.rounds_ref,
            "reads_ref": run.reads_ref,
            "warm_cycles_ref": run.warm_cycles_ref,
            "cold_cycles_ref": run.cold_cycles_ref,
            "host_speed_s": run.host_speed_s,
        }, handle)

    if args.trace:
        metrics, units = per_layer(run), PER_LAYER_UNITS
        run.tracer.write(os.path.join(OUT_DIR, f"trace-{tag}.json"))
    else:
        metrics, units = e2e, END_TO_END_UNITS
    print(f"workload {args.workload} seed {args.seed}: {len(run.rounds_s)} rounds, "
          f"{len(run.reads_s)} read sweeps, {len(run.warm_cycles_ref)} warm and "
          f"{len(run.cold_cycles_ref)} cold cycles")
    for name, value in metrics.items():
        print(f"  {name:<22} {value:14.6f} {units[name]}")
    print(f"  (1 ref = {1e3 * _median(run.host_speed_s):.4f} ms here: round mean "
          f"{_trimmed_mean(run.rounds_s):.4f} s, read mean "
          f"{1e3 * _trimmed_mean(run.reads_s):.4f} ms)")
    print(f"  failed_frac            {run.failed / max(1, run.attempted):14.6f} ratio")
    print(f"  digest                 {digest}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
