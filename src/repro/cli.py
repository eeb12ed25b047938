"""Command-line interface: ``repro-traffic <command>``.

A thin operational front-end over the library for exploring the
reproduction without writing code::

    repro-traffic info                         # dataset statistics
    repro-traffic select --budget 26           # pick and show seeds
    repro-traffic estimate --hour 8.5          # one estimation round
    repro-traffic route --from 0 --to 143      # plan on estimated speeds
    repro-traffic serve --rounds 8 --check     # snapshot publish/serve loop
    repro-traffic serve --slo --explain 17     # SLO burn-rate alerts + explain
    repro-traffic stream --days 14 --check     # incremental ingest/re-mine loop
    repro-traffic obs record --out run.jsonl   # flight-record some rounds
    repro-traffic obs report run.jsonl         # round-by-round telemetry
    repro-traffic obs top metrics.json         # one-shot ops dashboard

All commands operate on the built-in synthetic cities (``--city
beijing`` by default) and print plain-text tables.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from collections import Counter
from typing import Callable, Iterator, Sequence

from repro.core.breaker import CircuitBreaker
from repro.core.clock import ManualClock
from repro.core.config import PipelineConfig
from repro.core.errors import CrowdsourcingError, DataError
from repro.core.pipeline import SpeedEstimationSystem
from repro.core.routing import RoutePlanner, route_travel_time_s
from repro.crowd.health import WorkerHealthTracker
from repro.crowd.platform import CrowdsourcingPlatform
from repro.crowd.workers import WorkerPool, WorkerPoolParams
from repro.datasets.synthetic import (
    TrafficDataset,
    synthetic_beijing,
    synthetic_tianjin,
)
from repro.evalkit.reporting import fmt, format_table
from repro.obs import (
    OK,
    PAGE,
    FlightRecorder,
    SLOEngine,
    dashboard_file,
    default_serving_slos,
    recording,
    report_file,
    to_json,
    to_prometheus_text,
    verify_recording,
)

CITIES = {
    "beijing": synthetic_beijing,
    "tianjin": synthetic_tianjin,
}


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """An argparse ``parents=`` group: flags several commands share."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-traffic",
        description="Crowdsourcing-based real-time traffic speed estimation "
        "(ICDE 2016 reproduction)",
    )
    parser.add_argument("--city", choices=sorted(CITIES), default="beijing",
                        help="which synthetic city to operate on")
    commands = parser.add_subparsers(dest="command", required=True)

    budget = _flags()
    budget.add_argument("--budget", type=int, default=None,
                        help="number of seeds (default: 5%% of roads)")
    test_hour = _flags(budget)
    test_hour.add_argument("--hour", type=float, default=8.5,
                           help="time of day on the first test day")
    round_hour = _flags(budget)
    round_hour.add_argument("--hour", type=float, default=8.0,
                            help="time of day of the first round")
    metrics = _flags()
    metrics.add_argument("--metrics-out", default=None,
                         help="dump the final metrics registry "
                         "(.prom -> Prometheus text, otherwise JSON)")
    faults = _flags()
    faults.add_argument("--scenario", default=None,
                        help="worker-level fault scenario to inject "
                        "(see repro.faults.bundled_scenarios)")
    plan = _flags()
    plan.add_argument("--plan-shards", type=int, default=1, metavar="D",
                      help="split the Step-2 interval plan into D partition "
                      "districts (bitwise identical to one district; graph "
                      "deltas recompile per district)")

    info = commands.add_parser("info", help="print dataset statistics")
    info.set_defaults(run=cmd_info)

    select = commands.add_parser(
        "select", parents=[budget], help="select crowdsourcing seeds"
    )
    select.add_argument("--method", default="lazy", choices=[
        "greedy", "lazy", "partition", "random", "top-degree", "k-center"])
    select.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker-pool size for --method partition: N > 1 "
                        "runs district selection on a process pool with the "
                        "CSR fidelity arrays in shared memory (1 = in the parent)")
    select.add_argument("--partitions", type=int, default=8, metavar="P",
                        help="number of BFS-grown districts for partitioned "
                        "selection")
    select.add_argument("--rounds", type=int, default=1, metavar="R",
                        help="re-select R times with the warm-started "
                        "incremental CELF and report how much of the scan "
                        "stayed cached")
    select.set_defaults(run=cmd_select)

    estimate = commands.add_parser(
        "estimate", parents=[test_hour, plan],
        help="run one estimation round against ground truth",
    )
    estimate.add_argument("--show", type=int, default=10,
                          help="number of sample roads to print")
    estimate.add_argument("--map", action="store_true", dest="show_map",
                          help="print an ASCII congestion map")
    estimate.set_defaults(run=cmd_estimate)

    route = commands.add_parser(
        "route", parents=[test_hour], help="plan a route on estimated speeds"
    )
    route.add_argument("--from", dest="origin", type=int, required=True,
                       help="origin intersection id")
    route.add_argument("--to", dest="destination", type=int, required=True,
                       help="destination intersection id")
    route.set_defaults(run=cmd_route)

    serve = commands.add_parser(
        "serve", parents=[round_hour, metrics, faults, plan],
        help="run the snapshot publisher/store serving loop "
        "(optionally under an infrastructure fault scenario)",
    )
    serve.add_argument("--rounds", type=int, default=8,
                       help="number of publish rounds to drive")
    serve.add_argument("--infra-scenario", default=None,
                       help="infrastructure fault scenario to inject "
                       "(see repro.faults.bundled_infra_scenarios)")
    serve.add_argument("--snapshot-dir", default=None,
                       help="directory for persisted snapshots "
                       "(default: a temporary directory)")
    serve.add_argument("--readers", type=int, default=25,
                       help="roads sampled by the reader sweep each round")
    serve.add_argument("--check", action="store_true",
                       help="exit non-zero if any reader saw an exception "
                       "or an unverified snapshot was served")
    serve.add_argument("--slo", action="store_true",
                       help="evaluate the default serving SLOs (burn-rate "
                       "alerting) once per round")
    serve.add_argument("--slo-check", action="store_true",
                       help="exit non-zero unless every SLO ends the run "
                       "in the ok state (implies --slo)")
    serve.add_argument("--expect-page", default=None, metavar="SLO",
                       help="require this SLO to reach page during the run "
                       "and return to ok by the end (implies --slo-check)")
    serve.add_argument("--explain", type=int, default=None, metavar="ROAD",
                       help="print the provenance chain for one road's "
                       "read after the loop")
    serve.set_defaults(run=cmd_serve)

    stream = commands.add_parser(
        "stream", parents=[budget, metrics],
        help="drive the streaming ingest loop: rolling window, "
        "incremental re-mining and delta-scoped cache eviction",
    )
    stream.add_argument("--days", type=int, default=14,
                        help="simulated days streamed after the warmup window")
    stream.add_argument("--window", type=int, default=7,
                        help="rolling-history window in days")
    stream.add_argument("--serve-rounds", type=int, default=2,
                        help="estimation rounds served per streamed day")
    stream.add_argument("--sim-seed", type=int, default=123,
                        help="traffic simulation seed for the streamed days")
    stream.add_argument("--check", action="store_true",
                        help="exit non-zero on any wholesale cache "
                        "invalidation or incremental/batch mining mismatch")
    stream.set_defaults(run=cmd_stream)

    obs = commands.add_parser(
        "obs", help="pipeline telemetry: record and inspect flight logs"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)

    record = obs_commands.add_parser(
        "record", parents=[round_hour, metrics, faults],
        help="run crowdsourced estimation rounds with the flight recorder on",
    )
    record.add_argument("--out", required=True,
                        help="JSONL event log to write")
    record.add_argument("--rounds", type=int, default=6,
                        help="number of consecutive crowdsourcing rounds")
    record.set_defaults(run=cmd_obs_record)

    # The log-file commands read one file and need no dataset.
    report = obs_commands.add_parser(
        "report", help="render a recording as a round-by-round summary"
    )
    report.add_argument("recording", help="JSONL event log to render")
    report.set_defaults(run=cmd_obs_report, needs_dataset=False)

    verify = obs_commands.add_parser(
        "verify",
        help="validate a recording (non-zero exit if empty or malformed)",
    )
    verify.add_argument("recording", help="JSONL event log to check")
    verify.set_defaults(run=cmd_obs_verify, needs_dataset=False)

    top = obs_commands.add_parser(
        "top",
        help="render the serving ops dashboard from a metrics dump "
        "(serve --metrics-out) or a JSONL recording",
    )
    top.add_argument("source", help="metrics JSON or JSONL recording")
    top.set_defaults(run=cmd_obs_top, needs_dataset=False)
    return parser


def _default_budget(dataset: TrafficDataset, budget: int | None) -> int:
    if budget is not None:
        return budget
    return max(1, round(dataset.network.num_segments * 0.05))


@contextlib.contextmanager
def _seeded_system(
    dataset: TrafficDataset,
    budget: int | None,
    hour: float,
    config: PipelineConfig | None = None,
    recorder: FlightRecorder | None = None,
) -> Iterator[tuple[SpeedEstimationSystem, int, int]]:
    """The fitted system with its K seeds selected, K, and the interval
    at ``hour`` on the first test day; the system closes on exit.

    With a ``recorder``, selection and the body run under it.
    """
    k = _default_budget(dataset, budget)
    with SpeedEstimationSystem.from_parts(
        dataset.network, dataset.store, dataset.graph, config
    ) as system, (
        recording(recorder) if recorder is not None
        else contextlib.nullcontext()
    ):
        system.select_seeds(k)
        yield system, k, dataset.grid.interval_at(dataset.first_test_day, hour)


def _plan_config(plan_shards: int) -> PipelineConfig | None:
    """The pipeline config for ``--plan-shards D``."""
    if plan_shards < 1:
        raise SystemExit("error: --plan-shards must be >= 1")
    if plan_shards == 1:
        return None
    return PipelineConfig(use_sharded_plan=True, plan_shards=plan_shards)


def _crowd_platform(scenario: str | None) -> CrowdsourcingPlatform:
    """The simulated crowd (200 workers, five answers a task), optionally
    under a bundled worker-level fault scenario."""
    pool = WorkerPool.sample(
        200,
        WorkerPoolParams(noise_std_frac=0.10, spammer_fraction=0.05),
        seed=7,
    )
    if scenario is not None:
        from repro.faults import get_scenario, inject_faults

        try:
            pool = inject_faults(pool, get_scenario(scenario))
        except CrowdsourcingError as exc:
            raise SystemExit(f"error: {exc}")
    return CrowdsourcingPlatform(
        pool,
        workers_per_task=5,
        cost_per_answer=0.05,
        health=WorkerHealthTracker(),
        circuit_breaker=CircuitBreaker(),
    )


def _dump_metrics(
    recorder: FlightRecorder | None, path: str | None
) -> list[str]:
    """Write the recorder's metrics registry to ``path`` (Prometheus text
    for ``.prom``, JSON otherwise) and return the output line saying so;
    without a path (the only case with no recorder), nothing."""
    if path is None:
        return []
    registry = recorder.registry
    text = (
        to_prometheus_text(registry)
        if path.endswith(".prom")
        else to_json(registry)
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return [f"Final metrics registry -> {path}"]


def cmd_info(dataset: TrafficDataset) -> tuple[str, int]:
    info = dataset.describe()
    rows = [[key, str(value)] for key, value in info.items()]
    return format_table(["property", "value"], rows,
                        title=f"Dataset: {dataset.name}"), 0


def cmd_select(
    dataset: TrafficDataset,
    budget: int | None,
    method: str,
    workers: int,
    partitions: int,
    rounds: int,
) -> tuple[str, int]:
    config = PipelineConfig(
        selection_method=method,
        num_partitions=partitions,
        use_parallel_partitions=workers > 1,
        num_partition_workers=workers,
    )
    k = _default_budget(dataset, budget)
    lines = []
    with SpeedEstimationSystem.from_parts(
        dataset.network, dataset.store, dataset.graph, config
    ) as system:
        if rounds > 1:
            # Warm-started incremental CELF: round 1 pays the full scan,
            # stable rounds re-evaluate nothing.
            for round_no in range(rounds):
                seeds = system.reselect_seeds(k)
                result = system.selection
                lines.append(
                    f"round {round_no + 1}: {result.evaluations} gain "
                    f"evaluations ({result.method})"
                )
        else:
            seeds = system.select_seeds(k)
        result = system.selection
    rows = [
        [i + 1, seed, dataset.network.segment(seed).road_class,
         fmt(result.gains[i], 2)]
        for i, seed in enumerate(seeds)
    ]
    lines.append(
        f"Selected {k} seeds with {result.method} "
        f"(objective {result.final_value:.1f}, "
        f"{result.evaluations} gain evaluations)"
    )
    lines.append(format_table(["#", "road", "class", "marginal gain"], rows))
    return "\n".join(lines), 0


def cmd_estimate(
    dataset: TrafficDataset,
    budget: int | None,
    hour: float,
    show: int,
    show_map: bool,
    plan_shards: int,
) -> tuple[str, int]:
    config = _plan_config(plan_shards)
    with _seeded_system(dataset, budget, hour, config) as (system, k, interval):
        truth = dataset.test.speeds_at(interval)
        crowd = {r: truth[r] for r in system.seeds}
        estimates = system.estimate(interval, crowd)

    historical = {
        r: dataset.store.historical_speed(r, interval)
        for r in dataset.network.road_ids()
    }
    others = [r for r in historical if r not in crowd]
    errors = [abs(estimates[r].speed_kmh - truth[r]) for r in others]
    ha_errors = [abs(historical[r] - truth[r]) for r in others]
    rows = [
        [
            r,
            fmt(truth[r], 1),
            fmt(estimates[r].speed_kmh, 1),
            estimates[r].trend.name,
            fmt(estimates[r].trend_probability, 2),
        ]
        for r in others[: max(0, show)]
    ]
    mae = sum(errors) / len(errors)
    ha_mae = sum(ha_errors) / len(ha_errors)
    table = format_table(
        ["road", "true", "estimated", "trend", "P(rise)"],
        rows,
        title=f"Estimates at {hour:.2f}h, K={k} ({dataset.name})",
    )
    output = (
        table
        + f"\n\nMAE {mae:.2f} km/h vs historical-average {ha_mae:.2f} km/h "
        f"({100 * (1 - mae / ha_mae):.1f}% better) over {len(errors)} roads"
    )
    if show_map:
        from repro.evalkit.ascii_map import render_deviation_map

        estimated = {r: e.speed_kmh for r, e in estimates.items()}
        output += "\n\nEstimated congestion (dense = far below usual speed):\n"
        output += render_deviation_map(
            dataset.network, estimated, historical, width=48
        )
    return output, 0


def cmd_route(
    dataset: TrafficDataset,
    origin: int,
    destination: int,
    budget: int | None,
    hour: float,
) -> tuple[str, int]:
    with _seeded_system(dataset, budget, hour) as (system, _, interval):
        truth = dataset.test.speeds_at(interval)
        crowd = {r: truth[r] for r in system.seeds}
        estimates = system.estimate(interval, crowd)
    est_speeds = {r: e.speed_kmh for r, e in estimates.items()}

    planner = RoutePlanner(dataset.network)
    try:
        plan = planner.fastest_route(origin, destination, est_speeds)
    except Exception as exc:  # unknown intersections etc.
        raise SystemExit(f"error: no route from {origin} to {destination}: {exc}")
    if plan is None:
        raise SystemExit(
            f"error: no route from {origin} to {destination}"
        )
    actual = route_travel_time_s(dataset.network, list(plan.route), truth)
    lines = [
        f"Route {origin} -> {destination} at {hour:.2f}h "
        f"({len(plan.route)} roads):",
        "  " + " -> ".join(str(r) for r in plan.route),
        f"Planned ETA: {plan.eta_minutes:.1f} min",
        f"Actual time at true speeds: {actual / 60.0:.1f} min",
        f"ETA error: {abs(plan.eta_s - actual):.0f} s",
    ]
    return "\n".join(lines), 0


def cmd_obs_record(
    dataset: TrafficDataset,
    out: str,
    rounds: int,
    budget: int | None,
    hour: float,
    scenario: str | None,
    metrics_out: str | None,
) -> tuple[str, int]:
    """Flight-record ``rounds`` consecutive crowdsourced rounds."""
    if rounds < 1:
        raise SystemExit("error: --rounds must be >= 1")
    platform = _crowd_platform(scenario)
    recorder = FlightRecorder(path=out)
    with _seeded_system(dataset, budget, hour, recorder=recorder) as (
        system, k, start
    ):
        degraded = 0
        for i in range(rounds):
            outcome = system.run_round(
                start + i, dataset.test, platform, crowd_seed=start + i
            )
            degraded += outcome.degraded
        dumped = _dump_metrics(recorder, metrics_out)
    lines = [
        f"Recorded {rounds} rounds ({degraded} degraded) with K={k} seeds "
        f"on {dataset.name} -> {out}",
        *dumped,
        f"Render with: repro-traffic obs report {out}",
    ]
    return "\n".join(lines), 0


def cmd_serve(
    dataset: TrafficDataset,
    rounds: int,
    budget: int | None,
    hour: float,
    infra_scenario: str | None,
    scenario: str | None,
    snapshot_dir: str | None,
    readers: int,
    check: bool,
    slo: bool,
    slo_check: bool,
    expect_page: str | None,
    explain: int | None,
    metrics_out: str | None,
    plan_shards: int,
) -> tuple[str, int]:
    """Drive the publisher/store serving loop and sweep readers.

    The exit code is non-zero only with ``--check`` when a serving
    invariant was violated (a reader saw an exception, or an unverified
    snapshot was served), or with ``--slo-check`` / ``--expect-page``
    when the SLO arc did not play out as required.
    """
    if rounds < 1:
        raise SystemExit("error: --rounds must be >= 1")
    from repro.serving import (
        EstimateStore,
        SnapshotPublisher,
        StalenessPolicy,
        default_watchdog,
    )
    from repro.speed.uncertainty import UncertaintyModel

    slo_check = slo_check or expect_page is not None
    slo = slo or slo_check
    config = _plan_config(plan_shards)
    platform = _crowd_platform(scenario)

    clock = ManualClock()
    interval_s = dataset.grid.interval_minutes * 60.0
    injector = None
    if infra_scenario is not None:
        from repro.faults import InfraInjector, get_infra_scenario

        try:
            infra = get_infra_scenario(infra_scenario, interval_s)
        except CrowdsourcingError as exc:
            raise SystemExit(f"error: {exc}")
        injector = InfraInjector(infra, clock)
    store = EstimateStore(
        history=dataset.store,
        network=dataset.network,
        clock=clock,
        staleness=StalenessPolicy(
            soft_after_s=1.5 * interval_s, hard_after_s=4.0 * interval_s
        ),
    )

    sweep = dataset.network.road_ids()[: max(1, readers)]
    reader_errors = 0
    unverified_served = 0
    status_totals: Counter = Counter()
    rows = []
    state_history: dict[str, list[str]] = {}
    recorder_ctx = (
        recording(FlightRecorder())
        if slo or metrics_out is not None
        else contextlib.nullcontext(None)
    )
    # Without --snapshot-dir the snapshots go to a directory removed on return.
    snapshots = (
        contextlib.nullcontext(snapshot_dir)
        if snapshot_dir
        else tempfile.TemporaryDirectory(prefix="repro-serve-")
    )
    with (
        _seeded_system(dataset, budget, hour, config) as (system, k, start),
        snapshots as directory,
    ):
        publisher = SnapshotPublisher(
            system,
            store,
            UncertaintyModel(system.estimator, dataset.store),
            watchdog=default_watchdog(interval_s, clock=clock),
            clock=clock,
            snapshot_dir=directory,
            injector=injector,
        )
        with recorder_ctx as recorder:
            engine = None
            if slo:
                engine = SLOEngine(
                    recorder.registry,
                    default_serving_slos(
                        interval_s, soft_after_s=1.5 * interval_s
                    ),
                    clock=clock,
                )
            for i in range(rounds):
                report = publisher.publish_round(
                    start + i, dataset.test, platform, crowd_seed=start + i
                )
                try:
                    served = store.get_many(sweep)
                    statuses = Counter(s.status for s in served.values())
                except Exception:  # the invariant --check guards
                    reader_errors += 1
                    statuses = Counter()
                snapshot = store.latest()
                if snapshot is not None and not snapshot.verify():
                    unverified_served += 1
                status_totals.update(statuses)
                row = [
                    i,
                    report.outcome,
                    "-" if report.version is None else report.version,
                    " ".join(f"{s}:{n}" for s, n in sorted(statuses.items()))
                    or "-",
                    (report.error or "")[:44],
                ]
                if engine is not None:
                    states = engine.tick()
                    for name, state in states.items():
                        state_history.setdefault(name, []).append(state)
                    alerting = [
                        f"{n}={s}" for n, s in states.items() if s != OK
                    ]
                    row.append(" ".join(alerting) or "ok")
                rows.append(row)
                clock.advance(interval_s)
            dumped = _dump_metrics(recorder, metrics_out)
            explanation = store.explain(explain) if explain is not None else None
    answered = sum(
        n for s, n in status_totals.items()
        if s in ("fresh", "stale", "baseline")
    )
    total_reads = sum(status_totals.values())
    availability = answered / total_reads if total_reads else 0.0
    headers = ["round", "outcome", "ver", "reader statuses", "error"]
    if engine is not None:
        headers.append("slo alerts")
    table = format_table(
        headers,
        rows,
        title=f"Serving loop: {rounds} rounds, K={k}, "
        f"scenario={infra_scenario or 'none'} ({dataset.name})",
    )
    lines = [
        table,
        "",
        f"Reader availability: {100 * availability:.1f}% "
        f"({answered}/{total_reads} reads answered)",
        f"Reader exceptions: {reader_errors}; "
        f"unverified snapshots served: {unverified_served}",
    ]
    slo_failures: list[str] = []
    if engine is not None:
        lines.append("")
        lines.append(
            format_table(
                ["slo", "final state", "pages", "warnings"],
                [
                    [
                        name,
                        history[-1],
                        history.count("page"),
                        history.count("warning"),
                    ]
                    for name, history in sorted(state_history.items())
                ],
                title="SLO arc over the run",
            )
        )
        expected = state_history.get(expect_page)
        if expect_page is not None and expected is None:
            slo_failures.append(
                f"unknown SLO {expect_page!r} (have: {sorted(state_history)})"
            )
        elif expected is not None:
            if PAGE not in expected:
                slo_failures.append(f"SLO {expect_page} never reached page")
            if expected[-1] != OK:
                slo_failures.append(
                    f"SLO {expect_page} did not return to ok "
                    f"(ended {expected[-1]})"
                )
        slo_failures.extend(
            f"SLO {name} ended {history[-1]}"
            for name, history in sorted(state_history.items())
            if slo_check and name != expect_page and history[-1] != OK
        )
    if explanation is not None:
        lines.append("")
        lines.append(_render_explanation(explanation))
    lines.extend(dumped)
    failed = check and (reader_errors > 0 or unverified_served > 0)
    if failed:
        lines.append("CHECK FAILED: serving invariant violated")
    elif check:
        lines.append("check ok: no reader exceptions, all snapshots verified")
    if slo_failures:
        lines.append("SLO CHECK FAILED: " + "; ".join(slo_failures))
    elif slo_check:
        lines.append("slo check ok: alert arc completed, all SLOs ended ok")
    return "\n".join(lines), 1 if (failed or slo_failures) else 0


def _render_explanation(explanation) -> str:
    """Plain-text rendering of one :class:`ReadExplanation`."""
    detail = explanation.to_dict()
    speed = detail["speed_kmh"]
    version = detail["snapshot_version"]
    lines = [
        f"Explain road {detail['road_id']}: {detail['status']}"
        + ("" if speed is None else f" {speed:.1f} km/h")
        + (
            " (no snapshot)" if version is None else
            f" (snapshot v{version}, age {detail['snapshot_age_s']:.0f}s)"
        ),
        format_table(
            ["rung", "taken", "reason"],
            [
                [entry["rung"], "yes" if entry["taken"] else "-",
                 entry["reason"]]
                for entry in detail["chain"]
            ],
        ),
    ]
    provenance = detail["provenance"]
    if provenance is None:
        lines.append("Produced by: (snapshot carries no provenance)")
        return "\n".join(lines)
    deadline = provenance["deadline_s"]
    lines.append(
        f"Produced by round {provenance['round_index']} "
        f"(seed budget {provenance['seed_budget']}, "
        f"degraded={provenance['degraded']}, "
        f"substituted={provenance['substituted']}, "
        f"elapsed {provenance['elapsed_s']:.2f}s"
        + (")" if deadline is None else f" of {deadline:.0f}s deadline)")
    )
    for stage in provenance["stages"]:
        lines.append(
            f"  stage {stage['stage']}: "
            f"{1000.0 * stage['seconds']:.2f} ms, "
            f"{stage['attempts']} attempt(s), "
            f"{'ok' if stage['ok'] else 'FAILED'}"
        )
    return "\n".join(lines)


def cmd_stream(
    dataset: TrafficDataset,
    days: int,
    window: int,
    budget: int | None,
    serve_rounds: int,
    sim_seed: int,
    check: bool,
    metrics_out: str | None,
) -> tuple[str, int]:
    """Drive the incremental streaming loop for ``days`` simulated days.

    Warms a rolling window, binds the estimation system to it, then
    ingests one fresh day at a time: each ingest re-mines the co-trend
    statistics incrementally, flows the resulting edge delta through
    the cache stack (dropping only provably affected fidelity rows and
    plans) and serves estimation rounds from the live system. With
    ``--check`` the exit code is non-zero if any wholesale cache
    invalidation happened or the incremental graph ever diverged from a
    batch re-mine of the same window.
    """
    if days < 1:
        raise SystemExit("error: --days must be >= 1")
    if window < 1:
        raise SystemExit("error: --window must be >= 1")
    if serve_rounds < 0:
        raise SystemExit("error: --serve-rounds must be >= 0")
    from repro.core.field import SpeedField
    from repro.history.online import RollingHistory

    total_days = window + days
    field, _ = dataset.simulator.simulate(0, total_days, seed=sim_seed)
    per_day = dataset.grid.intervals_per_day
    day_fields = [
        SpeedField(
            field.matrix[d * per_day : (d + 1) * per_day],
            field.road_ids,
            d * per_day,
        )
        for d in range(total_days)
    ]

    lines = [
        f"Streaming {days} days through a {window}-day rolling window "
        f"on {dataset.name} ({dataset.network.num_segments} roads)"
    ]
    mismatches: list[str] = []
    rows = []
    with recording() as rec:
        rolling = RollingHistory(
            dataset.network, dataset.grid, window_days=window,
            remine_every_days=1,
        )
        for day in day_fields[:window]:
            rolling.ingest_day(day)
        k = _default_budget(dataset, budget)

        def counter(name, **labels):
            return rec.registry.counter(name, **labels).value

        def shard_compiles():
            return sum(
                series.value
                for _, series in rec.registry.series("plan.shard_compiles")
            )

        with SpeedEstimationSystem.from_parts(
            dataset.network, rolling.store, rolling.graph
        ).bind_rolling(rolling) as system:
            system.reselect_seeds(k)
            for day_index in range(window, total_days):
                day = day_fields[day_index]
                dropped_before = counter("fidelity.invalidations", scope="rows")
                evicted_before = counter("plan.shards_evicted")
                compiles_before = shard_compiles()
                rolling.ingest_day(day)
                try:
                    rolling.verify_incremental()
                except DataError as exc:
                    mismatches.append(f"day {day_index}: {exc}")
                delta = rolling.last_delta
                seeds = system.reselect_seeds(k)
                errors: list[float] = []
                for r in range(serve_rounds):
                    offset = (r + 1) * per_day // (serve_rounds + 1)
                    interval = day.intervals.start + offset
                    crowd = {road: day.speed(road, interval) for road in seeds}
                    estimates = system.estimate(interval, crowd)
                    truth = day.speeds_at(interval)
                    errors.extend(
                        abs(est.speed_kmh - truth[road])
                        for road, est in estimates.items()
                        if road not in crowd
                    )
                rows.append([
                    day_index,
                    "-" if delta is None else (
                        f"+{len(delta.added)}/-{len(delta.removed)}"
                        f"/~{len(delta.reweighted)}"
                    ),
                    int(counter("fidelity.invalidations", scope="rows")
                        - dropped_before),
                    int(counter("plan.shards_evicted") - evicted_before),
                    int(shard_compiles() - compiles_before),
                    fmt(sum(errors) / len(errors)) if errors else "-",
                ])

        wholesale = counter("fidelity.invalidations", scope="graph")
        flushes = counter("plan.cache_flushes")
        hits = counter("plan.cache", hit="true")
        misses = counter("plan.cache", hit="false")
        dumped = _dump_metrics(rec, metrics_out)

    lines.append(
        format_table(
            ["day", "delta(+/-/~)", "rows dropped", "shards evicted",
             "shard compiles", "mae km/h"],
            rows,
            title="Per-day streaming telemetry",
        )
    )
    total = hits + misses
    lines.append(
        f"Re-mines: {rolling.mining_epoch}  wholesale invalidations: "
        f"{int(wholesale)}  plan flushes: {int(flushes)}  plan cache hit "
        f"rate: {100.0 * hits / total if total else 0.0:.1f}%"
    )
    lines.extend(dumped)
    failures = list(mismatches)
    if wholesale > 0:
        failures.append(f"{int(wholesale)} wholesale fidelity invalidation(s)")
    if flushes > 0:
        failures.append(f"{int(flushes)} plan cache flush(es)")
    if check:
        if failures:
            lines.append("STREAM CHECK FAILED: " + "; ".join(failures))
        else:
            lines.append(
                "stream check ok: incremental mining matched batch on every "
                "window, no wholesale cache invalidations"
            )
    return "\n".join(lines), 1 if (check and failures) else 0


def _read_log(render: Callable[[str], str], path: str) -> tuple[str, int]:
    """Run a log-file command; a missing or malformed file exits."""
    try:
        return render(path), 0
    except DataError as exc:
        raise SystemExit(f"error: {exc}")


def cmd_obs_report(_dataset: None, recording: str) -> tuple[str, int]:
    return _read_log(report_file, recording)


def cmd_obs_verify(_dataset: None, recording: str) -> tuple[str, int]:
    return _read_log(lambda path: "ok: " + verify_recording(path), recording)


def cmd_obs_top(_dataset: None, source: str) -> tuple[str, int]:
    return _read_log(dashboard_file, source)


def main(argv: Sequence[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    for parsed_only in ("command", "obs_command"):
        args.pop(parsed_only, None)
    run = args.pop("run")
    city = args.pop("city")
    # The shared --budget/--hour/--workers checks run before any
    # dataset build.
    if args.get("budget") is not None and args["budget"] < 1:
        raise SystemExit("error: --budget must be >= 1")
    if "hour" in args and not 0.0 <= args["hour"] < 24.0:
        raise SystemExit("error: --hour must be in [0, 24)")
    if args.get("workers", 1) < 1:
        raise SystemExit("error: --workers must be >= 1")
    dataset = CITIES[city]() if args.pop("needs_dataset", True) else None
    output, code = run(dataset, **args)
    print(output)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
