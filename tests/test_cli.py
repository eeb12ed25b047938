"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_info_defaults(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"
        assert args.city == "beijing"

    def test_city_choice(self):
        args = build_parser().parse_args(["--city", "tianjin", "info"])
        assert args.city == "tianjin"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--city", "atlantis", "info"])

    def test_select_options(self):
        args = build_parser().parse_args(
            ["select", "--budget", "9", "--method", "random"]
        )
        assert args.budget == 9
        assert args.method == "random"

    def test_route_requires_endpoints(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "--from", "0"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_obs_record_options(self):
        args = build_parser().parse_args(
            ["obs", "record", "--out", "run.jsonl", "--rounds", "3"]
        )
        assert args.obs_command == "record"
        assert args.out == "run.jsonl"
        assert args.rounds == 3

    def test_obs_record_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "record"])

    def test_obs_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_serve_slo_options(self):
        args = build_parser().parse_args(
            [
                "serve", "--slo-check",
                "--expect-page", "read-availability",
                "--explain", "3", "--metrics-out", "m.json",
            ]
        )
        assert args.command == "serve"
        assert args.slo_check is True
        assert args.expect_page == "read-availability"
        assert args.explain == 3
        assert args.metrics_out == "m.json"

    def test_serve_slo_defaults_off(self):
        args = build_parser().parse_args(["serve"])
        assert args.slo is False
        assert args.slo_check is False
        assert args.expect_page is None
        assert args.explain is None
        assert args.metrics_out is None

    def test_sharded_plan_options(self):
        args = build_parser().parse_args(
            ["estimate", "--plan-shards", "4", "--plan-workers", "1"]
        )
        assert args.plan_shards == 4
        assert args.plan_workers == 1
        serve = build_parser().parse_args(["serve", "--plan-shards", "4"])
        assert serve.plan_shards == 4
        assert serve.plan_workers == 1
        assert build_parser().parse_args(["serve"]).plan_shards == 1
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--sharded-plan"])

    def test_obs_top_source(self):
        args = build_parser().parse_args(["obs", "top", "metrics.json"])
        assert args.obs_command == "top"
        assert args.source == "metrics.json"

    def test_obs_top_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "top"])


class TestCommands:
    """End-to-end command runs on the (cached) tianjin dataset."""

    def test_info(self, capsys):
        assert main(["--city", "tianjin", "info"]) == 0
        out = capsys.readouterr().out
        assert "synthetic-tianjin" in out
        assert "roads" in out

    def test_select(self, capsys):
        assert main(
            ["--city", "tianjin", "select", "--budget", "5", "--method", "lazy"]
        ) == 0
        out = capsys.readouterr().out
        assert "Selected 5 seeds with lazy-greedy" in out
        assert "marginal gain" in out

    def test_estimate(self, capsys):
        assert main(
            ["--city", "tianjin", "estimate", "--budget", "8", "--show", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "MAE" in out
        assert "historical-average" in out

    def test_route(self, capsys):
        assert main(
            [
                "--city", "tianjin", "route",
                "--from", "0", "--to", "30", "--budget", "8",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Planned ETA" in out
        assert "ETA error" in out

    def test_estimate_sharded_plan(self, capsys):
        assert main(
            [
                "--city", "tianjin", "estimate", "--budget", "8",
                "--show", "4", "--plan-shards", "4", "--plan-workers", "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "MAE" in out

    def test_plan_workers_require_plan_shards(self):
        with pytest.raises(SystemExit, match="plan-shards"):
            main(
                ["--city", "tianjin", "estimate", "--plan-workers", "2"]
            )
        with pytest.raises(SystemExit, match="plan-shards"):
            main(["--city", "tianjin", "serve", "--plan-shards", "0"])

    def test_bad_budget(self):
        with pytest.raises(SystemExit, match="budget"):
            main(["--city", "tianjin", "select", "--budget", "0"])

    def test_bad_hour(self, tmp_path):
        log = tmp_path / "run.jsonl"
        for argv in (
            ["estimate", "--hour", "25"],
            ["route", "--from", "0", "--to", "30", "--hour", "25"],
            ["route", "--from", "0", "--to", "30", "--hour", "-3"],
            ["serve", "--hour", "24"],
            ["obs", "record", "--out", str(log), "--hour", "-1"],
        ):
            with pytest.raises(SystemExit, match=r"--hour must be in \[0, 24\)"):
                main(["--city", "tianjin", *argv])
        assert not log.exists(), "a rejected hour must not open the log"

    def test_select_rounds(self, capsys):
        assert main(
            ["--city", "tianjin", "select", "--budget", "5", "--rounds", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "round 2:" in out
        assert "Selected 5 seeds" in out

    def test_select_parallel(self, capsys):
        outputs = []
        for workers in ("1", "2"):
            assert main(
                [
                    "--city", "tianjin", "select", "--budget", "5",
                    "--method", "partition", "--workers", workers,
                    "--partitions", "4",
                ]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert "Selected 5 seeds with partition-greedy" in outputs[0]
        # The worker count moves the tasks, never the seeds.
        assert outputs[0] == outputs[1]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["select", "--parallel"])
        with pytest.raises(SystemExit, match="--workers must be >= 1"):
            main(["--city", "tianjin", "select", "--workers", "0"])

    def test_stream_check(self, capsys):
        assert main(
            [
                "--city", "tianjin", "stream", "--days", "2", "--window", "2",
                "--budget", "5", "--check",
            ]
        ) == 0
        assert "stream check ok" in capsys.readouterr().out

    def test_unroutable(self):
        with pytest.raises(SystemExit, match="no route"):
            main(
                [
                    "--city", "tianjin", "route",
                    "--from", "0", "--to", "999999", "--budget", "5",
                ]
            )


class TestObsCommands:
    """Record → report → verify round trip through the CLI."""

    def test_record_report_verify(self, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        metrics = tmp_path / "metrics.prom"
        assert main(
            [
                "--city", "tianjin", "obs", "record",
                "--out", str(out), "--rounds", "2", "--budget", "5",
                "--metrics-out", str(metrics),
            ]
        ) == 0
        recorded = capsys.readouterr().out
        assert "Recorded 2 rounds" in recorded
        assert out.exists()
        assert "# TYPE" in metrics.read_text()

        assert main(["obs", "report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "crowd ms" in report and "trend ms" in report
        assert "2 rounds" in report

        assert main(["obs", "verify", str(out)]) == 0
        assert "round" in capsys.readouterr().out

    def test_report_of_two_appended_runs(self, tmp_path, capsys):
        from repro.obs.report import load_events, summarize_rounds

        out = tmp_path / "twice.jsonl"
        record = [
            "--city", "tianjin", "obs", "record",
            "--out", str(out), "--rounds", "2", "--budget", "5",
        ]
        assert main(record) == 0
        once = [row["tasks_answered"] for row in summarize_rounds(load_events(out))]
        assert main(record) == 0
        capsys.readouterr()
        # The second run's counters restart at its meta event.
        twice = [row["tasks_answered"] for row in summarize_rounds(load_events(out))]
        assert len(once) == 2 and min(once) > 0
        assert twice == once + once
        assert main(["obs", "report", str(out)]) == 0
        report = capsys.readouterr().out
        assert f"totals: {int(2 * sum(once))} answered" in report

    def test_record_with_fault_scenario(self, tmp_path, capsys):
        out = tmp_path / "faulty.jsonl"
        assert main(
            [
                "--city", "tianjin", "obs", "record",
                "--out", str(out), "--rounds", "2", "--budget", "5",
                "--scenario", "spam-burst",
            ]
        ) == 0
        assert "Recorded 2 rounds" in capsys.readouterr().out
        assert main(["obs", "verify", str(out)]) == 0

    def test_report_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["obs", "report", str(tmp_path / "missing.jsonl")])

    def test_verify_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(SystemExit, match="malformed"):
            main(["obs", "verify", str(bad)])


class TestServeSLOCommands:
    """Serve with the SLO engine on, then feed the metrics to obs top."""

    def test_serve_with_slo_explain_and_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert main(
            [
                "--city", "tianjin", "serve",
                "--rounds", "3", "--budget", "5", "--slo",
                "--explain", "0", "--metrics-out", str(metrics),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "SLO arc over the run" in out
        assert "Explain road 0: fresh" in out
        assert "Produced by round" in out
        assert metrics.exists()

        # The metrics dump drives the live ops dashboard directly.
        assert main(["obs", "top", str(metrics)]) == 0
        top = capsys.readouterr().out
        assert "SLO status" in top
        assert "Read ladder" in top
        assert "read-availability" in top

    def test_serve_expect_page_fails_without_outage(self, tmp_path, capsys):
        assert main(
            [
                "--city", "tianjin", "serve",
                "--rounds", "3", "--budget", "5",
                "--expect-page", "read-availability",
            ]
        ) == 1
        out = capsys.readouterr().out
        assert "SLO CHECK FAILED" in out
        assert "never reached page" in out

    def test_serve_slo_check_healthy_run_passes(self, capsys):
        assert main(
            [
                "--city", "tianjin", "serve",
                "--rounds", "3", "--budget", "5", "--slo-check",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "slo check ok" in out

    def test_serve_sharded_plan_leaves_no_shared_memory(self, capsys):
        from tests.test_plan_sharded import _shm_segments

        before = _shm_segments()
        assert main(
            [
                "--city", "tianjin", "serve", "--rounds", "2", "--budget", "5",
                "--plan-shards", "4", "--plan-workers", "2",
            ]
        ) == 0
        assert "Serving loop: 2 rounds" in capsys.readouterr().out
        assert not (_shm_segments() - before), "a shared-memory segment survived"

    def test_serve_removes_its_default_snapshot_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(
            ["--city", "tianjin", "serve", "--rounds", "2", "--budget", "5"]
        ) == 0
        assert "Serving loop: 2 rounds" in capsys.readouterr().out
        assert not list(tmp_path.glob("repro-serve-*"))

    def test_serve_keeps_a_given_snapshot_dir(self, tmp_path, capsys):
        snapshots = tmp_path / "snapshots"
        assert main(
            [
                "--city", "tianjin", "serve", "--rounds", "2", "--budget", "5",
                "--snapshot-dir", str(snapshots),
            ]
        ) == 0
        capsys.readouterr()
        assert len(list(snapshots.glob("snapshot-v*"))) == 2

    def test_unknown_infra_scenario(self):
        with pytest.raises(SystemExit, match="unknown infrastructure scenario"):
            main(["--city", "tianjin", "serve", "--infra-scenario", "nope"])

    @pytest.mark.parametrize(
        "command",
        [["serve"], ["obs", "record", "--out", "never-written.jsonl"]],
        ids=["serve", "obs-record"],
    )
    def test_unknown_fault_scenario_reported_once(
        self, command, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["--city", "tianjin", *command, "--scenario", "nope"])
        message = str(excinfo.value)
        assert message.startswith("error: unknown fault scenario 'nope'")
        assert message.count("unknown fault scenario") == 1

    def test_obs_top_missing_file(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["obs", "top", str(tmp_path / "missing.json")])


class TestEstimateMap:
    def test_map_flag(self, capsys):
        from repro.cli import main

        assert main(
            ["--city", "tianjin", "estimate", "--budget", "8", "--map"]
        ) == 0
        out = capsys.readouterr().out
        assert "Estimated congestion" in out
