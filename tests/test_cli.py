"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "doom"])

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["allocate", "--mix", "WD1", "--mechanism", "magic"])


class TestProfile:
    def test_prints_json(self, capsys):
        code, out = run_cli(capsys, "profile", "radiosity")
        assert code == 0
        payload = json.loads(out)
        assert payload["workload_name"] == "radiosity"
        assert len(payload["ipc"]) == 25

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        code, out = run_cli(capsys, "profile", "radiosity", "-o", str(path))
        assert code == 0
        assert "wrote 25-point profile" in out
        assert json.loads(path.read_text())["workload_name"] == "radiosity"


class TestFit:
    def test_fit_by_name(self, capsys):
        code, out = run_cli(capsys, "fit", "--workload", "canneal")
        assert code == 0
        assert "R^2" in out and "a_mem" in out

    def test_fit_json(self, capsys):
        code, out = run_cli(capsys, "fit", "--workload", "canneal", "--json")
        payload = json.loads(out)
        assert payload["workload"] == "canneal"
        assert 0 <= payload["r_squared"] <= 1

    def test_fit_from_profile_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        run_cli(capsys, "profile", "dedup", "-o", str(path))
        code, out = run_cli(capsys, "fit", "--profile", str(path), "--json")
        assert code == 0
        assert json.loads(out)["workload"] == "dedup"


class TestClassify:
    def test_table_lists_all_benchmarks(self, capsys):
        code, out = run_cli(capsys, "classify")
        assert code == 0
        assert out.count("\n") >= 28

    def test_json_groups(self, capsys):
        code, out = run_cli(capsys, "classify", "--json")
        payload = json.loads(out)
        assert payload["dedup"]["group"] == "M"
        assert payload["raytrace"]["group"] == "C"


class TestAllocate:
    def test_mix_ref(self, capsys):
        code, out = run_cli(capsys, "allocate", "--mix", "WD1")
        assert code == 0
        assert "sharing incentives : PASS" in out

    def test_adhoc_workloads_json(self, capsys):
        code, out = run_cli(
            capsys, "allocate", "--workloads", "barnes,canneal", "--json"
        )
        payload = json.loads(out)
        assert payload["mechanism"] == "ref"
        assert payload["sharing_incentives"] is True
        assert set(payload["allocation"]) == {"barnes", "canneal"}

    def test_custom_capacities(self, capsys):
        code, out = run_cli(
            capsys,
            "allocate",
            "--workloads",
            "barnes,canneal",
            "--capacities",
            "24,12288",
            "--json",
        )
        payload = json.loads(out)
        assert payload["capacities"]["membw_gbps"] == 24.0

    def test_drf_mechanism(self, capsys):
        code, out = run_cli(
            capsys, "allocate", "--workloads", "barnes,canneal", "--mechanism", "drf"
        )
        assert code == 0

    def test_unknown_adhoc_benchmark(self, capsys):
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["allocate", "--workloads", "barnes,doom"])

    def test_bad_capacities_format(self, capsys):
        with pytest.raises(SystemExit, match="capacities"):
            main(["allocate", "--mix", "WD1", "--capacities", "24"])


class TestFitSuiteWorkflow:
    def test_fit_suite_then_allocate(self, capsys, tmp_path):
        path = tmp_path / "suite.json"
        code, out = run_cli(capsys, "fit-suite", str(path))
        assert code == 0 and "wrote 28 fits" in out
        code, out = run_cli(
            capsys, "allocate", "--mix", "WD1", "--fits", str(path), "--json"
        )
        assert code == 0
        assert json.loads(out)["sharing_incentives"] is True

    def test_allocate_missing_fits_entries(self, capsys, tmp_path):
        import repro.io as io

        path = tmp_path / "partial.json"
        io.save_json({}, path)
        with pytest.raises(SystemExit, match="lacks entries"):
            main(["allocate", "--mix", "WD1", "--fits", str(path)])


class TestEvaluateAndSpl:
    def test_evaluate_lists_four_mechanisms(self, capsys):
        code, out = run_cli(capsys, "evaluate", "WD1")
        assert code == 0
        assert out.count("throughput") == 4

    def test_spl_reports_gains(self, capsys):
        code, out = run_cli(capsys, "spl", "--agents", "32", "--strategic", "2")
        assert code == 0
        assert "worst manipulation gain" in out


class TestCosim:
    def test_partitioned_wfq(self, capsys):
        code, out = run_cli(capsys, "cosim", "WD2", "--instructions", "30000")
        assert code == 0
        assert "unfairness index" in out
        assert "slowdown" in out

    def test_shared_cache_mode(self, capsys):
        code, out = run_cli(
            capsys,
            "cosim",
            "WD2",
            "--cache-mode",
            "shared",
            "--policy",
            "fcfs",
            "--instructions",
            "30000",
        )
        assert code == 0
        assert "cache=shared" in out

    def test_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["cosim", "WD2", "--policy", "magic"])


class TestReproduce:
    def test_list_enumerates_artifacts(self, capsys):
        code, out = run_cli(capsys, "reproduce", "list")
        assert code == 0
        assert "fig13" in out and "table2" in out

    def test_bare_reproduce_lists(self, capsys):
        code, out = run_cli(capsys, "reproduce")
        assert code == 0
        assert "available experiments" in out

    def test_runs_one_artifact(self, capsys):
        code, out = run_cli(capsys, "reproduce", "table1")
        assert code == 0
        assert "Table 1: platform parameters" in out

    def test_unknown_artifact(self, capsys):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["reproduce", "fig99"])

    def test_runs_multiple_artifacts(self, capsys):
        code, out = run_cli(capsys, "reproduce", "table1", "fig8a")
        assert code == 0
        assert "Table 1: platform parameters" in out
        assert "Fig. 8a" in out


class TestPipelineFlags:
    def test_parallel_profile_matches_serial(self, capsys):
        _, serial = run_cli(capsys, "profile", "ferret")
        _, parallel = run_cli(capsys, "profile", "ferret", "--jobs", "2")
        assert json.loads(serial) == json.loads(parallel)

    def test_profile_cache_roundtrip(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _, cold = run_cli(capsys, "profile", "ferret", "--cache-dir", cache_dir)
        assert list((tmp_path / "cache").glob("*/*.json"))  # entry written
        _, warm = run_cli(capsys, "profile", "ferret", "--cache-dir", cache_dir)
        assert json.loads(cold) == json.loads(warm)

    def test_no_cache_wins_over_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        code, _ = run_cli(capsys, "profile", "ferret", "--no-cache")
        assert code == 0
        assert not (tmp_path / "env-cache").exists()

    def test_env_cache_dir_respected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        code, _ = run_cli(capsys, "profile", "ferret")
        assert code == 0
        assert list((tmp_path / "env-cache").glob("*/*.json"))

    def test_reproduce_parallel_output_identical(self, capsys):
        _, serial = run_cli(capsys, "reproduce", "fig8a")
        _, parallel = run_cli(capsys, "reproduce", "fig8a", "--jobs", "2")
        assert serial == parallel

    def test_reproduce_warm_cache_skips_simulation(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        main(["reproduce", "fig8a", "--jobs", "2", "--cache-dir", cache_dir])
        cold_stats = capsys.readouterr().err
        assert "simulated_points=700" in cold_stats  # 28 workloads x 25 points
        code = main(["reproduce", "fig8a", "--jobs", "2", "--cache-dir", cache_dir])
        warm_stats = capsys.readouterr().err
        assert code == 0
        assert "simulated_points=0" in warm_stats
        assert "disk_hits=28" in warm_stats


class TestDynamic:
    def test_clean_run_summary(self, capsys):
        code, out = run_cli(
            capsys, "dynamic", "--epochs", "5", "--workloads", "freqmine,dedup"
        )
        assert code == 0
        assert "epochs run:        5" in out
        assert "final enforced allocation" in out
        assert "dynamic-service: epochs=5 feasible=True" in out

    def test_fault_injection_and_churn(self, capsys):
        code, out = run_cli(
            capsys,
            "dynamic",
            "--epochs", "30",
            "--fault-drop", "0.05",
            "--fault-non-positive", "0.03",
            "--fault-outlier", "0.02",
            "--churn", "10:add:late=canneal",
            "--churn", "20:remove:late",
            "--events", "3",
            "--seed", "3",
        )
        assert code == 0
        assert "agent_added" in out
        assert "agent_removed" in out
        assert "feasible=True" in out
        assert "last 3 events:" in out

    def test_json_output(self, capsys):
        code, out = run_cli(
            capsys, "dynamic", "--epochs", "4", "--json", "--fault-drop", "0.1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["epochs"] == 4
        assert payload["feasible"] is True
        assert set(payload["final_allocation"]) == {"freqmine", "dedup"}

    def test_duplicate_workloads_get_suffixes(self, capsys):
        code, out = run_cli(
            capsys, "dynamic", "--epochs", "2", "--workloads", "dedup,dedup", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["agents"]) == {"dedup", "dedup_2"}

    def test_bad_churn_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["dynamic", "--churn", "nonsense"])

    def test_unknown_benchmark_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["dynamic", "--workloads", "doom"])


class TestMetricsExport:
    def _load_registry(self, path):
        from repro.obs import MetricsRegistry

        with open(path) as handle:
            return MetricsRegistry.from_dict(json.load(handle))

    def test_dynamic_metrics_out_covers_every_epoch(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        code, out = run_cli(
            capsys,
            "dynamic", "--epochs", "8", "--metrics-out", str(path),
        )
        assert code == 0
        registry = self._load_registry(path)
        assert registry.get("repro_dynamic_epoch_latency_seconds").count == 8
        assert registry.get("repro_dynamic_epochs_total").value == 8
        with open(path) as handle:
            payload = json.load(handle)
        assert len(payload["spans"]) == 8

    def test_dynamic_metrics_counters_match_json_counters(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        code, out = run_cli(
            capsys,
            "dynamic",
            "--epochs", "20",
            "--fault-drop", "0.1",
            "--seed", "3",
            "--json",
            "--metrics-out", str(path),
        )
        assert code == 0
        reported = json.loads(out)["counters"]
        registry = self._load_registry(path)
        mirrored = {}
        for family in registry.families():
            if family.name == "repro_dynamic_events_total":
                for key, child in family.children.items():
                    mirrored[dict(key)["kind"]] = int(child.value)
        assert mirrored == reported

    def test_profile_metrics_out(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        code, out = run_cli(
            capsys,
            "profile", "ferret", "--no-cache", "--metrics-out", str(path),
        )
        assert code == 0
        registry = self._load_registry(path)
        assert registry.get("repro_profiler_simulated_points_total").value >= 25


class TestMetricsCommand:
    def test_renders_file_as_table(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        run_cli(capsys, "dynamic", "--epochs", "3", "--metrics-out", str(path))
        code, out = run_cli(capsys, "metrics", str(path))
        assert code == 0
        assert "repro_dynamic_epoch_latency_seconds" in out
        assert "count=3" in out

    def test_prometheus_output_is_scrapeable(self, capsys, tmp_path):
        from repro.obs import parse_prometheus_text

        path = tmp_path / "metrics.json"
        run_cli(capsys, "dynamic", "--epochs", "3", "--metrics-out", str(path))
        code, out = run_cli(capsys, "metrics", str(path), "--format", "prometheus")
        assert code == 0
        samples = parse_prometheus_text(out)
        count = [
            s for s in samples if s["name"] == "repro_dynamic_epoch_latency_seconds_count"
        ]
        assert count and count[0]["value"] == 3

    def test_json_round_trips(self, capsys, tmp_path):
        from repro.obs import MetricsRegistry

        path = tmp_path / "metrics.json"
        run_cli(capsys, "dynamic", "--epochs", "2", "--metrics-out", str(path))
        code, out = run_cli(capsys, "metrics", str(path), "--format", "json")
        assert code == 0
        rebuilt = MetricsRegistry.from_dict(json.loads(out))
        assert rebuilt.get("repro_dynamic_epochs_total").value == 2

    def test_no_file_emits_build_info(self, capsys):
        code, out = run_cli(capsys, "metrics", "--format", "prometheus")
        assert code == 0
        assert "repro_build_info" in out


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.epoch_ms == 50.0
        assert args.max_batch == 64
        assert args.workloads == "freqmine,dedup"

    def test_overrides(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--epoch-ms", "20",
                "--max-batch", "8",
                "--workloads", "canneal,x264",
                "--capacities", "24,12288",
                "--metrics-out", "m.json",
            ]
        )
        assert args.port == 0
        assert args.epoch_ms == 20.0
        assert args.max_batch == 8
        assert args.capacities == "24,12288"
        assert args.metrics_out == "m.json"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit, match="unknown benchmark"):
            main(["serve", "--workloads", "doom"])

    def test_bad_capacities_rejected(self):
        with pytest.raises(SystemExit, match="capacities"):
            main(["serve", "--capacities", "24"])

    @pytest.mark.parametrize(
        "command",
        [["serve"], ["dynamic"], ["allocate", "--mix", "WD1"]],
        ids=["serve", "dynamic", "allocate"],
    )
    @pytest.mark.parametrize(
        "value", ["inf,1024", "nan,1024", "-1,1024", "0,1024", "abc,1024", "6.4,1024,5"]
    )
    def test_unservable_capacities_exit_with_one_line(self, command, value):
        # A capacity the allocator cannot serve is a usage error before
        # anything starts, not a traceback from the first epoch.
        with pytest.raises(SystemExit) as excinfo:
            main([*command, f"--capacities={value}"])
        message = str(excinfo.value.code)
        assert "--capacities expects" in message and value in message
        assert "\n" not in message

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["dynamic", "--decay", "0"], "decay"),
            (["dynamic", "--decay", "1.5"], "decay"),
            (["dynamic", "--exploration", "0"], "exploration_samples"),
            (["dynamic", "--fault-drop", "2"], "drop"),
            (["dynamic", "--epochs", "0"], "--epochs"),
            (["serve", "--decay", "0"], "decay"),
            (["serve", "--cells", "2", "--grant-ms", "0"], "grant_ms"),
            (["serve", "--cells", "2", "--grant-ms", "-5"], "grant_ms"),
        ],
    )
    def test_unservable_settings_exit_with_one_line(self, argv, reason):
        # A setting the service refuses to be built with is a usage
        # error before anything starts, not a ValueError traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = excinfo.value.code
        assert isinstance(message, str) and reason in message
        assert "\n" not in message


class TestLazyImports:
    """The cold-start contract: parser construction stays numpy/scipy-free."""

    def test_build_parser_imports_no_heavy_modules(self):
        import subprocess
        import sys

        probe = (
            "import sys; import repro.cli; repro.cli.build_parser(); "
            "heavy = [m for m in ('numpy', 'scipy') if m in sys.modules]; "
            "sys.exit(repr(heavy) if heavy else 0)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_bare_package_import_is_lazy(self):
        import subprocess
        import sys

        probe = (
            "import sys; import repro; "
            "sys.exit('numpy leaked' if 'numpy' in sys.modules else 0)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_help_exits_zero_in_subprocess(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert "reproduction" in result.stdout

    def test_lazy_choices_render_in_subcommand_help(self):
        # Rendering a subcommand's help resolves the lazy containers.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["profile", "--help"])
        assert excinfo.value.code == 0


class TestMechanismFlag:
    def test_dynamic_defaults_to_ref(self):
        args = build_parser().parse_args(["dynamic"])
        assert args.mechanism == "ref"

    def test_dynamic_rejects_unknown_mechanism(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dynamic", "--mechanism", "magic"])

    def test_dynamic_rejects_drf(self):
        # drf is an allocate-only mechanism; the controller can't run it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dynamic", "--mechanism", "drf"])

    def test_serve_accepts_controller_mechanisms(self):
        args = build_parser().parse_args(["serve", "--mechanism", "max-welfare-fair"])
        assert args.mechanism == "max-welfare-fair"

    def test_dynamic_and_serve_accept_credit(self):
        assert (
            build_parser().parse_args(["dynamic", "--mechanism", "credit"]).mechanism
            == "credit"
        )
        assert (
            build_parser().parse_args(["serve", "--mechanism", "credit"]).mechanism
            == "credit"
        )

    def test_allocate_rejects_credit(self):
        # credit needs epoch history; a one-shot solve is just REF.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["allocate", "--mix", "WD1", "--mechanism", "credit"]
            )

    def test_sharded_serve_rejects_non_hierarchical_mechanism(self):
        with pytest.raises(SystemExit, match="hierarchical"):
            main(
                [
                    "serve",
                    "--cells",
                    "2",
                    "--mechanism",
                    "max-welfare-fair",
                    "--agents",
                    "a=freqmine,b=dedup",
                ]
            )

    def test_dynamic_runs_credit_feasibly(self, capsys):
        code = main(
            ["dynamic", "--epochs", "3", "--mechanism", "credit", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_dynamic_runs_with_explicit_mechanism(self, capsys):
        code = main(
            ["dynamic", "--epochs", "2", "--mechanism", "ref", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["feasible"] is True


class TestLearningFlags:
    def test_dynamic_and_serve_accept_learning_flags(self):
        for command in ("dynamic", "serve"):
            args = build_parser().parse_args(
                [command, "--learn-demands", "--prior", "centroid"]
            )
            assert args.learn_demands is True
            assert args.prior == "centroid"

    def test_learning_defaults_off(self):
        for command in ("dynamic", "serve"):
            args = build_parser().parse_args([command])
            assert args.learn_demands is False
            assert args.prior == "equal"

    def test_unknown_prior_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dynamic", "--prior", "oracle"])

    def test_static_prior_names_match_learning_package(self):
        from repro.cli import CLI_PRIOR_NAMES
        from repro.learning import PRIOR_NAMES

        assert CLI_PRIOR_NAMES == PRIOR_NAMES

    def test_dynamic_learning_run_summary(self, capsys):
        code, out = run_cli(
            capsys,
            "dynamic",
            "--epochs", "5",
            "--learn-demands",
            "--prior", "centroid",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert payload["learn_demands"] is True
