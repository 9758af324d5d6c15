"""The verdict rules and the driver of ``benchmarks/perf_ab.py`` (no benchmark is run)."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "perf_ab.py"
_SPEC = importlib.util.spec_from_file_location("perf_ab", _PATH)
perf_ab = sys.modules.setdefault("perf_ab", importlib.util.module_from_spec(_SPEC))
_SPEC.loader.exec_module(perf_ab)

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


class TestClaimVerdict:
    def test_clear_gain_holds(self):
        change = [b * 0.7 for b in BASE]
        holds, detail = perf_ab.claim_verdict(BASE, change, "lower")
        assert holds
        assert "better in 10/10" in detail

    def test_nine_of_ten_is_enough(self):
        change = [b * 0.7 for b in BASE]
        change[3] = BASE[3] * 1.01
        assert perf_ab.claim_verdict(BASE, change, "lower")[0]

    def test_eight_of_ten_is_not(self):
        change = [b * 0.7 for b in BASE]
        change[3] = BASE[3] * 1.01
        change[5] = BASE[5] * 1.01
        holds, detail = perf_ab.claim_verdict(BASE, change, "lower")
        assert not holds
        assert "better in 8/10 pairs (need 9)" in detail

    def test_gain_inside_the_base_spread_does_not_hold(self):
        # Better in every pair, but by less than the base's q1-q3 spread.
        change = [b - 0.005 for b in BASE]
        assert not perf_ab.claim_verdict(BASE, change, "lower")[0]

    def test_higher_is_better_metrics_flip(self):
        change = [b * 1.3 for b in BASE]
        assert perf_ab.claim_verdict(BASE, change, "higher")[0]
        assert not perf_ab.claim_verdict(BASE, change, "lower")[0]


class TestBoundVerdict:
    def test_small_worsening_is_within_bound(self):
        change = [b * 1.1 for b in BASE]
        assert perf_ab.bound_verdict(BASE, change, "lower", 0.25)[0] == "within bound"

    def test_worsening_beyond_bound_regresses(self):
        change = [b * 1.4 for b in BASE]
        assert perf_ab.bound_verdict(BASE, change, "lower", 0.25)[0] == "regressed"

    def test_improvement_never_regresses(self):
        change = [b * 0.5 for b in BASE]
        assert perf_ab.bound_verdict(BASE, change, "lower", 0.1)[0] == "within bound"

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
        verdict, detail = perf_ab.bound_verdict(BASE, noisy, "lower", 0.25)
        assert verdict == "unresolved"
        assert "relative spreads" in detail


class TestSummary:
    def _runs(self, base_values, change_values, correct=True):
        def run(value):
            return {"correct": correct, "failed": 0, "attempted": 100,
                    "metrics": {"server_cpu_ms_per_op": value, "setup_s": 0.5}}

        return {"ingest-heavy": [
            {"seed": k, "first": "base", "base": run(b), "change": run(c)}
            for k, (b, c) in enumerate(zip(base_values, change_values))
        ]}

    SPEC = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "server_cpu_ms_per_op", "unit": "ms", "better": "lower", "bound": 0.25},
    ]}

    def test_rows_claim_and_bounds(self):
        runs = self._runs(BASE, [b * 0.7 for b in BASE])
        summary = perf_ab.summarize(runs, self.SPEC, ("server_cpu_ms_per_op", "ingest-heavy"))
        assert summary["claim"]["holds"]
        assert [v["metric"] for v in summary["verdicts"]] == ["setup_s"]
        assert perf_ab.passed(summary)
        row = next(r for r in summary["rows"] if r["metric"] == "server_cpu_ms_per_op")
        assert row["change_better"] == 10 and row["ratio"] == pytest.approx(0.7)
        text = perf_ab.table(summary["rows"])
        assert "| `ingest-heavy` (10) | `server_cpu_ms_per_op` (ms) |" in text
        assert text.rstrip().endswith("10/10 |")

    def test_an_incorrect_run_fails_the_comparison(self):
        runs = self._runs(BASE, [b * 0.7 for b in BASE], correct=False)
        summary = perf_ab.summarize(runs, self.SPEC, ("server_cpu_ms_per_op", "ingest-heavy"))
        assert summary["failures"]
        assert not perf_ab.passed(summary)

    def test_without_a_claim_every_pair_gets_its_bound(self):
        runs = self._runs(BASE, [b * 1.1 for b in BASE])
        summary = perf_ab.summarize(runs, self.SPEC, None)
        assert summary["claim"] is None
        assert [(v["metric"], v["verdict"]) for v in summary["verdicts"]] == [
            ("setup_s", "within bound"), ("server_cpu_ms_per_op", "within bound")]
        assert perf_ab.passed(summary)
        assert "no claim: every metric and workload judged by its bound" in perf_ab.report(
            summary, None)

    def test_without_a_claim_a_regression_fails(self):
        runs = self._runs(BASE, [b * 1.4 for b in BASE])
        summary = perf_ab.summarize(runs, self.SPEC, None)
        verdicts = {v["metric"]: v["verdict"] for v in summary["verdicts"]}
        assert verdicts == {"setup_s": "within bound", "server_cpu_ms_per_op": "regressed"}
        assert not perf_ab.passed(summary)

    def test_without_a_claim_an_unresolved_pair_does_not_fail(self):
        noisy = [b * (1.0 + (0.4 if k % 2 else -0.4)) for k, b in enumerate(BASE)]
        summary = perf_ab.summarize(self._runs(BASE, noisy), self.SPEC, None)
        verdicts = {v["metric"]: v["verdict"] for v in summary["verdicts"]}
        assert verdicts["server_cpu_ms_per_op"] == "unresolved"
        assert perf_ab.passed(summary)

    def test_a_claim_without_data_fails(self):
        runs = self._runs(BASE, [b * 0.7 for b in BASE])
        summary = perf_ab.summarize(runs, self.SPEC, ("server_cpu_ms_per_op", "sharded"))
        assert summary["claim"] == {"holds": False, "detail": "no data"}
        assert len(summary["verdicts"]) == 2
        assert not perf_ab.passed(summary)

    def test_claim_parser(self):
        assert perf_ab.parse_claim("server_cpu_ms_per_op:ingest-heavy") == (
            "server_cpu_ms_per_op", "ingest-heavy")
        with pytest.raises(Exception, match="METRIC:WORKLOAD"):
            perf_ab.parse_claim("server_cpu_ms_per_op")


class TestReported:
    def test_run_once_keeps_the_runs_reported_latencies(self, tmp_path, monkeypatch):
        run_dir = tmp_path / ".perfbench_out" / "sharded-s7-t0"
        run_dir.mkdir(parents=True)
        reported = {
            "write_p50_ms": {"value": 4.2, "unit": "ms"},
            "write_tail_ms": {"value": 7.5, "unit": "ms"},
        }
        (run_dir / "result.json").write_text(json.dumps({"detail": {"reported": reported}}))
        final = {"correct": True, "attempted": 10, "failed": 0,
                 "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}

        def fake_run(command, cwd, capture_output, text):
            assert cwd == tmp_path
            assert command[1:] == ["perfbench/run.py", "--workload", "sharded", "--seed", "7",
                                   "--seconds", "18", "--trace", "0"]
            stdout = "perfbench sharded seed=7\n" + json.dumps(final) + "\n"
            return subprocess.CompletedProcess(command, 0, stdout=stdout, stderr="")

        monkeypatch.setattr(perf_ab.subprocess, "run", fake_run)
        run = perf_ab.run_once(tmp_path, "sharded", 7, 18.0)
        assert run["metrics"] == {"setup_s": 0.5}
        assert run["reported"] == reported

    def test_a_missing_or_broken_result_reports_nothing(self, tmp_path):
        assert perf_ab.reported(tmp_path / "result.json") == {}
        (tmp_path / "result.json").write_text("{not json")
        assert perf_ab.reported(tmp_path / "result.json") == {}

    def test_reported_latencies_get_rows_but_no_verdicts(self):
        def run(cpu, write_p50):
            return {"correct": True, "failed": 0, "attempted": 100,
                    "metrics": {"server_cpu_ms_per_op": cpu, "setup_s": 0.5},
                    "reported": {"write_p50_ms": {"value": write_p50, "unit": "ms"}}}

        runs = {"sharded": [
            {"seed": k, "first": "base", "base": run(b, 9.0 * b), "change": run(0.8 * b, 20 * b)}
            for k, b in enumerate(BASE)
        ]}
        runs["sharded"][0]["change"]["reported"] = {}  # a run that printed none
        summary = perf_ab.summarize(runs, TestSummary.SPEC, ("server_cpu_ms_per_op", "sharded"))
        assert perf_ab.passed(summary)  # a doubled latency gates nothing
        assert [v["metric"] for v in summary["verdicts"]] == ["setup_s"]
        row = next(r for r in summary["rows"] if r["metric"] == "write_p50_ms")
        assert not row["gated"] and row["pairs"] == 9 and row["change_better"] == 0
        assert all(r["gated"] for r in summary["rows"] if r["metric"] != "write_p50_ms")
        text = perf_ab.table(summary["rows"])
        assert "| `sharded` (9) | `write_p50_ms` (ms, not gated) |" in text
        assert "| `sharded` (10) | `setup_s` (s) |" in text


def _git_checkout() -> bool:
    probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=perf_ab.ROOT,
                           capture_output=True)
    return probe.returncode == 0


needs_git = pytest.mark.skipif(not _git_checkout(), reason="not a git checkout")


class TestDriver:
    @needs_git
    def test_extract_writes_the_tree_of_a_revision(self, tmp_path):
        base = perf_ab.extract("HEAD", tmp_path / "base")
        committed = subprocess.run(["git", "show", "HEAD:BENCHMARK.json"], cwd=perf_ab.ROOT,
                                   check=True, capture_output=True, text=True).stdout
        assert (base / "BENCHMARK.json").read_text() == committed
        assert (base / "perfbench" / "run.py").is_file()
        assert not (base / ".git").exists()

    @needs_git
    def test_main_measures_an_extracted_base_and_removes_it(self, tmp_path, monkeypatch):
        seen = {}

        def measure(base, workloads, pairs, seed_base, seconds):
            seen["base"] = base
            assert (base / "perfbench" / "run.py").is_file()
            assert pairs == 10 and seconds == 18.0

            def run(value):
                return {"correct": True, "failed": 0, "attempted": 100,
                        "metrics": {"setup_s": 0.5, "fresh_mean_ms": value,
                                    "server_cpu_ms_per_op": value, "server_rss_mb": 60.0}}

            return {workload: [
                {"seed": seed_base + 10 * w + k, "first": "base",
                 "base": run(b), "change": run(0.7 * b)}
                for k, b in enumerate(BASE)
            ] for w, workload in enumerate(workloads)}

        monkeypatch.setattr(perf_ab, "measure", measure)
        ledger_path = tmp_path / "ledger.json"
        code = perf_ab.main(["--base", "HEAD", "--claim", "server_cpu_ms_per_op:ingest-heavy",
                             "--seed-base", "5000", "--ledger", str(ledger_path)])
        assert code == 0
        assert not seen["base"].exists()
        ledger = json.loads(ledger_path.read_text())
        assert ledger["seed_base"] == 5000 and ledger["passed"]
        assert ledger["runs"]["read-mostly"][0]["seed"] == 5000

    @needs_git
    def test_main_without_a_claim_records_a_null_claim(self, tmp_path, monkeypatch):
        def measure(base, workloads, pairs, seed_base, seconds):
            def run(value):
                return {"correct": True, "failed": 0, "attempted": 100,
                        "metrics": {"setup_s": 0.5, "fresh_mean_ms": value,
                                    "server_cpu_ms_per_op": value, "server_rss_mb": 60.0}}

            return {workload: [{"seed": seed_base + k, "first": "base", "base": run(b),
                                "change": run(b)} for k, b in enumerate(BASE)]
                    for workload in workloads}

        monkeypatch.setattr(perf_ab, "measure", measure)
        ledger_path = tmp_path / "ledger.json"
        code = perf_ab.main(["--base", "HEAD", "--seed-base", "5000",
                             "--ledger", str(ledger_path)])
        assert code == 0
        ledger = json.loads(ledger_path.read_text())
        assert ledger["claim"] is None and ledger["passed"]
        assert len(ledger["verdicts"]) == 16
        assert {v["verdict"] for v in ledger["verdicts"]} == {"within bound"}

    def test_seeds_must_be_named(self, capsys):
        with pytest.raises(SystemExit):
            perf_ab.main(["--base", "HEAD", "--claim", "server_cpu_ms_per_op:ingest-heavy"])
        assert "--seed-base" in capsys.readouterr().err


class TestRunOrder:
    """Each row's change/parent ratio by which side of the pair ran first."""

    def _runs(self, base_values, change_values):
        def run(value):
            return {"correct": True, "failed": 0, "attempted": 100,
                    "metrics": {"server_cpu_ms_per_op": value, "setup_s": 0.5}}

        return {"sharded": [
            {"seed": k, "first": "change" if k % 2 else "base",
             "base": run(b), "change": run(c)}
            for k, (b, c) in enumerate(zip(base_values, change_values))
        ]}

    def test_ratios_are_the_median_pair_ratio_of_each_order(self):
        # The change reads 10% lower when it runs first, 2% higher when
        # the parent does: the pooled ratio hides the split.
        change = [b * (0.9 if k % 2 else 1.02) for k, b in enumerate(BASE)]
        summary = perf_ab.summarize(self._runs(BASE, change), TestSummary.SPEC, None)
        row = next(r for r in summary["rows"] if r["metric"] == "server_cpu_ms_per_op")
        assert row["ratio_by_first"] == {"base": pytest.approx(1.02), "change": pytest.approx(0.9)}
        setup = next(r for r in summary["rows"] if r["metric"] == "setup_s")
        assert setup["ratio_by_first"] == {"base": 1.0, "change": 1.0}

    def test_the_verdicts_do_not_change(self):
        change = [b * (0.9 if k % 2 else 1.02) for k, b in enumerate(BASE)]
        summary = perf_ab.summarize(self._runs(BASE, change), TestSummary.SPEC, None)
        pooled = perf_ab.bound_verdict(BASE, change, "lower", 0.25)
        verdict = next(v for v in summary["verdicts"] if v["metric"] == "server_cpu_ms_per_op")
        assert (verdict["verdict"], verdict["detail"]) == pooled

    def test_the_table_shows_both_orders_before_the_win_count(self):
        change = [b * (0.9 if k % 2 else 1.02) for k, b in enumerate(BASE)]
        summary = perf_ab.summarize(self._runs(BASE, change), TestSummary.SPEC, None)
        lines = perf_ab.table(summary["rows"]).splitlines()
        assert lines[0].endswith("| change/parent | parent first | change first | change lower in |")
        row = next(line for line in lines if "`server_cpu_ms_per_op`" in line)
        assert row.endswith("| 1.020 | 0.900 | 5/10 |")

    def test_an_order_no_pair_ran_in_reads_n_a(self):
        runs = TestSummary()._runs(BASE, [b * 0.7 for b in BASE])  # the parent always first
        row = perf_ab.summarize(runs, TestSummary.SPEC, None)["rows"][1]
        assert row["ratio_by_first"] == {"base": pytest.approx(0.7), "change": None}
        assert perf_ab.table([row]).splitlines()[-1].endswith("| 0.700 | n/a | 10/10 |")

    def test_the_committed_pr20_ledger_reads_as_the_roadmap_quotes_it(self):
        # ROADMAP's run-order item quotes these from ledger/PR-20.json.
        ledger = json.loads((perf_ab.ROOT / "ledger" / "PR-20.json").read_text())
        spec = json.loads(perf_ab.SPEC.read_text())
        rows = perf_ab.summarize(ledger["runs"], spec, None)["rows"]
        cpu = {r["workload"]: r["ratio_by_first"] for r in rows
               if r["metric"] == "server_cpu_ms_per_op"}
        for workload, (parent_first, change_first) in {
            "sharded": (1.000, 0.895), "read-mostly": (1.015, 0.933),
            "churn-learn": (1.048, 1.125),
        }.items():
            assert cpu[workload]["base"] == pytest.approx(parent_first, abs=5e-4)
            assert cpu[workload]["change"] == pytest.approx(change_first, abs=5e-4)

    @needs_git
    def test_the_ledger_rows_carry_both_orders(self, tmp_path, monkeypatch):
        def measure(base, workloads, pairs, seed_base, seconds):
            def run(value):
                return {"correct": True, "failed": 0, "attempted": 100,
                        "metrics": {"setup_s": 0.5, "fresh_mean_ms": value,
                                    "server_cpu_ms_per_op": value, "server_rss_mb": 60.0}}

            return {workload: [{"seed": seed_base + k, "first": "change" if k % 2 else "base",
                                "base": run(b), "change": run(b * (0.95 if k % 2 else 1.05))}
                               for k, b in enumerate(BASE)]
                    for workload in workloads}

        monkeypatch.setattr(perf_ab, "measure", measure)
        ledger_path = tmp_path / "ledger.json"
        assert perf_ab.main(["--base", "HEAD", "--seed-base", "5000",
                             "--ledger", str(ledger_path)]) == 0
        rows = json.loads(ledger_path.read_text())["rows"]
        cpu = [r for r in rows if r["metric"] == "server_cpu_ms_per_op"]
        assert len(cpu) == 4
        for row in cpu:
            assert row["ratio_by_first"]["base"] == pytest.approx(1.05)
            assert row["ratio_by_first"]["change"] == pytest.approx(0.95)


class TestTripwire:
    """``--tripwire``: only every pair worse beyond the bound, in both orders, trips."""

    SPEC = {"end_to_end": [{"name": "server_cpu_ms_per_op", "unit": "ms",
                            "better": "lower", "bound": 0.25}]}
    CPU = [0.50, 0.52, 0.49]

    def _runs(self, change, firsts=("base", "change", "base"), correct=True):
        def run(value):
            return {"correct": correct, "failed": 0, "attempted": 100,
                    "metrics": {"server_cpu_ms_per_op": value}}

        return {"churn-learn": [
            {"seed": k, "first": first, "base": run(b), "change": run(c)}
            for k, (b, c, first) in enumerate(zip(self.CPU, change, firsts))
        ]}

    def test_every_pair_worse_in_both_orders_trips(self):
        found, unresolved = perf_ab.tripwire(self._runs([b * 1.4 for b in self.CPU]), self.SPEC)
        assert len(found) == 1 and unresolved == []
        assert found[0].startswith("TRIPPED: server_cpu_ms_per_op:churn-learn")

    def test_one_pair_within_bound_does_not_trip(self):
        change = [b * 1.4 for b in self.CPU]
        change[1] = self.CPU[1] * 1.2
        assert perf_ab.tripwire(self._runs(change), self.SPEC) == ([], [])

    def test_pairs_all_in_one_order_do_not_trip(self):
        runs = self._runs([b * 1.4 for b in self.CPU], firsts=("base",) * 3)
        assert perf_ab.tripwire(runs, self.SPEC) == ([], [])

    def test_a_spread_wider_than_the_bound_is_unresolved_not_tripped(self):
        # Every pair reads worse than the bound, but the change's own
        # runs spread wider than it: noise that could read so by chance.
        change = [0.80, 1.40, 0.70]
        assert all(c > 1.25 * b for b, c in zip(self.CPU, change))
        found, unresolved = perf_ab.tripwire(self._runs(change), self.SPEC)
        assert found == []
        assert len(unresolved) == 1
        assert unresolved[0].startswith("UNRESOLVED: server_cpu_ms_per_op:churn-learn")

    def test_a_higher_is_better_metric_trips_downwards(self):
        base, change = [100.0, 102.0, 98.0], [70.0, 72.0, 60.0]
        firsts = ["base", "change", "base"]
        assert perf_ab.trips(base, change, firsts, "higher", 0.25)
        assert not perf_ab.trips(base, [80.0, 72.0, 60.0], firsts, "higher", 0.25)

    def test_an_incorrect_run_fails_it(self):
        found, _ = perf_ab.tripwire(self._runs(self.CPU, correct=False), self.SPEC)
        assert found and all(line.startswith("FAILED RUN") for line in found)

    @needs_git
    def test_main_runs_the_short_pairs_and_writes_no_ledger(self, tmp_path, monkeypatch):
        seen = {}

        def measure(base, workloads, pairs, seed_base, seconds):
            seen.update(pairs=pairs, seconds=seconds)

            def run(value):
                return {"correct": True, "failed": 0, "attempted": 100,
                        "metrics": {"setup_s": 0.5, "fresh_mean_ms": value,
                                    "server_cpu_ms_per_op": value, "server_rss_mb": 60.0}}

            return {workload: [{"seed": seed_base + k, "first": "change" if k % 2 else "base",
                                "base": run(b), "change": run(1.5 * b)}
                               for k, b in enumerate(BASE[:pairs])]
                    for workload in workloads}

        monkeypatch.setattr(perf_ab, "measure", measure)
        ledger_path = tmp_path / "ledger.json"
        code = perf_ab.main(["--base", "HEAD", "--seed-base", "5000", "--tripwire",
                             "--ledger", str(ledger_path)])
        assert code == 1  # fresh_mean_ms and CPU per op are 1.5x in every pair
        assert seen == {"pairs": 3, "seconds": 6.0}
        assert not ledger_path.exists()

    def test_a_tripwire_takes_no_claim(self, capsys):
        with pytest.raises(SystemExit):
            perf_ab.main(["--base", "HEAD", "--seed-base", "1", "--tripwire",
                          "--claim", "server_cpu_ms_per_op:ingest-heavy"])
        assert "--tripwire takes no --claim" in capsys.readouterr().err
