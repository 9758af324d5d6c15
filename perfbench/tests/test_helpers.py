"""Self-tests for the benchmark's helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import layers
import stats
from checks import Op

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent


# -- tail percentile selection ------------------------------------------------


@pytest.mark.parametrize(
    "count, q",
    [(15000, 0.99), (1000, 0.99), (999, 0.98), (500, 0.98), (400, 0.975),
     (200, 0.95), (100, 0.9), (60, 0.8), (40, 0.75), (20, 0.5)],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(count, q):
    assert stats.tail_quantile(count) == q
    values = list(range(count))
    assert sum(1 for v in values if v > stats.quantile(values, q)) >= stats.MIN_BEYOND


def test_tail_needs_twenty_samples():
    with pytest.raises(ValueError):
        stats.tail_quantile(19)


def test_trimmed_mean_drops_both_ends():
    values = [1.0] * 9 + [1000.0]
    assert stats.trimmed_mean(values, 0.1) == 1.0
    assert stats.trimmed_mean([float(v) for v in range(10)], 0.1) == pytest.approx(4.5)
    assert stats.trimmed_mean([7.0], 0.1) == 7.0


def test_quantile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert stats.quantile(values, 0.5) == 50.0
    assert stats.quantile(values, 0.99) == 99.0
    assert stats.quantile([3.0], 0.99) == 3.0
    assert stats.percentile_label(0.975) == "p97.5"


# -- failure accounting -------------------------------------------------------


def _op(kind, body, recv=1.0, status=200, agents=(), sent=0.5):
    raw = body if isinstance(body, bytes) else json.dumps(body).encode()
    return Op(kind, 0.0, sent, recv, status, raw, tuple(agents))


def _bulk_reply(agents, rejected=0, epoch=3):
    return {
        "version": 1, "epoch": epoch, "pending": 2, "accepted": len(agents) - rejected,
        "rejected": rejected, "results": [{"agent": a, "queued": True} for a in agents],
    }


def test_bulk_ack_must_be_aligned_and_reject_nothing():
    good = _op("bulk", _bulk_reply(["a", "b"]), agents=("a", "b"))
    checks.check_bulk(good)
    assert good.ok
    swapped = _op("bulk", _bulk_reply(["b", "a"]), agents=("a", "b"))
    checks.check_bulk(swapped)
    assert "index-aligned" in swapped.failure
    rejected = _op("bulk", _bulk_reply(["a", "b"], rejected=1), agents=("a", "b"))
    checks.check_bulk(rejected)
    assert "rejected" in rejected.failure
    short = _op("bulk", _bulk_reply(["a"]), agents=("a", "b"))
    checks.check_bulk(short)
    assert not short.ok


def test_transport_and_status_failures_count():
    lost = _op("bulk", b"", recv=0.0, status=0, agents=("a",))
    checks.check_bulk(lost)
    assert lost.failure == "no reply"
    refused = _op("scrape", b"oops", status=500)
    checks.check_scrape(refused)
    assert refused.failure == "HTTP 500"
    garbled = _op("bulk", b"{not json", agents=("a",))
    checks.check_bulk(garbled)
    assert not garbled.ok


def _allocation(epoch, shares, capacities=None, feasible=True):
    capacities = capacities or {"membw_gbps": 12.8, "cache_kb": 2048.0}
    return {"version": 1, "epoch": epoch, "mechanism": "ref", "feasible": feasible,
            "capacities": capacities, "shares": shares}


def _halves(names, capacities=(12.8, 2048.0)):
    n = len(names)
    return {a: {"membw_gbps": capacities[0] / n, "cache_kb": capacities[1] / n} for a in names}


def test_churn_replies_must_match_expected_membership():
    seeded = {"a", "b"}
    ops = [
        _op("register", {"version": 1, "action": "register", "agent": "c", "agents": ["a", "b", "c"], "epoch": 4}, agents=("c",)),
        _op("deregister", {"version": 1, "action": "deregister", "agent": "c", "agents": ["a", "b", "c"], "epoch": 5}, agents=("c",)),
    ]
    timeline = checks.check_churn(ops, seeded)
    assert ops[0].ok and timeline.reg_epoch == {"c": 4}
    assert "membership" in ops[1].failure
    assert timeline.dereg_epoch == {"c": None}


def test_flat_reads_check_feasibility_sums_and_exact_membership():
    timeline = checks.Membership(seeded=frozenset({"a", "b"}), reg_epoch={"c": 4},
                                 dereg_epoch={"c": 7})
    reads = [
        _op("read", _allocation(3, _halves(["a", "b"]))),
        _op("read", _allocation(4, _halves(["a", "b", "c"]))),
        _op("read", _allocation(7, _halves(["a", "b", "c"]))),
        _op("read", _allocation(5, _halves(["a", "b", "c"]), feasible=False)),
    ]
    off = _halves(["a", "b"])
    off["a"]["cache_kb"] *= 1 + 1e-8
    reads.append(_op("read", _allocation(3, off)))
    checks.check_reads(reads, timeline, sharded=False)
    assert [r.ok for r in reads] == [True, True, False, False, False]
    assert "wrong agents" in reads[2].failure
    assert "feasible" in reads[3].failure
    assert "sum" in reads[4].failure


def test_coordinator_reads_may_fall_short_of_capacity_only():
    timeline = checks.Membership(seeded=frozenset({"a", "b"}))
    under = _halves(["a", "b"], capacities=(12.0, 2000.0))
    over = _halves(["a", "b"], capacities=(13.0, 2048.0))
    reads = [_op("read", _allocation(2, under)), _op("read", _allocation(2, over))]
    checks.check_reads(reads, timeline, sharded=True)
    assert reads[0].ok
    assert "over capacity" in reads[1].failure


def test_coordinator_membership_allows_one_round_of_staleness():
    timeline = checks.Membership(
        seeded=frozenset({"a"}),
        reg_epoch={"c": 4, "d": 5}, reg_sent={"c": 1.0, "d": 2.0},
        dereg_epoch={"c": 6}, dereg_sent={"c": 3.0},
    )
    # Round 5, read at t=2.5: c joined in an earlier round, so it is
    # required; d registered this round, so it may or may not show.
    required, allowed = checks.sharded_bounds(timeline, epoch=5, recv=2.5)
    assert required == {"a", "c"} and allowed == {"a", "c", "d"}
    # Round 7: c left in round 6, so it must be gone.
    required, allowed = checks.sharded_bounds(timeline, epoch=7, recv=4.0)
    assert "c" not in allowed and "d" in required
    # A reply that arrived before d's register was sent cannot list d.
    _, allowed = checks.sharded_bounds(timeline, epoch=5, recv=1.5)
    assert "d" not in allowed


# -- freshness ------------------------------------------------------------------


def _acked_write(epoch, recv):
    op = _op("bulk", _bulk_reply(["a"], epoch=epoch), recv=recv, agents=("a",))
    checks.check_bulk(op)
    return op


def _read_at(epoch, recv):
    op = _op("read", _allocation(epoch, _halves(["a"])), recv=recv)
    op.reply = json.loads(op.body)
    return op


def test_flat_ack_names_the_folding_epoch():
    reads = [_read_at(5, 0.99), _read_at(4, 1.01), _read_at(5, 1.02), _read_at(6, 1.03)]
    fresh = checks.freshness([_acked_write(5, 1.0)], reads, sharded=False)
    assert fresh == [(0.0, pytest.approx(0.02))]


def test_coordinator_ack_names_the_last_completed_round():
    reads = [_read_at(5, 1.02), _read_at(5, 1.04), _read_at(6, 1.05)]
    fresh = checks.freshness([_acked_write(5, 1.0)], reads, sharded=True)
    assert fresh == [(0.0, pytest.approx(0.05))]


def test_unmatched_and_failed_acks_are_left_out():
    failed = _op("bulk", b"", recv=0.0, status=0, agents=("a",))
    checks.check_bulk(failed)
    reads = [_read_at(5, 1.02)]
    assert checks.freshness([_acked_write(9, 1.0), failed], reads, sharded=False) == []


# -- span self time -------------------------------------------------------------


def _span(sid, name, start, end, parent=-1, tick=-1):
    return layers.Span(sid, name, start, end, parent, tick, -1.0, True)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "dynamic.step", 0.0, 10.0, tick=0),
        _span(1, "fitting.batch", 1.0, 3.0, parent=0, tick=0),
        _span(2, "mechanism.solve", 2.0, 5.0, parent=0, tick=0),
        _span(3, "enforce.floors", 9.0, 12.0, parent=0, tick=0),
        _span(4, "profiling.fit_inputs", 1.5, 2.0, parent=1, tick=0),
    ]
    selfs = layers.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[4] == pytest.approx(0.5)
    steps, breakdown = layers.tick_breakdown([layers.Process(1, 0, spans, 0, 0.0, [])])
    assert steps == 1
    assert breakdown["dynamic.step"] == pytest.approx(5e3)
    assert breakdown["fitting.batch"] == pytest.approx(1.5e3)


def test_batching_wait_runs_to_the_next_nonempty_flush():
    spans = [
        layers.Span(0, "batching.add_many", 1.0, 1.1, -1, -1, 16.0, True),
        layers.Span(1, "batching.flush", 1.5, 1.6, -1, -1, 0.0, True),
        layers.Span(2, "batching.flush", 2.0, 2.1, -1, -1, 16.0, True),
    ]
    assert layers.batching_waits(layers.Process(1, 0, spans, 0, 0.0, [])) == [pytest.approx(1.0)]


def test_every_declared_metric_is_computed():
    import run

    spans = [
        layers.Span(0, "dynamic.step", 0.0, 1.0, -1, 0, -1.0, True),
        layers.Span(1, "batching.flush", 0.5, 0.6, 0, 0, 4.0, True),
    ]
    computed = layers.per_layer(
        [layers.Process(1, 0, spans, 0, 0.0, [0.001])], 1, 10, 4, 0.1, 0.0, [1024], None
    )
    assert set(run.declared("per_layer")) <= set(computed) | {"trace.cpu_overhead_pct"}
    gated = {"setup_s", "fresh_mean_ms", "server_cpu_ms_per_op", "server_rss_mb"}
    assert set(run.declared("end_to_end")) <= gated | {name for name, _ in run.REPORTED}
    assert not set(run.declared("per_layer")) & {name for name, _ in run.PER_LAYER_EXTRA}


# -- CPU rounds and seeded inputs -----------------------------------------------


def test_cpu_per_op_is_the_median_over_rounds(tmp_path):
    import run

    rounds = run.CPU_ROUNDS
    # One reply per 0.1 s of a 10 s window; one round is five times as
    # expensive as the others (a burst of CPU steal).
    reads = [_op("read", b"{}", recv=0.05 + 0.1 * k) for k in range(100)]
    cpu = [0.0]
    for k in range(rounds):
        cpu.append(cpu[-1] + (0.5 if k == 1 else 0.1))
    result = run.PassResult(
        setup_s=[1.0], ops={"read": reads}, window=(0.0, 10.0), front_pid=1,
        front_cpu_s=cpu[-1], cell_cpu_s=0.0, cpu_marks=cpu, rss_mb=1.0,
        seconds=10.0, run_dir=tmp_path,
    )
    per_round = 100 // rounds
    assert run.cpu_per_op_rounds(result) == pytest.approx(1e3 * 0.1 / per_round)


def test_seeds_share_the_benchmark_mix():
    from collections import Counter

    import workloads

    tables = {f"bench{i:02d}": ((6.4, 1024.0, 1.0),) * 4 for i in range(28)}
    shape = workloads.WORKLOADS["sharded"]
    mixes = []
    for seed in (1, 2):
        inputs = workloads.build_inputs(shape, seed, 1.0, 1.0, tables)
        assert inputs == workloads.build_inputs(shape, seed, 1.0, 1.0, tables)
        mixes.append(inputs.seeded)
    assert mixes[0] != mixes[1]
    for mix in mixes:
        counts = Counter(mix.values())
        assert len(counts) == len(tables)
        assert max(counts.values()) - min(counts.values()) <= 1


# -- trace hook and entry point -------------------------------------------------


def test_trace_hook_records_nested_spans(tmp_path):
    script = (
        "import json, time, os\n"
        "from repro.serve.batching import BatchPolicy, SampleBatcher\n"
        "b = SampleBatcher(BatchPolicy(max_batch=2))\n"
        "b.add_many([1], 0.0)\n"
        "b.add_many([2, 3], 0.0)\n"
        "with open(os.path.join(os.environ['PERFBENCH_TRACE_DIR'], 'window.json'), 'w') as f:\n"
        "    json.dump([0.0, time.monotonic() + 1], f)\n"
    )
    env = dict(os.environ, PERFBENCH_TRACE_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join([str(BENCH / "tracehook"), str(ROOT / "src")]))
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
    (process,) = layers.load(tmp_path)
    adds = process.named("batching.add_many")
    (flush,) = process.named("batching.flush")
    assert [a.n for a in adds] == [1.0, 2.0]
    assert flush.parent == adds[1].sid and flush.n == 3.0


def test_entry_point_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-mostly", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
