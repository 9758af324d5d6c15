"""Tests for the dynamic reallocation controller."""

import numpy as np
import pytest

from repro.dynamic import DynamicAllocator, Phase, PhasedWorkload
from repro.profiling import OfflineProfiler
from repro.workloads import get_workload

CAPACITIES = (12.8, 2048.0)


def static_allocator(**kwargs):
    defaults = dict(
        workloads={
            "freqmine": get_workload("freqmine"),
            "dedup": get_workload("dedup"),
        },
        capacities=CAPACITIES,
        seed=7,
    )
    defaults.update(kwargs)
    return DynamicAllocator(**defaults)


class TestValidation:
    def test_rejects_empty_workloads(self):
        with pytest.raises(ValueError, match="at least one agent"):
            DynamicAllocator({}, CAPACITIES)

    def test_rejects_zero_exploration(self):
        with pytest.raises(ValueError, match="exploration"):
            static_allocator(exploration_samples=0)

    def test_rejects_bad_capacities(self):
        with pytest.raises(ValueError, match="capacities"):
            DynamicAllocator({"a": get_workload("dedup")}, (0.0, 1.0))

    @pytest.mark.parametrize(
        "capacities",
        [
            (float("nan"), 1024.0),
            (float("inf"), 1024.0),
            (6.4, -1.0),
            (6.4, 1024.0, 5.0),  # one entry per resource, none dropped
            (6.4,),
            ("abc", 1024.0),
        ],
    )
    def test_rejects_capacities_it_cannot_serve(self, capacities):
        with pytest.raises(ValueError, match="2 positive finite numbers"):
            DynamicAllocator({"a": get_workload("dedup")}, capacities)

    def test_constructor_and_grants_share_one_rule(self):
        allocator = static_allocator()
        assert allocator.capacities == CAPACITIES
        assert len(allocator.table.report[0]) == len(allocator.capacities)
        for bad in [(float("inf"), 1.0), (1.0, 2.0, 3.0)]:
            with pytest.raises(ValueError, match="2 positive finite numbers"):
                allocator.set_capacities(bad)
        allocator.set_capacities((6.4, 512.0))
        assert allocator.capacities == (6.4, 512.0)

    def test_rejects_bad_epoch_count(self):
        with pytest.raises(ValueError, match="n_epochs"):
            static_allocator().run(0)


class TestStaticConvergence:
    def test_first_epoch_uses_naive_reports(self):
        result = static_allocator().run(1)
        for name in ("freqmine", "dedup"):
            assert result.records[0].reported_alpha[name] == pytest.approx([0.5, 0.5])
        # Naive equal reports -> equal split.
        assert result.records[0].allocation["freqmine"] == pytest.approx(
            [CAPACITIES[0] / 2, CAPACITIES[1] / 2]
        )

    def test_converges_toward_offline_fit(self):
        result = static_allocator(decay=1.0).run(15)
        offline = OfflineProfiler()
        for name in ("freqmine", "dedup"):
            truth = offline.fit(get_workload(name)).rescaled_elasticities
            learned = result.records[-1].reported_alpha[name]
            assert np.max(np.abs(learned - truth)) < 0.15, name

    def test_allocations_track_reports(self):
        result = static_allocator(decay=1.0).run(15)
        # freqmine (C) should end up with most of the cache, dedup (M)
        # with most of the bandwidth.
        final = result.records[-1].allocation
        assert final["freqmine"][1] > final["dedup"][1]
        assert final["dedup"][0] > final["freqmine"][0]

    def test_history_accessors(self):
        result = static_allocator().run(5)
        assert result.n_epochs == 5
        assert result.reported_series("dedup", resource=0).shape == (5,)
        assert result.allocation_series("dedup", 0).shape == (5,)
        assert result.ipc_series("dedup").shape == (5,)

    def test_deterministic_given_seed(self):
        a = static_allocator(seed=3).run(6)
        b = static_allocator(seed=3).run(6)
        assert np.array_equal(a.ipc_series("dedup"), b.ipc_series("dedup"))


class TestPhaseTracking:
    def test_reports_follow_phase_change(self):
        phased = PhasedWorkload(
            "phasey",
            [Phase(get_workload("freqmine"), 12), Phase(get_workload("dedup"), 12)],
        )
        allocator = DynamicAllocator(
            {"phasey": phased, "steady": get_workload("canneal")},
            capacities=CAPACITIES,
            decay=0.75,
            seed=1,
        )
        result = allocator.run(24)
        cache_reports = result.reported_series("phasey", resource=1)
        # End of cache-loving phase vs end of bandwidth-loving phase.
        assert np.mean(cache_reports[8:12]) > 0.55
        assert np.mean(cache_reports[20:24]) < 0.45

    def test_measured_ipc_reflects_phase(self):
        phased = PhasedWorkload(
            "phasey",
            [Phase(get_workload("raytrace"), 8), Phase(get_workload("ocean_cp"), 8)],
        )
        allocator = DynamicAllocator(
            {"phasey": phased, "steady": get_workload("bodytrack")},
            capacities=CAPACITIES,
            decay=0.8,
            seed=2,
        )
        result = allocator.run(16)
        ipc = result.ipc_series("phasey")
        # raytrace phase runs far faster than the ocean_cp phase.
        assert np.mean(ipc[:8]) > 2 * np.mean(ipc[8:])


class TestAgentChurn:
    def test_add_agent_joins_next_epoch(self):
        allocator = static_allocator()
        allocator.run(3)
        allocator.add_agent("late", get_workload("canneal"))
        result = allocator.run(3)
        assert "late" in result.records[0].agents
        assert result.records[0].epoch == 3  # continues from prior run
        assert result.records[0].reported_alpha["late"] == pytest.approx([0.5, 0.5])

    def test_remove_agent_frees_capacity(self):
        allocator = static_allocator()
        first = allocator.run(2)
        allocator.remove_agent("dedup")
        second = allocator.run(2)
        assert second.records[-1].agents == ("freqmine",)
        # The survivor now holds the whole machine.
        assert second.records[-1].enforced["freqmine"] == pytest.approx(
            list(CAPACITIES)
        )
        assert "dedup" not in second.records[-1].reported_alpha
        assert first.records[-1].agents == ("freqmine", "dedup")

    def test_add_duplicate_rejected(self):
        allocator = static_allocator()
        with pytest.raises(ValueError, match="already exists"):
            allocator.add_agent("dedup", get_workload("dedup"))

    def test_remove_unknown_rejected(self):
        with pytest.raises(ValueError, match="no agent"):
            static_allocator().remove_agent("ghost")

    def test_remove_last_agent_rejected(self):
        allocator = static_allocator()
        allocator.remove_agent("dedup")
        with pytest.raises(ValueError, match="last agent"):
            allocator.remove_agent("freqmine")

    def test_churn_schedule_applied_and_logged(self):
        from repro.dynamic import ChurnEvent, ChurnSchedule

        churn = ChurnSchedule(
            [
                ChurnEvent(2, "add", "late", get_workload("canneal")),
                ChurnEvent(5, "remove", "late"),
            ]
        )
        result = static_allocator().run(8, churn=churn)
        assert "late" not in result.records[1].agents
        assert "late" in result.records[2].agents
        assert "late" not in result.records[5].agents
        counters = result.counters
        assert counters["agent_added"] == 1
        assert counters["agent_removed"] == 1

    def test_series_nan_filled_for_absent_agents(self):
        from repro.dynamic import ChurnEvent, ChurnSchedule

        churn = ChurnSchedule([ChurnEvent(3, "add", "late", get_workload("canneal"))])
        result = static_allocator().run(6, churn=churn)
        ipc = result.ipc_series("late")
        assert np.all(np.isnan(ipc[:3]))
        assert np.all(~np.isnan(ipc[3:]))
        assert np.all(np.isnan(result.reported_series("late", 0)[:3]))
        assert np.all(np.isnan(result.allocation_series("late", 0)[:3]))

    def test_agent_names_lists_everyone_seen(self):
        from repro.dynamic import ChurnEvent, ChurnSchedule

        churn = ChurnSchedule([ChurnEvent(1, "add", "late", get_workload("canneal"))])
        result = static_allocator().run(3, churn=churn)
        assert result.agent_names == ("freqmine", "dedup", "late")


class TestEnforcedFloors:
    def test_enforced_allocation_recorded_and_feasible(self):
        result = static_allocator().run(5)
        for record in result.records:
            assert record.enforced is not None
            assert record.enforced.is_feasible()
            totals = record.enforced.shares.sum(axis=0)
            assert totals[0] == pytest.approx(CAPACITIES[0])
            assert totals[1] == pytest.approx(CAPACITIES[1])

    def test_floors_bind_feasibly_with_many_agents(self):
        # Capacity barely above N * floor: the old per-agent clamp would
        # have exceeded capacity; the projection must never.
        names = ["freqmine", "dedup", "canneal", "raytrace"]
        allocator = DynamicAllocator(
            {name: get_workload(name) for name in names},
            capacities=(2.0, 300.0),
            seed=11,
        )
        result = allocator.run(12)
        assert result.all_feasible()
        for record in result.records:
            assert np.all(record.enforced.shares[:, 0] >= 0.0)
            assert record.enforced.shares.sum(axis=0)[0] <= 2.0 * (1 + 1e-9)

    def test_measurements_taken_at_enforced_bundle(self):
        result = static_allocator(noise_sigma=0.0).run(1)
        record = result.records[0]
        machine = static_allocator().machine
        for index, name in enumerate(record.agents):
            bandwidth, cache_kb = record.enforced.shares[index]
            expected = machine.ipc(get_workload(name), cache_kb, bandwidth)
            assert record.measured_ipc[name] == pytest.approx(expected)


class TestFaultTolerance:
    def fault_allocator(self, **kwargs):
        from repro.dynamic import FaultSpec

        defaults = dict(
            workloads={
                "freqmine": get_workload("freqmine"),
                "dedup": get_workload("dedup"),
            },
            capacities=CAPACITIES,
            seed=13,
            faults=FaultSpec(drop=0.05, non_positive=0.03, outlier=0.02),
        )
        defaults.update(kwargs)
        return DynamicAllocator(**defaults)

    def test_faulty_run_completes_and_counts(self):
        result = self.fault_allocator().run(40)
        assert result.n_epochs == 40
        counters = result.counters
        assert counters.get("measurement_retry", 0) > 0
        assert result.all_feasible()

    def test_all_measurements_dropped_still_no_crash(self):
        from repro.dynamic import FaultSpec

        allocator = self.fault_allocator(
            faults=FaultSpec(drop=1.0, max_retries=2)
        )
        result = allocator.run(5)
        counters = result.counters
        # Every measurement skipped after retries; nothing measured.
        assert counters["measurement_skipped"] == 5 * 2 * 3  # epochs*agents*(1+expl)
        assert counters["measurement_retry"] == counters["measurement_skipped"] * 2
        assert all(not record.measured_ipc for record in result.records)
        # Reports stay on the naive prior; allocations stay feasible.
        assert result.records[-1].reported_alpha["dedup"] == pytest.approx([0.5, 0.5])
        assert result.all_feasible()

    def test_outlier_faults_gated(self):
        from repro.dynamic import FaultSpec

        result = self.fault_allocator(
            faults=FaultSpec(outlier=0.15, outlier_scale=100.0)
        ).run(40)
        assert result.counters.get("sample_rejected_outlier", 0) > 0
        # Despite the spikes the fits stay close to the clean run's.
        clean = static_allocator(seed=13).run(40)
        noisy_report = result.records[-1].reported_alpha["dedup"]
        clean_report = clean.records[-1].reported_alpha["dedup"]
        assert np.max(np.abs(noisy_report - clean_report)) < 0.2

    def test_fit_condition_numbers_recorded(self):
        result = static_allocator().run(8)
        conditions = result.condition_series("dedup")
        assert np.any(np.isfinite(conditions))
        assert np.all(conditions[np.isfinite(conditions)] >= 1.0)

    def test_event_log_ordering(self):
        result = self.fault_allocator().run(10)
        epochs = [event.epoch for event in result.events]
        assert epochs == sorted(epochs)


class TestAcceptance:
    def test_200_epoch_churn_fault_run(self):
        """ISSUE 2 acceptance: 200 epochs, churn, 10% faults, zero

        crashes, every enforced allocation feasible, counters present."""
        from repro.dynamic import ChurnEvent, ChurnSchedule, FaultSpec

        churn = ChurnSchedule(
            [
                ChurnEvent(40, "add", "late1", get_workload("canneal")),
                ChurnEvent(90, "add", "late2", get_workload("raytrace")),
                ChurnEvent(120, "remove", "late1"),
                ChurnEvent(160, "remove", "dedup"),
            ]
        )
        allocator = DynamicAllocator(
            {
                "freqmine": get_workload("freqmine"),
                "dedup": get_workload("dedup"),
            },
            capacities=CAPACITIES,
            seed=2014,
            faults=FaultSpec(drop=0.04, non_positive=0.03, outlier=0.03),
        )
        result = allocator.run(200, churn=churn)
        assert result.n_epochs == 200
        for record in result.records:
            assert record.enforced.is_feasible()
        counters = result.counters
        assert counters["agent_added"] == 2
        assert counters["agent_removed"] == 2
        assert counters.get("measurement_retry", 0) > 0
        assert counters.get("sample_rejected_outlier", 0) > 0
        # The survivors still learned sensible (finite, normalized) reports.
        final = result.records[-1]
        for name in final.agents:
            report = final.reported_alpha[name]
            assert np.all(np.isfinite(report))
            assert report.sum() == pytest.approx(1.0)


class TestMetricsCoverage:
    """The controller's registry must mirror the run's history exactly."""

    def _event_metric_counts(self, allocator):
        counts = {}
        for family in allocator.metrics.families():
            if family.name == "repro_dynamic_events_total":
                for key, child in family.children.items():
                    counts[dict(key)["kind"]] = int(child.value)
        return counts

    def test_epoch_latency_histogram_counts_every_epoch(self):
        allocator = static_allocator()
        allocator.run(25)
        hist = allocator.metrics.get("repro_dynamic_epoch_latency_seconds")
        assert hist is not None and hist.count == 25
        epochs = allocator.metrics.get("repro_dynamic_epochs_total")
        assert epochs.value == 25
        assert allocator.metrics.get("repro_dynamic_agents").value == 2

    def test_event_counters_match_result_counters_exactly(self):
        from repro.dynamic import FaultSpec

        allocator = static_allocator(
            faults=FaultSpec(drop=0.15, non_positive=0.1, max_retries=2)
        )
        result = allocator.run(40)
        assert self._event_metric_counts(allocator) == result.counters
        assert result.counters  # faults guarantee a non-trivial comparison

    def test_churn_events_are_counted(self):
        from repro.dynamic import ChurnEvent, ChurnSchedule

        allocator = static_allocator()
        churn = ChurnSchedule(
            [
                ChurnEvent(2, "add", "late", get_workload("canneal")),
                ChurnEvent(4, "remove", "late"),
            ]
        )
        result = allocator.run(6, churn=churn)
        counts = self._event_metric_counts(allocator)
        assert counts.get("agent_added") == 1
        assert counts.get("agent_removed") == 1
        assert counts == result.counters

    def test_span_tree_per_epoch(self):
        allocator = static_allocator()
        allocator.run(3)
        assert len(allocator.tracer.roots) == 3
        for root in allocator.tracer.roots:
            assert root.name == "epoch"
            child_names = [child.name for child in root.children]
            assert child_names[:3] == ["allocate", "enforce", "measure"]
            # Epochs with enough accumulated samples add one stacked
            # re-fit span; nothing else.
            assert all(name == "batch_refit" for name in child_names[3:])
        mirrored = allocator.metrics.get("repro_span_seconds", span="epoch")
        assert mirrored.count == 3

    def test_online_profiler_metrics_sum_over_agents(self):
        # Outlier faults are undetectable by the retry loop, so they
        # reach the profilers' outlier gate and its mirrored counter.
        from repro.dynamic import FaultSpec

        allocator = static_allocator(
            faults=FaultSpec(outlier=0.25, outlier_scale=100.0)
        )
        allocator.run(30)
        counter = allocator.metrics.get("repro_online_samples_rejected_total", reason="outlier")
        total = int(counter.value)
        table = allocator.table
        rejected = sum(
            table.counters_of(table.row(name))["rejected_outliers"]
            for name in allocator.agent_names
        )
        assert total == rejected > 0

    def test_event_counters_are_looked_up_once_per_kind(self, registry_calls):
        from repro.dynamic import EpochEvent
        from repro.obs import MetricsRegistry

        allocator = static_allocator()
        events = [EpochEvent(0, "x"), EpochEvent(0, "y"), EpochEvent(1, "x")]
        for _ in range(3):
            allocator._record_events(events)
        lookups = [c for c in registry_calls if c[0] == "repro_dynamic_events_total"]
        assert sorted(lookups) == [
            ("repro_dynamic_events_total", (("kind", "x"),)),
            ("repro_dynamic_events_total", (("kind", "y"),)),
        ]
        assert self._event_metric_counts(allocator) == {"x": 6, "y": 3}
        # A replaced registry gets its own series.
        first, allocator.metrics = allocator.metrics, MetricsRegistry()
        allocator._record_events(events)
        assert self._event_metric_counts(allocator) == {"x": 2, "y": 1}
        assert first.get("repro_dynamic_events_total", kind="x").value == 6

    def test_custom_registry_is_used(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        allocator = static_allocator(metrics=registry)
        allocator.run(2)
        assert allocator.metrics is registry
        assert registry.get("repro_dynamic_epoch_latency_seconds").count == 2


class TestExternalMeasurement:
    """The service ingestion path: observe_sample + step(measure=False)."""

    def test_observe_sample_accepts_a_plausible_measurement(self):
        allocator = static_allocator()
        ipc = float(allocator.machine.ipc(get_workload("freqmine"), 512.0, 3.2))
        assert allocator.observe_sample("freqmine", (3.2, 512.0), ipc) is True

    def test_observe_sample_rejects_non_positive_readings(self):
        allocator = static_allocator()
        row = allocator.table.row("freqmine")
        before = allocator.table.counters_of(row)["rejected_non_positive"]
        assert allocator.observe_sample("freqmine", (3.2, 512.0), -1.0) is False
        after = allocator.table.counters_of(row)["rejected_non_positive"]
        assert after == before + 1

    def test_observe_sample_unknown_agent_raises(self):
        with pytest.raises(ValueError, match="no agent"):
            static_allocator().observe_sample("ghost", (3.2, 512.0), 1.0)

    def test_step_without_measure_allocates_but_does_not_measure(self):
        allocator = static_allocator()
        record = allocator.step(0, measure=False)
        assert record.measured_ipc == {}
        assert record.enforced is not None and record.enforced.is_feasible()
        assert set(record.reported_alpha) == {"freqmine", "dedup"}
        # The built-in machine was never consulted: no sample history grew.
        assert allocator.table.count.tolist() == [0, 0]

    def test_external_samples_drive_the_fit(self):
        allocator = static_allocator(decay=1.0)
        offline = OfflineProfiler()
        rng = np.random.default_rng(3)
        for _ in range(25):
            for name in ("freqmine", "dedup"):
                bandwidth = float(rng.uniform(1.0, CAPACITIES[0] / 2))
                cache_kb = float(rng.uniform(128.0, CAPACITIES[1] / 2))
                ipc = float(
                    allocator.machine.ipc(get_workload(name), cache_kb, bandwidth)
                )
                allocator.observe_sample(name, (bandwidth, cache_kb), ipc)
        record = allocator.step(0, measure=False)
        for name in ("freqmine", "dedup"):
            truth = offline.fit(get_workload(name)).rescaled_elasticities
            assert np.max(np.abs(record.reported_alpha[name] - truth)) < 0.15, name
