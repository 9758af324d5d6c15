"""Experiments: Figs. 13-14 — weighted system throughput per mechanism."""

from __future__ import annotations

from ..core import create_mechanism, weighted_system_throughput
from ..profiling import OfflineProfiler
from ..workloads import EIGHT_CORE_MIXES, FOUR_CORE_MIXES, build_mix_problem, get_mix
from .base import ExperimentResult, experiment

__all__ = ["MECHANISM_ORDER", "throughput_rows", "fig13_four_core", "fig14_eight_core"]

#: The four mechanisms of Figs. 13-14 (registry names), in legend order.
MECHANISM_ORDER = ("max-welfare-fair", "ref", "max-welfare-unfair", "equal-slowdown")


def throughput_rows(profiler, mix_names):
    """Weighted system throughput for every (mix, mechanism) pair.

    Rows are keyed by mix, then by the mechanism's legend label.
    """
    profiler = profiler if profiler is not None else OfflineProfiler()
    mechanisms = [create_mechanism(name) for name in MECHANISM_ORDER]
    rows = {}
    for mix_name in mix_names:
        problem = build_mix_problem(mix_name, profiler=profiler)
        rows[mix_name] = {
            mechanism.label: weighted_system_throughput(mechanism.solve(problem))
            for mechanism in mechanisms
        }
    return rows


def _table(rows, title):
    lines = [f"=== {title} ==="]
    labels = [create_mechanism(name).label for name in MECHANISM_ORDER]
    lines.append(f"{'mix':<14}" + "".join(f"{label:>38}" for label in labels))
    worst_penalty = 0.0
    for mix_name, values in rows.items():
        label = f"{mix_name} ({get_mix(mix_name).characterization})"
        lines.append(f"{label:<14}" + "".join(f"{values[m]:>38.4f}" for m in labels))
        penalty = 1.0 - (
            values["Proportional Elasticity w/ Fairness"]
            / values["Max Welfare w/o Fairness"]
        )
        worst_penalty = max(worst_penalty, penalty)
    lines.append(
        f"\nworst fairness penalty (REF vs unfair max welfare): {worst_penalty * 100:.1f}%"
    )
    return "\n".join(lines), worst_penalty


@experiment("fig13")
def fig13_four_core(profiler=None) -> ExperimentResult:
    """4-core throughput comparison across the four mechanisms (Fig. 13)."""
    rows = throughput_rows(profiler, FOUR_CORE_MIXES)
    text, worst_penalty = _table(rows, "Fig. 13: 4-core weighted system throughput")
    return ExperimentResult(
        experiment_id="fig13",
        title="Fig. 13: 4-core weighted system throughput",
        text=text,
        data={"rows": rows, "worst_penalty": worst_penalty},
    )


@experiment("fig14")
def fig14_eight_core(profiler=None) -> ExperimentResult:
    """8-core comparison plus the equal-slowdown-trails-REF check (Fig. 14)."""
    rows = throughput_rows(profiler, EIGHT_CORE_MIXES)
    text, worst_penalty = _table(rows, "Fig. 14: 8-core weighted system throughput")
    trailing = []
    for mix_name, values in rows.items():
        ref = values["Proportional Elasticity w/ Fairness"]
        eq = values["Equal Slowdown w/o Fairness"]
        if eq < ref:
            trailing.append(f"{mix_name} ({(1 - eq / ref) * 100:.1f}% behind)")
    text += (
        f"\nmixes where equal slowdown trails REF: "
        f"{', '.join(trailing) if trailing else 'none'}"
    )
    return ExperimentResult(
        experiment_id="fig14",
        title="Fig. 14: 8-core weighted system throughput",
        text=text,
        data={"rows": rows, "worst_penalty": worst_penalty, "trailing": trailing},
    )
