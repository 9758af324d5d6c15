"""Render the paper's key evaluation figures as terminal graphics.

Regenerates the data for Figs. 8a, 9, 13 and 14 through the library and
draws them with :mod:`repro.viz` — the whole evaluation at a glance,
no plotting stack required.

Run:  python examples/render_figures.py
"""

from repro.core import classify_many
from repro.experiments.throughput import throughput_rows
from repro.profiling import OfflineProfiler
from repro.viz import grouped_bars, hbar_chart, line_plot, stacked_shares
from repro.workloads import (
    BENCHMARK_ORDER,
    EIGHT_CORE_MIXES,
    FOUR_CORE_MIXES,
    get_mix,
    get_workload,
)


def main() -> None:
    profiler = OfflineProfiler()
    fits = profiler.fit_suite()

    print("=" * 72)
    print("Fig. 8a — coefficient of determination per benchmark")
    print("=" * 72)
    print(hbar_chart({name: fits[name].r_squared for name in BENCHMARK_ORDER}, max_value=1.0))

    print()
    print("=" * 72)
    print("Fig. 8b — simulated vs fitted IPC (ferret, 25 sweep points)")
    print("=" * 72)
    profile = profiler.profile(get_workload("ferret"))
    predicted = fits["ferret"].predict(profile.allocations)
    print(
        line_plot(
            range(profile.n_samples),
            {"simulated": profile.ipc, "fitted": predicted},
        )
    )

    print()
    print("=" * 72)
    print("Fig. 9 — re-scaled elasticities (cache filled, bandwidth hollow)")
    print("=" * 72)
    prefs = classify_many(fits)
    print(
        stacked_shares(
            {name: prefs[name].cache_elasticity for name in BENCHMARK_ORDER},
            left_label="cache",
            right_label="memory bandwidth",
        )
    )

    for title, mixes in (
        ("Fig. 13 — 4-core weighted system throughput", FOUR_CORE_MIXES),
        ("Fig. 14 — 8-core weighted system throughput", EIGHT_CORE_MIXES),
    ):
        print()
        print("=" * 72)
        print(title)
        print("=" * 72)
        rows = throughput_rows(profiler, mixes)
        labels = [f"{mix} ({get_mix(mix).characterization})" for mix in mixes]
        # Rows are keyed by legend label, already in legend order.
        series = {
            mechanism: [rows[mix][mechanism] for mix in mixes] for mechanism in rows[mixes[0]]
        }
        print(grouped_bars(labels, series))


if __name__ == "__main__":
    main()
