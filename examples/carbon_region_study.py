#!/usr/bin/env python
"""Domain scenario: where should a sustainability team deploy keep-alive?

Uses the public API to answer a practical question the paper motivates:
how much carbon does carbon-aware keep-alive scheduling save in *your grid
region*, and how does the region's carbon-intensity profile change the
answer? Runs EcoLife and the fixed NEW-ONLY policy across all five regions
and reports the savings plus the region's CI character.

Run with::

    python examples/carbon_region_study.py
"""

from repro.analysis import ascii_table
from repro.carbon import REGION_NAMES, region_trace_for
from repro.core import EcoLifeConfig
from repro.experiments import default_scenario, run_suite


def main() -> None:
    base = default_scenario(n_functions=30, hours=2.0, seed=5)
    horizon = base.trace.duration_s + 3600.0

    rows = []
    for region in REGION_NAMES:
        ci = region_trace_for(region, horizon, seed=3, start_hour=8.0)
        scenario = base.with_ci(ci, label=f"{base.label}|{region}")

        results = run_suite(
            ["ecolife", "new-only"], scenario, config=EcoLifeConfig(seed=2)
        )
        eco, fixed = results["ecolife"], results["new-only"]

        saving = (1.0 - eco.total_carbon_g / fixed.total_carbon_g) * 100.0
        slower = (eco.mean_service_s / fixed.mean_service_s - 1.0) * 100.0
        rows.append(
            [
                region,
                float(ci.values.mean()),
                ci.hourly_fluctuation_pct(),
                eco.total_carbon_g,
                fixed.total_carbon_g,
                saving,
                slower,
            ]
        )

    print(
        ascii_table(
            [
                "region",
                "mean CI",
                "CI fluct %",
                "ecolife g",
                "new-only g",
                "co2 saving %",
                "svc delta %",
            ],
            rows,
            title="EcoLife vs fixed 10-min keep-alive, by grid region",
        )
    )
    print(
        "\nReading: savings come from adapting keep-alive period/location to "
        "each function's arrival pattern and the grid's carbon intensity; "
        "volatile, solar-heavy grids (CAL) reward carbon-awareness the most."
    )


if __name__ == "__main__":
    main()
