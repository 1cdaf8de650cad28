#!/usr/bin/env python
"""Quickstart: run EcoLife on an Azure-shaped trace and compare baselines.

This walks the public API end to end:

1. build a scenario (hardware pair, invocation trace, carbon intensity);
2. run the EcoLife scheduler;
3. run the fixed baselines and the ORACLE;
4. print the paper-style comparison.

Run with::

    python examples/quickstart.py
"""

from repro.analysis import relative_to_opts, scatter_table
from repro.core import EcoLifeConfig
from repro.experiments import (
    create_scheduler,
    default_scenario,
    run_scheduler,
    run_suite,
)


def main() -> None:
    # A small default scenario: 30 functions, 2 hours, CISO carbon intensity,
    # the paper's Pair A hardware (i3.metal vs m5zn.metal).
    scenario = default_scenario(n_functions=30, hours=2.0, seed=11)
    print(f"scenario: {scenario.label}")
    print(
        f"trace: {len(scenario.trace)} invocations over "
        f"{scenario.trace.duration_s / 3600.0:.1f} h, "
        f"{len(scenario.trace.functions)} functions\n"
    )

    # -- run EcoLife alone and inspect the result object ------------------
    config = EcoLifeConfig(seed=1)
    result = run_scheduler(create_scheduler("ecolife", config), scenario)
    print(result.summary())
    print()

    # -- compare against the paper's schemes, by registry name ------------
    results = run_suite(
        ["co2-opt", "service-time-opt", "oracle", "new-only", "old-only", "ecolife"],
        scenario,
        config=config,
    )
    points = relative_to_opts(results)
    print(scatter_table(points, title="scheme comparison (paper Fig. 7/9 framing)"))

    eco, orc = points["ecolife"], points["oracle"]
    print(
        f"\nEcoLife vs ORACLE: +{eco.service_pct - orc.service_pct:.1f} pp "
        f"service, +{eco.carbon_pct - orc.carbon_pct:.1f} pp carbon "
        f"(paper: within 7.7 / 5.5)"
    )


if __name__ == "__main__":
    main()
