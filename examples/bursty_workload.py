#!/usr/bin/env python
"""Domain scenario: memory pressure under a bursty workload.

The paper's warm-pool adjustment (Fig. 6/11) matters when keep-alive memory
is scarce. This example builds a deliberately bursty Azure-shaped trace,
squeezes the warm pools, and shows what the adjustment mechanism buys over
(a) EcoLife without it and (b) the OpenWhisk-style fixed policy.

Run with::

    python examples/bursty_workload.py
"""

from repro.analysis import ascii_table
from repro.carbon import region_trace_for
from repro.core import EcoLifeConfig
from repro.experiments.common import Scenario, run_suite
from repro.hardware import get_pair
from repro.simulator import SimulationConfig
from repro.workloads import AzureTraceConfig, generate_azure_trace


def main() -> None:
    # A trace where every second function bursts to 25x its base rate.
    trace, specs = generate_azure_trace(
        AzureTraceConfig(
            n_functions=24,
            duration_s=2 * 3600.0,
            seed=13,
            burst_probability=0.5,
            burst_rate_multiplier=25.0,
        )
    )
    bursty = sum(1 for s in specs if s.bursty)
    print(
        f"trace: {len(trace)} invocations, {bursty}/{len(specs)} bursty "
        f"functions, total warm footprint "
        f"{sum(f.mem_gb for f in trace.functions.values()):.1f} GB"
    )

    scenario = Scenario(
        pair=get_pair("A"),
        trace=trace,
        ci_trace=region_trace_for("CAL", trace.duration_s + 3600.0, seed=13),
        sim_config=SimulationConfig(
            pool_capacity_old_gb=6.0, pool_capacity_new_gb=6.0
        ),
        label="bursty-tight-memory",
    )

    labels = {
        "ecolife": "ecolife",
        "ecolife-no-adjust": "ecolife w/o adjustment",
        "new-only": "new-only (10 min fixed)",
    }
    results = run_suite(list(labels), scenario, config=EcoLifeConfig(seed=9))
    rows = []
    for name, r in results.items():
        rows.append(
            [
                labels[name],
                r.mean_service_s,
                r.total_carbon_g,
                r.warm_ratio * 100.0,
                r.evicted_count + r.dropped_count,
                r.spilled_count,
            ]
        )

    print(
        ascii_table(
            ["scheduler", "svc (s)", "co2 (g)", "warm %", "evicted", "spilled"],
            rows,
            title="bursty workload, 6/6 GB warm pools",
        )
    )
    print(
        "\nReading: under memory pressure the adjustment mechanism re-ranks "
        "the pool by warm-vs-cold benefit and spills lower-value containers "
        "to the other generation instead of dropping them."
    )


if __name__ == "__main__":
    main()
