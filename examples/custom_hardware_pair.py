#!/usr/bin/env python
"""Domain scenario: evaluate EcoLife on *your own* hardware generations.

The paper argues hardware refresh cycles leave every datacenter with
multi-generation fleets. This example shows how to describe a custom
old/new pair (an ARM-style efficiency part vs a high-power x86 part),
plug it into the simulator, and measure whether EcoLife can exploit it.

Run with::

    python examples/custom_hardware_pair.py
"""

from repro.analysis import relative_to_opts, scatter_table
from repro.core import EcoLifeConfig
from repro.experiments import default_scenario, run_suite
from repro.hardware import CPUSpec, DRAMSpec, Generation, HardwarePair, ServerSpec

# -- describe the fleet -------------------------------------------------------

GRAVITON_STYLE_2019 = ServerSpec(
    key="efficiency-2019",
    generation=Generation.OLD,
    cpu=CPUSpec(
        name="Efficiency ARM 64c",
        year=2019,
        cores=64,
        full_power_w=220.0,  # efficiency-oriented part
        idle_power_w=28.0,  # 0.44 W/core keep-alive
        embodied_kg=180.0,
    ),
    dram=DRAMSpec(
        name="DDR4-256",
        year=2019,
        capacity_gb=256.0,
        embodied_kg_per_gb=1.3,
        power_w_per_gb=0.35,
    ),
    perf_index=0.8,  # slower per-core than the new x86 part
)

X86_2022 = ServerSpec(
    key="performance-2022",
    generation=Generation.NEW,
    cpu=CPUSpec(
        name="Performance x86 32c",
        year=2022,
        cores=32,
        full_power_w=350.0,
        idle_power_w=45.0,  # 1.4 W/core keep-alive
        embodied_kg=260.0,
    ),
    dram=DRAMSpec(
        name="DDR5-256",
        year=2022,
        capacity_gb=256.0,
        embodied_kg_per_gb=1.0,
        power_w_per_gb=0.30,
    ),
    perf_index=1.0,
)

CUSTOM_PAIR = HardwarePair(
    name="custom",
    old=GRAVITON_STYLE_2019,
    new=X86_2022,
    description="efficiency ARM (2019) vs performance x86 (2022)",
)


def main() -> None:
    scenario = default_scenario(n_functions=30, hours=2.0, seed=21).with_pair(
        CUSTOM_PAIR
    )
    results = run_suite(
        ["co2-opt", "service-time-opt", "oracle", "ecolife"],
        scenario,
        config=EcoLifeConfig(seed=4),
    )
    print(
        scatter_table(
            relative_to_opts(results),
            title=f"custom pair: {CUSTOM_PAIR.description}",
        )
    )
    eco = results["ecolife"]
    old_execs = eco.location_counts()[Generation.OLD]
    print(
        f"\nEcoLife executed {old_execs}/{len(eco)} invocations on the "
        f"efficiency generation and kept the rest on the fast generation -- "
        f"the keep-alive/pool split is what turns the old fleet into a "
        f"carbon asset instead of e-waste."
    )


if __name__ == "__main__":
    main()
