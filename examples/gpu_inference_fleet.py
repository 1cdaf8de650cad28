#!/usr/bin/env python
"""Paper-extension scenario: multi-generation *GPU* inference serving.

The paper's discussion notes that "EcoLife can be adapted for
multi-generation GPUs using the GPU-specific carbon footprint model and
measurement". The carbon model only needs per-device power/embodied
constants and a performance index, so a GPU generation maps cleanly onto a
:class:`~repro.hardware.specs.ServerSpec`:

- "CPU package"      -> GPU board (full power = inference TGP, idle power =
  the board power attributable to resident-but-idle model replicas);
- "cores"            -> concurrent model slots (MIG-style partitions);
- "DRAM"             -> HBM/VRAM (keep-alive = model weights staying
  resident, the GPU analogue of a warm container);
- cold start         -> weight loading + CUDA context creation, which is
  exactly why keep-alive matters so much for GPU serving.

Run with::

    python examples/gpu_inference_fleet.py
"""

from repro.analysis import keepalive_behaviour, relative_to_opts, scatter_table
from repro.core import EcoLifeConfig
from repro.experiments import default_scenario, run_suite
from repro.hardware import CPUSpec, DRAMSpec, Generation, HardwarePair, ServerSpec
from repro.workloads import AzureTraceConfig

V100_NODE = ServerSpec(
    key="v100-2018",
    generation=Generation.OLD,
    cpu=CPUSpec(
        name="V100-class board",
        year=2018,
        cores=8,  # concurrent model slots
        full_power_w=300.0,
        idle_power_w=14.0,  # 1.75 W per resident replica
        embodied_kg=120.0,
    ),
    dram=DRAMSpec(
        name="HBM2-32",
        year=2018,
        capacity_gb=32.0,
        embodied_kg_per_gb=2.2,  # HBM stacks are embodied-expensive
        power_w_per_gb=0.9,
    ),
    perf_index=0.55,  # roughly half the new board's inference throughput
)

H100_NODE = ServerSpec(
    key="h100-2023",
    generation=Generation.NEW,
    cpu=CPUSpec(
        name="H100-class board",
        year=2023,
        cores=7,  # MIG slices
        full_power_w=700.0,
        idle_power_w=48.0,  # 6.9 W per resident replica
        embodied_kg=380.0,
    ),
    dram=DRAMSpec(
        name="HBM3-80",
        year=2023,
        capacity_gb=80.0,
        embodied_kg_per_gb=1.8,
        power_w_per_gb=0.8,
    ),
    perf_index=1.0,
)

GPU_PAIR = HardwarePair(
    name="GPU",
    old=V100_NODE,
    new=H100_NODE,
    description="V100 (2018) vs H100 (2023) inference nodes",
)


def main() -> None:
    # Inference workloads: model-sized memory footprints, long cold starts
    # (weight loading); reuse the Azure-shaped arrival process.
    scenario = default_scenario(n_functions=24, hours=2.0, seed=17).with_pair(
        GPU_PAIR
    )
    # Make the trace reflect model-serving footprints by scaling memory up.
    from repro.workloads import generate_azure_trace

    trace, _ = generate_azure_trace(
        AzureTraceConfig(
            n_functions=24,
            duration_s=2 * 3600.0,
            seed=17,
            mem_scale_range=(2.0, 6.0),  # 0.3 GB thumbnails -> multi-GB models
        )
    )
    import dataclasses

    scenario = dataclasses.replace(scenario, trace=trace, label="gpu-inference")

    results = run_suite(
        ["co2-opt", "service-time-opt", "oracle", "ecolife"],
        scenario,
        config=EcoLifeConfig(seed=6),
    )
    print(
        scatter_table(
            relative_to_opts(results),
            title="multi-generation GPU inference fleet",
        )
    )

    behaviour = keepalive_behaviour(results["ecolife"])
    print(
        f"\nEcoLife keep-alive on the GPU fleet: median period "
        f"{behaviour.median_k_min:.0f} min, {behaviour.old_fraction * 100:.0f}% "
        f"of keep-alives on the V100 generation, "
        f"{behaviour.no_keepalive_fraction * 100:.0f}% of invocations not "
        f"kept resident at all."
    )
    print(
        "Reading: resident model replicas on the older board are the GPU "
        "analogue of warm containers on old CPUs -- cheap to hold, slower "
        "to serve; EcoLife exploits exactly the same trade-off the paper "
        "identifies for CPUs."
    )


if __name__ == "__main__":
    main()
