"""Micro-benchmarks of the hot paths (simulator throughput, PSO decisions).

These are classic multi-round pytest-benchmark measurements (unlike the
figure benches, which time one full experiment).
"""

import numpy as np
from _harness import oracles, scenario_for_bench

from repro.baselines import new_only
from repro.core import ArrivalEstimator, EcoLifeConfig, EcoLifeScheduler
from repro.experiments.common import run_scheduler

DynamicPSO = oracles().DynamicPSO


def bench_engine_throughput_fixed_policy(benchmark):
    """Trace replay speed with a trivial scheduler (engine overhead)."""
    scenario = scenario_for_bench()

    def run():
        return run_scheduler(new_only, scenario)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    rate = len(result) / max(result.wall_time_s, 1e-9)
    print(f"\nengine throughput: {rate:,.0f} invocations/s (fixed policy)")
    assert len(result) > 0


def bench_ecolife_full_replay(benchmark):
    """Trace replay speed with the full EcoLife stack."""
    scenario = scenario_for_bench()

    def run():
        return run_scheduler(lambda: EcoLifeScheduler(EcoLifeConfig()), scenario)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rate = len(result) / max(result.wall_time_s, 1e-9)
    print(f"\necolife throughput: {rate:,.0f} invocations/s")


def bench_dpso_step(benchmark):
    """One DPSO perceive+step cycle (the per-invocation decision core)."""
    rng = np.random.default_rng(0)
    opt = DynamicPSO(dim=2, rng=rng)
    target = np.array([0.4, 0.6])

    def fitness(x):
        return ((x - target) ** 2).sum(axis=1)

    def cycle():
        opt.perceive(1.0, 5.0)
        opt.step(fitness, iterations=8)
        return opt.gbest_position

    benchmark(cycle)


def bench_arrival_estimator_queries(benchmark):
    """Vectorised p_warm over the K_AT grid."""
    est = ArrivalEstimator()
    for t in np.cumsum(np.random.default_rng(1).exponential(120.0, 64)):
        est.observe(float(t))
    grid = np.arange(31, dtype=float) * 60.0

    def query():
        return est.p_warm(grid)

    benchmark(query)


def bench_carbon_integration(benchmark):
    """CI-trace integration (the accounting hot path)."""
    from repro.carbon import generate_region_trace

    trace = generate_region_trace("CAL", days=2, seed=0)

    def integrate():
        total = 0.0
        for t0 in range(0, 86400, 600):
            total += trace.energy_to_carbon_g(1.5, float(t0), float(t0) + 480.0)
        return total

    benchmark(integrate)
