"""Micro-benchmarks of the sweep runner and the KDM cost cache.

Two hot paths introduced by the runner/caching work:

- ``bench_fitness_construction_cached`` vs ``_uncached`` measures the KDM's
  per-decision objective build with warm and cold :class:`CostModel`
  caches (the cached path is what every decision after a function's first
  one pays).
- ``bench_grid_serial`` / ``bench_grid_parallel`` replay a small scenario
  grid through :class:`ParallelRunner` with 1 and 4 workers.

Run directly (plain script, CI-invocable) it instead times one grid
serially (the reference) and on the local process pool, asserts the
two result sets are identical, and archives wall time and jobs/s with
the core count as ``benchmarks/results/BENCH_distributed.json`` (gated
by ``check_regression.py --suite distributed``)::

    PYTHONPATH=src python benchmarks/bench_runner.py --quick
"""

import argparse
import json
import os
import pathlib
import platform
import time

import numpy as np
from _harness import record

from repro.core import ArrivalEstimator, EcoLifeConfig, ObjectiveBuilder
from repro.experiments.runner import ParallelRunner, ScenarioGrid
from repro.workloads import get_function

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

GRID = ScenarioGrid(regions=("CAL", "TEN"), seeds=(7,), n_functions=15, hours=1.0)
GRID_SCHEDULERS = ("oracle", "ecolife")


def _make_builder():
    """A builder over a flat-CI env (mirrors tests/test_core_objective)."""
    from repro.carbon import CarbonIntensityTrace, CarbonModel
    from repro.hardware import PAIR_A, Generation
    from repro.simulator import SimulationConfig, WarmPool
    from repro.simulator.scheduler import SchedulerEnv
    from repro.workloads import InvocationTrace

    cfg = SimulationConfig()
    trace = InvocationTrace.from_events([], functions=[get_function("graph-bfs")])
    pools = {
        g: WarmPool(generation=g, capacity_gb=cfg.capacity(g)) for g in Generation
    }
    model = CarbonModel(trace=CarbonIntensityTrace.constant(250.0))
    env = SchedulerEnv(
        pair=PAIR_A,
        carbon_model=model,
        energy_model=model.energy_model,
        pools=pools,
        trace=trace,
        setup_delay_s=cfg.setup_delay_s,
        kmax_s=cfg.kmax_s,
        k_step_s=cfg.k_step_s,
    )
    return ObjectiveBuilder(env, EcoLifeConfig())


def _arrival():
    est = ArrivalEstimator()
    for t in np.arange(40) * 120.0:
        est.observe(float(t))
    return est


def bench_fitness_construction_cached(benchmark):
    """Objective build with a warm cost cache (the steady-state path)."""
    builder = _make_builder()
    func = get_function("graph-bfs")
    est = _arrival()
    x = np.random.default_rng(0).uniform(size=(15, 2))
    builder.fitness(func, 0.0, est)  # warm the cache

    def build_and_eval():
        return builder.fitness(func, 0.0, est)(x)

    benchmark(build_and_eval)


def bench_fitness_construction_uncached(benchmark):
    """Objective build with a cold cache each round (the pre-cache cost)."""
    func = get_function("graph-bfs")
    est = _arrival()
    x = np.random.default_rng(0).uniform(size=(15, 2))

    def build_and_eval():
        return _make_builder().fitness(func, 0.0, est)(x)

    benchmark(build_and_eval)


def bench_grid_serial(benchmark):
    """Small grid, serial runner (the pre-PR run_suite-style path)."""
    runner = ParallelRunner(n_workers=1)

    def run():
        return runner.run_grid(GRID, GRID_SCHEDULERS)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    record(
        "bench_runner_serial",
        "\n".join(
            f"{s.scenario_label} {s.scheduler_name}: "
            f"{s.total_carbon_g:.2f} g, {s.mean_service_s:.3f} s"
            for s in result.summaries
        ),
    )


def bench_grid_parallel(benchmark):
    """Same grid over a 4-worker process pool; results must match serial."""
    serial = ParallelRunner(n_workers=1).run_grid(GRID, GRID_SCHEDULERS)
    runner = ParallelRunner(n_workers=4)

    def run():
        return runner.run_grid(GRID, GRID_SCHEDULERS)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert [s.deterministic_dict() for s in result.summaries] == [
        s.deterministic_dict() for s in serial.summaries
    ]


def _det(result):
    return [s.deterministic_dict() for s in result.summaries]


def time_sweep(grid, schedulers, n_workers=2):
    """Time one grid serially and on an ``n_workers`` local pool.

    The serial run is the reference; the pool's summaries must equal it
    field-for-field (``identical`` is 1.0 or the gate fails).
    """
    n_jobs = len(grid.jobs(list(schedulers)))
    t0 = time.perf_counter()
    serial = ParallelRunner(n_workers=1).run_grid(grid, schedulers)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pool = ParallelRunner(n_workers=n_workers).run_grid(grid, schedulers)
    pool_s = time.perf_counter() - t0
    return {
        "serial": {"wall_s": serial_s, "jobs_per_s": n_jobs / serial_s},
        "local_pool": {
            "wall_s": pool_s,
            "jobs_per_s": n_jobs / pool_s,
            "workers": n_workers,
            "identical": float(_det(pool) == _det(serial)),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-scale run (smaller grid)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="local pool size (default: 2)",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "BENCH_distributed.json"),
        help="JSON output path",
    )
    args = parser.parse_args(argv)

    if args.quick:
        grid = ScenarioGrid(
            regions=("CAL", "TEN"), seeds=(7,), n_functions=10, hours=0.5
        )
    else:
        grid = ScenarioGrid(
            regions=("CAL", "TEN"), seeds=(7, 8), n_functions=15, hours=1.0
        )
    n_jobs = len(grid.jobs(list(GRID_SCHEDULERS)))

    payload = {
        "bench": "distributed",
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "n_jobs": n_jobs,
        **time_sweep(grid, GRID_SCHEDULERS, args.workers),
    }

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    serial, pool = payload["serial"], payload["local_pool"]
    print(
        f"grid: {n_jobs} jobs on {payload['cpu_count']} cores; serial "
        f"{serial['wall_s']:.2f}s ({serial['jobs_per_s']:.2f} jobs/s)"
    )
    print(
        f"local_pool: {pool['wall_s']:.2f}s with {pool['workers']} workers "
        f"({pool['jobs_per_s']:.2f} jobs/s, "
        f"{serial['wall_s'] / pool['wall_s']:.2f}x vs serial, "
        f"identical={pool['identical']:g})"
    )
    if pool["identical"] != 1.0:
        print("FAIL: local pool results differ from serial")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
