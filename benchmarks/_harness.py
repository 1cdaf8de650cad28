"""Shared plumbing for the benchmark suite.

Every ``bench_fig*.py`` regenerates one table/figure of the paper at a
benchmark scale (smaller than the full default scenario so the whole suite
finishes in minutes), times it with pytest-benchmark, prints the same
rows/series the paper reports, and archives them under
``benchmarks/results/``.
"""

from __future__ import annotations

import functools
import pathlib
import sys

from repro.experiments import default_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Benchmark-scale scenario knobs (full scale: n_functions=60, hours=6).
BENCH_FUNCTIONS = 40
BENCH_HOURS = 3.0
BENCH_SEED = 7


@functools.lru_cache(maxsize=4)
def scenario_for_bench(pool_gb: float = 32.0):
    """The shared benchmark scenario (cached across bench modules)."""
    return default_scenario(
        n_functions=BENCH_FUNCTIONS,
        hours=BENCH_HOURS,
        seed=BENCH_SEED,
        pool_gb=pool_gb,
    )


def oracles():
    """The sequential reference implementations in ``tests/oracles``.

    The fleet-vs-sequential benches take their reference side from there
    (the scheduler itself only ships the fleet); this puts the repo root
    on ``sys.path`` so ``tests.oracles`` imports from any working
    directory.
    """
    root = str(pathlib.Path(__file__).resolve().parents[1])
    if root not in sys.path:
        sys.path.insert(0, root)
    import tests.oracles

    return tests.oracles


def record(name: str, text: str) -> None:
    """Print a figure's regenerated rows and archive them."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


def run_once(benchmark, fn, *args, **kwargs):
    """Time one full experiment run (experiments are minutes-scale, so a
    single round; pytest-benchmark still reports the wall time)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
