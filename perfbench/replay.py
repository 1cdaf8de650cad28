"""The two replay workloads: ``azure-sample`` and ``minute-burst``.

Both replay the same perturbed Azure-shaped sample through the trace
ingest path (``compile_azure_csv`` then ``InvocationTrace.open`` with
mmap) and default EcoLife. ``azure-sample`` keeps arrivals continuous
and sizes the pools above the working set, so every keep-alive decision
has width 1 and the pool adjuster never runs. ``minute-burst`` floors
arrivals to their minute and shrinks the pools far below the working
set, so decisions batch and nearly every activation overflows.

A replay drives the engine the way ``SimulationEngine.run`` does --
``start()``, ``step_batch()``, ``finish()`` -- but feeds the trace in
steps of about ``STEP`` arrivals and times each step. Step boundaries
never fall inside a group of same-instant arrivals, so the scheduler
sees the same batches as in ``run()``, and the engine guarantees that
stepping boundaries do not change decisions (the record hash checks
it). A run repeats the replay while ``--seconds`` lasts and reports the
per-step minimum over the repeats (``measure.quiet``).
"""

from __future__ import annotations

import gc
import itertools
import pathlib
import time
from dataclasses import dataclass

import numpy as np

from inputs import CI_SEED, workload_csv
from measure import (
    another_fits,
    hash_record_arrays,
    median,
    peak_rss_mb,
    percentile,
    quiet,
)
from report import layer_metrics, pool_outcomes
from tracing import Tracer, install

#: Half an hour of the sample (~1.5k arrivals), so a run fits ~30
#: replays. With an hour (~15 replays) the per-arrival minimum behind
#: ``decide_p99_ms`` had not settled: the p99 over half the replays read
#: ~5% above the p99 over all of them, and it spread across seeds twice
#: as far as ``decide_p50_ms``.
HOURS = 0.5
POOL_GB = {"azure-sample": 64.0, "minute-burst": 4.0}
#: Arrivals per timed engine step (~30 ms of work).
STEP = 32
#: Replays per untraced run, at least; more while ``--seconds`` lasts.
MIN_REPLAYS = 3
#: Set-ups before each replay; ``setup_s`` is the median of all.
SETUPS_PER_REPLAY = 3
#: Untraced/traced replay pairs in a traced run.
OVERHEAD_PAIRS = 3


@dataclass
class Replay:
    """Outcome of one timed replay."""

    digest: str
    n: int
    #: Host time of each engine step, then of ``finish()``, then of the
    #: result aggregation.
    steps_s: list[float]
    decide_ms: list[float]
    carbon_g: float
    service_s_mean: float
    pools: dict[str, float]

    @property
    def aggregate_s(self) -> float:
        return self.steps_s[-1]


def set_up(csv_path: pathlib.Path, npz_path: pathlib.Path, pool_gb: float):
    """Compile the CSV and open the trace: the program's set-up path."""
    from repro.experiments.common import trace_scenario
    from repro.workloads import tracefile

    tracefile.compile_azure_csv(csv_path, npz_path)
    return trace_scenario(str(npz_path), seed=CI_SEED, pool_gb=pool_gb)


def step_cuts(times_s: np.ndarray, size: int = STEP) -> list[int]:
    """Step boundaries every ``size`` arrivals or a little later.

    A boundary moves forward past arrivals sharing the previous one's
    instant, so no group of same-instant arrivals is split.
    """
    n = len(times_s)
    cuts = [0]
    i = size
    while i < n:
        while i < n and times_s[i] == times_s[i - 1]:
            i += 1
        if i < n:
            cuts.append(i)
        i += size
    cuts.append(n)
    return cuts


def replay(scenario, cuts: list[int]) -> Replay:
    """One default-EcoLife replay plus result aggregation, timed per step."""
    from repro.core import EcoLifeConfig, EcoLifeScheduler
    from repro.simulator.engine import SimulationEngine

    engine = SimulationEngine(
        pair=scenario.pair,
        trace=scenario.trace,
        ci_trace=scenario.ci_trace,
        config=scenario.sim_config,
    )
    scheduler = EcoLifeScheduler(EcoLifeConfig())
    arrivals = ((inv.t, inv.func) for inv in scenario.trace)
    clock = time.perf_counter
    steps_s = []
    mark = clock()
    engine.start(scheduler)
    for a, b in zip(cuts, cuts[1:]):
        engine.step_batch(itertools.islice(arrivals, b - a))
        now = clock()
        steps_s.append(now - mark)
        mark = now
    result = engine.finish()
    now = clock()
    steps_s.append(now - mark)
    mark = now
    arrays = result.record_arrays()
    carbon_g = result.total_carbon_g
    service_s_mean = result.mean_service_s
    pools = pool_outcomes(result)
    steps_s.append(clock() - mark)
    return Replay(
        digest=hash_record_arrays(arrays),
        n=len(result.records),
        steps_s=steps_s,
        decide_ms=[r.decision_wall_s * 1e3 for r in result.records],
        carbon_g=carbon_g,
        service_s_mean=service_s_mean,
        pools=pools,
    )


def _check_inputs(workload: str, scenario, rows: int) -> bool:
    trace = scenario.trace
    if len(trace) != rows:
        return False
    if workload == "minute-burst":
        return bool((trace.times_s % 60.0 == 0.0).all())
    return True


def run(workload: str, seed: int, seconds: float, work: pathlib.Path) -> dict:
    """The untraced run: end-to-end metrics."""
    csv_path, rows = workload_csv(
        workload, seed, work, hours=HOURS, per_minute=workload == "minute-burst"
    )
    pool_gb = POOL_GB[workload]
    setup_s: list[float] = []
    replays: list[Replay] = []
    run_start = time.perf_counter()
    # Set-ups alternate with replays, so both sample the whole run.
    while another_fits(run_start, len(replays), seconds, MIN_REPLAYS):
        for _ in range(SETUPS_PER_REPLAY):
            npz_path = work / f"{workload}-{seed}-{len(setup_s)}.npz"
            gc.collect()
            start = time.perf_counter()
            scenario = set_up(csv_path, npz_path, pool_gb)
            setup_s.append(time.perf_counter() - start)
        if not replays:
            cuts = step_cuts(scenario.trace.times_s)
        gc.collect()
        replays.append(replay(scenario, cuts))

    first = replays[0]
    failed = sum(
        1
        for r in replays
        if r.digest != first.digest
        or r.n != rows
        or (r.carbon_g, r.service_s_mean) != (first.carbon_g, first.service_s_mean)
    )
    # The engine times every decision; at saturation the scheduler would
    # decide n / (total decision time) arrivals per second. It batches
    # them itself (width 1 on azure-sample), so the batched rate is the
    # same figure.
    decide_ms = quiet([r.decide_ms for r in replays])
    decided_per_s = first.n / (float(decide_ms.sum()) / 1e3)
    metrics = {
        "setup_s": median(setup_s),
        "replay_inv_per_s": first.n / float(quiet([r.steps_s for r in replays]).sum()),
        "peak_rss_mb": peak_rss_mb(),
        "sim_carbon_g": first.carbon_g,
        "sim_service_s_mean": first.service_s_mean,
        "decide_p50_ms": percentile(decide_ms.tolist(), 50.0),
        "decide_p99_ms": percentile(decide_ms.tolist(), 99.0),
        "decide_max_rps": decided_per_s,
        "decide_batch_per_s": decided_per_s,
    }
    return {
        "correct": failed == 0 and _check_inputs(workload, scenario, rows),
        "attempted": len(replays),
        "failed": failed,
        "metrics": metrics,
    }


def run_traced(workload: str, seed: int, work: pathlib.Path) -> dict:
    """The traced run: per-layer metrics from one wrapped replay."""
    csv_path, rows = workload_csv(
        workload, seed, work, hours=HOURS, per_minute=workload == "minute-burst"
    )
    pool_gb = POOL_GB[workload]

    setup_tracer = Tracer()
    with install(setup_tracer):
        for i in range(MIN_REPLAYS):
            scenario = set_up(csv_path, work / f"{workload}-{seed}-{i}.npz", pool_gb)
    cuts = step_cuts(scenario.trace.times_s)
    # Alternate untraced and traced replays, so the overhead ratio is not
    # one pair's luck on a shared host; the last traced replay's spans
    # are the per-layer figures.
    plain: list[Replay] = []
    traced: list[Replay] = []
    for _ in range(OVERHEAD_PAIRS):
        gc.collect()
        plain.append(replay(scenario, cuts))
        tracer = Tracer()
        gc.collect()
        with install(tracer):
            traced.append(replay(scenario, cuts))
    tracer.save(str(work / f"spans-{workload}-{seed}.npz"))

    extra = {
        "workloads.compile_s": median(list(setup_tracer.durations("workloads.compile"))),
        "workloads.open_s": median(list(setup_tracer.durations("workloads.open"))),
        "records.aggregate_s": min(r.aggregate_s for r in plain),
        "trace.overhead_ratio": float(quiet([r.steps_s for r in traced]).sum())
        / float(quiet([r.steps_s for r in plain]).sum()),
        **traced[-1].pools,
    }
    every = plain + traced
    failed = sum(1 for r in every if r.digest != plain[0].digest or r.n != rows)
    return {
        "correct": failed == 0 and _check_inputs(workload, scenario, rows),
        "attempted": len(every),
        "failed": failed,
        "metrics": layer_metrics(tracer.summary(), tracer.counters, extra),
    }
