"""Swarm-fleet benchmark: fused stepping vs per-function loops.

Six measurements:

1. **Step throughput** -- N live DPSO swarms advanced for one EcoLife
   decision (perceive + refresh + iterations) as N independent
   ``DynamicPSO`` objects (``tests/oracles``) vs one ``SwarmFleet`` call, against the
   bit-identical sequential reference. This isolates the PR 2
   fused-kernel win (>=2x acceptance gate at 50 functions).
2. **Fully-fused step** -- 256 swarms against the *real* batched
   objective (cost vectors + empirical arrivals): the earlier fused
   path (per-swarm perception + the per-particle objective with its
   per-function ``p_warm`` loop, from ``tests/oracles``) vs the
   fully-fused path (batched perception + the objective table, which
   queries each estimator once per decision on the K_AT grid). Both
   legs draw from the same per-swarm RNG streams. This isolates the
   last per-function Python loops inside the fused step (>=2x
   additional gate at 256 swarms).
3. **End-to-end replay** -- a tick-quantised multi-function trace
   through the full engine, EcoLife (fleet) vs the sequential-DPSO
   EcoLife oracle from ``tests/oracles``, exercising the same-tick
   ``keepalive_batch`` fused path (bit-identical).
4. **Continuous-trace replay** -- a Poisson (non-quantised) trace
   through the default engine, whose lookahead grouping batches
   distinct functions' decisions up to the earliest staged completion,
   vs the per-arrival reference replay from ``tests/oracles`` (one
   ``keepalive`` per arrival). The completion-bounded flush keeps the
   grouped replay bit-identical, so the measured objective error must
   be exactly zero (asserted).
5. **Trace files** -- the Azure-day sample written, compiled to the
   columnar format, and replayed from mmap: compiler rows/s, and the
   replay's peak RSS via mmap vs a fully materialized per-event Python
   trace (mmap must stay below, asserted on full runs).
6. **Pool adjustment** -- section 4's Poisson trace replayed with pools
   small enough that most activations overflow, recording every
   ``AdjustmentRequest``; the one-pass ``WarmPoolAdjuster.rank`` is then
   timed against the scalar per-candidate ranker from ``tests/oracles``
   on the recorded requests, alternating the two within each repeat,
   and the orderings must be identical (asserted).

Run directly (no pytest-benchmark dependency, so CI can invoke it as a
plain script)::

    PYTHONPATH=src python benchmarks/bench_swarm.py --quick

Results are printed and archived as JSON under
``benchmarks/results/BENCH_swarm.json`` (plus the continuous-trace
section standalone as ``BENCH_continuous.json``); both are uploaded as
CI artifacts to accumulate the perf trajectory.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import time

import numpy as np

from repro.carbon import CarbonIntensityTrace, CarbonModel
from repro.core import (
    ArrivalEstimator,
    EcoLifeConfig,
    EcoLifeScheduler,
    ObjectiveBuilder,
)
from repro.hardware import PAIR_A
from repro.optimizers import DPSOParams, SwarmFleet
from repro.simulator import SimulationConfig, SimulationEngine, WarmPool
from repro.simulator.scheduler import SchedulerEnv
from repro.workloads import FunctionProfile, InvocationTrace

from _harness import oracles

DynamicPSO = oracles().DynamicPSO
sequential_ecolife = oracles().sequential_ecolife
reference_replay = oracles().reference_replay
looped_batch_fitness = oracles().objective.looped_batch_fitness
oracle_rank = oracles().adjustment.rank

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


# ---------------------------------------------------------------------------
# 1. Step throughput: fleet vs per-function loop.
# ---------------------------------------------------------------------------


def _solo_decision(opts, targets, iterations):
    for i, opt in enumerate(opts):
        opt.perceive(1.0, 5.0)
        opt.step(lambda x, t=targets[i]: ((x - t) ** 2).sum(axis=1), iterations)


def _fleet_decision(fleet, idx, batch_fit, iterations):
    for i in idx:
        fleet.perceive_batch([i], [1.0], [5.0])
    fleet.step(idx, batch_fit, iterations)


def bench_step_throughput(
    n_swarms: int, decisions: int, iterations: int, repeats: int
) -> dict:
    """Time `decisions` same-tick decision rounds for `n_swarms` functions."""
    targets = np.linspace(0.05, 0.95, n_swarms)

    def batch_fit(x):
        return ((x - targets[: len(x), None, None]) ** 2).sum(axis=2)

    def run_solo():
        opts = [
            DynamicPSO(dim=2, rng=np.random.default_rng(i), n_particles=15)
            for i in range(n_swarms)
        ]
        t0 = time.perf_counter()
        for _ in range(decisions):
            _solo_decision(opts, targets, iterations)
        return time.perf_counter() - t0, opts

    def run_fleet():
        fleet = SwarmFleet(dim=2, n_particles=15, params=DPSOParams())
        for i in range(n_swarms):
            fleet.add_swarm(np.random.default_rng(i))
        idx = np.arange(n_swarms)
        t0 = time.perf_counter()
        for _ in range(decisions):
            _fleet_decision(fleet, idx, batch_fit, iterations)
        return time.perf_counter() - t0, fleet

    solo_s = fleet_s = float("inf")
    opts = fleet = None
    for _ in range(repeats):
        s, opts = run_solo()
        f, fleet = run_fleet()
        solo_s, fleet_s = min(solo_s, s), min(fleet_s, f)

    # Equivalence guard: a fast-but-wrong kernel is not a result.
    for i, opt in enumerate(opts):
        assert np.array_equal(opt.positions, fleet.positions[i]), (
            f"fleet diverged from sequential DPSO at swarm {i}"
        )

    steps = decisions * n_swarms
    return {
        "n_swarms": n_swarms,
        "decisions": decisions,
        "iterations_per_decision": iterations,
        "loop_s": solo_s,
        "fleet_s": fleet_s,
        "loop_decisions_per_s": steps / solo_s,
        "fleet_decisions_per_s": steps / fleet_s,
        "speedup": solo_s / fleet_s,
    }


# ---------------------------------------------------------------------------
# 2. Fully-fused step: batched perception + objective table vs the
#    per-particle objective path.
# ---------------------------------------------------------------------------


def _bench_env() -> SchedulerEnv:
    """A standalone SchedulerEnv (no engine) for objective construction."""
    from repro.hardware.specs import GENERATIONS

    sim = SimulationConfig()
    trace = InvocationTrace.from_events([])
    pools = {
        g: WarmPool(generation=g, capacity_gb=sim.capacity(g))
        for g in GENERATIONS
    }
    model = CarbonModel(trace=CarbonIntensityTrace.constant(250.0))
    return SchedulerEnv(
        pair=PAIR_A,
        carbon_model=model,
        energy_model=model.energy_model,
        pools=pools,
        trace=trace,
        setup_delay_s=sim.setup_delay_s,
        kmax_s=sim.kmax_s,
        k_step_s=sim.k_step_s,
    )


def bench_fused_step(
    n_swarms: int, decisions: int, iterations: int, repeats: int
) -> dict:
    """Fused decision rounds against the real batched objective.

    The ``pr4`` leg is the fused step with its objective as it first
    shipped: per-swarm :meth:`~SwarmFleet.perceive` calls and the
    per-particle objective with its per-function
    ``p_warm``/``E[min(IAT, k)]`` query loop
    (``tests/oracles/objective.py``). The fused leg replaces both with
    batched kernels (:meth:`~SwarmFleet.perceive_batch` + the objective
    table). Both legs take ``r1``/``r2`` from the same per-swarm
    ``Generator`` streams, so the ratio measures the objective and
    perception layers only. Each round rebuilds the fitness closure, as
    the KDM does per decision batch.
    """
    env = _bench_env()
    builder = ObjectiveBuilder(env, EcoLifeConfig())
    funcs = [
        FunctionProfile(
            name=f"f{i}",
            mem_gb=0.3 + 0.05 * (i % 8),
            exec_ref_s=0.8 + 0.1 * (i % 12),
            cold_ref_s=0.6 + 0.05 * (i % 5),
        )
        for i in range(n_swarms)
    ]
    arrival_rng = np.random.default_rng(42)
    arrivals = []
    for i in range(n_swarms):
        est = ArrivalEstimator()
        t = 0.0
        for gap in arrival_rng.exponential(60.0 + 5.0 * (i % 9), size=40):
            t += float(gap)
            est.observe(t)
        arrivals.append(est)
    ts = [3600.0 + float(i) for i in range(n_swarms)]

    deltas = np.full(n_swarms, 1.0), np.full(n_swarms, 5.0)

    def run(fused: bool) -> float:
        fleet = SwarmFleet(dim=2, n_particles=15, params=DPSOParams())
        for i in range(n_swarms):
            fleet.add_swarm(np.random.default_rng(i))
        idx = np.arange(n_swarms)
        t0 = time.perf_counter()
        for _ in range(decisions):
            if fused:
                fleet.perceive_batch(idx, *deltas)
            else:
                # The earlier KDM perceived (and redistributed) per swarm.
                for i in idx:
                    fleet.perceive_batch([i], [1.0], [5.0])
            if fused:
                fit = builder.batch_fitness(funcs, ts, arrivals)
            else:
                fit = looped_batch_fitness(builder, funcs, ts, arrivals)
            fleet.step(idx, fit, iterations)
        return time.perf_counter() - t0

    pr4_s = fused_s = float("inf")
    for _ in range(repeats):
        pr4_s = min(pr4_s, run(False))
        fused_s = min(fused_s, run(True))

    steps = decisions * n_swarms
    return {
        "n_swarms": n_swarms,
        "decisions": decisions,
        "iterations_per_decision": iterations,
        "pr4_s": pr4_s,
        "fused_s": fused_s,
        "pr4_decisions_per_s": steps / pr4_s,
        "fused_decisions_per_s": steps / fused_s,
        "fused_speedup": pr4_s / fused_s,
    }


# ---------------------------------------------------------------------------
# 3. End-to-end replay: fleet vs the sequential-DPSO oracle.
# ---------------------------------------------------------------------------


def _quantized_trace(n_funcs: int, n_ticks: int, tick_s: float) -> InvocationTrace:
    funcs = [
        FunctionProfile(
            name=f"f{i}",
            mem_gb=0.4 + 0.1 * (i % 4),
            exec_ref_s=1.0 + 0.25 * (i % 8),
            cold_ref_s=0.8,
        )
        for i in range(n_funcs)
    ]
    events = [(k * tick_s, f) for k in range(n_ticks) for f in funcs]
    return InvocationTrace.from_events(events)


def bench_replay(n_funcs: int, n_ticks: int, repeats: int) -> dict:
    """Full engine replay of a tick-quantised trace, fleet (batching on)
    vs the sequential-DPSO oracle (batching off)."""

    def run(flag):
        engine = SimulationEngine(
            pair=PAIR_A,
            trace=_quantized_trace(n_funcs, n_ticks, tick_s=60.0),
            ci_trace=CarbonIntensityTrace.constant(250.0),
            config=SimulationConfig(
                pool_capacity_old_gb=0.5 * n_funcs,
                pool_capacity_new_gb=0.5 * n_funcs,
                measure_decision_overhead=False,
            ),
        )
        t0 = time.perf_counter()
        config = EcoLifeConfig()
        result = engine.run(
            EcoLifeScheduler(config) if flag else sequential_ecolife(config)
        )
        return time.perf_counter() - t0, result

    on_s = off_s = float("inf")
    on = off = None
    for _ in range(repeats):
        t, on = run(True)
        on_s = min(on_s, t)
        t, off = run(False)
        off_s = min(off_s, t)
    assert on.total_carbon_g == off.total_carbon_g, "batched replay diverged"

    return {
        "n_functions": n_funcs,
        "n_invocations": len(off.records),
        "batch_on_s": on_s,
        "batch_off_s": off_s,
        "speedup": off_s / on_s,
    }


# ---------------------------------------------------------------------------
# 4. Continuous-trace replay: lookahead grouping vs per-arrival replay.
# ---------------------------------------------------------------------------


def _continuous_trace(
    n_funcs: int, horizon_s: float, mean_iat_s: float, seed: int = 11
) -> InvocationTrace:
    """Strictly continuous Poisson arrivals (no shared instants)."""
    rng = np.random.default_rng(seed)
    funcs = [
        FunctionProfile(
            name=f"f{i}",
            mem_gb=0.4 + 0.1 * (i % 4),
            exec_ref_s=1.0 + 0.25 * (i % 8),
            cold_ref_s=0.8,
        )
        for i in range(n_funcs)
    ]
    events = []
    for f in funcs:
        t = float(rng.exponential(mean_iat_s))
        while t < horizon_s:
            events.append((t, f))
            t += float(rng.exponential(mean_iat_s))
    return InvocationTrace.from_events(events)


def bench_continuous(
    n_funcs: int, hours: float, mean_iat_s: float, repeats: int
) -> dict:
    """Grouped vs per-arrival decisions on a continuous trace.

    No two arrivals of a Poisson trace share an instant; the engine
    still groups distinct functions' decisions until an arrival reaches
    the earliest staged completion. That flush keeps the replay
    bit-identical to the per-arrival reference, so the reported
    objective error must be exactly zero -- asserted here, a
    fast-but-wrong grouping is not a result.
    """
    trace = _continuous_trace(n_funcs, hours * 3600.0, mean_iat_s)

    def run(grouped: bool):
        engine = SimulationEngine(
            pair=PAIR_A,
            trace=trace,
            ci_trace=CarbonIntensityTrace.constant(250.0),
            config=SimulationConfig(
                pool_capacity_old_gb=0.5 * n_funcs,
                pool_capacity_new_gb=0.5 * n_funcs,
                measure_decision_overhead=False,
            ),
        )
        scheduler = EcoLifeScheduler(EcoLifeConfig())
        t0 = time.perf_counter()
        if grouped:
            result = engine.run(scheduler)
        else:
            result = reference_replay(engine, scheduler)
        return time.perf_counter() - t0, result

    on_s = off_s = float("inf")
    on = off = None
    for _ in range(repeats):
        t, on = run(True)
        on_s = min(on_s, t)
        t, off = run(False)
        off_s = min(off_s, t)

    error = abs(on.total_carbon_g - off.total_carbon_g) / off.total_carbon_g
    assert error == 0.0, (
        f"grouped replay diverged: relative carbon error {error:.3e}"
    )
    changed = sum(
        a.keepalive_decision != b.keepalive_decision
        for a, b in zip(on.records, off.records)
    )
    assert changed == 0, f"{changed} decisions changed under grouping"

    return {
        "n_functions": n_funcs,
        "n_invocations": len(off.records),
        "mean_iat_s": mean_iat_s,
        "grouped_s": on_s,
        "per_arrival_s": off_s,
        "speedup": off_s / on_s,
        # Exact by construction (completion-bounded flush); recorded so
        # the gate artifact documents the bound that was checked.
        "objective_error_carbon": error,
        "decisions_changed": changed,
    }


# ---------------------------------------------------------------------------
# 5. Trace files: compile throughput, mmap RSS.
# ---------------------------------------------------------------------------


_RSS_WORKER = '''\
"""Peak-RSS probe: replay a compiled trace file, mmap vs materialized."""
import resource
import sys

from repro.carbon.regions import region_trace_for
from repro.core import EcoLifeConfig, EcoLifeScheduler
from repro.hardware import PAIR_A
from repro.simulator import SimulationConfig, SimulationEngine
from repro.workloads import InvocationTrace


def peak_kb():
    # VmHWM belongs to this exec's fresh mm; ru_maxrss (the fallback)
    # is a per-task watermark that survives fork+exec on Linux, so a
    # child of a fat parent would inherit the parent's peak.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


mode, path, kmax, pool = sys.argv[1:5]
trace = InvocationTrace.open(path, mmap=(mode == "mmap"))
rows = None
if mode == "inmem":
    # The counterfactual representation the columnar format replaced:
    # one Python object per event, held live for the whole replay.
    names = trace.names
    rows = [
    (t, names[fid])
    for t, fid in zip(trace.times_s.tolist(), trace.func_ids.tolist())
    ]
ci = region_trace_for("CAL", trace.duration_s + 3600.0, seed=7)
sim = SimulationConfig(
    pool_capacity_old_gb=float(pool),
    pool_capacity_new_gb=float(pool),
    kmax_minutes=float(kmax),
    measure_decision_overhead=False,
)
engine = SimulationEngine(pair=PAIR_A, trace=trace, ci_trace=ci, config=sim)
result = engine.run(EcoLifeScheduler(EcoLifeConfig(seed=7)))
keep = (len(result.records), 0 if rows is None else len(rows))
print(peak_kb(), *keep)
'''


def bench_trace(
    n_functions: int,
    duration_hours: float,
    median_iat_s: float,
    exec_floor_s: float,
    kmax_minutes: float,
    pool_gb: float,
    rss_duration_hours: float,
    quick: bool,
) -> dict:
    """Azure-day trace files: compiler throughput and mmap replay RSS.

    Two measurements on the bundled Azure-shaped sample (written and
    compiled into a temp dir, so the bench is self-contained):

    - **Compile throughput** -- CSV rows/s through the chunked compiler.
    - **Replay RSS** -- peak resident set of a subprocess replaying the
      compiled sample via mmap vs the same replay holding a fully
      materialized per-event Python trace. The mmap replay must stay
      below the in-memory one (asserted on full runs, where the RSS
      sample is big enough that the gap dwarfs allocator noise).
    """
    import os
    import subprocess
    import sys
    import tempfile

    from repro.workloads.tracefile import (
        compile_azure_csv,
        write_azure_sample_csv,
    )

    with tempfile.TemporaryDirectory(prefix="bench-trace-") as td:
        tdir = pathlib.Path(td)
        csv_path = tdir / "sample.csv"
        npz_path = tdir / "sample.npz"
        n_rows = write_azure_sample_csv(
            csv_path,
            n_functions=n_functions,
            duration_hours=duration_hours,
            seed=11,
            median_interarrival_s=median_iat_s,
            exec_floor_s=exec_floor_s,
        )
        t0 = time.perf_counter()
        compile_azure_csv(csv_path, npz_path)
        compile_s = time.perf_counter() - t0

        n_functions_compiled = len(InvocationTrace.open(npz_path).names)

        # Replay RSS: mmap vs fully materialized Python trace.
        if rss_duration_hours == duration_hours:
            rss_npz, rss_rows = npz_path, n_rows
        else:
            rss_csv = tdir / "rss.csv"
            rss_npz = tdir / "rss.npz"
            rss_rows = write_azure_sample_csv(
                rss_csv,
                n_functions=n_functions,
                duration_hours=rss_duration_hours,
                seed=11,
                median_interarrival_s=median_iat_s,
                exec_floor_s=exec_floor_s,
            )
            compile_azure_csv(rss_csv, rss_npz)
        worker = tdir / "rss_worker.py"
        worker.write_text(_RSS_WORKER)

        def peak_rss_kb(mode: str) -> int:
            proc = subprocess.run(
                [
                    sys.executable,
                    str(worker),
                    mode,
                    str(rss_npz),
                    str(kmax_minutes),
                    str(pool_gb),
                ],
                capture_output=True,
                text=True,
                check=True,
            )
            return int(proc.stdout.split()[0])

        rss_mmap_kb = peak_rss_kb("mmap")
        rss_inmem_kb = peak_rss_kb("inmem")
        rss_ok = 1.0 if rss_mmap_kb < rss_inmem_kb else 0.0
        if not quick:
            assert rss_ok == 1.0, (
                f"mmap replay RSS {rss_mmap_kb} KB not below in-memory "
                f"trace RSS {rss_inmem_kb} KB"
            )

    return {
        "n_rows": n_rows,
        "n_functions": n_functions_compiled,
        "compile_s": compile_s,
        "compile_rows_per_s": n_rows / compile_s,
        "rss": {
            "n_rows": rss_rows,
            "mmap_kb": rss_mmap_kb,
            "inmem_kb": rss_inmem_kb,
            "ok": rss_ok,
        },
        "cpu_count": os.cpu_count() or 1,
    }


# ---------------------------------------------------------------------------
# 6. Pool adjustment: one-pass ranker vs the scalar per-candidate ranker.
# ---------------------------------------------------------------------------


def bench_adjust(
    n_funcs: int, hours: float, mean_iat_s: float, pool_gb: float, repeats: int
) -> dict:
    """Rank the overflow requests of an over-full replay both ways.

    The requests are recorded during one replay and ranked afterwards
    against the final arrival state; both rankers read that same state,
    so their orderings must agree exactly (asserted). Each repeat times
    the one-pass ranker and then the scalar one back to back, so host
    speed drift lands on both sides of a pair alike; the speedup is the
    median of the per-repeat ratios.
    """
    trace = _continuous_trace(n_funcs, hours * 3600.0, mean_iat_s)
    engine = SimulationEngine(
        pair=PAIR_A,
        trace=trace,
        ci_trace=CarbonIntensityTrace.constant(250.0),
        config=SimulationConfig(
            pool_capacity_old_gb=pool_gb,
            pool_capacity_new_gb=pool_gb,
            measure_decision_overhead=False,
        ),
    )
    scheduler = EcoLifeScheduler(EcoLifeConfig())
    requests = []
    rank = scheduler.rank_keepalive_candidates

    def recording(req):
        requests.append(req)
        return rank(req)

    scheduler.rank_keepalive_candidates = recording
    result = engine.run(scheduler)
    adjuster = scheduler.adjuster

    def timed(fn):
        t0 = time.perf_counter()
        out = [fn(req) for req in requests]
        return time.perf_counter() - t0, [[c.name for c in r] for r in out]

    pairs = []
    for _ in range(repeats):
        vector_s, vector_orders = timed(adjuster.rank)
        oracle_s, oracle_orders = timed(lambda req: oracle_rank(adjuster, req))
        pairs.append((vector_s, oracle_s))
    mismatches = sum(a != b for a, b in zip(vector_orders, oracle_orders))
    assert mismatches == 0, f"{mismatches} rankings differ from the oracle"

    return {
        "n_functions": n_funcs,
        "n_invocations": len(result.records),
        "pool_gb": pool_gb,
        "n_requests": len(requests),
        "candidates_mean": sum(len(r.candidates) for r in requests)
        / max(len(requests), 1),
        "repeats": repeats,
        "vector_s": min(v for v, _ in pairs),
        "oracle_s": min(o for _, o in pairs),
        "speedup": float(np.median([o / v for v, o in pairs])),
        "mismatches": mismatches,
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-scale run (fewer decisions/ticks, fewer repeats)",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "BENCH_swarm.json"),
        help="JSON output path",
    )
    args = parser.parse_args(argv)

    if args.quick:
        step_kw = dict(n_swarms=50, decisions=20, iterations=8, repeats=1)
        fused_kw = dict(n_swarms=256, decisions=8, iterations=8, repeats=1)
        replay_kw = dict(n_funcs=50, n_ticks=20, repeats=1)
        cont_kw = dict(n_funcs=48, hours=0.5, mean_iat_s=20.0, repeats=1)
        adjust_kw = dict(
            n_funcs=48, hours=0.5, mean_iat_s=20.0, pool_gb=4.0, repeats=5
        )
        trace_kw = dict(
            n_functions=400,
            duration_hours=0.25,
            median_iat_s=100.0,
            exec_floor_s=10.0,
            kmax_minutes=5.0,
            pool_gb=1.0,
            rss_duration_hours=0.25,
        )
    else:
        step_kw = dict(n_swarms=50, decisions=100, iterations=8, repeats=3)
        fused_kw = dict(n_swarms=256, decisions=30, iterations=8, repeats=3)
        replay_kw = dict(n_funcs=50, n_ticks=60, repeats=3)
        cont_kw = dict(n_funcs=48, hours=2.0, mean_iat_s=20.0, repeats=3)
        adjust_kw = dict(
            n_funcs=48, hours=2.0, mean_iat_s=20.0, pool_gb=4.0, repeats=5
        )
        # The dense exec-floored Azure-day sample, plus a longer RSS
        # sample so the mmap-vs-materialized gap dwarfs allocator noise.
        trace_kw = dict(
            n_functions=400,
            duration_hours=0.5,
            median_iat_s=100.0,
            exec_floor_s=10.0,
            kmax_minutes=5.0,
            pool_gb=1.0,
            rss_duration_hours=2.0,
        )

    step = bench_step_throughput(**step_kw)
    fused = bench_fused_step(**fused_kw)
    replay = bench_replay(**replay_kw)
    continuous = bench_continuous(**cont_kw)
    adjust = bench_adjust(**adjust_kw)
    trace = bench_trace(quick=args.quick, **trace_kw)
    payload = {
        "bench": "swarm",
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "step_throughput": step,
        "fused_step": fused,
        "replay": replay,
        "continuous": continuous,
        "adjust": adjust,
        "trace": trace,
    }

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    # The continuous-trace section also ships standalone (CI artifact).
    cont_out = out.parent / "BENCH_continuous.json"
    cont_out.write_text(
        json.dumps(
            {"bench": "continuous", "quick": args.quick, **continuous},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    # And the trace-file section: the `trace` regression suite gates its
    # RSS flag against benchmarks/baselines/BENCH_trace.json.
    trace_out = out.parent / "BENCH_trace.json"
    trace_out.write_text(
        json.dumps(
            {"bench": "trace", "quick": args.quick, **trace},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    print(
        f"step throughput ({step['n_swarms']} swarms): "
        f"loop {step['loop_decisions_per_s']:.0f} dec/s, "
        f"fleet {step['fleet_decisions_per_s']:.0f} dec/s "
        f"-> {step['speedup']:.2f}x"
    )
    print(
        f"fused step ({fused['n_swarms']} swarms, real objective): "
        f"pr4 {fused['pr4_decisions_per_s']:.0f} dec/s, "
        f"batched+table {fused['fused_decisions_per_s']:.0f} dec/s "
        f"-> {fused['fused_speedup']:.2f}x additional"
    )
    print(
        f"replay ({replay['n_functions']} funcs, "
        f"{replay['n_invocations']} invocations): "
        f"off {replay['batch_off_s']:.2f}s, on {replay['batch_on_s']:.2f}s "
        f"-> {replay['speedup']:.2f}x"
    )
    print(
        f"continuous replay ({continuous['n_functions']} funcs, "
        f"{continuous['n_invocations']} invocations): "
        f"per-arrival {continuous['per_arrival_s']:.2f}s, "
        f"grouped {continuous['grouped_s']:.2f}s "
        f"-> {continuous['speedup']:.2f}x "
        f"(objective error {continuous['objective_error_carbon']:.1e}, "
        f"bit-identical)"
    )
    print(
        f"pool adjustment ({adjust['n_requests']} overflows, "
        f"{adjust['candidates_mean']:.1f} candidates each): "
        f"scalar {adjust['oracle_s']:.2f}s, one-pass {adjust['vector_s']:.2f}s "
        f"-> {adjust['speedup']:.2f}x (identical orderings)"
    )
    print(
        f"trace files ({trace['n_rows']} rows, {trace['n_functions']} funcs): "
        f"compile {trace['compile_rows_per_s']:.0f} rows/s; "
        f"replay RSS mmap {trace['rss']['mmap_kb']} KB "
        f"vs in-memory {trace['rss']['inmem_kb']} KB"
    )
    print(f"archived -> {out} (+ {cont_out}, {trace_out})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
