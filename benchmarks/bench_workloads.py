"""Workload-generator benchmark: synthesis throughput + record persistence.

Three measurements:

1. **Generator throughput** -- events/second synthesized by every
   registered trace-generator family at sweep scale.
2. **End-to-end replay** -- one EcoLife replay over a bursty (MMPP)
   generated trace, the workload regime PR 3 opens up.
3. **Record persistence round trip** -- ``RecordArrays`` -> compressed
   ``.npz`` -> back, at per-grid-cell size (the cost the
   ``store_records`` cache adds per job).

Run directly (plain script, CI-invocable)::

    PYTHONPATH=src python benchmarks/bench_workloads.py --quick

Results are printed and archived as JSON under
``benchmarks/results/BENCH_workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import tempfile
import time

import numpy as np

from repro.experiments.runner import (
    ParallelRunner,
    ResultCache,
    RunnerJob,
    ScenarioSpec,
)
from repro.workloads.generators import generator_names, make_generator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_generators(n_functions: int, hours: float, repeats: int) -> list[dict]:
    """Synthesis throughput of every registered family."""
    duration_s = hours * 3600.0
    rows = []
    for name in generator_names():
        if name == "file":
            continue  # replays a compiled trace file; it synthesizes nothing
        gen = make_generator(name)
        best = float("inf")
        n_events = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            trace, _ = gen.generate(n_functions, duration_s, seed=7)
            best = min(best, time.perf_counter() - t0)
            n_events = len(trace)
        rows.append(
            {
                "generator": name,
                "n_functions": n_functions,
                "hours": hours,
                "n_events": n_events,
                "gen_s": best,
                "events_per_s": n_events / best if best > 0 else float("inf"),
            }
        )
    return rows


def bench_replay(n_functions: int, hours: float, repeats: int) -> dict:
    """Full EcoLife replay of one bursty generated trace."""
    job = RunnerJob(
        scheduler="ecolife",
        spec=ScenarioSpec(
            n_functions=n_functions, hours=hours, seed=7, workload="mmpp"
        ),
    )
    from repro.experiments.runner import execute_job

    best = float("inf")
    summary = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        summary = execute_job(job)
        best = min(best, time.perf_counter() - t0)
    return {
        "workload": "mmpp",
        "n_functions": n_functions,
        "n_invocations": summary.n_invocations,
        "replay_s": best,
        "invocations_per_s": summary.n_invocations / best if best > 0 else 0.0,
    }


def bench_record_persistence(n_functions: int, hours: float) -> dict:
    """npz write/read round trip of one job's per-invocation records."""
    spec = ScenarioSpec(n_functions=n_functions, hours=hours, seed=7, workload="mmpp")
    job = RunnerJob(scheduler="new-only", spec=spec)
    with tempfile.TemporaryDirectory() as d:
        cache = ResultCache(d, store_records=True)
        t0 = time.perf_counter()
        ParallelRunner(n_workers=1, cache=cache).run([job])
        run_and_write_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        records = cache.get_records(job)
        read_s = time.perf_counter() - t0
        npz_bytes = sum(p.stat().st_size for p in pathlib.Path(d).glob("*.npz"))
    assert records is not None and np.all(np.diff(records.t) >= 0.0)
    return {
        "n_invocations": len(records),
        "run_and_write_s": run_and_write_s,
        "read_s": read_s,
        "npz_bytes": npz_bytes,
        "bytes_per_invocation": npz_bytes / max(len(records), 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-scale run (smaller traces, single repeat)",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "BENCH_workloads.json"),
        help="JSON output path",
    )
    args = parser.parse_args(argv)

    if args.quick:
        gen_kw = dict(n_functions=40, hours=2.0, repeats=1)
        replay_kw = dict(n_functions=15, hours=1.0, repeats=1)
        persist_kw = dict(n_functions=15, hours=1.0)
    else:
        gen_kw = dict(n_functions=200, hours=24.0, repeats=3)
        replay_kw = dict(n_functions=50, hours=6.0, repeats=3)
        persist_kw = dict(n_functions=50, hours=6.0)

    generators = bench_generators(**gen_kw)
    replay = bench_replay(**replay_kw)
    persistence = bench_record_persistence(**persist_kw)
    payload = {
        "bench": "workloads",
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "generators": generators,
        "replay": replay,
        "record_persistence": persistence,
    }

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for row in generators:
        print(
            f"{row['generator']:>8s}: {row['n_events']:6d} events "
            f"in {row['gen_s'] * 1000.0:7.1f} ms "
            f"({row['events_per_s']:.0f} ev/s)"
        )
    print(
        f"mmpp replay ({replay['n_functions']} funcs, "
        f"{replay['n_invocations']} invocations): {replay['replay_s']:.2f}s"
    )
    print(
        f"record persistence: {persistence['n_invocations']} invocations, "
        f"{persistence['npz_bytes']} bytes npz "
        f"({persistence['bytes_per_invocation']:.1f} B/inv), "
        f"read {persistence['read_s'] * 1000.0:.1f} ms"
    )
    print(f"archived -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
