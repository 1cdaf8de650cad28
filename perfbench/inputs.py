"""Seeded benchmark inputs: Azure-layout CSV files for the program to ingest.

Every workload replays one fixed Azure-shaped function population (the
program's own ``write_azure_sample_csv`` at ``POPULATION_SEED``). The
run's ``--seed`` draws a fresh perturbation of it: each arrival moves by
up to ``JITTER_S`` seconds and each duration is rescaled by a few
percent. A seed therefore changes every arrival instant, inter-arrival
gap and execution time, while the function mix -- which alone moves the
simulated carbon and service time by 10-25% between populations --
stays put, so run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import csv
import math
import pathlib

import numpy as np

POPULATION_SEED = 2024
#: Seed of the synthetic regional carbon-intensity trace: part of the
#: fixed environment, like the population.
CI_SEED = 7
N_FUNCTIONS = 128
JITTER_S = 30.0
DURATION_SIGMA = 0.05
#: Durations are rounded to this many steps per second. A dyadic grid
#: makes ``minute + duration`` exact in binary floating point, so the
#: compiler's ``end_timestamp - duration`` recovers the floored minute
#: bit for bit and same-minute arrivals really share one instant.
DURATION_GRID = 1024


def write_inputs(
    path: "str | pathlib.Path",
    *,
    seed: int,
    hours: float,
    per_minute: bool,
    scratch: "str | pathlib.Path",
) -> int:
    """Write one perturbed sample CSV; returns its row count.

    ``per_minute`` floors every arrival to its minute -- the resolution
    of the public Azure per-minute invocation counts.
    """
    from repro.workloads.tracefile import write_azure_sample_csv

    base = pathlib.Path(scratch) / f"population-{hours:g}h.csv"
    if not base.exists():
        write_azure_sample_csv(
            base,
            n_functions=N_FUNCTIONS,
            duration_hours=hours,
            seed=POPULATION_SEED,
        )
    with open(base, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [(app, func, float(end), float(dur)) for app, func, end, dur in reader]

    rng = np.random.default_rng(seed)
    jitter = rng.uniform(-JITTER_S, JITTER_S, len(rows)).tolist()
    scale = np.exp(rng.normal(0.0, DURATION_SIGMA, len(rows))).tolist()
    events = []
    for (app, func, end, dur), shift, factor in zip(rows, jitter, scale):
        raw = max(0.0, end - dur + shift)
        t = math.floor(raw / 60.0) * 60.0 if per_minute else raw
        grid_dur = max(1, round(dur * factor * DURATION_GRID)) / DURATION_GRID
        events.append((t, raw, app, func, grid_dur))
    events.sort(key=lambda e: (e[0], e[1]))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, _raw, app, func, dur in events:
            writer.writerow((app, func, repr(t + dur), repr(dur)))
    return len(events)


def workload_csv(
    workload: str,
    seed: int,
    work: pathlib.Path,
    *,
    hours: float,
    per_minute: bool = False,
) -> tuple[pathlib.Path, int]:
    """A workload's input CSV in ``work``; returns its path and row count."""
    path = work / f"{workload}-{seed}.csv"
    rows = write_inputs(
        path, seed=seed, hours=hours, per_minute=per_minute, scratch=work
    )
    return path, rows
