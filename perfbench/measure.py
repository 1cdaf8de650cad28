"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import math
import os
import pathlib
import statistics
import time
from dataclasses import fields
from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def another_fits(start: float, done: int, seconds: float, at_least: int) -> bool:
    """Whether to start another repeat of a run that began at ``start``.

    Yes while fewer than ``at_least`` are done, then only while one more
    repeat, as long as the average so far, would end within ``seconds``.
    """
    if done < at_least:
        return True
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def quiet(repeats: Sequence[Sequence[float]]) -> np.ndarray:
    """Per-position minimum over repeats of the same work, timed in pieces.

    Every repeat times the same sequence of pieces (engine steps,
    requests). Other tenants on a shared host slow the work down in
    spells of seconds, at random; the program's own slow pieces (a
    costly decision, a garbage collection triggered by the same
    allocations) are slow in every repeat. The minimum of each piece
    over the repeats keeps the latter and drops the former, so a tail
    percentile or a total over the result is the program's own.
    """
    if not repeats:
        raise ValueError("quiet() needs at least one repeat")
    return np.min(np.array(repeats, dtype=np.float64), axis=0)


def pin_to_one_cpu() -> int:
    """Confine this process, and every process it starts, to one CPU.

    Measured on a 2-vCPU shared host: a closed-loop ``/decide`` request
    hands off twice between client and server; with the two processes on
    different vCPUs every hand-off is a cross-CPU wake-up, and a pass's
    median latency jumped between 1.2 and 1.9 ms. On one CPU the
    per-request minimum over a run read 0.95 ms on both CPUs and two
    seeds, and the saturated rate 1001 and 1003/s (796-1017/s unpinned).
    Returns the CPU chosen: the lowest one this process may use.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB.

    ``ru_maxrss`` is not used: it survives fork+exec, so a child would
    report its parent's high-water mark.
    """
    status = pathlib.Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")


def hash_record_arrays(arrays: object) -> str:
    """SHA-256 over every column of a ``RecordArrays`` (dtype, shape, bytes)."""
    digest = hashlib.sha256()
    for f in fields(arrays):  # type: ignore[arg-type]
        col = np.ascontiguousarray(getattr(arrays, f.name))
        digest.update(f.name.encode())
        digest.update(str(col.dtype).encode())
        digest.update(str(col.shape).encode())
        digest.update(col.tobytes())
    return digest.hexdigest()
