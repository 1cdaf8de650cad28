"""Exhaustive grid search over a discrete candidate set.

A reference optimum for the heuristic optimizers' tests: no optimizer
can beat exhaustive search over the same candidates. The scheduler does
not use it; the ORACLE baseline enumerates its own options.
"""

from __future__ import annotations

import numpy as np

from repro.optimizers.base import FitnessFn


def grid_best(fitness: FitnessFn, candidates: np.ndarray) -> tuple[np.ndarray, float]:
    """Evaluate all candidate positions; return (best position, best score).

    Ties break toward the earliest candidate, which makes oracle decisions
    deterministic given a fixed candidate ordering.
    """
    candidates = np.asarray(candidates, dtype=float)
    if candidates.ndim != 2 or candidates.shape[0] == 0:
        raise ValueError("candidates must be a non-empty (n, dim) array")
    scores = np.asarray(fitness(candidates), dtype=float)
    if scores.shape != (candidates.shape[0],):
        raise ValueError(
            f"fitness returned shape {scores.shape}, expected "
            f"{(candidates.shape[0],)}"
        )
    i = int(np.argmin(scores))
    return candidates[i].copy(), float(scores[i])


def cartesian_grid(*axes: np.ndarray) -> np.ndarray:
    """Cartesian product of 1-D axes as an (n, dim) candidate matrix."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)
