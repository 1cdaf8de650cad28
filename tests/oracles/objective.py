"""Per-particle KDM objective: the reference the table gather must match.

:class:`~repro.core.objective.ObjectiveBuilder` scores every (location,
K_AT cell) once per decision and its closures gather from that table.
The closures here are the objective as it was evaluated before the table:
each call decodes its particles' positions and queries the arrival
estimators at the decoded periods, per particle. Row for row they must
equal the table gather bit for bit.

- :func:`fitness` -- one function, ``(rows, 2) -> (rows,)``;
- :func:`batch_fitness` -- several functions, ``(s, rows, 2) -> (s,
  rows)``, answering the arrival queries through :class:`ArrivalBatch`;
- :func:`looped_batch_fitness` -- the same, with a per-function query
  loop instead of :class:`ArrivalBatch` (the pre-table fused objective).

Positions decode with the original expression,
``clip(floor(x1 * kmax / step + 0.5) * step, 0, kmax)``, independently of
the table's cell mapping.

:func:`table_fitness` and :func:`table_batch_fitness` are the table
lookups as they were before the builder's one-pass gather: each column
decoded on its own (:func:`decode_locations`, :func:`decode_cells`),
then one fancy index into the unflattened table.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.arrival import ArrivalEstimator
from repro.core.objective import ObjectiveBuilder
from repro.workloads.functions import FunctionProfile


def decode_k(builder: ObjectiveBuilder, x1: np.ndarray) -> np.ndarray:
    """Map x1 in [0,1] to keep-alive seconds, half-up, clipped to K_max."""
    step = builder.env.k_step_s
    kmax = builder.env.kmax_s
    steps = np.floor(np.asarray(x1) * kmax / step + 0.5)
    return np.clip(steps * step, 0.0, kmax)


def decode_locations(builder: ObjectiveBuilder, x0: np.ndarray) -> np.ndarray:
    """Map x0 in [0,1] to indices into ``config.locations``."""
    n_loc = len(builder.config.locations)
    return np.minimum((np.asarray(x0) * n_loc).astype(int), n_loc - 1)


def decode_cells(builder: ObjectiveBuilder, x1: np.ndarray) -> np.ndarray:
    """Map x1 in [0,1] to K_AT cells: ``floor(x1 * kmax / step + 0.5)``,
    clamped to the top cell."""
    steps = np.asarray(x1) * builder.env.kmax_s / builder.env.k_step_s + 0.5
    top = builder.env.keepalive_grid_s().size - 1
    return np.minimum(steps.astype(np.intp), top)


def table_fitness(
    builder: ObjectiveBuilder, table: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Lookup into one function's ``(n_loc, n_k)`` table: ``(rows, 2) ->
    (rows,)``."""

    def fitness_fn(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        loc = decode_locations(builder, x[:, 0])
        return table[loc, decode_cells(builder, x[:, 1])]

    return fitness_fn


def table_batch_fitness(
    builder: ObjectiveBuilder, table: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Lookup into an ``(s, n_loc, n_k)`` table: ``(s, rows, 2) -> (s,
    rows)``, row ``i`` reading ``table[i]``."""
    rows = np.arange(table.shape[0])[:, None]

    def batch_fn(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return table[
            rows,
            decode_locations(builder, x[..., 0]),
            decode_cells(builder, x[..., 1]),
        ]

    return batch_fn


def fitness(
    builder: ObjectiveBuilder,
    func: FunctionProfile,
    t: float,
    arrival: ArrivalEstimator,
) -> Callable[[np.ndarray], np.ndarray]:
    """The per-particle objective of one function at one decision instant."""
    cfg = builder.config
    env = builder.env
    ci = env.ci_at(t)
    ci_ref = max(env.ci_max_observed(t), 1e-9)

    s_max, sc_max, kc_max = builder.costs.normalisers(func, ci_ref)

    _, s_cold, sc_cold = builder.costs.best_cold(func, ci)
    vectors = builder.costs.vectors(func)
    s_warm = vectors.s_warm
    sc_warm = vectors.sc_warm(ci)
    ka_rate = vectors.ka_rate(ci)

    def fitness_fn(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        loc = builder.decode_locations(x[:, 0])
        k = decode_k(builder, x[:, 1])
        p = arrival.p_warm(k)

        e_s = p * s_warm[loc] + (1.0 - p) * s_cold
        e_sc = p * sc_warm[loc] + (1.0 - p) * sc_cold
        kc = ka_rate[loc] * k

        return (
            cfg.lambda_s * e_s / s_max
            + cfg.lambda_c * e_sc / sc_max
            + cfg.lambda_c * kc / kc_max
        )

    return fitness_fn


def batch_fitness(
    builder: ObjectiveBuilder,
    funcs: Sequence[FunctionProfile],
    ts: Sequence[float],
    arrivals: Sequence[ArrivalEstimator],
) -> Callable[[np.ndarray], np.ndarray]:
    """Several functions' per-particle objectives, arrivals via
    :class:`ArrivalBatch`."""
    return _batch_fitness(builder, funcs, ts, ArrivalBatch(arrivals).p_warm)


def looped_batch_fitness(
    builder: ObjectiveBuilder,
    funcs: Sequence[FunctionProfile],
    ts: Sequence[float],
    arrivals: Sequence[ArrivalEstimator],
) -> Callable[[np.ndarray], np.ndarray]:
    """Several functions' per-particle objectives, arrivals queried one
    estimator at a time."""

    def p_warm_rows(k: np.ndarray) -> np.ndarray:
        out = np.empty_like(k)
        for i, arrival in enumerate(arrivals):
            out[i] = arrival.p_warm(k[i])
        return out

    return _batch_fitness(builder, funcs, ts, p_warm_rows)


def _batch_fitness(
    builder: ObjectiveBuilder,
    funcs: Sequence[FunctionProfile],
    ts: Sequence[float],
    p_warm: Callable[[np.ndarray], np.ndarray],
) -> Callable[[np.ndarray], np.ndarray]:
    cfg = builder.config
    env = builder.env
    costs = builder.costs
    s = len(funcs)
    ci = np.array([env.ci_at(t) for t in ts])
    ci_ref = np.array([env.ci_max_observed(t) for t in ts])
    s_max = np.empty(s)
    sc_max = np.empty(s)
    kc_max = np.empty(s)
    cold_s_max = np.empty(s)
    cold_sc_max = np.empty(s)
    for i, func in enumerate(funcs):
        s_max[i], sc_max[i], kc_max[i] = costs.normalisers(
            func, max(float(ci_ref[i]), 1e-9)
        )
        # best_cold normalises at the *current* intensity.
        cold_s_max[i], cold_sc_max[i], _ = costs.normalisers(
            func, max(float(ci[i]), 1e-12)
        )

    vectors = [costs.vectors(f) for f in funcs]
    ci_col = ci[:, None]
    s_warm = np.stack([v.s_warm for v in vectors])  # (s, n_loc)
    s_cold_all = np.stack([v.s_cold for v in vectors])
    sc_warm = np.stack([v.sc_warm(c) for v, c in zip(vectors, ci_col)])
    sc_cold_all = np.stack([v.sc_cold(c) for v, c in zip(vectors, ci_col)])
    ka_rate = np.stack([v.ka_rate(c) for v, c in zip(vectors, ci_col)])

    cold_scores = (
        cfg.lambda_s * s_cold_all / cold_s_max[:, None]
        + cfg.lambda_c * sc_cold_all / cold_sc_max[:, None]
    )
    best = np.argmin(cold_scores, axis=1)
    r = np.arange(s)
    s_cold = s_cold_all[r, best][:, None]
    sc_cold = sc_cold_all[r, best][:, None]

    s_max = s_max[:, None]
    sc_max = sc_max[:, None]
    kc_max = kc_max[:, None]
    rows = np.arange(s)[:, None]

    def batch_fn(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        loc = builder.decode_locations(x[..., 0])  # (s, r)
        k = decode_k(builder, x[..., 1])
        p = p_warm(k)

        e_s = p * s_warm[rows, loc] + (1.0 - p) * s_cold
        e_sc = p * sc_warm[rows, loc] + (1.0 - p) * sc_cold
        kc = ka_rate[rows, loc] * k

        return (
            cfg.lambda_s * e_s / s_max
            + cfg.lambda_c * e_sc / sc_max
            + cfg.lambda_c * kc / kc_max
        )

    return batch_fn


class ArrivalBatch:
    """Padded row-stack of several estimators' empirical IAT state.

    Answers ``P(warm | k)`` for a ``(n_funcs, rows)`` matrix of periods
    in a handful of broadcast ops. Row ``i`` equals the scalar
    ``estimators[i].p_warm(k[i])`` to the last ULP:

    - ``searchsorted(sorted, k, side="right")`` counts elements ``<= k``;
      with rows padded by ``+inf`` the broadcast comparison-sum produces
      the identical integer count;
    - the empirical/prior blend keeps the scalar expression shape
      (``w * emp + (1 - w) * prior``) with per-function ``w`` broadcast
      as a column;
    - empty-history rows force ``w = 0`` and ``emp = 0``, and
      ``0.0 * 0.0 + 1.0 * prior`` reproduces the scalar path's early
      ``return prior`` bit for bit.

    The snapshot is read-only: later ``observe`` calls on the estimators
    do not flow into an existing batch.
    """

    def __init__(self, estimators: Sequence[ArrivalEstimator]) -> None:
        f = len(estimators)
        n = np.empty(f, dtype=np.intp)
        prior_mean = np.empty(f)
        strength = np.empty(f)
        for i, est in enumerate(estimators):
            n[i] = est.n_samples
            prior_mean[i] = est.prior_mean
            strength[i] = est.prior_strength
        h = int(n.max()) if f else 0
        sorted_pad = np.full((f, h), np.inf)
        for i, est in enumerate(estimators):
            if n[i]:
                est._ensure_cache()
                assert est._sorted is not None
                sorted_pad[i, : n[i]] = est._sorted
        self.n_funcs = f
        # max(n, 1) keeps empty rows off the 0/0 path; their w == 0.0
        # blend discards the dummy quotient entirely.
        self._n_safe = np.maximum(n, 1)[:, None]
        # n == 0 with prior_strength == 0 is a transient 0/0 that the
        # where() discards; silence it rather than warn per batch.
        with np.errstate(invalid="ignore"):
            self._w = np.where(n > 0, n / (n + strength), 0.0)[:, None]
        self._prior_mean = prior_mean[:, None]
        self._sorted = sorted_pad

    def _counts(self, k: np.ndarray) -> np.ndarray:
        """Per-row ``searchsorted(side="right")`` as one broadcast op."""
        return (self._sorted[:, None, :] <= k[..., None]).sum(axis=-1)

    def _require_rows(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        if k.ndim != 2 or k.shape[0] != self.n_funcs:
            raise ValueError(
                f"expected ({self.n_funcs}, rows) keep-alive matrix, "
                f"got shape {k.shape}"
            )
        return k

    def p_warm(self, k_s: np.ndarray) -> np.ndarray:
        """Row-wise ``P(next IAT <= k)`` for a ``(n_funcs, rows)`` matrix."""
        k = self._require_rows(k_s)
        prior = 1.0 - np.exp(-k / self._prior_mean)
        emp = self._counts(k) / self._n_safe
        return self._w * emp + (1.0 - self._w) * prior
