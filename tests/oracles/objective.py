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
the table's cell mapping. Costs and normalisers come from the scalar
per-location primitives in :mod:`tests.oracles.adjustment`, and the cold
fallback is the ``min`` over their ``fscore``, so nothing here reads the
builder's packed cost arrays or its pricing helpers.

:func:`decode_single` decodes one position into a (location, keep-alive
seconds) pair for the sequential oracle KDM.

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
from repro.hardware.specs import Generation
from repro.workloads.functions import FunctionProfile
from tests.oracles import adjustment as scalar


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


def decode_single(
    builder: ObjectiveBuilder, position: np.ndarray
) -> tuple[Generation, float]:
    """Decode one position into a (location, keep-alive seconds) pair."""
    idx = int(builder.decode_locations(np.array([position[0]]))[0])
    k = float(builder.decode_k(np.array([position[1]]))[0])
    return builder.config.locations[idx], k


def _terms(
    builder: ObjectiveBuilder, func: FunctionProfile, ci: float, ci_ref: float
) -> tuple:
    """One function's objective terms, location by location.

    ``(s_warm, sc_warm, ka_rate)`` per location at ``ci``; the cold
    fallback's ``(s_cold, sc_cold)`` at the location of least cold
    ``fscore`` (first on ties); the guarded ``(s_max, sc_max, kc_max)``
    at ``ci_ref``.
    """
    costs = builder.costs
    locations = builder.config.locations
    s_warm = np.array([costs.service_time(func, g, cold=False) for g in locations])
    sc_warm = np.array(
        [scalar.service_carbon(costs, func, g, cold=False, ci=ci) for g in locations]
    )
    ka_rate = np.array([scalar.keepalive_rate(costs, func, g, ci) for g in locations])
    cold = min(
        locations, key=lambda g: scalar.fscore(costs, func, g, cold=True, ci=ci)
    )
    s_cold = costs.service_time(func, cold, cold=True)
    sc_cold = scalar.service_carbon(costs, func, cold, cold=True, ci=ci)
    return (
        s_warm,
        sc_warm,
        ka_rate,
        s_cold,
        sc_cold,
        *scalar.normalisers(costs, func, ci_ref),
    )


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
    s_warm, sc_warm, ka_rate, s_cold, sc_cold, s_max, sc_max, kc_max = _terms(
        builder, func, ci, ci_ref
    )

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
    terms = [
        _terms(builder, func, env.ci_at(t), max(env.ci_max_observed(t), 1e-9))
        for func, t in zip(funcs, ts)
    ]
    # (s, n_loc) rows and (s, 1) columns, one per function.
    cols = list(zip(*terms))
    s_warm, sc_warm, ka_rate = (np.stack(col) for col in cols[:3])
    s_cold, sc_cold, s_max, sc_max, kc_max = (
        np.array(col)[:, None] for col in cols[3:]
    )
    rows = np.arange(len(funcs))[:, None]

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
