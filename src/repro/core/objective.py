"""EcoLife's objective function (paper Sec. IV-A) and shared cost estimates.

The KDM minimises, over keep-alive location ``l`` and period ``k``::

    lambda_s * E[S_{f,l,k}] / S_f_max
  + lambda_c * E[SC_{f,l,k}] / SC_f_max
  + lambda_c * KC_{f,l,k} / KC_fk_max

where the expectations come from the function's arrival statistics: with
probability ``P(IAT <= k)`` the next invocation is warm on ``l`` (execution
only), otherwise it pays a cold start at the EPDM's best cold location.
``KC`` is the keep-alive carbon of the full period ``k`` (the paper's
literal formula): it penalises over-long periods and drives the swarm
toward the shortest period that still yields warm starts.

:class:`CostModel` centralises every decision-time estimate (the packed
per-location cost vectors, the guarded normalisers, the EPDM's cold
choice) so the KDM, the EPDM and the warm-pool adjuster stay numerically
consistent with each other -- and, through
:class:`~repro.carbon.footprint.CarbonModel`, with the simulator's exact
accounting.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import units
from repro.core.arrival import ArrivalEstimator, exponential_prior
from repro.core.config import EcoLifeConfig
from repro.hardware.specs import Generation
from repro.optimizers.base import FitnessFn
from repro.optimizers.batch import BatchFitnessFn
from repro.simulator.scheduler import SchedulerEnv
from repro.workloads.functions import FunctionProfile


class FunctionCostVectors:
    """CI-independent per-location cost vectors of one function.

    Every vector lives in one packed ``(8, n_locations)`` array whose
    columns follow ``config.locations`` (the same indexing
    :meth:`ObjectiveBuilder.decode_locations` produces). Carbon estimates
    split into an energy part (scaled by the queried CI) and a constant
    embodied part: the ``ENERGY`` rows hold the energy of a warm service,
    a cold service and one second of keep-alive (in that order, ``WARM``,
    ``COLD``, ``KA``), and the ``EMBODIED`` rows their embodied carbon. So
    ``packed[ENERGY] * ci / 1000 + packed[EMBODIED]`` prices all three at
    a new intensity in one broadcast -- for one function or a stack of
    them (:func:`price`).
    """

    ENERGY, EMBODIED = slice(0, 3), slice(3, 6)
    #: Order within ``ENERGY`` and ``EMBODIED``.
    WARM, COLD, KA = 0, 1, 2
    #: Service-time rows.
    S_WARM, S_COLD = 6, 7

    def __init__(
        self,
        *,
        s_warm: np.ndarray,  # warm service time per location (s)
        s_cold: np.ndarray,  # cold service time per location (s)
        s_max: float,  # max cold service time across locations (s)
        warm_energy_wh: np.ndarray,
        warm_emb_g: np.ndarray,
        cold_energy_wh: np.ndarray,
        cold_emb_g: np.ndarray,
        ka_power_w: np.ndarray,  # attributed keep-alive power per location (W)
        ka_emb_g_per_s: np.ndarray,
    ) -> None:
        self.s_max = s_max
        ka_energy_wh = units.energy_wh(np.asarray(ka_power_w, dtype=float), 1.0)
        self.packed = np.array(
            [
                warm_energy_wh,
                cold_energy_wh,
                ka_energy_wh,
                warm_emb_g,
                cold_emb_g,
                ka_emb_g_per_s,
                s_warm,
                s_cold,
            ],
            dtype=float,
        )
        self.packed.flags.writeable = False


def price(
    packed: np.ndarray, ci: float | np.ndarray, row: int | None = None
) -> np.ndarray:
    """Carbon (g) of packed cost arrays at intensity ``ci``.

    ``packed`` is one ``(8, n_loc)`` array or an ``(n, 8, n_loc)`` stack,
    ``ci`` one intensity or, for a stack, a column that broadcasts over
    its rows. With ``row`` (``WARM``, ``COLD`` or ``KA``) only that row
    is priced, ``(..., n_loc)``; without, all three, ``(..., 3, n_loc)``
    in that order. Every element is ``operational_carbon_g(energy, ci) +
    embodied``, the expression ``CarbonModel.est_service_g`` and
    ``est_keepalive_rate_g_per_s`` evaluate per location.
    """
    fcv = FunctionCostVectors
    if row is None:
        energy, embodied = packed[..., fcv.ENERGY, :], packed[..., fcv.EMBODIED, :]
    else:
        energy = packed[..., fcv.ENERGY.start + row, :]
        embodied = packed[..., fcv.EMBODIED.start + row, :]
    return units.operational_carbon_g(energy, ci) + embodied


def current_normalisers(
    packed: np.ndarray, ci: float | np.ndarray, sc_cold: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Guarded ``(s_max, sc_max)`` at the current intensity ``ci``.

    For one packed array they are two ``(1,)`` arrays, for an ``(n, 8,
    n_loc)`` stack two ``(n, 1)`` columns (``ci`` then an ``(n, 1)``
    column or one intensity), so they divide per-location rows as they
    are. ``sc_max`` prices the cold row at ``max(ci, 1e-12)``;
    ``sc_cold`` is that row priced at ``ci``, which is the same row
    unless an intensity is below the clamp, and only then is it priced
    again. Row ``i`` equals ``CostModel.normalisers(func_i, max(ci_i,
    1e-12))[:2]`` bit for bit, without the memo: the current intensity
    moves with every CI knot, so a memo keyed by it would gain a key per
    knot.
    """
    if (ci.min() if isinstance(ci, np.ndarray) else ci) < 1e-12:
        sc_cold = price(packed, np.maximum(ci, 1e-12), FunctionCostVectors.COLD)
    # ``initial`` is the guard: max(row max, floor), exactly.
    s_max = packed[..., FunctionCostVectors.S_COLD, :].max(
        axis=-1, keepdims=True, initial=1e-9
    )
    return s_max, sc_cold.max(axis=-1, keepdims=True, initial=1e-12)


def cold_choice(
    config: EcoLifeConfig,
    packed: np.ndarray,
    ci: float | np.ndarray,
    sc_cold: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The EPDM's cold placement: ``(best, s_max)``.

    ``best`` indexes ``config.locations`` at the lowest cold ``fscore``
    (first index on ties); ``s_max`` is the service-time normaliser it
    scored with (:func:`current_normalisers`), which the KDM's table
    reuses. Arguments as for :func:`current_normalisers`; on a stack
    ``best`` has one entry per function.
    """
    s_max, sc_max = current_normalisers(packed, ci, sc_cold)
    scores = (
        config.lambda_s * packed[..., FunctionCostVectors.S_COLD, :] / s_max
        + config.lambda_c * sc_cold / sc_max
    )
    return scores.argmin(axis=-1), s_max


class CostModel:
    """Decision-time estimates shared by KDM, EPDM and the adjuster.

    Hot-path note: one EcoLife run asks for these estimates thousands of
    times (every KDM decision rebuilds its objective table), so the
    CI-independent pieces -- service times, energy/embodied splits,
    keep-alive power -- are computed once per function and cached as
    per-location vectors (:class:`FunctionCostVectors`). The guarded
    normalisers at the reference CI (the running max, which moves
    rarely) are memoised per ``(function, reference CI)``; those at the
    current CI are computed inline (:func:`current_normalisers`). All of
    them price carbon through :func:`price`. Functions
    are keyed by name; the trace guarantees names map to unique profiles.
    """

    def __init__(self, env: SchedulerEnv, config: EcoLifeConfig) -> None:
        self.env = env
        self.config = config
        self._vectors: dict[str, FunctionCostVectors] = {}
        #: Per-function: reference CI -> guarded normaliser triple.
        self._normalisers: dict[str, dict[float, tuple[float, float, float]]] = {}

    @property
    def normaliser_count(self) -> int:
        """Memoised normaliser triples over all functions (memory telemetry)."""
        return sum(len(per_ci) for per_ci in self._normalisers.values())

    # -- cache -----------------------------------------------------------------

    def vectors(self, func: FunctionProfile) -> FunctionCostVectors:
        """The cached CI-independent cost vectors of ``func``."""
        cached = self._vectors.get(func.name)
        if cached is None:
            cached = self._build_vectors(func)
            self._vectors[func.name] = cached
        return cached

    def _build_vectors(self, func: FunctionProfile) -> FunctionCostVectors:
        model = self.env.carbon_model
        s_warm, s_cold = [], []
        warm_energy, warm_emb, cold_energy, cold_emb = [], [], [], []
        ka_power, ka_emb = [], []
        for gen in self.config.locations:
            server = self.env.server(gen)
            busy = self.env.setup_delay_s + func.exec_time_s(server)
            overhead = func.cold_overhead_s(server)
            s_warm.append(self.service_time(func, gen, cold=False))
            s_cold.append(self.service_time(func, gen, cold=True))
            e_w, m_w = model.est_service_split(server, func.mem_gb, busy, 0.0)
            e_c, m_c = model.est_service_split(server, func.mem_gb, busy, overhead)
            warm_energy.append(e_w)
            warm_emb.append(m_w)
            cold_energy.append(e_c)
            cold_emb.append(m_c)
            p, m = model.est_keepalive_rate_split(server, func.mem_gb)
            ka_power.append(p)
            ka_emb.append(m)
        return FunctionCostVectors(
            s_warm=np.array(s_warm),
            s_cold=np.array(s_cold),
            s_max=max(s_cold),
            warm_energy_wh=np.array(warm_energy),
            warm_emb_g=np.array(warm_emb),
            cold_energy_wh=np.array(cold_energy),
            cold_emb_g=np.array(cold_emb),
            ka_power_w=np.array(ka_power),
            ka_emb_g_per_s=np.array(ka_emb),
        )

    def normalisers(
        self, func: FunctionProfile, ci_ref: float
    ) -> tuple[float, float, float]:
        """Guarded ``(s_max, sc_max, kc_max)`` at the reference intensity."""
        per_ci = self._normalisers.setdefault(func.name, {})
        cached = per_ci.get(ci_ref)
        if cached is None:
            v = self.vectors(func)
            carbon = price(v.packed, ci_ref)
            fcv = FunctionCostVectors
            cached = (
                max(v.s_max, 1e-9),
                max(float(carbon[fcv.COLD].max()), 1e-12),
                max(float(carbon[fcv.KA].max()) * self.env.kmax_s, 1e-12),
            )
            per_ci[ci_ref] = cached
        return cached

    def evict(self, name: str) -> None:
        """Drop one function's cached cost state (state-retirement sweep).

        Without eviction the vector cache grows with the *ever-seen*
        cohort and the normaliser cache with ever-seen functions times
        distinct reference intensities. Both caches are pure functions of
        the profile, the config, and static hardware data, so a later
        rebuild -- including an adjuster peek at a retired-but-still-warm
        container -- is bit-identical.
        """
        self._vectors.pop(name, None)
        self._normalisers.pop(name, None)

    @property
    def cached_function_count(self) -> int:
        """Functions with live cache entries (memory-bounds telemetry)."""
        return len(self._vectors.keys() | self._normalisers.keys())

    # -- primitives ------------------------------------------------------------

    def service_time(
        self, func: FunctionProfile, gen: Generation, cold: bool
    ) -> float:
        return func.service_time_s(
            self.env.server(gen), cold=cold, setup_s=self.env.setup_delay_s
        )


class ObjectiveBuilder:
    """Builds the KDM's objective as a table over its discrete space.

    Position encoding: ``x0`` selects the keep-alive location among the
    allowed generations, ``x1`` the keep-alive period on the discrete grid
    ``K_AT`` (:meth:`SchedulerEnv.keepalive_grid_s`). The space is a
    location times a K_AT cell (2 x 31 cells by default), so one decision's
    objective is a small table: :meth:`objective_table` scores every cell
    once -- one ``p_warm`` query per function, on the grid -- and the
    fitness closures only map positions to cells and gather. Within one
    decision the landscape is therefore fixed, which
    the fleet's stepping relies on (:class:`~repro.optimizers.batch.
    SwarmFleet`).

    Everything a table lookup needs besides the table is fixed for the
    builder's lifetime and computed here once: the decode constants of
    both coordinates as ``(2,)`` arrays (:meth:`_gather`) and, per prior
    mean, the arrival prior over the K_AT grid (:meth:`_grid_prior`).
    """

    def __init__(self, env: SchedulerEnv, config: EcoLifeConfig) -> None:
        self.env = env
        self.config = config
        self.costs = CostModel(env, config)
        # Column 0 decodes x0 to a location, column 1 x1 to a K_AT cell:
        # min(trunc(x * scale / div + shift), top), then the flat cell
        # index is cells . strides. Dividing by 1.0 and adding 0.0 are
        # exact, so each column keeps the bits of its scalar expression
        # (decode_locations / decode_cells).
        n_loc = len(config.locations)
        n_k = env.keepalive_grid_s().size
        self._scale = np.array([float(n_loc), env.kmax_s])
        self._div = np.array([1.0, env.k_step_s])
        self._shift = np.array([0.0, 0.5])
        self._top = np.array([n_loc - 1, n_k - 1], dtype=np.intp)
        self._strides = np.array([n_k, 1], dtype=np.intp)
        #: prior mean -> read-only arrival prior over the K_AT grid.
        self._grid_priors: dict[float, np.ndarray] = {}

    # -- decoding ---------------------------------------------------------------

    def decode_locations(self, x0: np.ndarray) -> np.ndarray:
        """Map x0 in [0,1] to indices into ``config.locations``."""
        n_loc = len(self.config.locations)
        idx = np.minimum((np.asarray(x0) * n_loc).astype(int), n_loc - 1)
        return idx

    def decode_cells(self, x1: np.ndarray) -> np.ndarray:
        """Map x1 in [0,1] to K_AT cell indices.

        Cell ``floor(x1 * kmax / step + 0.5)``: grid midpoints round
        half-up -- ``np.round``'s banker's rounding would bias midpoint
        candidates toward even multiples of the step. On the unit box the
        operand is at least 0.5, so truncation is the floor.
        """
        steps = np.asarray(x1) * self.env.kmax_s / self.env.k_step_s + 0.5
        top = self.env.keepalive_grid_s().size - 1
        return np.minimum(steps.astype(np.intp), top)

    def decode_k(self, x1: np.ndarray) -> np.ndarray:
        """Map x1 in [0,1] to the keep-alive grid (seconds)."""
        return self.env.keepalive_grid_s()[self.decode_cells(x1)]

    # -- objective ------------------------------------------------------------------

    def objective_table(
        self,
        funcs: Sequence[FunctionProfile],
        ts: Sequence[float],
        arrivals: Sequence[ArrivalEstimator],
        *,
        intensities: Sequence[tuple[float, float]] | None = None,
    ) -> np.ndarray:
        """The objective of ``funcs[i]`` at ``ts[i]`` over every cell.

        Returns ``(n_funcs, n_locations, n_k)``. Per-function scalars (CI,
        normalisers, the EPDM's cold fallback) become ``(n_funcs, 1, 1)``
        columns, the packed cost arrays an ``(n_funcs, 8, n_loc)`` stack,
        and the arrival queries ``(n_funcs, 1, n_k)`` rows, so each cell's
        float arithmetic is the per-particle expression evaluated at that
        cell's (location, k) -- the same value for one function or many.

        ``intensities[i]`` is ``env.ci_pair(ts[i])``, for a caller that
        has read it already; by default the table reads it.
        """
        cfg = self.config
        s = len(funcs)
        if not (s == len(ts) == len(arrivals)):
            raise ValueError("funcs, ts and arrivals must have equal length")
        if intensities is None:
            intensities = [self.env.ci_pair(t) for t in ts]
        elif len(intensities) != s:
            raise ValueError("intensities must have one (ci, ci_ref) per function")
        grid = self.env.keepalive_grid_s()
        costs = self.costs

        # (s_max, sc_max, kc_max) at the reference intensity, memoised.
        # Only its sc_max and kc_max are read: s_max is CI-independent and
        # comes with the current-intensity normalisers below.
        ref = np.array(
            [
                costs.normalisers(func, max(ci_ref, 1e-9))
                for func, (_, ci_ref) in zip(funcs, intensities)
            ]
        )[:, :, None, None]
        # (n, 1): one current intensity per function.
        ci = np.array([pair[0] for pair in intensities])[:, None]
        packed = np.array([costs.vectors(func).packed for func in funcs])
        p = np.array(
            [
                arrival.p_warm(grid, self._grid_prior(arrival.prior_mean))
                for arrival in arrivals
            ]
        )[:, None, :]

        # Warm service, cold service and keep-alive-rate carbon rows, and
        # the EPDM's cold fallback for every function.
        fcv = FunctionCostVectors
        carbon = price(packed, ci[:, :, None])
        best, s_max = cold_choice(cfg, packed, ci, carbon[:, fcv.COLD])
        r = np.arange(s)
        s_cold_best = packed[r, fcv.S_COLD, best][:, None, None]
        sc_cold_best = carbon[r, fcv.COLD, best][:, None, None]

        q = 1.0 - p
        e_s = p * packed[:, fcv.S_WARM, :, None] + q * s_cold_best
        e_sc = p * carbon[:, fcv.WARM, :, None] + q * sc_cold_best
        kc = carbon[:, fcv.KA, :, None] * grid
        return (
            cfg.lambda_s * e_s / s_max[:, :, None]
            + cfg.lambda_c * e_sc / ref[:, 1]
            + cfg.lambda_c * kc / ref[:, 2]
        )

    def _grid_prior(self, prior_mean: float) -> np.ndarray:
        """The arrival prior over the K_AT grid, computed once per mean."""
        prior = self._grid_priors.get(prior_mean)
        if prior is None:
            prior = exponential_prior(self.env.keepalive_grid_s(), prior_mean)
            prior.flags.writeable = False
            self._grid_priors[prior_mean] = prior
        return prior

    def _gather(self, table: np.ndarray) -> FitnessFn:
        """The lookup into one objective table, as a closure.

        A ``(n_loc, n_k)`` table maps ``(rows, 2)`` positions to
        ``(rows,)`` scores; an ``(s, n_loc, n_k)`` table maps ``(s, rows,
        2)`` to ``(s, rows)``, row ``i`` reading ``table[i]``. Both decode
        every coordinate in one pass and read the flattened table
        through one ``take``.
        """
        flat = table.reshape(-1)
        scale, div, shift = self._scale, self._div, self._shift
        top, strides = self._top, self._strides
        # Where row i's table starts in ``flat`` (0 for one function).
        n_cells = table.shape[-2] * table.shape[-1]
        offsets: np.ndarray | int = 0
        if table.ndim == 3:
            offsets = np.arange(0, flat.size, n_cells)[:, None]

        def gather(x: np.ndarray) -> np.ndarray:
            cells = (x * scale / div + shift).astype(np.intp)
            np.minimum(cells, top, out=cells)
            return flat.take(cells.dot(strides) + offsets)

        return gather

    def fitness(
        self,
        func: FunctionProfile,
        t: float,
        arrival: ArrivalEstimator,
        *,
        intensity: tuple[float, float] | None = None,
    ) -> FitnessFn:
        """The objective for one decision instant: ``(rows, 2) -> (rows,)``.

        The closure gathers from a one-function :meth:`objective_table`
        built here, so it is a pure function of the positions.
        ``intensity`` is ``env.ci_pair(t)`` if the caller has it.
        """
        intensities = None if intensity is None else [intensity]
        table = self.objective_table([func], [t], [arrival], intensities=intensities)
        return self._gather(table[0])

    def batch_fitness(
        self,
        funcs: Sequence[FunctionProfile],
        ts: Sequence[float],
        arrivals: Sequence[ArrivalEstimator],
        *,
        intensities: Sequence[tuple[float, float]] | None = None,
    ) -> BatchFitnessFn:
        """One objective scoring several functions' swarms at once.

        Row ``i`` of the returned callable scores ``funcs[i]``'s particles
        at decision time ``ts[i]`` -- input ``(n_funcs, rows, 2)``, output
        ``(n_funcs, rows)`` -- by gathering from row ``i`` of
        :meth:`objective_table`, the table :meth:`fitness` gathers from at
        width 1. ``intensities`` as for :meth:`objective_table`.
        """
        return self._gather(
            self.objective_table(funcs, ts, arrivals, intensities=intensities)
        )
