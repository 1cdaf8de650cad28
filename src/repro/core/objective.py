"""EcoLife's objective function (paper Sec. IV-A) and shared cost estimates.

The KDM minimises, over keep-alive location ``l`` and period ``k``::

    lambda_s * E[S_{f,l,k}] / S_f_max
  + lambda_c * E[SC_{f,l,k}] / SC_f_max
  + lambda_c * KC_{f,l,k} / KC_fk_max

where the expectations come from the function's arrival statistics: with
probability ``P(IAT <= k)`` the next invocation is warm on ``l`` (execution
only), otherwise it pays a cold start at the EPDM's best cold location.
``KC`` is the keep-alive carbon; see
:class:`repro.core.config.KeepAliveExpectation` for the two charging modes.

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
from repro.core.arrival import ArrivalEstimator
from repro.core.config import EcoLifeConfig, KeepAliveExpectation
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
    them (:meth:`ObjectiveBuilder.objective_table`).
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

    @property
    def s_warm(self) -> np.ndarray:
        return self.packed[self.S_WARM]

    @property
    def s_cold(self) -> np.ndarray:
        return self.packed[self.S_COLD]

    def _carbon(self, row: int, ci: float) -> np.ndarray:
        return (
            units.operational_carbon_g(self.packed[self.ENERGY][row], ci)
            + self.packed[self.EMBODIED][row]
        )

    def sc_warm(self, ci: float) -> np.ndarray:
        """Warm service carbon per location at intensity ``ci``."""
        return self._carbon(self.WARM, ci)

    def sc_cold(self, ci: float) -> np.ndarray:
        """Cold service carbon per location at intensity ``ci``."""
        return self._carbon(self.COLD, ci)

    def ka_rate(self, ci: float) -> np.ndarray:
        """Keep-alive carbon rate (g/s) per location at intensity ``ci``."""
        return self._carbon(self.KA, ci)


class CostModel:
    """Decision-time estimates shared by KDM, EPDM and the adjuster.

    Hot-path note: one EcoLife run asks for these estimates thousands of
    times (every KDM decision rebuilds its objective table), so the
    CI-independent pieces -- service times, energy/embodied splits,
    keep-alive power -- are computed once per function and cached as
    per-location vectors (:class:`FunctionCostVectors`), and the guarded
    normalisers are memoised per ``(function, reference CI)``. Functions
    are keyed by name; the trace guarantees names map to unique profiles.
    """

    def __init__(self, env: SchedulerEnv, config: EcoLifeConfig) -> None:
        self.env = env
        self.config = config
        self._vectors: dict[str, FunctionCostVectors] = {}
        #: Per-function: reference CI -> guarded normaliser triple.
        self._normalisers: dict[str, dict[float, tuple[float, float, float]]] = {}

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
            cached = (
                max(v.s_max, 1e-9),
                max(float(v.sc_cold(ci_ref).max()), 1e-12),
                max(float(v.ka_rate(ci_ref).max()) * self.env.kmax_s, 1e-12),
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

    # -- EPDM -----------------------------------------------------------------------

    def best_cold(
        self, func: FunctionProfile, ci: float
    ) -> tuple[Generation, float, float]:
        """The EPDM's cold-placement choice: (location, S, SC)."""
        v = self.vectors(func)
        s_max, sc_max, _ = self.normalisers(func, max(ci, 1e-12))
        sc_cold = v.sc_cold(ci)
        scores = (
            self.config.lambda_s * v.s_cold / s_max
            + self.config.lambda_c * sc_cold / sc_max
        )
        idx = int(np.argmin(scores))
        return self.config.locations[idx], float(v.s_cold[idx]), float(sc_cold[idx])


class ObjectiveBuilder:
    """Builds the KDM's objective as a table over its discrete space.

    Position encoding: ``x0`` selects the keep-alive location among the
    allowed generations, ``x1`` the keep-alive period on the discrete grid
    ``K_AT`` (:meth:`SchedulerEnv.keepalive_grid_s`). The space is a
    location times a K_AT cell (2 x 31 cells by default), so one decision's
    objective is a small table: :meth:`objective_table` scores every cell
    once -- one ``p_warm`` / ``E[min(IAT, k)]`` query per function, on the
    grid -- and the fitness closures only map positions to cells and
    gather. Within one decision the landscape is therefore fixed, which
    the fleet's stepping relies on (:class:`~repro.optimizers.batch.
    SwarmFleet`).
    """

    def __init__(self, env: SchedulerEnv, config: EcoLifeConfig) -> None:
        self.env = env
        self.config = config
        self.costs = CostModel(env, config)

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

    def decode_single(self, position: np.ndarray) -> tuple[Generation, float]:
        """Decode one position into a (location, keep-alive seconds) pair."""
        idx = int(self.decode_locations(np.array([position[0]]))[0])
        k = float(self.decode_k(np.array([position[1]]))[0])
        return self.config.locations[idx], k

    # -- objective ------------------------------------------------------------------

    def objective_table(
        self,
        funcs: Sequence[FunctionProfile],
        ts: Sequence[float],
        arrivals: Sequence[ArrivalEstimator],
    ) -> np.ndarray:
        """The objective of ``funcs[i]`` at ``ts[i]`` over every cell.

        Returns ``(n_funcs, n_locations, n_k)``. Per-function scalars (CI,
        normalisers, the EPDM's cold fallback) become ``(n_funcs, 1, 1)``
        columns, the packed cost arrays an ``(n_funcs, 8, n_loc)`` stack,
        and the arrival queries ``(n_funcs, 1, n_k)`` rows, so each cell's
        float arithmetic is the per-particle expression evaluated at that
        cell's (location, k) -- the same value for one function or many.
        """
        cfg = self.config
        s = len(funcs)
        if not (s == len(ts) == len(arrivals)):
            raise ValueError("funcs, ts and arrivals must have equal length")
        grid = self.env.keepalive_grid_s()
        expected_mode = cfg.keepalive_expectation is KeepAliveExpectation.EXPECTED_MIN

        ci, ci_ref = self.env.ci_many(ts)
        # Per function: (s_max, sc_max, kc_max) at the reference
        # intensity, then the cold fallback's (s_max, sc_max) at the
        # current one.
        norms = np.array(
            [
                self.costs.normalisers(func, max(c_ref, 1e-9))
                + self.costs.normalisers(func, max(c, 1e-12))[:2]
                for func, c, c_ref in zip(funcs, ci.tolist(), ci_ref.tolist())
            ]
        )[:, :, None, None]
        packed = np.array([self.costs.vectors(func).packed for func in funcs])
        p = np.array([arrival.p_warm(grid) for arrival in arrivals])[:, None, :]
        ka_duration = (
            np.array([arrival.expected_keepalive_s(grid) for arrival in arrivals])
            if expected_mode
            else grid
        )[..., None, :]

        # Warm service, cold service and keep-alive-rate carbon rows.
        fcv = FunctionCostVectors
        carbon = (
            units.operational_carbon_g(packed[:, fcv.ENERGY], ci[:, None, None])
            + packed[:, fcv.EMBODIED]
        )
        s_cold, sc_cold = packed[:, fcv.S_COLD], carbon[:, fcv.COLD]

        # The EPDM's cold fallback (CostModel.best_cold) for every function.
        cold_scores = (
            cfg.lambda_s * s_cold / norms[:, 3, 0]
            + cfg.lambda_c * sc_cold / norms[:, 4, 0]
        )
        best = np.argmin(cold_scores, axis=1)  # first-index ties, as argmin()
        r = np.arange(s)
        s_cold_best = s_cold[r, best][:, None, None]
        sc_cold_best = sc_cold[r, best][:, None, None]

        q = 1.0 - p
        e_s = p * packed[:, fcv.S_WARM, :, None] + q * s_cold_best
        e_sc = p * carbon[:, fcv.WARM, :, None] + q * sc_cold_best
        kc = carbon[:, fcv.KA, :, None] * ka_duration
        return (
            cfg.lambda_s * e_s / norms[:, 0]
            + cfg.lambda_c * e_sc / norms[:, 1]
            + cfg.lambda_c * kc / norms[:, 2]
        )

    def fitness(
        self, func: FunctionProfile, t: float, arrival: ArrivalEstimator
    ) -> FitnessFn:
        """The objective for one decision instant: ``(rows, 2) -> (rows,)``.

        The closure gathers from a one-function :meth:`objective_table`
        built here, so it is a pure function of the positions.
        """
        table = self.objective_table([func], [t], [arrival])[0]

        def fitness_fn(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            return table[self.decode_locations(x[:, 0]), self.decode_cells(x[:, 1])]

        return fitness_fn

    def batch_fitness(
        self,
        funcs: Sequence[FunctionProfile],
        ts: Sequence[float],
        arrivals: Sequence[ArrivalEstimator],
    ) -> BatchFitnessFn:
        """One objective scoring several functions' swarms at once.

        Row ``i`` of the returned callable scores ``funcs[i]``'s particles
        at decision time ``ts[i]`` -- input ``(n_funcs, rows, 2)``, output
        ``(n_funcs, rows)`` -- by gathering from row ``i`` of
        :meth:`objective_table`, the table :meth:`fitness` gathers from at
        width 1.
        """
        table = self.objective_table(funcs, ts, arrivals)
        rows = np.arange(len(funcs))[:, None]

        def batch_fn(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            return table[
                rows, self.decode_locations(x[..., 0]), self.decode_cells(x[..., 1])
            ]

        return batch_fn
