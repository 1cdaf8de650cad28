"""Oracle solutions: ORACLE, CO2-OPT, SERVICE-TIME-OPT, ENERGY-OPT.

Paper Sec. V: "These solutions utilize heterogeneous hardware and present
the theoretical upper bounds, which are computed via brute-forcing every
possible scheduling option for each function invocation." Brute-forcing a
per-invocation decision requires knowing when the function is invoked next,
so these schedulers declare ``requires_lookahead`` and read the trace's
next-arrival index; they also run with uncapped pool memory (the paper
calls them "impractical in real-world systems").

For every completed invocation the oracle enumerates all (location,
keep-alive period) pairs on the K_AT grid, computes the *exact* consequence
of each pair -- next service time, next service carbon, keep-alive carbon
integrated over the real CI trace -- and picks the minimum of its
objective:

- ``ORACLE``: the paper's weighted objective (Sec. IV-A) with exact values;
- ``CO2_OPT``: carbon only;
- ``SERVICE_TIME_OPT``: service time only;
- ``ENERGY_OPT``: attributed energy only (the "traditional and naive"
  scheme that ignores embodied carbon and CI variation).

Secondary tie-breaking (1e-6-weighted) keeps decisions deterministic and
avoids pathological carbon waste on service-time ties.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.hardware.specs import GENERATIONS, Generation
from repro.simulator.records import KeepAliveDecision
from repro.simulator.scheduler import (
    BaseScheduler,
    KeepAliveRequest,
    PlacementRequest,
)
from repro.workloads.functions import FunctionProfile


class OracleObjective(enum.Enum):
    """What the brute force minimises."""

    ORACLE = "oracle"
    CO2_OPT = "co2-opt"
    SERVICE_TIME_OPT = "service-time-opt"
    ENERGY_OPT = "energy-opt"


class OracleScheduler(BaseScheduler):
    """Per-invocation brute force with trace lookahead."""

    #: Also makes the experiment runner give oracles unlimited
    #: keep-alive memory, as in the paper.
    requires_lookahead = True

    def __init__(
        self,
        objective: OracleObjective = OracleObjective.ORACLE,
        lambda_s: float = 0.5,
        lambda_c: float = 0.5,
    ) -> None:
        super().__init__()
        self.objective = objective
        self.lambda_s = lambda_s
        self.lambda_c = lambda_c
        self.name = objective.value

    # ------------------------------------------------------------------
    # Cost primitives
    # ------------------------------------------------------------------

    def _service_time(self, func: FunctionProfile, gen: Generation, cold: bool) -> float:
        return func.service_time_s(
            self.env.server(gen), cold=cold, setup_s=self.env.setup_delay_s
        )

    def _service_carbon(
        self, func: FunctionProfile, gen: Generation, cold: bool, ci: float
    ) -> float:
        server = self.env.server(gen)
        busy = self.env.setup_delay_s + func.exec_time_s(server)
        overhead = func.cold_overhead_s(server) if cold else 0.0
        return self.env.carbon_model.est_service_g(
            server, func.mem_gb, busy, overhead, ci
        )

    def _service_energy(
        self, func: FunctionProfile, gen: Generation, cold: bool
    ) -> float:
        server = self.env.server(gen)
        busy = self.env.setup_delay_s + func.exec_time_s(server)
        overhead = func.cold_overhead_s(server) if cold else 0.0
        return self.env.carbon_model.service_energy_wh(
            server, func.mem_gb, busy, overhead
        )

    def _placement_cost(
        self, func: FunctionProfile, gen: Generation, cold: bool, t: float
    ) -> float:
        """Objective-specific cost of executing at ``gen`` now."""
        ci = self.env.ci_at(t)
        s = self._service_time(func, gen, cold)
        g = self._service_carbon(func, gen, cold, ci)
        e = self._service_energy(func, gen, cold)
        if self.objective is OracleObjective.SERVICE_TIME_OPT:
            return s + 1e-6 * g
        if self.objective is OracleObjective.CO2_OPT:
            return g + 1e-6 * s
        if self.objective is OracleObjective.ENERGY_OPT:
            return e + 1e-6 * s
        # Weighted ORACLE: normalised fscore (Sec. IV-D shape).
        s_max = max(self._service_time(func, x, True) for x in GENERATIONS)
        sc_max = max(
            self._service_carbon(func, x, True, max(ci, 1e-9)) for x in GENERATIONS
        )
        return self.lambda_s * s / s_max + self.lambda_c * g / max(sc_max, 1e-12)

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------

    def place(self, req: PlacementRequest) -> Generation:
        if req.warm_locations:
            return min(
                req.warm_locations,
                key=lambda g: self._placement_cost(req.func, g, False, req.t),
            )
        return min(
            GENERATIONS,
            key=lambda g: self._placement_cost(req.func, g, True, req.t),
        )

    def keepalive(self, req: KeepAliveRequest) -> KeepAliveDecision:
        func = req.func
        t_end = req.t_end
        t_next = self.env.next_arrival(func.name, req.record.t)
        if t_next is None or t_next <= t_end:
            # No future invocation (or it arrives mid-execution and will be
            # cold regardless): any keep-alive is pure cost.
            return KeepAliveDecision.none()

        delta = t_next - t_end
        best_cost = np.inf
        best: tuple[Generation, float] = (Generation.NEW, 0.0)
        for gen in GENERATIONS:
            ks = self.env.keepalive_grid_s()
            costs = self._keepalive_costs(func, gen, ks, t_end, t_next, delta)
            i = int(np.argmin(costs))
            if costs[i] < best_cost:
                best_cost = float(costs[i])
                best = (gen, float(ks[i]))
        return KeepAliveDecision(location=best[0], duration_s=best[1])

    # ------------------------------------------------------------------
    # Brute force over the keep-alive grid (vectorised per location)
    # ------------------------------------------------------------------

    def _keepalive_costs(
        self,
        func: FunctionProfile,
        gen: Generation,
        ks: np.ndarray,
        t_end: float,
        t_next: float,
        delta: float,
    ) -> np.ndarray:
        model = self.env.carbon_model
        server = self.env.server(gen)
        warm = ks > delta  # expiry at exactly t_next counts as cold

        ci_next = self.env.ci_at(t_next)

        # Exact keep-alive carbon: until the hit when warm, full k when cold.
        ka_carbon = np.empty_like(ks)
        ka_energy = np.empty_like(ks)
        warm_carbon = model.keepalive(server, func.mem_gb, t_end, t_next).total
        warm_energy = model.keepalive_energy_wh(server, func.mem_gb, delta)
        for i, k in enumerate(ks):
            if warm[i]:
                ka_carbon[i] = warm_carbon
                ka_energy[i] = warm_energy
            elif k > 0.0:
                ka_carbon[i] = model.keepalive(
                    server, func.mem_gb, t_end, t_end + k
                ).total
                ka_energy[i] = model.keepalive_energy_wh(server, func.mem_gb, k)
            else:
                ka_carbon[i] = 0.0
                ka_energy[i] = 0.0

        # Next invocation's service, given the keep-alive outcome.
        cold_gen = min(
            GENERATIONS,
            key=lambda g: self._placement_cost(func, g, True, t_next),
        )
        s_next = np.where(
            warm,
            self._service_time(func, gen, cold=False),
            self._service_time(func, cold_gen, cold=True),
        )
        sc_next = np.where(
            warm,
            self._service_carbon(func, gen, cold=False, ci=ci_next),
            self._service_carbon(func, cold_gen, cold=True, ci=ci_next),
        )
        e_next = np.where(
            warm,
            self._service_energy(func, gen, cold=False),
            self._service_energy(func, cold_gen, cold=True),
        )

        if self.objective is OracleObjective.SERVICE_TIME_OPT:
            return s_next + 1e-6 * (sc_next + ka_carbon)
        if self.objective is OracleObjective.CO2_OPT:
            return sc_next + ka_carbon + 1e-6 * s_next
        if self.objective is OracleObjective.ENERGY_OPT:
            return e_next + ka_energy + 1e-6 * s_next

        # Weighted ORACLE: the Sec. IV-A objective with exact terms.
        s_max = max(self._service_time(func, x, True) for x in GENERATIONS)
        ci_ref = max(self.env.ci_max_observed(t_next), 1e-9)
        sc_max = max(
            self._service_carbon(func, x, True, ci_ref) for x in GENERATIONS
        )
        kc_max = max(
            model.est_keepalive_rate_g_per_s(self.env.server(x), func.mem_gb, ci_ref)
            for x in GENERATIONS
        ) * max(self.env.kmax_s, 1e-9)
        return (
            self.lambda_s * s_next / max(s_max, 1e-12)
            + self.lambda_c * sc_next / max(sc_max, 1e-12)
            + self.lambda_c * ka_carbon / max(kc_max, 1e-12)
        )


def oracle() -> OracleScheduler:
    """The paper's ORACLE (joint optimum)."""
    return OracleScheduler(OracleObjective.ORACLE)


def co2_opt() -> OracleScheduler:
    """The paper's CO2-OPT (carbon-only optimum)."""
    return OracleScheduler(OracleObjective.CO2_OPT)


def service_time_opt() -> OracleScheduler:
    """The paper's SERVICE-TIME-OPT (performance-only optimum)."""
    return OracleScheduler(OracleObjective.SERVICE_TIME_OPT)


def energy_opt() -> OracleScheduler:
    """The paper's ENERGY-OPT (energy-only, carbon-blind)."""
    return OracleScheduler(OracleObjective.ENERGY_OPT)
