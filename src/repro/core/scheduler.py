"""The EcoLife scheduler (paper Algorithm 1): KDM + EPDM + adjustment.

Per invocation:

1. :meth:`EcoLifeScheduler.place` -- record the arrival in the function's
   inter-arrival estimator and let the EPDM choose the execution location
   (warm if possible).
2. :meth:`EcoLifeScheduler.keepalive` -- after execution, the KDM's
   per-function dynamic PSO perceives the environment change (dF, dCI) and
   produces the (keep-alive location, keep-alive period) decision.
3. :meth:`EcoLifeScheduler.rank_keepalive_candidates` -- on pool overflow,
   the warm-pool adjuster ranks candidates by their warm-vs-cold benefit.

The paper's variants (w/o DPSO, w/o adjustment, Eco-Old / Eco-New, GA /
SA) are this scheduler on a transformed :class:`EcoLifeConfig`; they are
built by name through :mod:`repro.experiments.registry`, and
:meth:`EcoLifeScheduler._derive_name` renders each config as its scheme
name.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.adjustment import WarmPoolAdjuster
from repro.core.arrival import ArrivalRegistry
from repro.core.config import EcoLifeConfig, OptimizerKind
from repro.core.epdm import ExecutionPlacementDecisionMaker
from repro.core.kdm import KeepAliveDecisionMaker
from repro.core.objective import ObjectiveBuilder
from repro.hardware.specs import Generation
from repro.simulator.records import KeepAliveDecision
from repro.simulator.scheduler import (
    AdjustmentRequest,
    BaseScheduler,
    KeepAliveRequest,
    PlacementRequest,
    PoolCandidate,
    SchedulerEnv,
)


class EcoLifeScheduler(BaseScheduler):
    """Carbon-aware keep-alive scheduling with multi-generation hardware."""

    name = "ecolife"

    def __init__(self, config: EcoLifeConfig | None = None) -> None:
        super().__init__()
        self.config = config or EcoLifeConfig()
        self.allow_spill = self.config.use_warm_pool_adjustment
        # Components are created at bind() time (they need the env).
        self.arrivals: ArrivalRegistry | None = None
        self.kdm: KeepAliveDecisionMaker | None = None
        self.epdm: ExecutionPlacementDecisionMaker | None = None
        self.adjuster: WarmPoolAdjuster | None = None
        self._builder: ObjectiveBuilder | None = None
        if self.name == "ecolife":
            self.name = self._derive_name()

    def _derive_name(self) -> str:
        cfg = self.config
        # Single-generation configs are the paper's Eco-Old / Eco-New.
        if len(cfg.locations) == 1:
            parts = [f"eco-{cfg.locations[0].value}"]
        else:
            parts = ["ecolife"]
        if cfg.optimizer is OptimizerKind.GENETIC:
            parts.append("ga")
        elif cfg.optimizer is OptimizerKind.ANNEALING:
            parts.append("sa")
        if not cfg.use_dynamic_pso and cfg.optimizer is OptimizerKind.PSO:
            parts.append("no-dpso")
        if not cfg.use_warm_pool_adjustment:
            parts.append("no-adjust")
        return "-".join(parts)

    # -- engine protocol ------------------------------------------------------

    def bind(self, env: SchedulerEnv) -> None:
        super().bind(env)
        cfg = self.config
        self.arrivals = ArrivalRegistry(
            history=cfg.arrival_history,
            prior_mean_iat_s=cfg.prior_mean_iat_s,
            prior_strength=cfg.prior_strength,
        )
        self._builder = ObjectiveBuilder(env, cfg)
        self.kdm = KeepAliveDecisionMaker(env, cfg, self.arrivals, self._builder)
        self.epdm = ExecutionPlacementDecisionMaker(env, cfg, self._builder.costs)
        self.adjuster = WarmPoolAdjuster(env, cfg, self._builder.costs, self.arrivals)

    def place(self, req: PlacementRequest) -> Generation:
        # Rehydrate any retired state for this function *before* the
        # estimator observes the arrival (keeps histories bit-identical).
        self.kdm.on_arrival(req.func.name, req.t)
        self.arrivals.observe(req.func.name, req.t)
        return self.epdm.choose(req.func, req.t, req.warm_locations)

    def keepalive(self, req: KeepAliveRequest) -> KeepAliveDecision:
        return self.kdm.decide(req.func, req.t_end)

    def keepalive_batch(
        self, reqs: Sequence[KeepAliveRequest]
    ) -> list[KeepAliveDecision]:
        return self.kdm.decide_batch([(r.func, r.t_end) for r in reqs])

    def on_container_expired(
        self, name: str, generation: Generation, t: float
    ) -> None:
        # Drives KDM retirement sweeps during quiet periods (no decision
        # traffic); a no-op unless retirement is configured.
        self.kdm.maybe_sweep(t)

    def rank_keepalive_candidates(
        self, req: AdjustmentRequest
    ) -> list[PoolCandidate]:
        if not self.config.use_warm_pool_adjustment:
            # Ablation: incumbents keep their slots; the incoming container
            # only gets leftover space (and nothing spills -- allow_spill is
            # False in this mode).
            incumbents = [c for c in req.candidates if not c.is_incoming]
            incoming = [c for c in req.candidates if c.is_incoming]
            return incumbents + incoming
        return self.adjuster.rank(req)
