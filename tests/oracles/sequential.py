"""Sequential-DPSO EcoLife: the per-function PSO path, kept as an oracle.

The scheduler steps every PSO swarm through the batched
:class:`~repro.optimizers.batch.SwarmFleet`. :class:`SequentialKDM`
instead gives each function its own :class:`~tests.oracles.pso.
ParticleSwarm` / :class:`~tests.oracles.dynamic_pso.DynamicPSO` object
and decides one item at a time, exactly as the paper describes the KDM.
Both must produce identical decisions.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import EcoLifeConfig, OptimizerKind
from repro.core.kdm import KeepAliveDecisionMaker, _stable_seed
from repro.core.scheduler import EcoLifeScheduler
from repro.optimizers.base import ContinuousOptimizer
from repro.simulator.records import KeepAliveDecision
from repro.simulator.scheduler import SchedulerEnv
from repro.workloads.functions import FunctionProfile
from tests.oracles.dynamic_pso import DynamicPSO
from tests.oracles.objective import decode_single
from tests.oracles.pso import ParticleSwarm


class SequentialKDM(KeepAliveDecisionMaker):
    """A KDM that keeps one sequential PSO object per function."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.use_fleet = False

    def _new_optimizer(self, name: str) -> ContinuousOptimizer:
        cfg = self.config
        if cfg.optimizer is not OptimizerKind.PSO:
            return super()._new_optimizer(name)
        rng = _stable_seed(cfg.seed, name)
        if cfg.use_dynamic_pso:
            return DynamicPSO(
                dim=2, rng=rng, n_particles=cfg.n_particles, params=cfg.dpso
            )
        return ParticleSwarm(
            dim=2,
            rng=rng,
            n_particles=cfg.n_particles,
            omega=cfg.vanilla_omega,
            c1=cfg.vanilla_c,
            c2=cfg.vanilla_c,
        )

    def decide_batch(
        self, items: Sequence[tuple[FunctionProfile, float]]
    ) -> list[KeepAliveDecision]:
        return [self._step_optimizer(func, t) for func, t in items]

    def _step_optimizer(self, func: FunctionProfile, t: float) -> KeepAliveDecision:
        if self.config.optimizer is not OptimizerKind.PSO:
            return super()._step_optimizer(func, t)
        self.maybe_sweep(t)
        opt = self.optimizer_for(func.name)
        assert isinstance(opt, ParticleSwarm)
        ci = self.env.ci_at(t)
        rate = self.env.rate_per_minute(t)
        if isinstance(opt, DynamicPSO):
            delta_ci = abs(ci - self._last_ci.get(func.name, ci))
            delta_f = abs(rate - self._last_rate.get(func.name, rate))
            if opt.perceive(delta_f, delta_ci):
                self.redistributions += 1
        self._last_ci[func.name] = ci
        self._last_rate[func.name] = rate
        fitness = self.builder.fitness(func, t, self.arrivals.get(func.name))
        opt.step(fitness, iterations=self.config.iterations_per_invocation)
        location, k_s = decode_single(self.builder, opt.gbest_position)
        self.decisions += 1
        self._touch(func.name, t)
        return KeepAliveDecision(location=location, duration_s=k_s)


class SequentialEcoLife(EcoLifeScheduler):
    """EcoLife whose KDM is :class:`SequentialKDM`."""

    def bind(self, env: SchedulerEnv) -> None:
        super().bind(env)
        self.kdm = SequentialKDM(env, self.config, self.arrivals, self._builder)


def sequential_ecolife(config: EcoLifeConfig | None = None) -> SequentialEcoLife:
    """A fresh sequential-DPSO EcoLife."""
    return SequentialEcoLife(config or EcoLifeConfig())
