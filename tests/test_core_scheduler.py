"""EcoLife scheduler end-to-end behaviour in the engine."""

import numpy as np
import pytest

from repro.carbon import CarbonIntensityTrace
from repro.core import EcoLifeConfig, EcoLifeScheduler
from repro.core.config import OptimizerKind
from repro.hardware import PAIR_A, Generation
from repro.simulator import SimulationConfig, SimulationEngine
from repro.workloads import FunctionProfile, InvocationTrace


def _func(name="f", mem=0.5, exec_s=2.0, cold_s=1.5):
    return FunctionProfile(name=name, mem_gb=mem, exec_ref_s=exec_s, cold_ref_s=cold_s)


def run(events, scheduler, ci=250.0, **cfg_kw):
    trace = InvocationTrace.from_events(events)
    cfg = SimulationConfig(**cfg_kw)
    engine = SimulationEngine(
        pair=PAIR_A,
        trace=trace,
        ci_trace=CarbonIntensityTrace.constant(ci),
        config=cfg,
    )
    return engine.run(scheduler)


def periodic_events(func, period, n, start=0.0):
    return [(start + i * period, func) for i in range(n)]


class TestBasicBehaviour:
    def test_runs_clean_on_mixed_trace(self):
        fa, fb = _func("a"), _func("b", mem=1.2)
        events = periodic_events(fa, 120.0, 20) + periodic_events(fb, 300.0, 8, 7.0)
        res = run(events, EcoLifeScheduler())
        assert len(res) == 28
        assert res.scheduler_name == "ecolife"

    def test_warm_placement_enforced(self):
        """Once warm, EcoLife never pays a cold start for a hot function."""
        f = _func("hot")
        res = run(periodic_events(f, 120.0, 30), EcoLifeScheduler())
        # After a few observations the PSO should keep it warm.
        tail = res.records[10:]
        warm = sum(0 if r.cold else 1 for r in tail)
        assert warm / len(tail) > 0.8

    def test_rare_function_not_kept_alive_forever(self):
        """A 2-hour-periodic function should mostly get k = 0 decisions."""
        f = _func("rare")
        res = run(periodic_events(f, 7200.0, 6), EcoLifeScheduler())
        ka_time = sum(r.keepalive_s for r in res.records)
        # Much less than always-keep-30-min (6 * 1800 s).
        assert ka_time < 0.5 * 6 * 1800.0

    def test_deterministic_given_seed(self):
        f = _func("d")
        events = periodic_events(f, 180.0, 15)
        r1 = run(events, EcoLifeScheduler(EcoLifeConfig(seed=5)))
        r2 = run(events, EcoLifeScheduler(EcoLifeConfig(seed=5)))
        assert r1.total_carbon_g == r2.total_carbon_g
        assert [r.cold for r in r1.records] == [r.cold for r in r2.records]

    def test_decisions_counted(self):
        f = _func("c")
        sched = EcoLifeScheduler()
        run(periodic_events(f, 100.0, 10), sched)
        assert sched.kdm.decisions == 10
        assert sched.kdm.optimizer_count == 1


class TestVariants:
    def test_single_generation_old_never_uses_new(self):
        f = _func("x")
        sched = EcoLifeScheduler.single_generation(Generation.OLD)
        res = run(periodic_events(f, 120.0, 12), sched)
        assert all(r.location is Generation.OLD for r in res.records)
        assert "old-only" in res.scheduler_name

    def test_single_generation_new_never_uses_old(self):
        f = _func("x")
        sched = EcoLifeScheduler.single_generation(Generation.NEW)
        res = run(periodic_events(f, 120.0, 12), sched)
        assert all(r.location is Generation.NEW for r in res.records)

    def test_without_dpso_uses_vanilla_swarm(self):
        sched = EcoLifeScheduler.without_dpso()
        run(periodic_events(_func("x"), 120.0, 5), sched)
        assert sched.kdm.use_fleet
        fleet = sched.kdm._fleet_for_config()
        assert not fleet.dynamic and not fleet.rescore_bests
        assert sched.kdm.redistributions == 0

    def test_default_uses_dynamic_pso(self):
        sched = EcoLifeScheduler()
        run(periodic_events(_func("x"), 120.0, 5), sched)
        assert sched.kdm.use_fleet
        fleet = sched.kdm._fleet_for_config()
        assert fleet.dynamic and fleet.params == sched.config.dpso
        assert sched.kdm.optimizer_count == 1

    def test_ga_and_sa_variants(self):
        from repro.optimizers import GeneticOptimizer, SimulatedAnnealing

        for kind, cls in (
            (OptimizerKind.GENETIC, GeneticOptimizer),
            (OptimizerKind.ANNEALING, SimulatedAnnealing),
        ):
            sched = EcoLifeScheduler.with_optimizer(kind)
            res = run(periodic_events(_func("x"), 150.0, 6), sched)
            assert isinstance(sched.kdm.optimizer_for("x"), cls)
            assert len(res) == 6

    def test_variant_names(self):
        assert EcoLifeScheduler.without_dpso().name == "ecolife-no-dpso"
        assert EcoLifeScheduler.without_adjustment().name == "ecolife-no-adjust"
        assert (
            EcoLifeScheduler.with_optimizer(OptimizerKind.GENETIC).name
            == "ecolife-ga"
        )


class TestMemoryPressureBehaviour:
    def _pressure_events(self):
        rng = np.random.default_rng(3)
        funcs = [_func(f"f{i}", mem=1.0) for i in range(8)]
        events = []
        for i, f in enumerate(funcs):
            period = 120.0 + 30.0 * i
            events += periodic_events(f, period, 12, start=float(rng.uniform(0, 60)))
        return events

    def test_adjustment_respects_capacity_and_spills(self):
        res = run(
            self._pressure_events(),
            EcoLifeScheduler(),
            pool_capacity_old_gb=3.0,
            pool_capacity_new_gb=3.0,
        )
        # Memory pressure is real: something was spilled or evicted.
        assert res.spilled_count + res.evicted_count > 0

    def test_adjustment_beats_no_adjustment_under_pressure(self):
        events = self._pressure_events()
        with_adj = run(
            events, EcoLifeScheduler(),
            pool_capacity_old_gb=3.0, pool_capacity_new_gb=3.0,
        )
        without = run(
            events, EcoLifeScheduler.without_adjustment(),
            pool_capacity_old_gb=3.0, pool_capacity_new_gb=3.0,
        )
        # The paper's Fig. 11: adjustment keeps more functions warm.
        assert with_adj.warm_ratio >= without.warm_ratio

    def test_no_adjustment_ranking_keeps_incumbents(self):
        sched = EcoLifeScheduler.without_adjustment()
        assert sched.allow_spill is False
        res = run(
            self._pressure_events(), sched,
            pool_capacity_old_gb=3.0, pool_capacity_new_gb=3.0,
        )
        assert res.spilled_count == 0


class TestAdjusterScoring:
    def test_benefit_score_higher_for_expensive_cold_start(self):
        from repro.core import WarmPoolAdjuster
        from repro.core.objective import CostModel
        from repro.simulator.scheduler import AdjustmentRequest, PoolCandidate
        from tests.test_core_objective import make_env

        env = make_env()
        cfg = EcoLifeConfig()
        adj = WarmPoolAdjuster(env, cfg, CostModel(env, cfg))
        heavy_cold = _func("h", cold_s=6.0)
        light_cold = _func("l", cold_s=0.3)
        req = AdjustmentRequest(
            t=0.0,
            generation=Generation.NEW,
            candidates=tuple(
                PoolCandidate(func=f, expire_s=600.0, is_incoming=False)
                for f in (heavy_cold, light_cold)
            ),
            capacity_gb=1.0,
        )
        # No arrival registry: the priority is the bare benefit score.
        s_h, s_l = adj.priorities(req)
        assert s_h > s_l


class TestCapabilitiesFromHooks:
    """Optional capabilities follow from hook overrides, not flags."""

    def test_sharding_support_follows_place_foreign(self):
        from repro.baselines import new_only, oracle
        from repro.simulator.scheduler import overrides_hook

        eco = EcoLifeScheduler()
        assert eco.supports_sharding
        assert overrides_hook(eco, "observe_foreign_run")
        for baseline in (new_only(), oracle()):
            assert not baseline.supports_sharding
            assert not overrides_hook(baseline, "observe_foreign_run")

    def test_supports_sharding_is_read_only(self):
        with pytest.raises(AttributeError):
            EcoLifeScheduler().supports_sharding = False
