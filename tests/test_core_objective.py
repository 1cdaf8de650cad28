"""Objective builder: decoding, normalisers, fitness behaviour."""

import numpy as np
import pytest

from repro.carbon import CarbonIntensityTrace, CarbonModel
from repro.core import (
    ArrivalEstimator,
    ArrivalRegistry,
    EcoLifeConfig,
    EcoLifeScheduler,
    ExecutionPlacementDecisionMaker,
    ObjectiveBuilder,
    WarmPoolAdjuster,
)
from repro.core.objective import CostModel, current_normalisers
from repro.hardware import PAIR_A, Generation
from repro.simulator import SimulationConfig, SimulationEngine, WarmPool
from repro.simulator.scheduler import AdjustmentRequest, PoolCandidate, SchedulerEnv
from repro.workloads import FunctionProfile, InvocationTrace, get_function
from repro.workloads.generators import WorkloadSpec, build_trace
from tests.oracles import adjustment as oracle
from tests.oracles import objective as objective_oracle


def make_env(ci=250.0, kmax_minutes=30.0):
    cfg = SimulationConfig(kmax_minutes=kmax_minutes)
    trace = InvocationTrace.from_events(
        [], functions=[get_function("graph-bfs")]
    )
    pools = {
        g: WarmPool(generation=g, capacity_gb=cfg.capacity(g))
        for g in Generation
    }
    return SchedulerEnv(
        pair=PAIR_A,
        carbon_model=CarbonModel(trace=CarbonIntensityTrace.constant(ci)),
        energy_model=CarbonModel(
            trace=CarbonIntensityTrace.constant(ci)
        ).energy_model,
        pools=pools,
        trace=trace,
        setup_delay_s=cfg.setup_delay_s,
        kmax_s=cfg.kmax_s,
        k_step_s=cfg.k_step_s,
    )


@pytest.fixture
def env():
    return make_env()


@pytest.fixture
def builder(env):
    return ObjectiveBuilder(env, EcoLifeConfig())


@pytest.fixture
def bfs():
    return get_function("graph-bfs")


class TestDecoding:
    def test_location_halves(self, builder):
        idx = builder.decode_locations(np.array([0.0, 0.49, 0.5, 0.99, 1.0]))
        assert idx.tolist() == [0, 0, 1, 1, 1]

    def test_k_grid(self, builder):
        k = builder.decode_k(np.array([0.0, 0.5, 1.0]))
        assert k[0] == 0.0
        assert k[1] == pytest.approx(15 * 60.0)
        assert k[2] == pytest.approx(30 * 60.0)

    def test_k_snaps_to_minutes(self, builder):
        k = builder.decode_k(np.array([0.501]))
        assert k[0] % 60.0 == 0.0

    def test_k_midpoints_round_half_up(self):
        """Grid midpoints go up -- banker's rounding would send 0.5 -> 0
        and 2.5 -> 2, biasing candidates toward even step multiples."""
        b = ObjectiveBuilder(make_env(kmax_minutes=32.0), EcoLifeConfig())
        # x1 * kmax / step hits exactly 0.5, 1.5, 2.5 (binary-exact inputs).
        k = b.decode_k(np.array([0.5 / 32.0, 1.5 / 32.0, 2.5 / 32.0]))
        assert k.tolist() == [60.0, 120.0, 180.0]

    def test_decode_single(self, builder):
        gen, k = builder.decode_single(np.array([0.9, 1.0]))
        assert gen is Generation.NEW
        assert k == pytest.approx(1800.0)

    def test_single_location_config(self, env):
        b = ObjectiveBuilder(env, EcoLifeConfig(locations=(Generation.OLD,)))
        gen, _ = b.decode_single(np.array([0.99, 0.5]))
        assert gen is Generation.OLD


class TestNormalisers:
    def test_s_max_is_cold_on_slowest(self, builder, bfs):
        s_max = oracle.s_max(builder.costs, bfs)
        cold_old = builder.costs.service_time(bfs, Generation.OLD, cold=True)
        assert s_max == pytest.approx(cold_old)

    def test_sc_max_positive(self, builder, bfs):
        assert oracle.sc_max(builder.costs, bfs, 250.0) > 0.0

    def test_kc_max_scales_with_kmax(self, bfs):
        short = ObjectiveBuilder(make_env(kmax_minutes=10.0), EcoLifeConfig())
        long = ObjectiveBuilder(make_env(kmax_minutes=30.0), EcoLifeConfig())
        assert oracle.kc_max(long.costs, bfs, 250.0) == pytest.approx(
            3.0 * oracle.kc_max(short.costs, bfs, 250.0)
        )


class TestCostCache:
    """The memoised vectors must agree with the primitive estimators."""

    def test_vectors_match_primitives(self, builder, bfs):
        v = builder.costs.vectors(bfs)
        for i, g in enumerate(builder.config.locations):
            assert v.s_warm[i] == pytest.approx(
                builder.costs.service_time(bfs, g, cold=False)
            )
            assert v.s_cold[i] == pytest.approx(
                builder.costs.service_time(bfs, g, cold=True)
            )
            assert v.sc_warm(250.0)[i] == pytest.approx(
                oracle.service_carbon(builder.costs, bfs, g, cold=False, ci=250.0)
            )
            assert v.sc_cold(100.0)[i] == pytest.approx(
                oracle.service_carbon(builder.costs, bfs, g, cold=True, ci=100.0)
            )
            assert v.ka_rate(250.0)[i] == pytest.approx(
                oracle.keepalive_rate(builder.costs, bfs, g, ci=250.0)
            )

    def test_vectors_memoised_by_name(self, builder, bfs):
        assert builder.costs.vectors(bfs) is builder.costs.vectors(bfs)

    def test_normalisers_memoised(self, builder, bfs):
        a = builder.costs.normalisers(bfs, 250.0)
        assert builder.costs.normalisers(bfs, 250.0) is a

    def test_best_cold_matches_fscore_argmin(self, builder, bfs):
        gen, s, sc = builder.costs.best_cold(bfs, 250.0)
        by_score = min(
            builder.config.locations,
            key=lambda g: oracle.fscore(builder.costs, bfs, g, cold=True, ci=250.0),
        )
        assert gen is by_score
        assert s == pytest.approx(builder.costs.service_time(bfs, gen, cold=True))


class TestFscoreGuards:
    """Zero-cost configurations must score finite, not divide by zero."""

    def test_normalisers_guard_all_three(self, builder, bfs, monkeypatch):
        import repro.core.objective as obj

        zeros = np.zeros(len(builder.config.locations))
        degenerate = obj.FunctionCostVectors(
            s_warm=zeros, s_cold=zeros, s_max=0.0,
            warm_energy_wh=zeros, warm_emb_g=zeros,
            cold_energy_wh=zeros, cold_emb_g=zeros,
            ka_power_w=zeros, ka_emb_g_per_s=zeros,
        )
        monkeypatch.setattr(builder.costs, "vectors", lambda f: degenerate)
        s_max, sc_max, kc_max = builder.costs.normalisers(bfs, 0.0)
        assert s_max > 0.0 and sc_max > 0.0 and kc_max > 0.0
        score = oracle.fscore(builder.costs, bfs, Generation.NEW, cold=True, ci=0.0)
        assert np.isfinite(score)

    def test_fscore_finite_at_zero_ci(self, builder, bfs):
        for gen in builder.config.locations:
            assert np.isfinite(oracle.fscore(builder.costs, bfs, gen, cold=True, ci=0.0))


class TestFitness:
    def _fitness(self, builder, bfs, periodic_s=None):
        est = ArrivalEstimator(prior_strength=0.0 if periodic_s else 2.0)
        if periodic_s:
            for t in np.arange(40) * periodic_s:
                est.observe(t)
        return builder.fitness(bfs, t=0.0, arrival=est)

    def test_vectorised_shape(self, builder, bfs):
        f = self._fitness(builder, bfs)
        x = np.random.default_rng(0).uniform(size=(37, 2))
        scores = f(x)
        assert scores.shape == (37,)
        assert np.isfinite(scores).all()

    def test_prefers_keepalive_for_hot_function(self, builder, bfs):
        """A 2-min-periodic function: k ~ 3 min beats k = 0."""
        f = self._fitness(builder, bfs, periodic_s=120.0)
        no_ka = f(np.array([[0.9, 0.0]]))[0]
        ka_3min = f(np.array([[0.9, 3.0 / 30.0]]))[0]
        assert ka_3min < no_ka

    def test_penalises_overlong_keepalive(self, builder, bfs):
        """FULL_K mode: k = 30 min costs more than k = 3 min for a hot
        function (same warm probability, triple the charged carbon)."""
        f = self._fitness(builder, bfs, periodic_s=120.0)
        ka_3min = f(np.array([[0.9, 3.0 / 30.0]]))[0]
        ka_30min = f(np.array([[0.9, 1.0]]))[0]
        assert ka_3min < ka_30min

    def test_rare_function_prefers_no_keepalive(self, builder, bfs):
        """A function arriving every 2 h should not be kept alive 30 min."""
        f = self._fitness(builder, bfs, periodic_s=7200.0)
        no_ka = f(np.array([[0.9, 0.0]]))[0]
        ka_30 = f(np.array([[0.9, 1.0]]))[0]
        assert no_ka < ka_30

    def test_old_keepalive_cheaper_at_same_k(self, builder, bfs):
        """With warm probability pinned, the old location's lower keep-alive
        rate must win on the carbon terms."""
        f = self._fitness(builder, bfs, periodic_s=120.0)
        old = f(np.array([[0.1, 3.0 / 30.0]]))[0]
        new = f(np.array([[0.9, 3.0 / 30.0]]))[0]
        # Old keep-alive is cheaper but old execution is slower; the carbon
        # term dominates for graph-bfs at CI=250 in this calibration.
        assert old != new  # the trade-off is visible either way


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


_CLAMP_FUNCS = (
    get_function("graph-bfs"),
    FunctionProfile(name="tiny", mem_gb=0.25, exec_ref_s=0.05, cold_ref_s=0.2),
    FunctionProfile(name="big", mem_gb=2.0, exec_ref_s=12.0, cold_ref_s=6.0),
)


class TestCurrentIntensityClamp:
    """Below ``1e-12`` the current-intensity normalisers are priced at the
    clamp, bit for bit as the oracles' ``normalisers(func, max(ci,
    1e-12))`` reads -- though the carbon they normalise is priced at the
    unclamped intensity."""

    @pytest.fixture(params=[0.0, 1e-13])
    def env0(self, request):
        return make_env(ci=request.param)

    def _arrivals(self):
        est = [ArrivalEstimator(), ArrivalEstimator(), ArrivalEstimator()]
        for t in np.arange(20) * 95.0:
            est[1].observe(float(t))
        for t in np.arange(6) * 1300.0:
            est[2].observe(float(t))
        return est

    def test_current_normalisers(self, env0):
        costs = CostModel(env0, EcoLifeConfig())
        ci = env0.ci_at(0.0)
        want = [costs.normalisers(f, max(ci, 1e-12))[:2] for f in _CLAMP_FUNCS]
        stack = np.array([costs.vectors(f).packed for f in _CLAMP_FUNCS])
        clamped = np.array([costs.vectors(f).sc_cold(1e-12) for f in _CLAMP_FUNCS])
        fcv = type(costs.vectors(_CLAMP_FUNCS[0]))
        for priced in (
            clamped,
            fcv.cold_carbon(stack, max(ci, 1e-12)),
            fcv.cold_carbon(stack, np.maximum([ci] * 3, 1e-12)[:, None]),
        ):
            assert _hex(priced) == _hex(clamped)
            got = current_normalisers(stack, priced)
            assert _hex(np.column_stack(got)) == _hex(want)
        for f, w in zip(_CLAMP_FUNCS, want):
            v = costs.vectors(f)
            assert _hex(v.current_normalisers(ci, v.sc_cold(ci))) == _hex(w)
            assert _hex(v.current_normalisers(ci)) == _hex(w)

    def test_objective_table(self, env0):
        builder = ObjectiveBuilder(env0, EcoLifeConfig())
        funcs, arrivals = list(_CLAMP_FUNCS), self._arrivals()
        ts = [0.0, 60.0, 7200.0]
        x = np.random.default_rng(3).uniform(size=(3, 40, 2))
        want = objective_oracle.batch_fitness(builder, funcs, ts, arrivals)(x)
        pairs = [env0.ci_pair(t) for t in ts]
        assert _hex(builder.batch_fitness(funcs, ts, arrivals)(x)) == _hex(want)
        got = builder.batch_fitness(funcs, ts, arrivals, intensities=pairs)(x)
        assert _hex(got) == _hex(want)
        for i in range(3):
            solo = objective_oracle.fitness(builder, funcs[i], ts[i], arrivals[i])
            got = builder.fitness(funcs[i], ts[i], arrivals[i])(x[i])
            assert _hex(got) == _hex(solo(x[i]))

    def test_best_cold(self, env0):
        costs = CostModel(env0, EcoLifeConfig())
        ci = env0.ci_at(0.0)
        for f in _CLAMP_FUNCS:
            gen, s, sc = costs.best_cold(f, ci)
            assert gen is oracle.choose(costs, f, 0.0, ())
            v = costs.vectors(f)
            i = costs.config.locations.index(gen)
            assert (s, sc) == (v.s_cold[i], v.sc_cold(ci)[i])

    def test_epdm_choose(self, env0):
        both = (Generation.OLD, Generation.NEW)
        for locations in (both, both[::-1]):
            cfg = EcoLifeConfig(locations=locations, lambda_s=0.3, lambda_c=0.7)
            epdm = ExecutionPlacementDecisionMaker(env0, cfg, CostModel(env0, cfg))
            ref = CostModel(env0, cfg)
            for f in _CLAMP_FUNCS:
                for warm in ((), both):
                    got = epdm.choose(f, 0.0, warm)
                    assert got is oracle.choose(ref, f, 0.0, warm)

    def test_adjuster_priorities(self, env0):
        reg = ArrivalRegistry()
        for t in np.arange(10) * 120.0:
            reg.observe("tiny", float(t))
        cfg = EcoLifeConfig(lambda_s=0.3, lambda_c=0.7)
        adj = WarmPoolAdjuster(env0, cfg, CostModel(env0, cfg), reg)
        cands = tuple(
            PoolCandidate(func=f, expire_s=600.0 * (i + 1), is_incoming=i == 2)
            for i, f in enumerate(_CLAMP_FUNCS)
        )
        for gen in cfg.locations:
            req = AdjustmentRequest(
                t=60.0, generation=gen, candidates=cands, capacity_gb=1.0
            )
            want = [oracle.priority(adj, c, req) for c in cands]
            assert _hex(adj.priorities(req)) == _hex(want)


class TestNormaliserMemo:
    """Only reference intensities (the running max) key the memo: the
    current intensity changes with every CI knot and is computed inline."""

    def test_memo_keys_are_running_max_values(self):
        ci = CarbonIntensityTrace.from_minute_values(
            200.0 + 150.0 * np.sin(np.arange(120) / 7.0) + np.arange(120)
        )
        trace = build_trace(WorkloadSpec.make("poisson"), 12, 3600.0, seed=5)
        engine = SimulationEngine(
            pair=PAIR_A,
            trace=trace,
            ci_trace=ci,
            config=SimulationConfig(
                pool_capacity_old_gb=1.0,
                pool_capacity_new_gb=1.0,
                measure_decision_overhead=False,
            ),
        )
        sched = EcoLifeScheduler(EcoLifeConfig())
        adjustments = []
        rank = sched.rank_keepalive_candidates

        def counted(req):
            adjustments.append(req)
            return rank(req)

        sched.rank_keepalive_candidates = counted
        engine.run(sched)
        assert adjustments, "the pools never overflowed"
        memo = sched.kdm.builder.costs._normalisers
        assert memo
        running_max = {max(c, 1e-9) for c in np.maximum.accumulate(ci.values)}
        keys = {k for per_ci in memo.values() for k in per_ci}
        assert keys <= running_max
        assert len(set(ci.values.tolist())) > len(running_max) > 1
