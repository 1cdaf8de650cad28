"""Warm-pool adjuster: ranking, arrival weighting, determinism, and the
one-pass ranker against the scalar per-candidate oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ArrivalRegistry, EcoLifeConfig, WarmPoolAdjuster
from repro.core.arrival import ArrivalEstimator
from repro.core.objective import CostModel
from repro.hardware import Generation
from repro.simulator.scheduler import AdjustmentRequest, PoolCandidate
from repro.workloads import FunctionProfile
from tests.oracles import adjustment as oracle
from tests.test_core_objective import make_env


def _candidate(name, mem=1.0, cold_s=2.0, expire=600.0, incoming=False):
    func = FunctionProfile(
        name=name, mem_gb=mem, exec_ref_s=2.0, cold_ref_s=cold_s
    )
    return PoolCandidate(func=func, expire_s=expire, is_incoming=incoming)


def _adjuster(arrivals=None, **cfg_kw):
    env = make_env()
    cfg = EcoLifeConfig(**cfg_kw)
    return WarmPoolAdjuster(env, cfg, CostModel(env, cfg), arrivals)


def _request(candidates, t=0.0, generation=Generation.NEW):
    return AdjustmentRequest(
        t=t,
        generation=generation,
        candidates=tuple(candidates),
        capacity_gb=2.0,
    )


class TestRanking:
    def test_higher_cold_benefit_ranks_first(self):
        adj = _adjuster()
        heavy = _candidate("heavy", cold_s=6.0)
        light = _candidate("light", cold_s=0.3)
        ranked = adj.rank(_request([light, heavy]))
        assert [c.name for c in ranked] == ["heavy", "light"]

    def test_permutation_preserved(self):
        adj = _adjuster()
        cands = [_candidate(f"f{i}", cold_s=0.5 + i) for i in range(5)]
        ranked = adj.rank(_request(cands))
        assert sorted(c.name for c in ranked) == sorted(c.name for c in cands)

    def test_deterministic_tiebreak(self):
        adj = _adjuster()
        a = _candidate("aa", mem=0.5)
        b = _candidate("bb", mem=0.5)
        r1 = adj.rank(_request([a, b]))
        r2 = adj.rank(_request([b, a]))
        assert [c.name for c in r1] == [c.name for c in r2]


class TestArrivalWeighting:
    def _arrivals_with_period(self, name, period, n=40):
        reg = ArrivalRegistry()
        for t in np.arange(n) * period:
            reg.observe(name, float(t))
        return reg

    def test_imminent_function_outranks_idle_one(self):
        """Same cold-start benefit, but one function returns every 2 min
        while the other returns every 2 h: the hot one keeps its slot."""
        reg = self._arrivals_with_period("hot", 120.0)
        for t in np.arange(3) * 7200.0:
            reg.observe("cold", float(t))
        adj = _adjuster(arrivals=reg)
        hot = _candidate("hot", expire=600.0)
        idle = _candidate("cold", expire=600.0)
        ranked = adj.rank(_request([idle, hot]))
        assert ranked[0].name == "hot"

    def test_weighting_can_be_disabled(self):
        reg = self._arrivals_with_period("hot", 120.0)
        for t in np.arange(3) * 7200.0:
            reg.observe("cold", float(t))
        adj = _adjuster(arrivals=reg, adjustment_arrival_weighting=False)
        hot = _candidate("hot", expire=600.0)
        idle = _candidate("cold", expire=600.0)
        # Identical profiles -> identical paper-literal scores; arrival
        # statistics must not influence the ranking when disabled.
        p_hot, p_idle = adj.priorities(_request([hot, idle]))
        assert p_hot == p_idle

    def test_arrival_mass_bounds(self):
        reg = self._arrivals_with_period("f", 120.0)
        adj = _adjuster(arrivals=reg)
        c_soon = _candidate("f", expire=600.0)
        c_expired = _candidate("f", expire=0.0)
        assert 0.0 <= oracle.arrival_mass(
            adj, c_expired, t=10.0
        ) <= oracle.arrival_mass(adj, c_soon, t=10.0) <= 1.0

    def test_no_registry_means_neutral_weight(self):
        adj = _adjuster(arrivals=None)
        assert oracle.arrival_mass(adj, _candidate("x"), t=0.0) == 1.0


def _bits(values):
    return [float(v).hex() for v in values]


class TestBatchedArrivalMass:
    """``p_warm_each`` is the per-candidate one-element ``p_warm``."""

    def test_equals_scalar_queries_bit_for_bit(self):
        for strength in (2.0, 0.0):
            reg = ArrivalRegistry(history=8, prior_strength=strength)
            for i, period in enumerate((30.0, 95.0, 610.0, 7200.0)):
                for t in np.arange(12) * period + 3.7 * i:
                    reg.observe(f"p{i}", float(t))
            reg.observe("once", 50.0)  # one arrival: no gaps yet
            reg.retire("p3")  # peeked from the shelf
            reg.import_shelved("own-prior", ArrivalEstimator(prior_mean_iat_s=45.0))
            names = ["p0", "p1", "p2", "p3", "once", "own-prior", "unseen"]
            ks = [0.0, 29.999, 95.0, 1e4, 61.0, 45.0, 300.0]
            want = [reg.get(n).p_warm([k])[0] for n, k in zip(names, ks)]
            assert _bits(reg.p_warm_each(names, ks)) == _bits(want)

    def test_keeps_get_semantics(self):
        """Peek (no revival) and create-on-miss."""
        reg = ArrivalRegistry()
        for t in (0.0, 40.0, 100.0):
            reg.observe("shelved", t)
        reg.retire("shelved")
        assert reg.archived_count == 1 and len(reg) == 0
        reg.p_warm_each(["shelved", "fresh"], [60.0, 60.0])
        assert reg.archived_count == 1  # still shelved, not revived
        assert len(reg) == 1 and reg.get("fresh").n_samples == 0


# Profiles drawn from a small set so equal-score ties are common.
_PROTOS = ((0.5, 2.0, 2.0), (0.5, 2.0, 2.0), (1.0, 0.7, 6.0), (0.25, 4.0, 0.3))
_HISTORIES = (None, "once", 30.0, 120.0, 7200.0)


@st.composite
def _adjustment_case(draw):
    n = draw(st.integers(1, 7))
    cands = []
    for i in range(n):
        mem, exec_s, cold_s = draw(st.sampled_from(_PROTOS))
        expire = draw(
            st.sampled_from([-50.0, 0.0, 400.0, 600.0])
            | st.floats(-100.0, 3000.0, allow_nan=False)
        )
        cands.append(
            (f"f{i}", mem, exec_s, cold_s, expire, i == n - 1)
        )
    return dict(
        cands=cands,
        histories=draw(st.lists(st.sampled_from(_HISTORIES), min_size=n, max_size=n)),
        retired=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        weighting=draw(st.sampled_from(["on", "off", "no-registry"])),
        locations=draw(
            st.sampled_from(
                [
                    (Generation.OLD, Generation.NEW),
                    (Generation.NEW, Generation.OLD),
                    (Generation.OLD,),
                    (Generation.NEW,),
                ]
            )
        ),
        pick=draw(st.integers(0, 1)),
        t=draw(st.sampled_from([0.0, 500.0, 3700.0])),
        ci=draw(st.sampled_from([0.0, 37.5, 250.0])),
        # 0.5 is a power of two: scaling by it cannot expose a change in
        # the order of float operations, 0.3 / 0.7 can.
        lambdas=draw(st.sampled_from([(0.5, 0.5), (0.3, 0.7), (0.9, 0.1)])),
    )


def _registry(case):
    reg = ArrivalRegistry(history=8)
    for (name, *_), period in zip(case["cands"], case["histories"]):
        if period == "once":
            reg.observe(name, 10.0)
        elif period is not None:
            for t in np.arange(10) * period:
                reg.observe(name, float(t))
    for (name, *_), retired in zip(case["cands"], case["retired"]):
        if retired:
            reg.retire(name)
    return reg


def _registry_state(reg):
    return sorted(reg._by_name), list(reg._archived)


class TestRankMatchesOracle:
    """The one-pass ranker against the scalar ranker it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(case=_adjustment_case())
    def test_same_order_and_bit_equal_priorities(self, case):
        env = make_env(ci=case["ci"])
        lambda_s, lambda_c = case["lambdas"]
        cfg = EcoLifeConfig(
            locations=case["locations"],
            adjustment_arrival_weighting=case["weighting"] != "off",
            lambda_s=lambda_s,
            lambda_c=lambda_c,
        )
        cands = [
            PoolCandidate(
                func=FunctionProfile(
                    name=name, mem_gb=mem, exec_ref_s=exec_s, cold_ref_s=cold_s
                ),
                expire_s=expire,
                is_incoming=incoming,
            )
            for name, mem, exec_s, cold_s, expire, incoming in case["cands"]
        ]
        gen = case["locations"][case["pick"] % len(case["locations"])]
        req = _request(cands, t=case["t"], generation=gen)
        sides = []
        for _ in range(2):
            reg = None if case["weighting"] == "no-registry" else _registry(case)
            sides.append((WarmPoolAdjuster(env, cfg, CostModel(env, cfg), reg), reg))
        (adj, reg), (ref, ref_reg) = sides
        ranked = adj.rank(req)
        priorities = adj.priorities(req)
        want_ranked = oracle.rank(ref, req)
        want = [oracle.priority(ref, c, req) for c in cands]
        assert [c.name for c in ranked] == [c.name for c in want_ranked]
        assert _bits(priorities) == _bits(want)
        if reg is not None:
            assert _registry_state(reg) == _registry_state(ref_reg)

    def test_equal_scores_tie_break_by_memory_then_name(self):
        reg = ArrivalRegistry()
        adj = _adjuster(arrivals=reg)
        ref = _adjuster(arrivals=ArrivalRegistry())
        cands = [
            _candidate(name, mem=mem, expire=300.0)
            for name, mem in (("b", 1.0), ("a", 1.0), ("c", 0.5), ("d", 1.0))
        ]
        req = _request(cands)
        p = adj.priorities(req)
        assert p[0] == p[1] == p[3]
        assert [c.name for c in adj.rank(req)] == [
            c.name for c in oracle.rank(ref, req)
        ]
