"""State retirement under function churn: KDM idle sweeps, archives, and
the memory-bounds / bit-identity contract.

Retirement (``EcoLifeConfig.retire_after_s`` / ``max_live_swarms``) must
never change a decision -- archived functions rehydrate bit-identically --
while bounding the live per-function state (fleet slots, arrival
estimators, perception scalars) to the *active* cohort on churned traces.
The KDM-level tests run down both the fleet and the sequential-DPSO
oracle (``tests/oracles``), which archives optimizer objects instead of
swarm rows.
"""

import pytest

from repro.carbon import CarbonIntensityTrace
from repro.core import EcoLifeConfig, EcoLifeScheduler
from repro.core.arrival import ArrivalRegistry
from repro.core.kdm import KeepAliveDecisionMaker
from repro.hardware import PAIR_A, Generation
from repro.simulator import SimulationConfig, SimulationEngine
from repro.simulator.scheduler import BaseScheduler, KeepAliveDecision
from repro.workloads import FunctionProfile
from repro.workloads.generators import WorkloadSpec, build_trace
from tests.oracles import SequentialKDM, sequential_ecolife
from tests.test_core_objective import make_env

RETIRE = dict(retire_after_s=900.0)


def _funcs(n):
    return [
        FunctionProfile(
            name=f"f{i}", mem_gb=0.5, exec_ref_s=1.5 + 0.5 * i, cold_ref_s=0.8
        )
        for i in range(n)
    ]


def _churn_trace(n_functions=32, hours=3.0, cohorts=4, seed=11):
    return build_trace(
        WorkloadSpec.make("churn", cohorts=cohorts, overlap=0.25),
        n_functions,
        hours * 3600.0,
        seed=seed,
    )


def _replay(trace, config, scheduler_cls=EcoLifeScheduler, **sim_kw):
    engine = SimulationEngine(
        pair=PAIR_A,
        trace=trace,
        ci_trace=CarbonIntensityTrace.constant(250.0),
        config=SimulationConfig(measure_decision_overhead=False, **sim_kw),
    )
    scheduler = scheduler_cls(config)
    result = engine.run(scheduler)
    return result, scheduler


def assert_records_identical(a, b):
    assert len(a.records) == len(b.records)
    assert a.total_carbon_g == b.total_carbon_g
    assert a.total_service_s == b.total_service_s
    for ra, rb in zip(a.records, b.records):
        assert ra.cold == rb.cold
        assert ra.location is rb.location
        assert ra.keepalive_decision == rb.keepalive_decision
        assert ra.keepalive_s == rb.keepalive_s
        assert ra.keepalive_carbon == rb.keepalive_carbon


class TestKDMSweep:
    """Unit-level: the sweep archives, rehydrates, and stays invisible."""

    def _kdm(self, batch, **retire_kw):
        """``batch``: the fleet KDM; otherwise the sequential oracle."""
        env = make_env()
        cfg = EcoLifeConfig(**retire_kw)
        arrivals = ArrivalRegistry()
        kdm_cls = KeepAliveDecisionMaker if batch else SequentialKDM
        return kdm_cls(env, cfg, arrivals), arrivals

    def _drive(self, kdm, arrivals, schedule):
        """Replay (t, names) decision rounds through arrival + decide."""
        out = []
        for t, names in schedule:
            for name in names:
                kdm.on_arrival(name, t)
                arrivals.observe(name, t)
            out.extend(
                kdm.decide_batch([(self._profiles[n], t + 2.0) for n in names])
            )
        return out

    @pytest.mark.parametrize("batch", [True, False])
    def test_sweep_is_bit_identical_and_bounds_state(self, batch):
        funcs = _funcs(6)
        self._profiles = {f.name: f for f in funcs}
        early, late = [f.name for f in funcs[:3]], [f.name for f in funcs[3:]]
        # Cohort churn: the early trio goes idle mid-run, then f0 returns.
        schedule = [(120.0 * k, early) for k in range(4)]
        schedule += [(480.0 + 120.0 * k, late) for k in range(12)]
        schedule += [(2000.0, ["f0"]), (2120.0, late)]

        ret, ra = self._kdm(batch, retire_after_s=300.0)
        plain, rp = self._kdm(batch)
        decided_ret = self._drive(ret, ra, schedule)
        decided_plain = self._drive(plain, rp, schedule)

        assert decided_ret == decided_plain
        assert ret.retired >= 3  # the idle early cohort was swept
        assert ret.rehydrated >= 1  # f0 came back
        assert plain.retired == 0
        # Live state is bounded by the active cohort, not ever-seen.
        assert ret.live_count < plain.live_count
        assert len(ra) < len(rp)
        assert ret.live_count + ret.archived_count == 6

    @pytest.mark.parametrize("batch", [True, False])
    def test_max_live_swarms_cap(self, batch):
        funcs = _funcs(10)
        self._profiles = {f.name: f for f in funcs}
        names = [f.name for f in funcs]
        schedule = [(60.0 * k, [names[k % 10]]) for k in range(40)]

        capped, ca = self._kdm(batch, max_live_swarms=3)
        plain, pa = self._kdm(batch)
        assert self._drive(capped, ca, schedule) == self._drive(
            plain, pa, schedule
        )
        # One new function may transiently overshoot before the sweep.
        assert capped.peak_live <= 4
        assert capped.live_count <= 4
        assert plain.peak_live == 10

    def test_fleet_compaction_applied_to_slots(self):
        funcs = _funcs(8)
        self._profiles = {f.name: f for f in funcs}
        names = [f.name for f in funcs]
        kdm, arrivals = self._kdm(True, retire_after_s=100.0)
        if not kdm.use_fleet:
            pytest.skip("fleet disabled via ECOLIFE_BATCH_SWARMS")
        self._drive(kdm, arrivals, [(0.0, names)])
        grown = kdm.fleet_capacity
        assert grown >= 8
        # Everyone idles past the horizon; only f0 keeps deciding.
        self._drive(kdm, arrivals, [(1000.0, ["f0"]), (2000.0, ["f0"])])
        assert kdm.live_count == 1
        assert kdm.fleet_capacity < grown  # compaction shrank the arrays
        # The remapped surviving slot still decides identically.
        solo, sa = self._kdm(True)
        self._drive(
            solo, sa, [(0.0, names), (1000.0, ["f0"]), (2000.0, ["f0"])]
        )
        a = kdm.decide_batch([(self._profiles["f0"], 2100.0)])
        b = solo.decide_batch([(self._profiles["f0"], 2100.0)])
        assert a == b


class TestEngineChurnReplay:
    """Replay-level: churn-family traces, retirement on vs off."""

    def test_retirement_replay_bit_identical(self):
        trace = _churn_trace()
        off, _ = _replay(trace, EcoLifeConfig())
        on, sched = _replay(trace, EcoLifeConfig(**RETIRE))
        assert_records_identical(off, on)
        assert sched.kdm.retired > 0

    def test_retirement_replay_matches_sequential_oracle(self):
        """Retired per-function optimizer objects (the oracle) and
        retired swarm rows (the fleet) rehydrate to the same decisions."""
        trace = _churn_trace(n_functions=16, hours=1.5)
        config = EcoLifeConfig(**RETIRE)
        fleet, _ = _replay(trace, config)
        oracle, sched = _replay(trace, config, scheduler_cls=sequential_ecolife)
        assert_records_identical(fleet, oracle)
        assert sched.kdm.retired > 0

    def test_retirement_bounds_memory_on_churn(self):
        trace = _churn_trace()
        ever_seen = len({r for r in trace.func_names})
        off, off_sched = _replay(trace, EcoLifeConfig())
        on, on_sched = _replay(trace, EcoLifeConfig(**RETIRE))
        kdm = on_sched.kdm
        # Peak live state tracks the active cohort, not the total cohort
        # count (4 cohorts, 25% overlap => well under ever-seen).
        assert off_sched.kdm.peak_live == ever_seen
        assert kdm.peak_live < 0.75 * ever_seen
        assert kdm.fleet_capacity <= off_sched.kdm.fleet_capacity
        # The arrival registry is swept through the same archive.
        assert len(on_sched.arrivals) <= kdm.live_count
        assert len(on_sched.arrivals) + on_sched.arrivals.archived_count <= (
            ever_seen
        )
        # Decision-time cost caches are evicted too (rebuilds are
        # bit-identical); retirement-off keeps one entry per ever-seen.
        costs_on = on_sched.kdm.builder.costs
        costs_off = off_sched.kdm.builder.costs
        assert costs_off.cached_function_count == ever_seen
        assert costs_on.cached_function_count < ever_seen
        # Nothing leaks: every ever-seen function is live or archived.
        assert kdm.live_count + kdm.archived_count == ever_seen

    def test_retirement_with_memory_pressure(self):
        """Adjustment/spill/eviction bookkeeping survives retirement."""
        trace = _churn_trace(n_functions=24, hours=2.0)
        kw = dict(pool_capacity_old_gb=2.0, pool_capacity_new_gb=2.0)
        off, _ = _replay(trace, EcoLifeConfig(), **kw)
        on, sched = _replay(trace, EcoLifeConfig(**RETIRE), **kw)
        assert off.evicted_count + off.spilled_count > 0
        assert_records_identical(off, on)
        assert on.evicted_count == off.evicted_count
        assert on.spilled_count == off.spilled_count
        assert on.dropped_count == off.dropped_count
        assert sched.kdm.retired > 0

    def test_max_live_swarms_replay(self):
        trace = _churn_trace(n_functions=24, hours=2.0)
        off, _ = _replay(trace, EcoLifeConfig())
        on, sched = _replay(
            trace, EcoLifeConfig(max_live_swarms=6, retire_after_s=600.0)
        )
        assert_records_identical(off, on)
        # Cap + one same-tick batch of brand-new functions of slack.
        assert sched.kdm.peak_live <= 6 + 4

    def test_overflow_ranking_of_retired_function_is_identical(self):
        """A container can outlive its function's last decision: the
        function retires while still warm, then a pool overflow ranks its
        container. The adjuster must see the archived arrival history
        (same numbers as retirement-off) and the later rehydration must
        not collide with the peeked estimator (regression: this used to
        raise ``ValueError: estimator ... is already live``)."""
        funcs = [
            FunctionProfile(
                name=f"f{i}", mem_gb=1.0, exec_ref_s=1.0, cold_ref_s=0.5
            )
            for i in range(6)
        ]
        events = [(0.0, funcs[0])]  # f0 decides once, then goes idle warm
        events += [(120.0 + 5.0 * i, funcs[i]) for i in range(1, 6)]
        events += [(600.0, funcs[0])]  # f0 returns after being retired
        from repro.workloads import InvocationTrace

        trace = InvocationTrace.from_events(sorted(events))
        kw = dict(pool_capacity_old_gb=2.0, pool_capacity_new_gb=2.0)
        off, _ = _replay(trace, EcoLifeConfig(), **kw)
        on, sched = _replay(trace, EcoLifeConfig(retire_after_s=60.0), **kw)
        assert off.evicted_count + off.spilled_count > 0  # overflow is real
        assert_records_identical(off, on)
        assert sched.kdm.retired > 0
        assert sched.kdm.rehydrated > 0

    def test_final_drain_sweeps_via_expiry_events(self):
        """Container expiries after the last arrival still drive sweeps,
        so a run ends with its idle tail retired (no decision traffic)."""
        trace = _churn_trace(n_functions=16, hours=1.5, cohorts=2)
        _, sched = _replay(trace, EcoLifeConfig(retire_after_s=300.0))
        # The last cohort's state outlives the last decision only until
        # its containers expire; the final drain retires everything idle.
        assert sched.kdm.live_count == 0
        assert sched.kdm.archived_count == len(set(trace.func_names))


class TestExpiryNotifications:
    """Engine-level contract of ``on_container_expired``."""

    class Recorder(BaseScheduler):
        name = "recorder"

        def __init__(self):
            super().__init__()
            self.expiries = []

        def place(self, req):
            return Generation.NEW

        def keepalive(self, req):
            return KeepAliveDecision(location=Generation.NEW, duration_s=120.0)

        def on_container_expired(self, name, generation, t):
            self.expiries.append((name, generation, t))

    def _run(self, scheduler):
        funcs = _funcs(2)
        from repro.workloads import InvocationTrace

        trace = InvocationTrace.from_events(
            [(0.0, funcs[0]), (30.0, funcs[1]), (60.0, funcs[0])]
        )
        engine = SimulationEngine(
            pair=PAIR_A,
            trace=trace,
            ci_trace=CarbonIntensityTrace.constant(250.0),
        )
        return engine.run(scheduler)

    def test_expiries_are_notified(self):
        sched = self.Recorder()
        self._run(sched)
        # f1's 120 s container expires untouched; f0's first is consumed
        # by the warm hit at t=60 (no event), its second expires.
        names = [n for n, _, _ in sched.expiries]
        assert names.count("f1") == 1
        assert names.count("f0") == 1
        for name, gen, t in sched.expiries:
            assert gen is Generation.NEW
            assert t > 120.0

    def test_base_hook_does_nothing(self):
        """Expiries reach every scheduler; the base hook ignores them."""

        class Silent(self.Recorder):
            on_container_expired = BaseScheduler.on_container_expired

        sched = Silent()
        result = self._run(sched)
        assert sched.expiries == []
        assert len(result.records) == 3


class TestConfigValidation:
    def test_retirement_knobs_validated(self):
        with pytest.raises(ValueError, match="retire_after_s"):
            EcoLifeConfig(retire_after_s=0.0)
        with pytest.raises(ValueError, match="max_live_swarms"):
            EcoLifeConfig(max_live_swarms=0)

    def test_retirement_enabled_property(self):
        assert not EcoLifeConfig().retirement_enabled
        assert EcoLifeConfig(retire_after_s=60.0).retirement_enabled
        assert EcoLifeConfig(max_live_swarms=8).retirement_enabled


class TestArchivePickles:
    """Archives written by older code still rehydrate (checkpoints
    persist them as pickles)."""

    def test_archive_pickled_with_counter_fields_rehydrates(self):
        """Archives pickled while ``SwarmArchive`` still carried the
        counter-RNG fields (``ctr_key``/``ctr_step``) hold them in their
        pickled state. They must still load, and the swarm must resume
        bit-identically: unpickling restores the instance dict, and
        rehydrate() reads only the current fields."""
        import pickle

        import numpy as np

        from repro.optimizers import DPSOParams, SwarmFleet
        from repro.optimizers.batch import SwarmArchive

        def sphere(x):
            return ((x - 0.3) ** 2).sum(axis=1)

        def fresh():
            return SwarmFleet(dim=2, n_particles=5, params=DPSOParams())

        fleet = fresh()
        fleet.add_swarm(np.random.default_rng(3))
        fleet.step_one(0, sphere, iterations=2)
        archive = fleet.retire(0)
        legacy = object.__new__(SwarmArchive)
        legacy.__dict__.update(vars(archive), ctr_key=0, ctr_step=0)
        loaded = pickle.loads(pickle.dumps(legacy))
        assert loaded.ctr_step == 0  # the stale entry rode along

        a, b = fresh(), fresh()
        ia, ib = a.rehydrate(archive), b.rehydrate(loaded)
        for fleet_, i in ((a, ia), (b, ib)):
            fleet_.perceive_batch([i], [5.0], [40.0])
            fleet_.step_one(i, sphere, iterations=3)
        for name in a._STACKED_STATE:
            assert np.array_equal(getattr(a, name)[ia], getattr(b, name)[ib])
