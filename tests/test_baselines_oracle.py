"""Oracle schedulers: optimality properties under lookahead."""

from repro.baselines import (
    OracleObjective,
    OracleScheduler,
    co2_opt,
    energy_opt,
    new_only,
    old_only,
    oracle,
    service_time_opt,
)
from repro.carbon import CarbonIntensityTrace
from repro.hardware import PAIR_A, Generation
from repro.simulator import SimulationConfig, SimulationEngine
from repro.workloads import FunctionProfile, InvocationTrace


def _func(name="f", mem=0.5, exec_s=2.0, cold_s=2.0):
    return FunctionProfile(name=name, mem_gb=mem, exec_ref_s=exec_s, cold_ref_s=cold_s)


def run(events, scheduler, ci=250.0):
    engine = SimulationEngine(
        pair=PAIR_A,
        trace=InvocationTrace.from_events(events),
        ci_trace=(
            ci if isinstance(ci, CarbonIntensityTrace)
            else CarbonIntensityTrace.constant(ci)
        ),
        config=SimulationConfig().uncapped(),
    )
    return engine.run(scheduler)


def periodic(func, period, n):
    return [(i * period, func) for i in range(n)]


class TestLookaheadDecisions:
    def test_no_keepalive_after_last_invocation(self):
        """The oracle knows the trace ends: zero trailing keep-alive."""
        f = _func()
        res = run([(0.0, f)], oracle())
        assert res.records[0].keepalive_s == 0.0
        assert res.records[0].keepalive_carbon.total == 0.0

    def test_keeps_alive_exactly_until_next_arrival(self):
        """For a known 5-min gap the oracle picks the smallest grid k > gap."""
        f = _func()
        res = run(periodic(f, 300.0, 3), service_time_opt())
        # Every non-final invocation leads to a warm next start.
        assert res.records[0].cold
        assert not res.records[1].cold
        assert not res.records[2].cold
        # Keep-alive accrued only until the hit (gap minus service time).
        assert res.records[0].keepalive_s < 300.0

    def test_service_time_opt_is_fastest(self):
        f = _func()
        events = periodic(f, 400.0, 12)
        st = run(events, service_time_opt())
        others = [
            run(events, s)
            for s in (co2_opt(), oracle(), energy_opt(), new_only(), old_only())
        ]
        for other in others:
            assert st.total_service_s <= other.total_service_s + 1e-9

    def test_co2_opt_has_lowest_carbon(self):
        f = _func()
        events = periodic(f, 400.0, 12)
        co = run(events, co2_opt())
        others = [
            run(events, s)
            for s in (service_time_opt(), oracle(), energy_opt(), new_only(), old_only())
        ]
        for other in others:
            assert co.total_carbon_g <= other.total_carbon_g + 1e-9

    def test_energy_opt_has_lowest_energy(self):
        f = _func()
        events = periodic(f, 400.0, 12)
        en = run(events, energy_opt())
        others = [
            run(events, s)
            for s in (service_time_opt(), oracle(), co2_opt(), new_only(), old_only())
        ]
        for other in others:
            assert en.total_energy_wh <= other.total_energy_wh + 1e-9

    def test_oracle_between_the_single_metric_opts(self):
        """The joint oracle is never better than either single-metric opt."""
        f = _func()
        events = periodic(f, 400.0, 12)
        orc = run(events, oracle())
        st = run(events, service_time_opt())
        co = run(events, co2_opt())
        assert orc.total_service_s >= st.total_service_s - 1e-9
        assert orc.total_carbon_g >= co.total_carbon_g - 1e-9

    def test_rare_function_gets_no_keepalive_from_co2_opt(self):
        """A 2-hour gap: keeping alive can never pay off carbon-wise."""
        f = _func()
        res = run([(0.0, f), (7200.0, f)], co2_opt())
        assert res.records[0].keepalive_s == 0.0

    def test_high_ci_shifts_keepalive_to_old(self):
        """At very high CI the cold start is carbon-expensive, and the old
        generation is the cheap place to keep functions warm."""
        f = _func(mem=1.0)
        res = run(periodic(f, 240.0, 10), co2_opt(), ci=800.0)
        ka_locations = [
            r.keepalive_decision.location
            for r in res.records[:-1]
            if r.keepalive_decision and r.keepalive_decision.duration_s > 0
        ]
        assert ka_locations, "expected keep-alive at high CI"
        assert ka_locations.count(Generation.OLD) >= len(ka_locations) // 2


class TestOracleMechanics:
    def test_requires_lookahead_flag(self):
        # The flag alone also buys the paper's uncapped keep-alive memory.
        from repro.experiments import default_scenario, run_scheduler

        assert OracleScheduler.requires_lookahead is True
        assert not hasattr(OracleScheduler, "wants_uncapped_memory")
        # A 0.5 GB pool would overflow; the oracle's is unlimited.
        scenario = default_scenario(
            n_functions=12, hours=0.5, seed=3, pool_gb=0.5
        )
        capped = run_scheduler(new_only(), scenario)
        assert any(r.evicted for r in capped.records)
        result = run_scheduler(oracle(), scenario)
        assert not any(r.evicted or r.spilled for r in result.records)

    def test_objective_names(self):
        assert oracle().name == "oracle"
        assert co2_opt().name == "co2-opt"
        assert service_time_opt().name == "service-time-opt"
        assert energy_opt().name == "energy-opt"

    def test_custom_lambda_weights(self):
        sched = OracleScheduler(OracleObjective.ORACLE, lambda_s=0.9, lambda_c=0.1)
        f = _func()
        res = run(periodic(f, 300.0, 6), sched)
        assert len(res) == 6
