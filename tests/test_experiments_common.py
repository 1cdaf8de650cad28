"""Experiment plumbing: scenarios, runners, scheme registry."""

from repro.baselines import new_only, oracle
from repro.carbon import CarbonIntensityTrace
from repro.experiments import (
    create_scheduler,
    default_scenario,
    list_schedulers,
    quick_scenario,
    run_scheduler,
    run_suite,
)
from repro.hardware import get_pair


class TestScenarioBuilders:
    def test_default_scenario_composition(self):
        sc = default_scenario(n_functions=10, hours=0.5, seed=4)
        assert len(sc.trace.functions) == 10
        assert sc.trace.duration_s <= 0.5 * 3600.0
        assert sc.ci_trace.duration_s >= sc.trace.duration_s
        assert sc.pair.name == "A"
        assert "pairA" in sc.label

    def test_quick_scenario_is_small(self):
        sc = quick_scenario(seed=1)
        assert len(sc.trace.functions) <= 30

    def test_with_pair(self):
        sc = default_scenario(n_functions=5, hours=0.25)
        sc2 = sc.with_pair(get_pair("C"))
        assert sc2.pair.name == "C"
        assert sc.pair.name == "A"  # original untouched

    def test_with_ci(self):
        sc = default_scenario(n_functions=5, hours=0.25)
        flat = CarbonIntensityTrace.constant(123.0)
        sc2 = sc.with_ci(flat)
        assert sc2.ci_trace.at(0.0) == 123.0

    def test_with_capacity(self):
        sc = default_scenario(n_functions=5, hours=0.25)
        sc2 = sc.with_capacity(3.0, 5.0)
        assert sc2.sim_config.pool_capacity_old_gb == 3.0
        assert sc2.sim_config.pool_capacity_new_gb == 5.0

    def test_scenario_reusable_across_runs(self):
        """Scenarios are immutable; engines are created per run."""
        sc = default_scenario(n_functions=5, hours=0.25, seed=2)
        a = run_scheduler(new_only, sc)
        b = run_scheduler(new_only, sc)
        assert a.total_carbon_g == b.total_carbon_g


class TestRunners:
    def test_run_scheduler_accepts_factory_and_instance(self):
        sc = default_scenario(n_functions=5, hours=0.25, seed=2)
        by_factory = run_scheduler(new_only, sc)
        by_instance = run_scheduler(new_only(), sc)
        assert by_factory.total_carbon_g == by_instance.total_carbon_g

    def test_oracle_gets_uncapped_memory(self):
        sc = default_scenario(n_functions=5, hours=0.25, seed=2).with_capacity(
            0.0, 0.0
        )
        res = run_scheduler(oracle, sc)  # zero capacity would break non-oracles
        assert len(res) > 0

    def test_run_suite_keys(self):
        sc = quick_scenario(seed=5)
        import dataclasses

        small = dataclasses.replace(sc, trace=sc.trace.subset(
            list(sc.trace.functions)[:4]
        ))
        results = run_suite(["new-only"], small)
        assert set(results) == {"new-only"}
        assert results["new-only"].meta["scenario"] == small.label

    def test_paper_schemes_registry(self):
        # The scheme set of Figs. 4/7/9 resolves by name.
        assert {
            "co2-opt",
            "service-time-opt",
            "energy-opt",
            "oracle",
            "new-only",
            "old-only",
            "ecolife",
        } <= set(list_schedulers())
        # Factories produce fresh instances each call.
        assert create_scheduler("ecolife") is not create_scheduler("ecolife")


class TestPackageLevelHelpers:
    def test_lazy_wrappers(self):
        import repro

        sc = repro.quick_scenario(seed=3)
        assert len(sc.trace) > 0
        res = repro.run_scheduler(new_only, sc)
        assert res.total_carbon_g > 0.0
