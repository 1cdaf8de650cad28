"""Fixed baselines, and the registry's Eco-Old/Eco-New and GA/SA schemes."""

import pytest

from repro.baselines import new_only, old_only
from repro.carbon import CarbonIntensityTrace
from repro.experiments.registry import create_scheduler
from repro.hardware import PAIR_A, Generation
from repro.simulator import SimulationConfig, SimulationEngine
from repro.workloads import FunctionProfile, InvocationTrace


def _func(name="f", mem=0.5):
    return FunctionProfile(name=name, mem_gb=mem, exec_ref_s=2.0, cold_ref_s=1.5)


def run(events, scheduler, **cfg_kw):
    engine = SimulationEngine(
        pair=PAIR_A,
        trace=InvocationTrace.from_events(events),
        ci_trace=CarbonIntensityTrace.constant(250.0),
        config=SimulationConfig(**cfg_kw),
    )
    return engine.run(scheduler)


class TestFixedBaselines:
    def test_new_only_uses_new_everywhere(self):
        f = _func()
        res = run([(i * 100.0, f) for i in range(10)], new_only())
        assert all(r.location is Generation.NEW for r in res.records)
        assert res.scheduler_name == "new-only"

    def test_old_only_uses_old_everywhere(self):
        f = _func()
        res = run([(i * 100.0, f) for i in range(10)], old_only())
        assert all(r.location is Generation.OLD for r in res.records)

    def test_ten_minute_policy(self):
        """Warm within 10 min of completion, cold after."""
        f = _func()
        res = run([(0.0, f), (500.0, f), (1500.0, f)], new_only())
        assert res.records[0].cold
        assert not res.records[1].cold
        assert res.records[2].cold  # 500+svc -> expired by 1500? 500+2.05+600 ~ 1102

    def test_old_only_slower_than_new_only(self):
        f = _func()
        events = [(i * 100.0, f) for i in range(10)]
        slow = run(events, old_only())
        fast = run(events, new_only())
        assert slow.mean_service_s > fast.mean_service_s

    def test_custom_keepalive(self):
        f = _func()
        res = run([(0.0, f), (120.0, f)], new_only(keepalive_s=60.0))
        assert res.records[1].cold

    def test_rejects_negative_keepalive(self):
        with pytest.raises(ValueError):
            new_only(keepalive_s=-1.0)

    def test_no_spill(self):
        assert new_only().allow_spill is False


class TestStaticEco:
    def test_names(self):
        assert create_scheduler("eco-old").name == "eco-old"
        assert create_scheduler("eco-new").name == "eco-new"

    def test_eco_old_stays_old(self):
        f = _func()
        res = run([(i * 120.0, f) for i in range(8)], create_scheduler("eco-old"))
        assert all(r.location is Generation.OLD for r in res.records)

    def test_eco_new_stays_new(self):
        f = _func()
        res = run([(i * 120.0, f) for i in range(8)], create_scheduler("eco-new"))
        assert all(r.location is Generation.NEW for r in res.records)


class TestHeuristicSchedulers:
    @pytest.mark.parametrize("name", ["ecolife-ga", "ecolife-sa"])
    def test_runs_and_named(self, name):
        f = _func()
        sched = create_scheduler(name)
        res = run([(i * 150.0, f) for i in range(8)], sched)
        assert res.scheduler_name == name
        assert len(res) == 8
