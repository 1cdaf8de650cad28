"""Decision-behaviour analysis helpers."""

import numpy as np
import pytest

from repro.analysis import (
    keepalive_behaviour,
    location_split_by_ci,
    per_function_table,
)
from repro.carbon import CarbonIntensityTrace
from repro.core import EcoLifeConfig, EcoLifeScheduler
from repro.hardware import PAIR_A
from repro.simulator import SimulationConfig, SimulationEngine
from repro.workloads import FunctionProfile, InvocationTrace


@pytest.fixture(scope="module")
def run():
    f1 = FunctionProfile(name="hot", mem_gb=0.5, exec_ref_s=2.0, cold_ref_s=2.0)
    f2 = FunctionProfile(name="rare", mem_gb=0.5, exec_ref_s=2.0, cold_ref_s=2.0)
    events = [(i * 120.0, f1) for i in range(30)]
    events += [(i * 3000.0 + 13.0, f2) for i in range(2)]
    trace = InvocationTrace.from_events(events)
    ci = CarbonIntensityTrace.from_minute_values(
        list(np.linspace(100, 500, 80))
    )
    engine = SimulationEngine(
        pair=PAIR_A, trace=trace, ci_trace=ci, config=SimulationConfig()
    )
    result = engine.run(EcoLifeScheduler(EcoLifeConfig(seed=3)))
    return result, ci


class TestKeepAliveBehaviour:
    def test_profile_extracted(self, run):
        result, _ = run
        prof = keepalive_behaviour(result)
        assert prof.k_minutes.size == len(result)
        assert 0.0 <= prof.no_keepalive_fraction <= 1.0
        assert 0.0 <= prof.old_fraction <= 1.0

    def test_hot_function_gets_positive_k(self, run):
        result, _ = run
        prof = keepalive_behaviour(result)
        assert prof.median_k_min > 0.0


class TestLocationSplit:
    def test_bins_cover_all_positive_decisions(self, run):
        result, ci = run
        rows = location_split_by_ci(result, ci, n_bins=3)
        assert len(rows) == 3
        total = sum(old + new for _, old, new, _ in rows)
        positive = sum(
            1
            for r in result.records
            if r.keepalive_decision and r.keepalive_decision.duration_s > 0
        )
        assert total == positive

    def test_fractions_in_range(self, run):
        result, ci = run
        for _, _, _, frac in location_split_by_ci(result, ci):
            assert 0.0 <= frac <= 1.0

    def test_empty_result(self):
        from repro.simulator import SimulationResult

        empty = SimulationResult(scheduler_name="x", records=[], horizon_s=0.0)
        assert location_split_by_ci(empty, CarbonIntensityTrace.constant(1.0)) == []


class TestPerFunctionTable:
    def test_renders_top_functions(self, run):
        result, _ = run
        out = per_function_table(result, top=2)
        assert "hot" in out
        assert "warm %" in out
