"""How wide the engine's keep-alive decision groups get, and that width
never changes a result.

Group width has no knob: ``SimulationEngine.step_batch`` keeps a group
open until a function name repeats or an arrival reaches the group's
earliest staged completion time (the exactness bound). The classes keep
the names of the tuning knobs that once capped the width; their cases
now pin the unbounded default on traces shaped to stress that bound --
arrival clusters narrower and wider than a service time, dense
continuous traffic, and overflowing pools -- against the per-arrival
reference replay (:func:`tests.oracles.reference_replay`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.carbon import CarbonIntensityTrace
from repro.core import EcoLifeScheduler
from repro.hardware import PAIR_A
from repro.simulator import SimulationConfig, SimulationEngine
from repro.workloads import FunctionProfile, InvocationTrace
from tests.oracles import reference_replay
from tests.test_engine_reference import (
    RecordingScheduler,
    assert_same_records,
    continuous_trace,
)


def _functions(n_funcs):
    return [
        FunctionProfile(
            name=f"f{i}",
            mem_gb=0.4 + 0.1 * (i % 4),
            exec_ref_s=1.0 + 0.25 * (i % 5),
            cold_ref_s=0.8,
        )
        for i in range(n_funcs)
    ]


def min_service_s(functions):
    return min(
        f.service_time_s(PAIR_A.server(g), cold=False, setup_s=0.05)
        for f in functions
        for g in (PAIR_A.old.generation, PAIR_A.new.generation)
    )


def windowed_trace(window_s, n_funcs=12, n_windows=15, gap_s=45.0, seed=9):
    """Bursts: every function arrives inside each ``window_s``-wide window
    (some twice), windows ``gap_s`` apart; no two arrivals share an instant."""
    rng = np.random.default_rng(seed)
    events = []
    for k in range(n_windows):
        start = k * (window_s + gap_s)
        for f in _functions(n_funcs):
            for _ in range(1 + int(rng.random() < 0.3)):
                events.append((start + float(rng.uniform(0.0, window_s)), f))
    trace = InvocationTrace.from_events(events)
    assert len(set(trace.times_s)) == len(trace), "arrivals must be distinct"
    return trace


def _engine(trace, **config):
    return SimulationEngine(
        pair=PAIR_A,
        trace=trace,
        ci_trace=CarbonIntensityTrace.constant(250.0),
        config=SimulationConfig(measure_decision_overhead=False, **config),
    )


def _matches_reference(trace, **config):
    grouped = _engine(trace, **config).run(EcoLifeScheduler())
    reference = reference_replay(_engine(trace, **config), EcoLifeScheduler())
    assert_same_records(grouped, reference)
    return grouped, reference


class TestQuantumOn:
    def test_groups_form_on_continuous_traces(self):
        """Fewer decision calls than arrivals; each arrival decided once,
        in arrival order."""
        trace = continuous_trace()
        scheduler = RecordingScheduler()
        _engine(trace).run(scheduler)
        assert len(scheduler.groups) < len(trace)
        decided = [req.record.index for group in scheduler.groups for req in group]
        assert decided == list(range(len(trace)))

    def test_small_quantum_is_bit_identical(self):
        """Clusters of distinct functions narrower than the shortest
        service time: each cluster is exactly one group, and the replay
        matches the per-arrival one."""
        funcs = _functions(8)
        width = 0.5 * min_service_s(funcs)
        rng = np.random.default_rng(3)
        events, sizes = [], []
        for k in range(20):
            members = [f for f in funcs if rng.random() < 0.6] or funcs[:1]
            events += [(30.0 * k + float(rng.uniform(0.0, width)), f) for f in members]
            sizes.append(len(members))
        trace = InvocationTrace.from_events(events)
        scheduler = RecordingScheduler()
        grouped = _engine(trace).run(scheduler)
        assert [len(group) for group in scheduler.groups] == sizes
        assert_same_records(
            grouped, reference_replay(_engine(trace), EcoLifeScheduler())
        )

    @pytest.mark.parametrize("window_s", [5.0, 30.0, 300.0])
    def test_wide_quantum_is_still_bit_identical(self, window_s):
        """Bursts narrower and wider than a service time: the repeated-name
        and completion triggers keep the replay sequential either way."""
        trace = windowed_trace(window_s)
        scheduler = RecordingScheduler()
        grouped = _engine(trace).run(scheduler)
        assert max(len(group) for group in scheduler.groups) > 1
        assert_same_records(
            grouped, reference_replay(_engine(trace), EcoLifeScheduler())
        )

    def test_quantum_under_memory_pressure_bit_identical(self):
        """Adjustment/spill/eviction ordering survives grouping, and so do
        the result's overflow counters."""
        trace = continuous_trace(n_funcs=12, horizon_s=450.0, mean_iat=6.0)
        grouped, reference = _matches_reference(
            trace, pool_capacity_old_gb=1.5, pool_capacity_new_gb=1.5
        )
        assert reference.evicted_count + reference.spilled_count > 0
        assert grouped.evicted_count == reference.evicted_count
        assert grouped.spilled_count == reference.spilled_count
        assert grouped.dropped_count == reference.dropped_count


class TestAdaptiveQuantum:
    """No observed service time or hand-picked width is needed: the
    exactness bound alone sizes every group."""

    def test_adaptive_without_static_width_matches_off(self):
        trace = continuous_trace(n_funcs=12, horizon_s=600.0, mean_iat=8.0)
        _matches_reference(trace)

    def test_adaptive_engages_batching_without_tuning(self):
        """Dense continuous traffic groups from the very first arrivals."""
        trace = continuous_trace(n_funcs=12, horizon_s=300.0, mean_iat=2.0)
        scheduler = RecordingScheduler()
        _engine(trace).run(scheduler)
        assert max(len(group) for group in scheduler.groups) > 1
        assert len(scheduler.groups[0]) > 1

    def test_adaptive_under_memory_pressure_bit_identical(self):
        """Dense traffic into one tight pool: spills to the roomy one."""
        trace = continuous_trace(n_funcs=12, horizon_s=300.0, seed=11, mean_iat=3.0)
        grouped, reference = _matches_reference(
            trace, pool_capacity_old_gb=1.0, pool_capacity_new_gb=4.0
        )
        assert reference.evicted_count + reference.spilled_count > 0
        assert grouped.spilled_count == reference.spilled_count
