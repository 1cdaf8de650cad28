"""The engine's one stepping loop == the per-arrival reference replay.

``SimulationEngine.step_batch`` groups consecutive arrivals of distinct
functions up to the exactness bound -- a group closes on a repeated
function name or on an arrival at/past its earliest staged completion
time -- and decides each group in one ``keepalive_batch`` call. For
every registered scheduler, on a continuous and a minute-floored trace,
and for EcoLife's three optimizers on continuous traces under memory
pressure, every ``RecordArrays`` column must equal a replay that
handles one arrival at a time (drain, place, ``keepalive``, admit;
:func:`tests.oracles.reference_replay`).
"""

from __future__ import annotations

import dataclasses
import math
import types

import numpy as np
import pytest

import repro.simulator.engine as engine_module
from repro.carbon import CarbonIntensityTrace
from repro.core import EcoLifeConfig, EcoLifeScheduler, OptimizerKind
from repro.experiments import quick_scenario
from repro.experiments.registry import create_scheduler, list_schedulers
from repro.hardware import PAIR_A
from repro.simulator import SimulationConfig, SimulationEngine
from repro.workloads import FunctionProfile, InvocationTrace
from tests.oracles import reference_replay


def _minute_floored(trace: InvocationTrace) -> InvocationTrace:
    return InvocationTrace.from_events(
        ((math.floor(inv.t / 60.0) * 60.0, inv.func) for inv in trace),
        functions=trace.functions.values(),
    )


def continuous_trace(n_funcs=10, horizon_s=900.0, seed=5, mean_iat=12.0):
    """Strictly continuous arrivals: no two invocations share an instant."""
    rng = np.random.default_rng(seed)
    funcs = [
        FunctionProfile(
            name=f"f{i}",
            mem_gb=0.4 + 0.1 * (i % 4),
            exec_ref_s=1.0 + 0.25 * (i % 5),
            cold_ref_s=0.8,
        )
        for i in range(n_funcs)
    ]
    events = []
    for f in funcs:
        t = float(rng.exponential(mean_iat))
        while t < horizon_s:
            events.append((t, f))
            t += float(rng.exponential(mean_iat))
    trace = InvocationTrace.from_events(events)
    assert len(set(trace.times_s)) == len(trace), "arrivals must be distinct"
    return trace


def _engine(trace, **config) -> SimulationEngine:
    return SimulationEngine(
        pair=PAIR_A,
        trace=trace,
        ci_trace=CarbonIntensityTrace.constant(250.0),
        config=SimulationConfig(measure_decision_overhead=False, **config),
    )


def assert_same_records(grouped, reference) -> None:
    a, b = grouped.record_arrays(), reference.record_arrays()
    assert len(a) == len(b)
    for field in dataclasses.fields(a):
        assert np.array_equal(
            getattr(a, field.name), getattr(b, field.name)
        ), field.name
    assert grouped.horizon_s == reference.horizon_s


class RecordingScheduler(EcoLifeScheduler):
    """EcoLife that records every keep-alive group it was handed."""

    def __init__(self, config=None):
        super().__init__(config)
        self.groups = []

    def keepalive_batch(self, reqs):
        self.groups.append(list(reqs))
        return super().keepalive_batch(reqs)


@pytest.fixture(scope="module")
def scenarios():
    quick = quick_scenario()
    floored = dataclasses.replace(quick, trace=_minute_floored(quick.trace))
    times = floored.trace.times_s
    assert (times[1:] == times[:-1]).any()  # the floored trace has ticks
    return {"continuous": quick, "minute": floored}


@pytest.mark.parametrize("trace_kind", ["continuous", "minute"])
@pytest.mark.parametrize("name", list_schedulers())
def test_grouped_loop_matches_per_arrival_replay(name, trace_kind, scenarios):
    scenario = scenarios[trace_kind]
    config = scenario.sim_config
    if create_scheduler(name).requires_lookahead:
        config = config.uncapped()

    def engine() -> SimulationEngine:
        return SimulationEngine(
            pair=scenario.pair,
            trace=scenario.trace,
            ci_trace=scenario.ci_trace,
            config=config,
        )

    grouped = engine().run(create_scheduler(name))
    reference = reference_replay(engine(), create_scheduler(name))
    assert len(grouped.records) == len(scenario.trace)
    assert_same_records(grouped, reference)


@pytest.mark.parametrize(
    "optimizer",
    [OptimizerKind.PSO, OptimizerKind.GENETIC, OptimizerKind.ANNEALING],
    ids=["dpso", "ga", "sa"],
)
def test_continuous_pressure_matches_per_arrival_replay(optimizer):
    """Adjustment, spill, eviction and drop ordering survive grouping.

    GA and SA have no batched kernel (their ``keepalive_batch`` decides
    item by item), DPSO steps each group through the fused fleet.
    """
    trace = continuous_trace(n_funcs=12, horizon_s=900.0, mean_iat=6.0)
    tight = dict(pool_capacity_old_gb=1.5, pool_capacity_new_gb=1.5)
    config = EcoLifeConfig(optimizer=optimizer)
    grouped = _engine(trace, **tight).run(EcoLifeScheduler(config))
    reference = reference_replay(_engine(trace, **tight), EcoLifeScheduler(config))
    pressure = (
        reference.evicted_count + reference.spilled_count + reference.dropped_count
    )
    assert pressure > 0  # the pools really overflow
    assert_same_records(grouped, reference)


def test_repeated_function_closes_group():
    """Back-to-back arrivals of one function must decide in order (the
    second decision depends on the first), even while their group is
    still open on the completion bound."""
    f = FunctionProfile(name="hot", mem_gb=0.5, exec_ref_s=2.0, cold_ref_s=0.5)
    g = FunctionProfile(name="other", mem_gb=0.5, exec_ref_s=2.0, cold_ref_s=0.5)
    events = []
    for k in range(12):
        base = 10.0 * k
        events += [(base, f), (base + 0.25, g), (base + 0.5, f)]
    trace = InvocationTrace.from_events(events)
    scheduler = RecordingScheduler()
    grouped = _engine(trace).run(scheduler)
    assert all(
        len({r.func.name for r in group}) == len(group)
        for group in scheduler.groups
    )
    assert_same_records(grouped, reference_replay(_engine(trace), EcoLifeScheduler()))


def test_default_replay_groups_continuous_arrivals():
    """No knob: a continuous trace batches in a default replay."""
    scheduler = RecordingScheduler()
    _engine(continuous_trace()).run(scheduler)
    assert max(len(group) for group in scheduler.groups) > 1


def test_groups_close_before_earliest_staged_completion():
    """The exactness bound: every arrival of a group comes strictly
    before the earliest ``t_end`` staged in that group."""
    scheduler = RecordingScheduler()
    trace = continuous_trace(n_funcs=12, horizon_s=1200.0, mean_iat=8.0)
    _engine(trace).run(scheduler)
    assert sum(len(group) for group in scheduler.groups) == len(trace)
    for group in scheduler.groups:
        earliest_end = min(req.t_end for req in group)
        assert max(req.record.t for req in group) < earliest_end


class _Clock:
    """Deterministic integer stand-in for ``time.perf_counter``."""

    def __init__(self) -> None:
        self.now = 0

    def perf_counter(self) -> int:
        return self.now


class _ClockedScheduler(RecordingScheduler):
    """Advances the fake clock by a known amount inside each timed call."""

    def __init__(self, clock: _Clock) -> None:
        super().__init__()
        self.clock = clock
        self.place_walls: dict[int, int] = {}
        self.batch_walls: list[int] = []

    def place(self, req):
        location = super().place(req)
        wall = 1 + req.invocation_index % 5
        self.clock.now += wall
        self.place_walls[req.invocation_index] = wall
        return location

    def keepalive_batch(self, reqs):
        decisions = super().keepalive_batch(reqs)
        wall = 7 + (4 * len(self.batch_walls)) % 11  # varies per group
        self.clock.now += wall
        self.batch_walls.append(wall)
        return decisions


def test_decision_wall_is_place_plus_equal_group_share(monkeypatch):
    """Each record carries its own ``place`` wall plus wall / size of its
    group's ``keepalive_batch`` call; the total is the sum of the timed
    calls (the figure the decision-overhead share is computed from)."""
    clock = _Clock()
    monkeypatch.setattr(
        engine_module, "time", types.SimpleNamespace(perf_counter=clock.perf_counter)
    )
    scheduler = _ClockedScheduler(clock)
    trace = continuous_trace()
    engine = SimulationEngine(
        pair=PAIR_A,
        trace=trace,
        ci_trace=CarbonIntensityTrace.constant(250.0),
        config=SimulationConfig(measure_decision_overhead=True),
    )
    result = engine.run(scheduler)
    assert result.evicted_count + result.spilled_count + result.dropped_count == 0
    assert max(len(group) for group in scheduler.groups) > 1

    expected = {}
    for group, wall in zip(scheduler.groups, scheduler.batch_walls):
        share = wall / len(group)
        for req in group:
            expected[req.record.index] = scheduler.place_walls[req.record.index] + share
    assert [r.decision_wall_s for r in result.records] == [
        expected[r.index] for r in result.records
    ]
    timed = sum(scheduler.place_walls.values()) + sum(scheduler.batch_walls)
    assert result.total_decision_wall_s == pytest.approx(timed, rel=1e-12, abs=0)
