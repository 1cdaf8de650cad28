"""The engine's one stepping loop == the per-arrival reference replay.

``SimulationEngine.step_batch`` groups arrivals of distinct functions
that share a decision tick and decides each group in one
``keepalive_batch`` call. For every registered scheduler, on a
continuous and a minute-floored trace, every ``RecordArrays`` column
must equal a replay that handles one arrival at a time (drain, place,
``keepalive``, admit; :func:`tests.oracles.reference_replay`).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.experiments import quick_scenario
from repro.experiments.runner import SCHEDULER_NAMES, make_scheduler
from repro.simulator import SimulationEngine
from repro.workloads import InvocationTrace
from tests.oracles import reference_replay


def _minute_floored(trace: InvocationTrace) -> InvocationTrace:
    return InvocationTrace.from_events(
        ((math.floor(inv.t / 60.0) * 60.0, inv.func) for inv in trace),
        functions=trace.functions.values(),
    )


@pytest.fixture(scope="module")
def scenarios():
    quick = quick_scenario()
    floored = dataclasses.replace(quick, trace=_minute_floored(quick.trace))
    times = floored.trace.times_s
    assert (times[1:] == times[:-1]).any()  # the floored trace has ticks
    return {"continuous": quick, "minute": floored}


@pytest.mark.parametrize("trace_kind", ["continuous", "minute"])
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_grouped_loop_matches_per_arrival_replay(name, trace_kind, scenarios):
    scenario = scenarios[trace_kind]
    config = scenario.sim_config
    if getattr(make_scheduler(name), "wants_uncapped_memory", False):
        config = config.uncapped()

    def engine() -> SimulationEngine:
        return SimulationEngine(
            pair=scenario.pair,
            trace=scenario.trace,
            ci_trace=scenario.ci_trace,
            config=config,
        )

    grouped = engine().run(make_scheduler(name))
    reference = reference_replay(engine(), make_scheduler(name))
    a, b = grouped.record_arrays(), reference.record_arrays()
    assert len(a) == len(scenario.trace)
    for field in dataclasses.fields(a):
        assert np.array_equal(
            getattr(a, field.name), getattr(b, field.name)
        ), field.name
    assert grouped.horizon_s == reference.horizon_s
