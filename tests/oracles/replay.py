"""The per-arrival reference replay for :class:`SimulationEngine`.

The engine steps every scheduler through one grouped loop
(``SimulationEngine._grouped_steps``): arrivals of distinct functions
in one decision tick are placed one by one and then decided in a
single ``keepalive_batch`` call. This replay is what that loop must
reproduce: for each arrival in turn it drains due events, places, asks
``keepalive`` for that single request, and admits the container -- no
grouping at all.
"""

from __future__ import annotations

from repro.simulator.engine import SimulationEngine
from repro.simulator.records import SimulationResult
from repro.simulator.scheduler import BaseScheduler
from repro.workloads.trace import InvocationTrace


def reference_replay(
    engine: SimulationEngine, scheduler: BaseScheduler
) -> SimulationResult:
    """Replay ``engine``'s trace one arrival at a time."""
    assert isinstance(engine.trace, InvocationTrace)
    engine.start(scheduler)
    horizon = 0.0
    for inv in engine.trace:
        engine._drain_events(until=inv.t)
        req = engine._place_and_record(scheduler, inv.t, inv.func)
        decision, wall = engine._timed(scheduler.keepalive, req)
        horizon = max(
            horizon, engine._finish_decision(scheduler, req, decision, wall)
        )
    engine._horizon = horizon
    return engine.finish()
