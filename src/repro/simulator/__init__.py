"""Serverless cluster simulator: containers, pools, engine, scheduler API."""

from repro.simulator.containers import PoolFullError, WarmContainer, WarmPool
from repro.simulator.engine import SimulationConfig, SimulationEngine
from repro.simulator.records import (
    InvocationRecord,
    KeepAliveDecision,
    RecordArrays,
    SimulationResult,
)
from repro.simulator.scheduler import (
    DEFAULT_KEEPALIVE_S,
    AdjustmentRequest,
    BaseScheduler,
    KeepAliveRequest,
    PlacementRequest,
    PoolCandidate,
    SchedulerEnv,
)

__all__ = [
    "WarmContainer",
    "WarmPool",
    "PoolFullError",
    "InvocationRecord",
    "KeepAliveDecision",
    "RecordArrays",
    "SimulationResult",
    "SimulationConfig",
    "SimulationEngine",
    "BaseScheduler",
    "SchedulerEnv",
    "PlacementRequest",
    "KeepAliveRequest",
    "AdjustmentRequest",
    "PoolCandidate",
    "DEFAULT_KEEPALIVE_S",
]
