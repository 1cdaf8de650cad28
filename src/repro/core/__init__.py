"""EcoLife core: the paper's contribution (Sec. IV)."""

from repro.core.adjustment import WarmPoolAdjuster
from repro.core.arrival import ArrivalEstimator, ArrivalRegistry
from repro.core.config import EcoLifeConfig, OptimizerKind
from repro.core.epdm import ExecutionPlacementDecisionMaker
from repro.core.kdm import KeepAliveDecisionMaker
from repro.core.objective import CostModel, ObjectiveBuilder
from repro.core.scheduler import EcoLifeScheduler

__all__ = [
    "EcoLifeConfig",
    "OptimizerKind",
    "ArrivalEstimator",
    "ArrivalRegistry",
    "CostModel",
    "ObjectiveBuilder",
    "KeepAliveDecisionMaker",
    "ExecutionPlacementDecisionMaker",
    "WarmPoolAdjuster",
    "EcoLifeScheduler",
]
