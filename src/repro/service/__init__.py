"""Online serving layer: live decisions from the replay-grade engine.

See ``docs/service.md``. The decision path is the exact replay code --
:class:`DecisionService` steps the engine incrementally with network
arrivals; :class:`DecisionServer` fronts it with a stdlib asyncio HTTP
server; carbon intensity comes from the pluggable providers in
:mod:`repro.carbon.providers`.
"""

from repro.service.http import DecisionServer
from repro.service.metrics import LatencyWindow, ServiceMetrics
from repro.service.online import DecisionService, LiveArrivalLog, StaleCarbonFeed

__all__ = [
    "DecisionServer",
    "DecisionService",
    "LatencyWindow",
    "LiveArrivalLog",
    "ServiceMetrics",
    "StaleCarbonFeed",
]
