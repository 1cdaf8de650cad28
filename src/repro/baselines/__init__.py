"""Baselines and oracle solutions from the paper's evaluation (Sec. V).

The EcoLife-based schemes (Eco-Old / Eco-New, GA / SA) are EcoLife on a
transformed config and live in :mod:`repro.experiments.registry`.
"""

from repro.baselines.fixed import (
    SingleGenerationFixedScheduler,
    new_only,
    old_only,
)
from repro.baselines.oracle import (
    OracleObjective,
    OracleScheduler,
    co2_opt,
    energy_opt,
    oracle,
    service_time_opt,
)

__all__ = [
    "SingleGenerationFixedScheduler",
    "new_only",
    "old_only",
    "OracleScheduler",
    "OracleObjective",
    "oracle",
    "co2_opt",
    "service_time_opt",
    "energy_opt",
]
