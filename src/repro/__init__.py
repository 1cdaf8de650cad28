"""EcoLife reproduction: carbon-aware serverless function scheduling.

This package reproduces "EcoLife: Carbon-Aware Serverless Function
Scheduling for Sustainable Computing" (SC 2024): a trace-driven serverless
simulator over multi-generation hardware, the paper's carbon model, the
EcoLife scheduler (dynamic PSO + warm-pool adjustment), all baselines and
oracles, and one experiment driver per figure/table in the evaluation.

Quickstart::

    from repro import quick_scenario, run_scheduler
    from repro.experiments import create_scheduler

    scenario = quick_scenario(seed=1)
    result = run_scheduler(create_scheduler("ecolife"), scenario)
    print(result.summary())

See ``examples/quickstart.py`` for a tour and ``DESIGN.md`` for the full
system inventory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.version import __version__

if TYPE_CHECKING:
    from repro.experiments.common import Scenario
    from repro.simulator.records import SimulationResult
    from repro.simulator.scheduler import BaseScheduler

__all__ = ["__version__", "quick_scenario", "run_scheduler"]


def quick_scenario(seed: int = 7) -> "Scenario":
    """Build a small default scenario (lazy import; see experiments.common)."""
    from repro.experiments.common import quick_scenario as _qs

    return _qs(seed=seed)


def run_scheduler(
    scheduler: "BaseScheduler | Callable[[], BaseScheduler]",
    scenario: "Scenario",
) -> "SimulationResult":
    """Run one scheduler over a scenario (lazy import; see experiments.common)."""
    from repro.experiments.common import run_scheduler as _rs

    return _rs(scheduler, scenario)
