"""Fig. 12: Eco-Old / Eco-New vs full EcoLife vs ORACLE.

The static variants run EcoLife's keep-alive machinery on one generation
only. The paper: Eco-Old's service time and Eco-New's carbon are notably
higher than ORACLE's, while full (multi-generation) EcoLife co-optimizes
both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.comparison import SchemePoint, relative_to_opts
from repro.analysis.reporting import scatter_table
from repro.experiments.common import Scenario, default_scenario, run_suite


@dataclass(frozen=True)
class Fig12Result:
    points: dict[str, SchemePoint]
    scenario_label: str

    def render(self) -> str:
        return scatter_table(
            self.points,
            title=f"Fig. 12 -- single-generation EcoLife ({self.scenario_label})",
            order=["oracle", "ecolife", "eco-old", "eco-new"],
        )


def run_fig12(scenario: Scenario | None = None) -> Fig12Result:
    """Run Eco-Old / Eco-New against full EcoLife and ORACLE."""
    scenario = scenario or default_scenario()
    results = run_suite(
        ["co2-opt", "service-time-opt", "oracle", "ecolife", "eco-old", "eco-new"],
        scenario,
    )
    return Fig12Result(
        points=relative_to_opts(results), scenario_label=scenario.label
    )
