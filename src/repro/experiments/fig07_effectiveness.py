"""Fig. 7: EcoLife against the oracle landscape.

The paper's headline effectiveness result: EcoLife is the closest scheme to
ORACLE -- within 7.7% (service time) and 5.5% (carbon) points of it --
while the single-metric optima and Energy-Opt are far away.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.comparison import SchemePoint, gap_pp, relative_to_opts
from repro.analysis.reporting import scatter_table
from repro.core import EcoLifeConfig
from repro.experiments.common import Scenario, default_scenario, run_suite


@dataclass(frozen=True)
class Fig07Result:
    points: dict[str, SchemePoint]
    scenario_label: str

    @property
    def ecolife_gap_to_oracle_pp(self) -> tuple[float, float]:
        """(service, carbon) gap of EcoLife over ORACLE in percentage points.

        Paper: 7.7 (service) and 5.5 (carbon).
        """
        return gap_pp(self.points, "ecolife", "oracle")

    def render(self) -> str:
        svc, co2 = self.ecolife_gap_to_oracle_pp
        table = scatter_table(
            self.points,
            title=f"Fig. 7 -- EcoLife vs oracles ({self.scenario_label})",
            order=[
                "co2-opt",
                "service-time-opt",
                "energy-opt",
                "oracle",
                "ecolife",
            ],
        )
        return (
            f"{table}\n"
            f"EcoLife gap to ORACLE: +{svc:.1f} pp service, +{co2:.1f} pp carbon "
            f"(paper: +7.7 / +5.5)"
        )


def run_fig07(
    scenario: Scenario | None = None, config: EcoLifeConfig | None = None
) -> Fig07Result:
    """Run EcoLife plus all oracle solutions (the headline figure)."""
    scenario = scenario or default_scenario()
    results = run_suite(
        ["co2-opt", "service-time-opt", "energy-opt", "oracle", "ecolife"],
        scenario,
        config=config,
    )
    return Fig07Result(
        points=relative_to_opts(results), scenario_label=scenario.label
    )
