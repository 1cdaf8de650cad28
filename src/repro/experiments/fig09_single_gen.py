"""Fig. 9: EcoLife vs the fixed single-generation schemes.

NEW-ONLY and OLD-ONLY run the OpenWhisk 10-minute keep-alive policy on one
generation. The paper reports EcoLife saving ~12.7% service time over
OLD-ONLY and ~8.6% carbon over NEW-ONLY thanks to multi-generation
keep-alive and adaptive periods.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.comparison import SchemePoint, relative_to_opts
from repro.analysis.reporting import scatter_table
from repro.experiments.common import Scenario, default_scenario, run_suite


@dataclass(frozen=True)
class Fig09Result:
    points: dict[str, SchemePoint]
    scenario_label: str

    @property
    def service_saving_vs_old_only_pct(self) -> float:
        """EcoLife's service-time saving over OLD-ONLY (paper: ~12.7%)."""
        return (
            1.0 - self.points["ecolife"].service_s / self.points["old-only"].service_s
        ) * 100.0

    @property
    def carbon_saving_vs_new_only_pct(self) -> float:
        """EcoLife's carbon saving over NEW-ONLY (paper: ~8.6%)."""
        return (
            1.0 - self.points["ecolife"].carbon_g / self.points["new-only"].carbon_g
        ) * 100.0

    def render(self) -> str:
        table = scatter_table(
            self.points,
            title=f"Fig. 9 -- single-generation baselines ({self.scenario_label})",
            order=["oracle", "ecolife", "new-only", "old-only"],
        )
        return (
            f"{table}\n"
            f"EcoLife saves {self.service_saving_vs_old_only_pct:.1f}% service "
            f"vs OLD-ONLY (paper 12.7%) and "
            f"{self.carbon_saving_vs_new_only_pct:.1f}% carbon vs NEW-ONLY "
            f"(paper 8.6%)"
        )


def run_fig09(scenario: Scenario | None = None) -> Fig09Result:
    """Run EcoLife against the fixed NEW-ONLY / OLD-ONLY baselines."""
    scenario = scenario or default_scenario()
    results = run_suite(
        [
            "co2-opt",
            "service-time-opt",
            "oracle",
            "ecolife",
            "new-only",
            "old-only",
        ],
        scenario,
    )
    return Fig09Result(
        points=relative_to_opts(results), scenario_label=scenario.label
    )
