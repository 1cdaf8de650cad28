"""Fig. 10: the Dynamic-PSO ablation.

EcoLife with and without the DPSO extensions (dynamic w/c1/c2 weights and
the perception-response half-swarm redistribution). The paper reports that
dropping DPSO costs +5.6% service time and +16.9% carbon.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.comparison import SchemePoint, relative_to_opts
from repro.analysis.reporting import scatter_table
from repro.core import EcoLifeConfig
from repro.experiments.common import Scenario, default_scenario, run_suite


@dataclass(frozen=True)
class Fig10Result:
    points: dict[str, SchemePoint]
    scenario_label: str

    @property
    def dpso_penalty_pct(self) -> tuple[float, float]:
        """(service, carbon) % penalty of removing DPSO (paper: 5.6 / 16.9)."""
        with_ = self.points["ecolife"]
        without = self.points["ecolife-no-dpso"]
        return (
            (without.service_s / with_.service_s - 1.0) * 100.0,
            (without.carbon_g / with_.carbon_g - 1.0) * 100.0,
        )

    def render(self) -> str:
        svc, co2 = self.dpso_penalty_pct
        table = scatter_table(
            self.points,
            title=f"Fig. 10 -- DPSO ablation ({self.scenario_label})",
            order=["oracle", "ecolife", "ecolife-no-dpso"],
        )
        return (
            f"{table}\n"
            f"Removing DPSO costs +{svc:.1f}% service, +{co2:.1f}% carbon "
            f"(paper: +5.6 / +16.9)"
        )


def run_fig10(
    scenario: Scenario | None = None, config: EcoLifeConfig | None = None
) -> Fig10Result:
    """Run EcoLife with and without the DPSO extensions."""
    scenario = scenario or default_scenario()
    results = run_suite(
        ["co2-opt", "service-time-opt", "oracle", "ecolife", "ecolife-no-dpso"],
        scenario,
        config=config,
    )
    return Fig10Result(
        points=relative_to_opts(results), scenario_label=scenario.label
    )
