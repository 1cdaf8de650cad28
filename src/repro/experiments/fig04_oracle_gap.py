"""Fig. 4: CO2-Opt / Oracle / Service-Time-Opt / Energy-Opt scatter.

All four theoretical solutions on the default scenario, plotted as
(% carbon increase w.r.t. CO2-Opt, % service increase w.r.t.
Service-Time-Opt). The take-aways the paper draws: the single-metric optima
sit far apart, Energy-Opt is not a substitute for CO2-Opt (it ignores
embodied carbon and CI variation), and even the joint ORACLE is several
percent away from both single-metric optima -- so co-optimization is a real
trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.comparison import SchemePoint, relative_to_opts
from repro.analysis.reporting import scatter_table
from repro.experiments.common import Scenario, default_scenario, run_suite

SCHEMES = ("co2-opt", "service-time-opt", "energy-opt", "oracle")


@dataclass(frozen=True)
class Fig04Result:
    points: dict[str, SchemePoint]
    scenario_label: str

    def render(self) -> str:
        return scatter_table(
            self.points,
            title=f"Fig. 4 -- oracle landscape ({self.scenario_label})",
            order=list(SCHEMES),
        )


def run_fig04(scenario: Scenario | None = None) -> Fig04Result:
    """Run the four oracle solutions and compute their scatter."""
    scenario = scenario or default_scenario()
    results = run_suite(SCHEMES, scenario)
    return Fig04Result(
        points=relative_to_opts(results), scenario_label=scenario.label
    )
