"""In-text optimizer comparison: PSO vs GA vs SA (paper Sec. IV-C).

The paper: PSO reduces carbon by 17.4% and service time by 7.2% compared to
a GA (crossover 0.6, mutation 0.01, population 15), and carbon by 6.2% /
service time by 13.46% compared to SA (T0=100, T_stop=1, factor 0.9). All
three run EcoLife's full machinery; only the KDM's meta-heuristic differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import ascii_table
from repro.core import EcoLifeConfig
from repro.experiments.common import Scenario, default_scenario, run_suite


@dataclass(frozen=True)
class OptimizerComparisonResult:
    service_s: dict[str, float]
    carbon_g: dict[str, float]
    scenario_label: str

    def pso_saving_over(self, other: str) -> tuple[float, float]:
        """(carbon %, service %) saving of PSO-EcoLife over ``other``."""
        co2 = (1.0 - self.carbon_g["ecolife"] / self.carbon_g[other]) * 100.0
        svc = (1.0 - self.service_s["ecolife"] / self.service_s[other]) * 100.0
        return co2, svc

    def render(self) -> str:
        rows = [
            [name, self.service_s[name], self.carbon_g[name]]
            for name in self.service_s
        ]
        table = ascii_table(
            ["scheme", "svc (s)", "co2 (g)"],
            rows,
            title=f"PSO vs GA vs SA ({self.scenario_label})",
        )
        ga_co2, ga_svc = self.pso_saving_over("ecolife-ga")
        sa_co2, sa_svc = self.pso_saving_over("ecolife-sa")
        return (
            f"{table}\n"
            f"PSO vs GA: {ga_co2:+.1f}% carbon, {ga_svc:+.1f}% service "
            f"(paper: 17.4 / 7.2)\n"
            f"PSO vs SA: {sa_co2:+.1f}% carbon, {sa_svc:+.1f}% service "
            f"(paper: 6.2 / 13.46)"
        )


def run_optimizer_comparison(
    scenario: Scenario | None = None,
    config: EcoLifeConfig | None = None,
    n_workers: int = 1,
) -> OptimizerComparisonResult:
    """Run PSO-, GA- and SA-driven EcoLife on the same scenario.

    ``n_workers`` fans the three schemes out over a process pool
    (identical numbers to the serial path).
    """
    scenario = scenario or default_scenario()
    results = run_suite(
        ["ecolife", "ecolife-ga", "ecolife-sa"],
        scenario,
        n_workers=n_workers,
        config=config,
    )
    return OptimizerComparisonResult(
        service_s={n: r.mean_service_s for n, r in results.items()},
        carbon_g={n: r.total_carbon_g for n, r in results.items()},
        scenario_label=scenario.label,
    )
