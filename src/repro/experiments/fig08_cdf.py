"""Fig. 8: per-invocation CDFs of service time and carbon, EcoLife vs ORACLE.

Because every scheme replays the *same* trace, invocation ``i`` is the same
request under every scheduler; the paper plots the per-invocation
distributions of:

- service time, as % increase w.r.t. SERVICE-TIME-OPT's same invocation;
- carbon, as % increase w.r.t. CO2-OPT's same invocation;

and reports that EcoLife's P95 service latency stays within 15% of ORACLE.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.analysis.reporting import ascii_table
from repro.analysis.stats import CDF, per_invocation_pct_increase
from repro.experiments.common import Scenario, default_scenario, run_suite


@dataclass(frozen=True)
class Fig08Result:
    service_cdf: dict[str, CDF]  # scheme -> CDF of per-invocation svc +%
    carbon_cdf: dict[str, CDF]  # scheme -> CDF of per-invocation co2 +%
    p95_service_vs_oracle_pct: float
    scenario_label: str

    def render(self) -> str:
        rows = []
        for scheme in self.service_cdf:
            s, c = self.service_cdf[scheme], self.carbon_cdf[scheme]
            rows.append(
                [
                    scheme,
                    s.percentile(50),
                    s.percentile(95),
                    c.percentile(50),
                    c.percentile(95),
                ]
            )
        table = ascii_table(
            ["scheme", "svc p50 +%", "svc p95 +%", "co2 p50 +%", "co2 p95 +%"],
            rows,
            title=f"Fig. 8 -- per-invocation CDFs ({self.scenario_label})",
        )
        return (
            f"{table}\n"
            f"EcoLife P95 service vs ORACLE P95: "
            f"+{self.p95_service_vs_oracle_pct:.1f}% (paper: within 15%)"
        )


def run_fig08(scenario: Scenario | None = None) -> Fig08Result:
    """Compute per-invocation CDFs of EcoLife and ORACLE."""
    scenario = scenario or default_scenario()
    results = run_suite(
        ["co2-opt", "service-time-opt", "oracle", "ecolife"], scenario
    )

    svc_ref = results["service-time-opt"].service_times()
    co2_ref = results["co2-opt"].carbon_per_invocation()

    service_cdf: dict[str, CDF] = {}
    carbon_cdf: dict[str, CDF] = {}
    for scheme in ("oracle", "ecolife"):
        r = results[scheme]
        service_cdf[scheme] = CDF.of(
            per_invocation_pct_increase(r.service_times(), svc_ref)
        )
        carbon_cdf[scheme] = CDF.of(
            per_invocation_pct_increase(r.carbon_per_invocation(), co2_ref)
        )

    p95_eco = results["ecolife"].p95_service_s
    p95_orc = results["oracle"].p95_service_s
    p95_gap = (p95_eco / p95_orc - 1.0) * 100.0 if p95_orc > 0 else 0.0

    return Fig08Result(
        service_cdf=service_cdf,
        carbon_cdf=carbon_cdf,
        p95_service_vs_oracle_pct=p95_gap,
        scenario_label=scenario.label,
    )
