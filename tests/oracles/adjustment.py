"""Scalar per-location costs, the per-candidate ranker and the scalar EPDM.

:class:`~repro.core.adjustment.WarmPoolAdjuster` scores a whole overflow
request in one pass over the packed cost vectors, and
:class:`~repro.core.epdm.ExecutionPlacementDecisionMaker` scores
placements with one vector expression. The functions here are those
computations as they were before: one carbon-model call per location,
warm/cold and candidate, one ``ci_at`` read per candidate, and one
one-element ``p_warm`` query per candidate. Candidate for candidate the
priorities must equal :meth:`WarmPoolAdjuster.priorities` bit for bit,
and the orderings and placements must be the same.

- cost primitives on a :class:`~repro.core.objective.CostModel`:
  :func:`service_carbon`, :func:`keepalive_rate`, :func:`s_max`,
  :func:`sc_max`, :func:`kc_max`, the guarded :func:`normalisers` and
  the EPDM score :func:`fscore`. They read only the carbon model's
  scalar estimates and :meth:`CostModel.service_time`, one location at
  a time -- never the packed cost arrays, :func:`~repro.core.objective.
  price` or the normaliser memo that the code under test uses;
- the ranker on a :class:`WarmPoolAdjuster`: :func:`benefit_score`,
  :func:`arrival_mass`, :func:`priority` and :func:`rank`;
- :func:`choose` -- the EPDM's placement as ``min`` over :func:`fscore`.
"""

from __future__ import annotations

from repro.core.adjustment import WarmPoolAdjuster
from repro.core.objective import CostModel
from repro.hardware.specs import Generation
from repro.simulator.scheduler import AdjustmentRequest, PoolCandidate
from repro.workloads.functions import FunctionProfile

# -- scalar costs ------------------------------------------------------------


def service_carbon(
    costs: CostModel, func: FunctionProfile, gen: Generation, cold: bool, ci: float
) -> float:
    """Estimated service carbon of one execution on ``gen`` at ``ci``."""
    env = costs.env
    server = env.server(gen)
    busy = env.setup_delay_s + func.exec_time_s(server)
    overhead = func.cold_overhead_s(server) if cold else 0.0
    return env.carbon_model.est_service_g(server, func.mem_gb, busy, overhead, ci)


def keepalive_rate(
    costs: CostModel, func: FunctionProfile, gen: Generation, ci: float
) -> float:
    """Estimated keep-alive carbon rate (g/s) on ``gen`` at ``ci``."""
    return costs.env.carbon_model.est_keepalive_rate_g_per_s(
        costs.env.server(gen), func.mem_gb, ci
    )


def s_max(costs: CostModel, func: FunctionProfile) -> float:
    """Max service time: cold start on the slowest allowed location."""
    return max(costs.service_time(func, g, cold=True) for g in costs.config.locations)


def sc_max(costs: CostModel, func: FunctionProfile, ci_ref: float) -> float:
    """Max service carbon across allowed locations at the reference CI."""
    return max(
        service_carbon(costs, func, g, cold=True, ci=ci_ref)
        for g in costs.config.locations
    )


def kc_max(costs: CostModel, func: FunctionProfile, ci_ref: float) -> float:
    """Max keep-alive carbon: highest-rate location for the full k_max."""
    rate = max(keepalive_rate(costs, func, g, ci_ref) for g in costs.config.locations)
    return rate * costs.env.kmax_s


def normalisers(
    costs: CostModel, func: FunctionProfile, ci_ref: float
) -> tuple[float, float, float]:
    """Guarded ``(s_max, sc_max, kc_max)`` at intensity ``ci_ref``."""
    return (
        max(s_max(costs, func), 1e-9),
        max(sc_max(costs, func, ci_ref), 1e-12),
        max(kc_max(costs, func, ci_ref), 1e-12),
    )


def fscore(
    costs: CostModel, func: FunctionProfile, gen: Generation, cold: bool, ci: float
) -> float:
    """The EPDM placement score (Sec. IV-D) with guarded normalisers."""
    s_max_, sc_max_, _ = normalisers(costs, func, max(ci, 1e-12))
    s = costs.service_time(func, gen, cold)
    sc = service_carbon(costs, func, gen, cold, ci)
    return costs.config.lambda_s * s / s_max_ + costs.config.lambda_c * sc / sc_max_


def choose(
    costs: CostModel,
    func: FunctionProfile,
    t: float,
    warm_locations: tuple[Generation, ...],
) -> Generation:
    """The EPDM's placement: the best warm ``fscore``, else the best cold."""
    ci = costs.env.ci_at(t)
    if warm_locations:
        if len(warm_locations) == 1:
            return warm_locations[0]
        return min(
            warm_locations, key=lambda g: fscore(costs, func, g, cold=False, ci=ci)
        )
    return min(
        costs.config.locations,
        key=lambda g: fscore(costs, func, g, cold=True, ci=ci),
    )


# -- scalar ranker -----------------------------------------------------------


def benefit_score(
    adj: WarmPoolAdjuster, func: FunctionProfile, gen: Generation, ci: float
) -> float:
    """Warm-vs-cold benefit of keeping ``func`` alive on ``gen``."""
    costs = adj.costs
    s_max_, sc_max_, _ = normalisers(costs, func, max(ci, 1e-12))
    ds = costs.service_time(func, gen, cold=True) - costs.service_time(
        func, gen, cold=False
    )
    dsc = service_carbon(costs, func, gen, cold=True, ci=ci) - service_carbon(
        costs, func, gen, cold=False, ci=ci
    )
    return adj.config.lambda_s * ds / s_max_ + adj.config.lambda_c * dsc / sc_max_


def arrival_mass(adj: WarmPoolAdjuster, candidate: PoolCandidate, t: float) -> float:
    """P(the function arrives while this container is still warm)."""
    if adj.arrivals is None or not adj.config.adjustment_arrival_weighting:
        return 1.0
    remaining = max(candidate.expire_s - t, 0.0)
    est = adj.arrivals.get(candidate.name)
    return float(est.p_warm([remaining])[0])


def priority(
    adj: WarmPoolAdjuster, candidate: PoolCandidate, req: AdjustmentRequest
) -> float:
    """Expected realisable benefit of keeping this candidate warm."""
    ci = adj.env.ci_at(req.t)
    return benefit_score(adj, candidate.func, req.generation, ci) * arrival_mass(
        adj, candidate, req.t
    )


def rank(adj: WarmPoolAdjuster, req: AdjustmentRequest) -> list[PoolCandidate]:
    """Candidates by descending priority, then memory, then name."""
    return sorted(
        req.candidates,
        key=lambda c: (-priority(adj, c, req), c.mem_gb, c.name),
    )
