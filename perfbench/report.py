"""Metric catalogue and the per-layer reduction of a traced run.

``END_TO_END`` and ``PER_LAYER`` list every metric a run prints, with
its unit; ``BENCHMARK.json`` declares the same names (a test checks).
Every workload prints every metric of its mode. A layer a workload does
not reach reports 0 there (for example ``service.*`` on the replays).
"""

from __future__ import annotations

from typing import Mapping

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "replay_inv_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_carbon_g": "g",
    "sim_service_s_mean": "s",
    "decide_p50_ms": "ms",
    "decide_p99_ms": "ms",
    "decide_max_rps": "1/s",
    "decide_batch_per_s": "1/s",
}

#: Layers whose span calls and self time are both reported.
_CALLS_AND_SELF = (
    "arrival.observe",
    "arrival.p_warm",
    "objective.build",
    "objective.eval",
    "swarm.step_one",
    "swarm.step",
    "kdm.decide",
    "scheduler.place",
    "adjust.rank",
    "carbon.bill",
    "carbon.estimate",
    "service.decide",
)

PER_LAYER: dict[str, str] = {
    "workloads.compile_s": "s",
    "workloads.open_s": "s",
    **{f"{layer}.calls": "count" for layer in _CALLS_AND_SELF},
    **{f"{layer}.self_s": "s" for layer in _CALLS_AND_SELF},
    "kdm.decisions": "count",
    "kdm.decide.total_s": "s",
    "adjust.rank.total_s": "s",
    "objective.evals_per_decision": "count",
    "swarm.batch_width_mean": "count",
    "swarm.perceive.self_s": "s",
    "swarm.redistribution_ratio": "ratio",
    "adjust.candidates_mean": "count",
    "engine.self_s": "s",
    "pool.warm_hit_ratio": "ratio",
    "pool.evictions": "count",
    "pool.spills": "count",
    "pool.drops": "count",
    "records.aggregate_s": "s",
    "http.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    summary: Mapping[str, Mapping[str, float]],
    counters: Mapping[str, float],
    extra: Mapping[str, float],
) -> dict[str, float]:
    """Every ``PER_LAYER`` value from a span summary, counters and extras.

    ``extra`` supplies the values no span yields (pool outcomes, set-up
    timings, HTTP figures, tracing overhead); missing ones read 0.
    """

    def get(layer: str, key: str) -> float:
        return float(summary.get(layer, {}).get(key, 0.0))

    out = {name: float(extra.get(name, 0.0)) for name in PER_LAYER}
    for layer in _CALLS_AND_SELF:
        out[f"{layer}.calls"] = get(layer, "calls")
        out[f"{layer}.self_s"] = get(layer, "self_s")
    decisions = counters.get("kdm.decisions", 0.0)
    out["kdm.decisions"] = decisions
    out["kdm.decide.total_s"] = get("kdm.decide", "total_s")
    out["adjust.rank.total_s"] = get("adjust.rank", "total_s")
    steps = get("swarm.step", "calls") + get("swarm.step_one", "calls")
    out["objective.evals_per_decision"] = _ratio(
        get("objective.eval", "calls"), decisions
    )
    out["swarm.batch_width_mean"] = _ratio(counters.get("swarm.stepped", 0.0), steps)
    out["swarm.perceive.self_s"] = get("swarm.perceive", "self_s")
    out["swarm.redistribution_ratio"] = _ratio(
        counters.get("swarm.redistributed", 0.0),
        counters.get("swarm.perceived", 0.0),
    )
    out["adjust.candidates_mean"] = _ratio(
        counters.get("adjust.candidates", 0.0), get("adjust.rank", "calls")
    )
    out["engine.self_s"] = get("engine", "self_s")
    return out


def pool_outcomes(result: object) -> dict[str, float]:
    """The ``pool.*`` metrics of one ``SimulationResult``."""
    return {
        "pool.warm_hit_ratio": float(result.warm_ratio),  # type: ignore[attr-defined]
        "pool.evictions": float(result.evicted_count),  # type: ignore[attr-defined]
        "pool.spills": float(result.spilled_count),  # type: ignore[attr-defined]
        "pool.drops": float(result.dropped_count),  # type: ignore[attr-defined]
    }
