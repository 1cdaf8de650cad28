"""Benchmark-regression gate: compare a bench JSON against a committed baseline.

CI runs each quick benchmark and then this comparator against its
committed baseline under ``benchmarks/baselines/``. Which metrics are
gated is per **suite** (``--suite``, default ``swarm``):

- ``swarm``      -- the batched-vs-sequential *speedup ratios* from
  ``bench_swarm.py`` (ratios of two timings on one host are stable
  across runner hardware).
- ``workloads``  -- trace-generator synthesis throughput and end-to-end
  replay throughput from ``bench_workloads.py``. These are absolute
  events/second numbers, so the default threshold is looser (CI runners
  vary); update the committed baseline when the steady state moves.
- ``retirement`` -- the retirement-on vs retirement-off replay ratio
  from ``bench_retirement.py`` (machine-portable; guards the
  state-retirement sweep against slowing replays down).
- ``service``    -- end-to-end /decide throughput and p99 per-decision
  latency from ``bench_service.py``.
- ``shard``      -- the sharded-replay bit-identity flags (2/4 shards,
  thread and process transports) from ``bench_swarm.py``'s shard
  section; speedups are info-only at CI scale.
- ``trace``      -- the trace-file flags from ``bench_swarm.py``'s trace
  section: merged-shard and foreign-fast-path bit-identity plus the
  mmap-worker RSS check; throughputs are info-only at CI scale.

A metric regresses when it drops more than ``--threshold`` below the
baseline value (higher is better for ``gated`` metrics); suites may
additionally list ``gated_lower`` metrics -- latencies and the like --
which regress when they *rise* more than the threshold above baseline.

Escape hatch: set ``BENCH_GATE_SKIP=1`` (CI wires this to the
``skip-bench-gate`` PR label) to report the comparison without failing
the job -- for PRs that intentionally trade speed for capability. Update
the committed baseline in the same PR when a change legitimately moves
the steady state.

Usage::

    python benchmarks/check_regression.py \
        --suite swarm \
        --current benchmarks/results/BENCH_swarm.json \
        --baseline benchmarks/baselines/BENCH_swarm.json \
        --out benchmarks/results/BENCH_swarm_compare.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import sys

#: Per-suite metric sets. ``gated`` entries are dotted paths into the
#: bench JSON (all higher-is-better); ``info`` entries are recorded in
#: the comparison artifact but never gated; ``threshold`` is the default
#: allowed fractional drop for the suite.
SUITES: dict[str, dict] = {
    "swarm": {
        "gated": (
            "step_throughput.speedup",
            # Fully-fused step (batched perception + objective table)
            # vs the per-particle objective path, both on per-swarm RNG
            # streams, 256 swarms against the real objective.
            "fused_step.fused_speedup",
            "replay.speedup",
            # Continuous (non-quantised) trace: the default engine's
            # lookahead grouping vs the per-arrival reference replay --
            # bit-identical by construction, so only the speedup is
            # gated; the (zero) objective error is recorded.
            "continuous.speedup",
            # Pool adjustment: the one-pass WarmPoolAdjuster.rank vs the
            # scalar per-candidate ranker on the overflow requests of an
            # over-full Poisson replay (identical orderings asserted).
            "adjust.speedup",
        ),
        "info": (
            "step_throughput.loop_s",
            "step_throughput.fleet_s",
            "fused_step.pr4_s",
            "fused_step.fused_s",
            "replay.batch_on_s",
            "replay.batch_off_s",
            "continuous.grouped_s",
            "continuous.per_arrival_s",
            "continuous.objective_error_carbon",
            "continuous.decisions_changed",
            "adjust.n_requests",
            "adjust.candidates_mean",
            "adjust.vector_s",
            "adjust.oracle_s",
            "adjust.mismatches",
        ),
        "threshold": 0.25,
    },
    "workloads": {
        "gated": (
            "generators[azure].events_per_s",
            "generators[churn].events_per_s",
            "generators[diurnal].events_per_s",
            "generators[mmpp].events_per_s",
            "generators[pareto].events_per_s",
            "generators[poisson].events_per_s",
            "replay.invocations_per_s",
        ),
        "info": (
            "record_persistence.bytes_per_invocation",
            "record_persistence.read_s",
        ),
        # Absolute throughputs vary with runner hardware, so this stays
        # looser than the ratio-based suites -- but several quarters of
        # CI runs have sat well inside +/-20%, so the original 50%
        # provisional band is tightened to 35%.
        "threshold": 0.35,
    },
    "retirement": {
        "gated": ("replay.ratio_on_vs_off",),
        "info": (
            "replay.off_s",
            "replay.on_s",
            "memory.peak_live_on",
            "memory.peak_live_off",
            "memory.plateau_ratio",
            "sweep.scan_sweeps_per_s",
            "sweep.cap_sweep_s",
        ),
        "threshold": 0.25,
    },
    "distributed": {
        # Executor-backend comparison from bench_runner.py (script
        # mode): the gated metrics are the *correctness* flags -- every
        # backend's summaries must equal the serial reference
        # field-for-field (1.0 or bust; the threshold is irrelevant for
        # a 0/1 metric). Wall-clock numbers are info-only: at bench
        # scale the grid is seconds long, so executor overhead -- not
        # simulation throughput -- dominates, and the TCP fabric's win
        # only shows on multi-machine sweeps CI can't run.
        "gated": (
            "local_pool.identical",
            "tcp.identical",
        ),
        "info": (
            "n_jobs",
            "serial.wall_s",
            "local_pool.wall_s",
            "tcp.wall_s",
            "tcp.retries",
            "tcp.expired_leases",
        ),
        "threshold": 0.25,
    },
    "shard": {
        # Sharded-replay curve from bench_swarm.py's shard section: the
        # gated metrics are the *bit-identity* flags at every point of
        # the 2/4-shard x thread/process curve (1.0 or bust; the
        # threshold is irrelevant for a 0/1 metric). Wall clocks and
        # speedups stay info-only -- the quick bench runs on whatever
        # core count CI hands out (sharding can only lose on one core),
        # and the >=1.8x @ 4 shards acceptance assert lives inside the
        # bench itself, applied on full runs on >=4-core hosts.
        "gated": (
            "curve[2].thread_identical",
            "curve[2].process_identical",
            "curve[4].thread_identical",
            "curve[4].process_identical",
        ),
        "info": (
            "n_invocations",
            "cpu_count",
            "sequential_wall_s",
            "curve[2].thread_speedup",
            "curve[2].process_speedup",
            "curve[4].thread_speedup",
            "curve[4].process_speedup",
        ),
        "threshold": 0.25,
    },
    "trace": {
        # Trace-file section from bench_swarm.py: gated metrics are the
        # 0/1 flags -- merged 2/4-shard mmap replay identical to the
        # one-process engine, foreign fast path identical to per-event
        # replay, and the mmap worker's peak RSS below the fully
        # materialized Python trace. Compile and foreign-replay
        # throughputs stay info-only (absolute numbers on shared
        # runners); the >=3x fast-path acceptance assert lives inside
        # the bench, applied on full runs on >=4-core hosts.
        "gated": (
            "identity.shards2",
            "identity.shards4",
            "foreign.identical",
            "rss.ok",
        ),
        "info": (
            "n_rows",
            "cpu_count",
            "compile_rows_per_s",
            "foreign.fast_ev_per_s",
            "foreign.perevent_ev_per_s",
            "foreign.speedup",
            "rss.mmap_kb",
            "rss.inmem_kb",
        ),
        "threshold": 0.25,
    },
    "service": {
        # End-to-end serving numbers from bench_service.py. Throughput
        # is higher-is-better; the p99 per-decision latency is gated in
        # the opposite direction (``gated_lower``: regressed when it
        # *rises* more than the threshold above baseline). Both are
        # absolute wall-clock numbers, so the band stays wide like the
        # workloads suite.
        "gated": ("batched.decisions_per_s",),
        "gated_lower": ("single.p99_ms",),
        "info": (
            "single.p50_ms",
            "single.mean_ms",
            "batched.wall_s",
            "batched.batch_size",
            "identity.decisions_checked",
            "identity.mismatches",
        ),
        "threshold": 0.5,
    },
}

#: Dotted-path segment with an optional list selector: ``name[key]``
#: finds the element of list ``name`` whose identifying field equals
#: ``key`` (e.g. ``generators[mmpp]`` -> the row with generator "mmpp").
_SEGMENT = re.compile(r"^(?P<name>[^\[\]]+)(?:\[(?P<key>[^\[\]]+)\])?$")
_ID_FIELDS = ("generator", "name", "metric")


def lookup(payload: dict, dotted: str) -> float | None:
    node = payload
    for part in dotted.split("."):
        match = _SEGMENT.match(part)
        if match is None:
            return None
        name, key = match.group("name"), match.group("key")
        if not isinstance(node, dict) or name not in node:
            return None
        node = node[name]
        if key is not None:
            if not isinstance(node, list):
                return None
            node = next(
                (
                    el
                    for el in node
                    if isinstance(el, dict)
                    and any(el.get(f) == key for f in _ID_FIELDS)
                ),
                None,
            )
            if node is None:
                return None
    try:
        return float(node)
    except (TypeError, ValueError):
        return None


def compare(current: dict, baseline: dict, threshold: float, suite: str) -> dict:
    """Build the comparison report; ``report['failed']`` lists regressions."""
    spec = SUITES[suite]
    rows = []
    failed = []
    gated = [(m, "higher") for m in spec["gated"]]
    gated += [(m, "lower") for m in spec.get("gated_lower", ())]
    for metric, direction in gated:
        cur, base = lookup(current, metric), lookup(baseline, metric)
        if cur is None or base is None:
            failed.append(metric)
            rows.append(
                {"metric": metric, "current": cur, "baseline": base,
                 "direction": direction, "status": "missing"}
            )
            continue
        ratio = cur / base if base else float("inf")
        if direction == "lower":
            regressed = ratio > (1.0 + threshold)
        else:
            regressed = ratio < (1.0 - threshold)
        if regressed:
            failed.append(metric)
        rows.append(
            {
                "metric": metric,
                "current": cur,
                "baseline": base,
                "ratio_vs_baseline": ratio,
                "direction": direction,
                "status": "regressed" if regressed else "ok",
            }
        )
    info = {
        m: {"current": lookup(current, m), "baseline": lookup(baseline, m)}
        for m in spec["info"]
    }
    return {
        "suite": suite,
        "threshold": threshold,
        "gated": rows,
        "info": info,
        "failed": failed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", required=True)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--out", default=None, help="comparison JSON artifact")
    parser.add_argument(
        "--suite", choices=sorted(SUITES), default="swarm",
        help="which benchmark's metric set to gate (default: swarm)",
    )
    parser.add_argument(
        "--threshold", type=float, default=None,
        help="allowed fractional drop vs baseline "
        "(default: the suite's own, e.g. 0.25 for swarm)",
    )
    args = parser.parse_args(argv)
    threshold = (
        args.threshold
        if args.threshold is not None
        else SUITES[args.suite]["threshold"]
    )

    current = json.loads(pathlib.Path(args.current).read_text())
    baseline = json.loads(pathlib.Path(args.baseline).read_text())
    report = compare(current, baseline, threshold, args.suite)

    skip = os.environ.get("BENCH_GATE_SKIP", "").strip().lower() in (
        "1", "true", "yes",
    )
    report["skipped"] = skip
    if args.out:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for row in report["gated"]:
        ratio = row.get("ratio_vs_baseline")
        print(
            f"{row['metric']:>36s}: current {row['current']!r} "
            f"vs baseline {row['baseline']!r} "
            f"({'n/a' if ratio is None else f'{ratio:.2f}x'}) "
            f"[{row['status']}]"
        )
    if report["failed"]:
        verdict = (
            f"bench gate [{args.suite}]: {len(report['failed'])} metric(s) "
            f"regressed >{threshold * 100:.0f}% vs baseline: "
            f"{report['failed']}"
        )
        if skip:
            print(f"{verdict} -- BENCH_GATE_SKIP set, not failing the job")
            return 0
        print(verdict, file=sys.stderr)
        return 1
    print(
        f"bench gate [{args.suite}]: all {len(report['gated'])} gated "
        f"metrics within {threshold * 100:.0f}% of baseline"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
