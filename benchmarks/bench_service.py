"""Decision-service benchmark: end-to-end /decide latency + throughput.

Three phases against an in-process :class:`DecisionServer` over real
sockets (the same stdlib asyncio HTTP stack production would run):

1. **single** -- POST one arrival per request on a keep-alive
   connection and measure the client-observed wall time per request.
   The pass is repeated against a fresh server (same requests, same
   decisions) and ``single.p99_ms`` is the median of the per-pass p99s
   -- one pass's p99 is its 2nd-slowest request, so a single stall on
   a shared host would move it. That median is the serving-latency
   contract (gated *lower-is-better* in CI); p50/mean pool all laps.
2. **batched** -- POST the whole trace in fixed-size batches and
   measure end-to-end decisions/second (gated higher-is-better).
3. **identity** -- in-process sanity: a full-batch ``decide()`` against
   the wrapped trace must be bit-identical to the replay engine on the
   same scenario (the service's core correctness claim; any mismatch
   fails the bench outright).

Run directly (plain script, CI-invocable)::

    PYTHONPATH=src python benchmarks/bench_service.py --quick

Results are printed and archived as JSON under
``benchmarks/results/BENCH_service.json``; CI compares them against the
committed ``benchmarks/baselines/BENCH_service.json`` via
``check_regression.py --suite service``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import platform
import sys
import time

from repro.carbon import TraceProvider
from repro.core import EcoLifeConfig, EcoLifeScheduler
from repro.experiments import default_scenario
from repro.service import DecisionServer, DecisionService
from repro.simulator.engine import SimulationEngine

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Fresh-server passes of the single-request phase; ``single.p99_ms`` is
#: the median of their p99s.
SINGLE_PASSES = 15


def make_service(scenario) -> DecisionService:
    functions = {inv.func.name: inv.func for inv in scenario.trace}
    return DecisionService(
        TraceProvider(scenario.ci_trace),
        pair=scenario.pair,
        config=EcoLifeConfig(),
        sim_config=scenario.sim_config,
        functions=functions,
    )


async def _request_on(reader, writer, path: str, payload) -> dict:
    body = json.dumps(payload).encode("utf-8")
    writer.write(
        (
            f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        + body
    )
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    raw = await reader.readexactly(length)
    if status != 200:
        raise RuntimeError(f"{path} -> HTTP {status}: {raw[:200]!r}")
    return json.loads(raw)


def percentile_ms(samples_s: list[float], p: float) -> float:
    ordered = sorted(samples_s)
    rank = max(1, -(-len(ordered) * int(p) // 100))
    return ordered[rank - 1] * 1e3


async def single_pass(scenario, n_requests: int) -> list[float]:
    """Per-request e2e wall times over one keep-alive connection to a
    fresh server."""
    service = make_service(scenario)
    server = DecisionServer(service, port=0)
    await server.start()
    arrivals = [(inv.t, inv.func.name) for inv in scenario.trace][:n_requests]
    laps: list[float] = []
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            for t, name in arrivals:
                start = time.perf_counter()
                await _request_on(
                    reader, writer, "/decide", {"t_s": t, "function": name}
                )
                laps.append(time.perf_counter() - start)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
    finally:
        await server.stop(checkpoint=False)
    return laps


async def bench_single(scenario, n_requests: int, passes: int) -> dict:
    """Median-of-passes p99 (and pooled p50/mean) of per-request latency."""
    per_pass = [await single_pass(scenario, n_requests) for _ in range(passes)]
    p99s = sorted(percentile_ms(laps, 99.0) for laps in per_pass)
    pooled = [lap for laps in per_pass for lap in laps]
    return {
        "n_requests": n_requests,
        "passes": passes,
        "p99_ms": p99s[len(p99s) // 2],
        "p99_per_pass_ms": p99s,
        "p50_ms": percentile_ms(pooled, 50.0),
        "mean_ms": sum(pooled) / len(pooled) * 1e3,
    }


async def bench_batched(scenario, batch_size: int) -> dict:
    """Decisions/second POSTing the whole trace in fixed-size batches."""
    service = make_service(scenario)
    server = DecisionServer(service, port=0)
    await server.start()
    arrivals = [
        {"t_s": inv.t, "function": inv.func.name} for inv in scenario.trace
    ]
    decided = 0
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            start = time.perf_counter()
            for lo in range(0, len(arrivals), batch_size):
                body = await _request_on(
                    reader,
                    writer,
                    "/decide",
                    {"arrivals": arrivals[lo : lo + batch_size]},
                )
                decided += len(body["decisions"])
            wall = time.perf_counter() - start
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
    finally:
        await server.stop(checkpoint=False)
    return {
        "n_decisions": decided,
        "batch_size": batch_size,
        "wall_s": wall,
        "decisions_per_s": decided / wall,
    }


def bench_identity(scenario) -> dict:
    """Full-batch service decisions vs the replay engine, bit for bit."""
    engine = SimulationEngine(
        pair=scenario.pair,
        trace=scenario.trace,
        ci_trace=scenario.ci_trace,
        config=scenario.sim_config,
    )
    result = engine.run(EcoLifeScheduler(EcoLifeConfig()))
    expected = [DecisionService._decision_payload(r) for r in result.records]
    service = make_service(scenario)
    got = service.decide([(inv.t, inv.func.name) for inv in scenario.trace])
    mismatches = sum(1 for a, b in zip(got, expected) if a != b)
    mismatches += abs(len(got) - len(expected))
    return {"decisions_checked": len(expected), "mismatches": mismatches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI scale: smaller scenario, fewer single-shot requests",
    )
    parser.add_argument(
        "--out", default=str(RESULTS_DIR / "BENCH_service.json"),
    )
    args = parser.parse_args(argv)

    if args.quick:
        scenario = default_scenario(n_functions=25, hours=2.0, seed=7)
        n_single, batch_size = 200, 256
    else:
        scenario = default_scenario(n_functions=40, hours=3.0, seed=7)
        n_single, batch_size = 500, 256

    single = asyncio.run(bench_single(scenario, n_single, SINGLE_PASSES))
    batched = asyncio.run(bench_batched(scenario, batch_size))
    identity = bench_identity(scenario)

    payload = {
        "bench": "service",
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scenario": {
            "label": scenario.label,
            "n_invocations": len(scenario.trace),
        },
        "single": single,
        "batched": batched,
        "identity": identity,
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(
        f"single:  {single['passes']} x {single['n_requests']} requests, "
        f"p50 {single['p50_ms']:.2f} ms, p99 {single['p99_ms']:.2f} ms "
        f"(median of passes; per pass "
        f"{', '.join(f'{p:.2f}' for p in single['p99_per_pass_ms'])})"
    )
    print(
        f"batched: {batched['n_decisions']} decisions in "
        f"{batched['wall_s']:.2f}s ({batched['decisions_per_s']:.0f}/s "
        f"@ batch {batched['batch_size']})"
    )
    print(
        f"identity: {identity['decisions_checked']} decisions vs replay, "
        f"{identity['mismatches']} mismatches"
    )
    print(f"archived -> {out}")

    if identity["mismatches"]:
        print(
            f"FAIL: {identity['mismatches']} served decisions differ from "
            "the replay engine -- the service is not replay-equivalent",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
