"""The ``decide-http`` workload: ``/decide`` over a real socket.

A fresh ``DecisionServer`` runs in its own process (``serve.py``). This
process is the only load generator: one thread, one keep-alive
connection -- the right shape, because ``/decide`` requires
time-ordered arrivals. It sends a fixed prefix of the perturbed Azure
sample's arrivals, in order, in four phases:

1. warm-up: ``WARMUP`` single-arrival requests, closed loop (one in
   flight); not measured;
2. latency: ``LATENCY_CHUNK`` single-arrival requests, closed loop, each
   timed from send to complete response; ``decide_p50_ms`` and
   ``decide_p99_ms``, and in traced runs ``http.overhead_ms``;
3. saturation: ``SAT_CHUNK`` single-arrival requests kept ``WINDOW``
   deep on the connection, so the server never waits for the client.
   The completion rate is the highest arrival rate the server sustains
   before a backlog grows; ``decide_max_rps``;
4. batches: ``BATCH_CHUNK`` arrivals in ``BATCH``-sized requests,
   closed loop; ``decide_batch_per_s``.

The server times every ``decide`` call it makes. Arrivals over that
time in phases 3 and 4, where the server never waits for a request, is
``replay_inv_per_s``, the live engine's replay rate.

The latencies are closed loop, not open loop at a fixed rate. Between
open-loop requests (200/s) the server idled, and what a call cost after
an idle gap was set by the shared host, not the program: the server's
own time in ``decide`` rose from 0.8 to 1.0-1.2 ms, and the median
latency of runs with different seeds spread over 20-27% of its median.

A run makes passes while ``--seconds`` lasts (at least
``MIN_PASSES``): each is one set-up (compile + open + server start,
timed for ``setup_s``) followed by the same request sequence against
that fresh server, so every pass does identical work and makes
identical decisions. Every figure is taken over the per-piece
minimum across the passes (``measure.quiet``): per request for the
latencies and the server's decide time, per ``SAT_STEP`` completions for
saturation, per batch for batches. A 10-30 ms stall of either process on
the shared host hits a different request in each pass; a slow request
of the program's own is slow in every pass and stays in the tail.

A rate ladder that reports the highest rate whose p99 stays under a
limit is not used: a single host stall fails a probe at any rate, and
such a search landed anywhere between 675 and 1125 requests/s on
repeated runs.

The request sequence -- which arrivals, batched how -- is fixed by the
seed alone, never by ``--seconds`` or measured rates, so the decisions
and the simulated carbon and service time repeat exactly. An in-process
``DecisionService`` built the same way decides the same requests once;
every HTTP decision of every pass must equal it.
"""

from __future__ import annotations

import gc
import json
import pathlib
import select
import socket
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

from inputs import CI_SEED, workload_csv
from measure import another_fits, median, percentile, quiet
from replay import set_up
from report import layer_metrics, pool_outcomes
from tracing import Tracer, install, summarize

HERE = pathlib.Path(__file__).resolve().parent
#: An hour of the sample (~2.7k arrivals), enough for every phase.
HOURS = 1.0
POOL_GB = 64.0
WARMUP = 200
#: Enough requests that ten lie beyond the p99.
LATENCY_CHUNK = 1000
SAT_CHUNK = 600
WINDOW = 8
#: Saturation completions per timed piece.
SAT_STEP = 50
BATCH_CHUNK = 600
BATCH = 100
#: Every figure is a per-piece minimum over the passes; fewer than five
#: left it at the mercy of one slow spell of the shared host.
MIN_PASSES = 5
#: Untraced/traced pass pairs in a traced run.
OVERHEAD_PAIRS = 2
#: Give up on a phase whose responses stop arriving.
STALL_S = 30.0


def build_service(npz_path: "str | pathlib.Path"):
    """The ``DecisionService`` both the server and the reference run."""
    from repro.carbon import TraceProvider
    from repro.core import EcoLifeConfig
    from repro.experiments.common import trace_scenario
    from repro.service import DecisionService

    scenario = trace_scenario(str(npz_path), seed=CI_SEED, pool_gb=POOL_GB)
    service = DecisionService(
        TraceProvider(scenario.ci_trace),
        pair=scenario.pair,
        config=EcoLifeConfig(),
        sim_config=replace(scenario.sim_config, measure_decision_overhead=False),
        functions=scenario.trace.functions,
    )
    return scenario, service


# -- server process ------------------------------------------------------------


class ServerProcess:
    """``serve.py`` in a child process; stopped and reaped on exit."""

    def __init__(self, npz_path: pathlib.Path, spans_path: str | None):
        cmd = [sys.executable, str(HERE / "serve.py"), str(npz_path)]
        if spans_path is not None:
            cmd.append(spans_path)
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            line = self._readline(timeout=120.0)
            if not line.startswith("READY "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.kill()
            raise

    def _readline(self, timeout: float) -> str:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError("server process sent nothing")
        return self.proc.stdout.readline().strip()

    def stop(self) -> dict:
        """Ask the server to stop; returns its final report."""
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            out, _ = self.proc.communicate(timeout=60.0)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# -- client -----------------------------------------------------------------------


def request_bytes(payload: object) -> bytes:
    body = json.dumps(payload).encode()
    head = (
        "POST /decide HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Connection:
    """One keep-alive connection with pipelined requests."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def poll(self, timeout: float) -> list[tuple[int, bytes]]:
        """Complete responses received within ``timeout`` seconds."""
        ready, _, _ = select.select([self.sock], [], [], max(timeout, 0.0))
        if not ready:
            return []
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        self._buf += data
        return self._parse()

    def _parse(self) -> list[tuple[int, bytes]]:
        out = []
        while True:
            end = self._buf.find(b"\r\n\r\n")
            if end < 0:
                return out
            head = bytes(self._buf[:end]).decode("latin-1").split("\r\n")
            status = int(head[0].split()[1])
            length = 0
            for line in head[1:]:
                key, _, value = line.partition(":")
                if key.strip().lower() == "content-length":
                    length = int(value)
            total = end + 4 + length
            if len(self._buf) < total:
                return out
            out.append((status, bytes(self._buf[end + 4 : total])))
            del self._buf[:total]


@dataclass
class Phase:
    """Client-side record of one phase of requests."""

    start_s: float = 0.0
    #: When each request went out, and when its response was complete.
    sent_s: list[float] = field(default_factory=list)
    done_s: list[float] = field(default_factory=list)
    responses: list[tuple[int, bytes]] = field(default_factory=list)

    def round_trips(self) -> list[float]:
        return [d - s for s, d in zip(self.sent_s, self.done_s)]

    def pieces(self, step: int) -> list[float]:
        """Time taken by each successive ``step`` completions."""
        marks = [self.start_s] + self.done_s[step - 1 :: step]
        return [b - a for a, b in zip(marks, marks[1:])]


def pipelined(conn: Connection, requests: list[bytes], window: int) -> Phase:
    """Keep up to ``window`` requests in flight; ``window=1`` is closed loop."""
    n = len(requests)
    sent = 0
    phase = Phase(start_s=time.perf_counter())
    last_progress = phase.start_s
    while len(phase.responses) < n:
        while sent < n and sent - len(phase.responses) < window:
            conn.send(requests[sent])
            phase.sent_s.append(time.perf_counter())
            sent += 1
        got = conn.poll(STALL_S)
        now = time.perf_counter()
        if got:
            last_progress = now
            phase.done_s.extend([now] * len(got))
            phase.responses.extend(got)
        elif now - last_progress > STALL_S:
            raise TimeoutError("no response for too long")
    return phase


# -- the workload ---------------------------------------------------------------

Arrival = tuple[float, str]


@dataclass
class Plan:
    """The fixed request sequence: arrival slices and their batching."""

    warmup: list[Arrival]
    latency: list[Arrival]
    saturate: list[Arrival]
    batches: list[list[Arrival]]

    def calls(self) -> list[list[Arrival]]:
        """Every ``decide`` call, in request order."""
        singles = self.warmup + self.latency + self.saturate
        return [[a] for a in singles] + self.batches


def plan(arrivals: list[Arrival]) -> Plan:
    need = WARMUP + LATENCY_CHUNK + SAT_CHUNK + BATCH_CHUNK
    if len(arrivals) < need:
        raise RuntimeError(f"sample has {len(arrivals)} arrivals, need {need}")
    cut = np.cumsum([0, WARMUP, LATENCY_CHUNK, SAT_CHUNK, BATCH_CHUNK]).tolist()
    warmup, latency, saturate, batched = (
        arrivals[a:b] for a, b in zip(cut, cut[1:])
    )
    batches = [batched[i : i + BATCH] for i in range(0, len(batched), BATCH)]
    return Plan(warmup, latency, saturate, batches)


def ms_at(samples_s: "list[float] | np.ndarray", p: float) -> float:
    return percentile(list(samples_s), p) * 1e3


def busy_decide_s(passes: list["Pass"]) -> float:
    """The server's time in the phase 3 and 4 ``decide`` calls, quietest."""
    first = WARMUP + LATENCY_CHUNK
    return float(quiet([ps.decide_s[first:] for ps in passes]).sum())


def _single(a: Arrival) -> bytes:
    return request_bytes({"t_s": a[0], "function": a[1]})


def _batch(arrivals: list[Arrival]) -> bytes:
    return request_bytes({"arrivals": [{"t_s": t, "function": f} for t, f in arrivals]})


@dataclass
class Pass:
    """Everything measured against one fresh server."""

    setup_s: float
    warmup: Phase
    latency: Phase
    saturate: Phase
    batched: Phase
    #: The server's time in each ``decide`` call, in request order.
    decide_s: list[float]
    peak_rss_mb: float
    attempted: int
    failed: int


def drive(port: int, p: Plan) -> list[Phase]:
    conn = Connection(port)
    try:
        return [
            pipelined(conn, [_single(a) for a in p.warmup], 1),
            pipelined(conn, [_single(a) for a in p.latency], 1),
            pipelined(conn, [_single(a) for a in p.saturate], WINDOW),
            pipelined(conn, [_batch(b) for b in p.batches], 1),
        ]
    finally:
        conn.close()


def _failures(phases: list[Phase], expected: list[object]) -> int:
    """Non-200 responses, decisions unequal to ``expected``, missing calls."""
    responses = [r for ph in phases for r in ph.responses]
    bad = abs(len(responses) - len(expected))
    for (status, body), want in zip(responses, expected):
        if status != 200 or json.loads(body)["decisions"] != want:
            bad += 1
    return bad


@dataclass
class Reference:
    """The in-process replay of the same ``decide`` calls."""

    decisions: list[object]
    outcome: dict[str, float]
    aggregate_s: float


def reference(npz_path: pathlib.Path, p: Plan) -> Reference:
    _, service = build_service(npz_path)
    decisions = [service.decide(call) for call in p.calls()]
    # The service keeps its engine open for more arrivals; closing it is
    # what drains the outstanding keep-alives into the carbon totals.
    result = service._engine.finish()
    start = time.perf_counter()
    outcome = {
        "carbon_g": result.total_carbon_g,
        "service_s_mean": result.mean_service_s,
        **pool_outcomes(result),
    }
    aggregate_s = time.perf_counter() - start
    return Reference(json.loads(json.dumps(decisions)), outcome, aggregate_s)


@dataclass
class Measured:
    passes: list[Pass]
    ref: Reference
    inputs_ok: bool

    @property
    def attempted(self) -> int:
        return sum(ps.attempted for ps in self.passes)

    @property
    def failed(self) -> int:
        return sum(ps.failed for ps in self.passes)


def untraced_passes(seconds: float) -> Iterator[bool]:
    """Untraced passes while another one should end within ``seconds``."""
    start = time.perf_counter()
    n = 0
    while another_fits(start, n, seconds, MIN_PASSES):
        yield False
        n += 1


def _measure(
    seed: int,
    work: pathlib.Path,
    traced: Iterable[bool],
    setup_tracer: Tracer | None = None,
) -> Measured:
    """One pass per item of ``traced``; a true item traces that server."""
    csv_path, rows = workload_csv("decide-http", seed, work, hours=HOURS)
    passes = []
    ref = None
    inputs_ok = True
    for i, trace_server in enumerate(traced):
        npz_path = work / f"decide-http-{seed}-{i}.npz"
        spans = str(work / f"spans-decide-http-{seed}.npz") if trace_server else None
        gc.collect()
        start = time.perf_counter()
        with install(setup_tracer) if setup_tracer is not None else nullcontext():
            scenario = set_up(csv_path, npz_path, POOL_GB)
        server = ServerProcess(npz_path, spans)
        setup_s = time.perf_counter() - start
        try:
            trace = scenario.trace
            inputs_ok = inputs_ok and len(trace) == rows
            names = [trace.names[k] for k in trace.func_ids.tolist()]
            p = plan(list(zip(trace.times_s.tolist(), names)))
            phases = drive(server.port, p)
            report = server.stop()
        finally:
            server.kill()
        if ref is None:
            ref = reference(npz_path, p)
        passes.append(
            Pass(
                setup_s,
                *phases,
                decide_s=report["decide_s"],
                peak_rss_mb=report["peak_rss_mb"],
                attempted=sum(len(ph.responses) for ph in phases),
                failed=_failures(phases, ref.decisions),
            )
        )
    assert ref is not None
    return Measured(passes, ref, inputs_ok)


def run(seed: int, seconds: float, work: pathlib.Path) -> dict:
    """The untraced run: end-to-end metrics."""
    m = _measure(seed, work, untraced_passes(seconds))
    for k, ps in enumerate(m.passes):
        latency_s = ps.latency.round_trips()
        print(
            f"pass {k}: set-up {ps.setup_s:.3f} s; latency "
            f"p50 {ms_at(latency_s, 50.0):.3f} ms p99 {ms_at(latency_s, 99.0):.3f} ms; "
            f"saturated {SAT_CHUNK / sum(ps.saturate.pieces(SAT_STEP)):.0f}/s; "
            f"batched {BATCH_CHUNK / sum(ps.batched.round_trips()):.0f}/s"
        )
    passes = m.passes
    latency_s = quiet([ps.latency.round_trips() for ps in passes])
    metrics = {
        "setup_s": median([ps.setup_s for ps in passes]),
        "replay_inv_per_s": (SAT_CHUNK + BATCH_CHUNK) / busy_decide_s(passes),
        "peak_rss_mb": median([ps.peak_rss_mb for ps in passes]),
        "sim_carbon_g": m.ref.outcome["carbon_g"],
        "sim_service_s_mean": m.ref.outcome["service_s_mean"],
        "decide_p50_ms": ms_at(latency_s, 50.0),
        "decide_p99_ms": ms_at(latency_s, 99.0),
        "decide_max_rps": SAT_CHUNK
        / float(quiet([ps.saturate.pieces(SAT_STEP) for ps in passes]).sum()),
        "decide_batch_per_s": BATCH_CHUNK
        / float(quiet([ps.batched.round_trips() for ps in passes]).sum()),
    }
    return {
        "correct": m.failed == 0 and m.inputs_ok,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }


def run_traced(seed: int, seconds: float, work: pathlib.Path) -> dict:
    """The traced run: untraced and traced servers in turn.

    The last traced server's spans are the per-layer figures; the
    untraced passes give the HTTP cost without tracing in the way.
    ``seconds`` is not used: the pass count is fixed.
    """
    setup_tracer = Tracer()
    m = _measure(seed, work, [False, True] * OVERHEAD_PAIRS, setup_tracer)
    plain, traced = m.passes[0::2], m.passes[1::2]
    with np.load(work / f"spans-decide-http-{seed}.npz") as npz:
        names = [str(n) for n in npz["names"]]
        table = {k: npz[k] for k in ("name_ids", "parents", "starts", "ends")}
        counters = json.loads(str(npz["counters"]))
    # HTTP + JSON + socket cost of a request: its closed-loop round trip
    # less the server's untraced time deciding it.
    latency = slice(WARMUP, WARMUP + LATENCY_CHUNK)
    rtt_s = quiet([ps.latency.round_trips() for ps in plain])
    decide_s = quiet([ps.decide_s[latency] for ps in plain])
    extra = {
        "workloads.compile_s": median(list(setup_tracer.durations("workloads.compile"))),
        "workloads.open_s": median(list(setup_tracer.durations("workloads.open"))),
        "records.aggregate_s": m.ref.aggregate_s,
        "http.overhead_ms": median((rtt_s - decide_s).tolist()) * 1e3,
        # The same busy decide calls, timed by traced and untraced servers.
        "trace.overhead_ratio": busy_decide_s(traced) / busy_decide_s(plain),
        **{k: v for k, v in m.ref.outcome.items() if k.startswith("pool.")},
    }
    return {
        "correct": m.failed == 0 and m.inputs_ok,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": layer_metrics(summarize(names, **table), counters, extra),
    }
