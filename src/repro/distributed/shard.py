"""Process coordinator for the function-sharded replay.

The transport behind ``ecolife simulate --shards N``: one
:class:`ShardCoordinator` drives ``n_shards`` worker processes
(``python -m repro.cli work tcp://host:port --shard``) in barrier
lockstep over the line protocol from :mod:`repro.distributed.protocol`
-- the same greppable newline-JSON framing, base64-pickle payloads, and
heartbeat pacing as the PR 8 job fabric.

Message flow (worker -> coordinator unless noted)::

    hello        {role: "shard", worker}   first message; coordinator
                                           assigns the lowest free shard id
    hello_ack    (coordinator)             {shard, n_shards,
                                           heartbeat_interval_s,
                                           data: pack(ShardJob)}
    barrier      {seq, data: pack(outbox)} blocks until every shard of the
                                           round contributed
    barrier_ack  (coordinator)             {seq, data: pack(merged)}
    heartbeat    {}                        liveness while computing
    result       {data: pack(result)}      the shard's SimulationResult

Fault tolerance mirrors the deterministic-replay story of the engine:
the coordinator **caches every merged round**. If a shard worker dies
(SIGKILL included -- its connection drops and its shard id is freed), a
replacement connects, receives the same shard id and job, and replays
from round zero; every barrier it has "missed" is served instantly from
cache, so it fast-forwards to the frontier where the healthy shards are
still blocked, and the run completes bit-identically. No partial state
crosses the wire -- determinism *is* the checkpoint. Resumption needs
someone to start the replacement: :func:`run_sharded_tcp` with spawned
workers fails closed instead when one of them dies.

Trust boundary: identical to the job fabric -- payloads are pickles, so
only run this between machines under one operator's control.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
from dataclasses import dataclass

from repro.carbon.intensity import CarbonIntensityTrace
from repro.core.config import EcoLifeConfig
from repro.hardware.specs import HardwarePair
from repro.simulator.engine import SimulationConfig
from repro.simulator.records import SimulationResult
from repro.simulator.shard import ShardDecision, ShardEngine
from repro.workloads.trace import InvocationTrace

from repro.distributed.protocol import (
    STREAM_LIMIT,
    format_address,
    pack,
    parse_address,
    read_msg,
    send,
    unpack,
)


@dataclass(frozen=True)
class ShardJob:
    """Everything a shard worker needs to replay its part of one run.

    The scheduler travels by registry name plus config (exactly like the
    sweep fabric's ``RunnerJob``), so workers rebuild it through
    :func:`repro.experiments.runner.make_scheduler` and out-of-tree
    schedulers join via the same plugin-import mechanism.

    The trace travels one of two ways: inline (``trace``, pickled over
    the wire like everything else) or by reference (``trace_path``, a
    columnar ``.npz`` written by :meth:`InvocationTrace.save` on storage
    every worker can read). The path form keeps the hello payload small
    and lets each worker *memory-map* the columns instead of
    materialising its own Python copy -- the Azure-day-scale mode.
    """

    scheduler: str
    pair: HardwarePair
    trace: InvocationTrace | None
    ci_trace: CarbonIntensityTrace
    n_shards: int
    config: EcoLifeConfig | None = None
    sim_config: SimulationConfig | None = None
    by: str = "hash"
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if (self.trace is None) == (self.trace_path is None):
            raise ValueError(
                "ShardJob needs exactly one of trace or trace_path"
            )

    def resolve_trace(self) -> InvocationTrace:
        """The replay trace -- mmap-opened when shipped by path."""
        if self.trace is not None:
            return self.trace
        return InvocationTrace.open(self.trace_path, mmap=True)


class ShardCoordinator:
    """Barrier server: assigns shard ids, merges outboxes, collects results.

    Single event loop, one handler task per connection. ``start()``
    binds the listening socket (port 0 picks a free one --
    ``self.address`` is the dialable spec); ``wait()`` resolves once all
    ``n_shards`` results arrived and returns the merged
    :class:`SimulationResult`.
    """

    def __init__(
        self,
        job: ShardJob,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval_s: float = 2.0,
    ) -> None:
        self.job = job
        self.host = host
        self.port = port
        self.heartbeat_interval_s = heartbeat_interval_s
        self.address: str | None = None
        self._server: asyncio.AbstractServer | None = None
        self._free_ids = set(range(job.n_shards))
        self._issued: set[int] = set()
        self._contrib: dict[int, dict[int, list[ShardDecision]]] = {}
        self._merged: dict[int, list[ShardDecision]] = {}
        self._waiters: dict[int, list[asyncio.Future]] = {}
        self._results: dict[int, SimulationResult] = {}
        self._done: asyncio.Future | None = None
        #: Reconnection counter: how many times a shard id was re-issued
        #: after a connection loss (0 on a clean run; surfaced in meta).
        self.reassignments = 0

    async def start(self) -> str:
        self._done = asyncio.get_running_loop().create_future()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=STREAM_LIMIT
        )
        sock = self._server.sockets[0]
        self.address = format_address(self.host, sock.getsockname()[1])
        return self.address

    async def wait(self) -> SimulationResult:
        assert self._done is not None, "call start() first"
        await self._done
        merged = SimulationResult.merge(
            [self._results[i] for i in sorted(self._results)]
        )
        merged.meta["transport"] = "tcp"
        merged.meta["reassignments"] = self.reassignments
        return merged

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- per-connection handler ---------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        shard_id: int | None = None
        try:
            msg = await read_msg(reader)
            if msg is None or msg["type"] != "hello" or msg.get("role") != "shard":
                return
            if not self._free_ids:
                await send(writer, type="error", error="all shard ids assigned")
                return
            shard_id = min(self._free_ids)
            self._free_ids.discard(shard_id)
            if shard_id in self._issued:
                self.reassignments += 1
            self._issued.add(shard_id)
            await send(
                writer,
                type="hello_ack",
                shard=shard_id,
                n_shards=self.job.n_shards,
                heartbeat_interval_s=self.heartbeat_interval_s,
                data=pack(self.job),
            )
            while True:
                msg = await read_msg(reader)
                if msg is None:
                    return
                if msg["type"] == "barrier":
                    merged = await self._barrier(
                        int(msg["seq"]), shard_id, unpack(msg["data"])
                    )
                    await send(
                        writer,
                        type="barrier_ack",
                        seq=int(msg["seq"]),
                        data=pack(merged),
                    )
                elif msg["type"] == "heartbeat":
                    continue
                elif msg["type"] == "result":
                    self._results[shard_id] = unpack(msg["data"])
                    await send(writer, type="result_ack")
                    if (
                        len(self._results) == self.job.n_shards
                        and self._done is not None
                        and not self._done.done()
                    ):
                        self._done.set_result(None)
                else:
                    raise ValueError(f"unexpected message {msg['type']!r}")
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # connection loss is the crash signal; id is freed below
        except asyncio.CancelledError:
            pass  # loop teardown after the merged result landed; exit clean
        finally:
            # Free the id for a replacement unless this shard finished.
            if shard_id is not None and shard_id not in self._results:
                self._free_ids.add(shard_id)
            writer.close()

    async def _barrier(
        self, seq: int, shard_id: int, outbox: list[ShardDecision]
    ) -> list[ShardDecision]:
        merged = self._merged.get(seq)
        if merged is not None:
            # Cached round: a crash-resumed shard replaying its past.
            # Its contribution is deterministic and already merged.
            return merged
        contrib = self._contrib.setdefault(seq, {})
        contrib[shard_id] = list(outbox)
        if len(contrib) == self.job.n_shards:
            merged = [d for s in sorted(contrib) for d in contrib[s]]
            self._merged[seq] = merged
            for fut in self._waiters.pop(seq, []):
                if not fut.done():
                    fut.set_result(merged)
            return merged
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.setdefault(seq, []).append(fut)
        return await fut


class _WireBarrier:
    """Engine-facing transport: blocking exchange over the event loop.

    The shard engine runs in a thread (so the loop keeps heartbeating);
    each exchange round-trips one ``barrier``/``barrier_ack`` pair via
    ``run_coroutine_threadsafe``.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._loop = loop
        self._reader = reader
        self._writer = writer

    def exchange(self, seq, shard_id, outbox):
        return asyncio.run_coroutine_threadsafe(
            self._exchange(seq, outbox), self._loop
        ).result()

    async def _exchange(self, seq: int, outbox) -> list[ShardDecision]:
        await send(self._writer, type="barrier", seq=seq, data=pack(list(outbox)))
        while True:
            msg = await read_msg(self._reader)
            if msg is None:
                raise ConnectionError("coordinator closed during barrier")
            if msg["type"] == "barrier_ack" and int(msg["seq"]) == seq:
                return unpack(msg["data"])


def default_shard_worker_name() -> str:
    import os

    return f"{socket.gethostname()}:{os.getpid()}"


async def shard_worker_loop(
    address: str,
    *,
    name: str | None = None,
    connect_attempts: int = 40,
    connect_delay_s: float = 0.25,
) -> int:
    """Join a sharded replay as one worker; returns the shard id served.

    Connects (retrying while the coordinator boots), receives a shard id
    plus the pickled :class:`ShardJob`, replays the full merged trace
    deciding only the owned partition, and ships the shard's result
    back. Heartbeats flow while the engine computes between barriers.
    """
    from repro.experiments.runner import make_scheduler

    host, port = parse_address(address)
    last: Exception | None = None
    reader = writer = ack = None
    for attempt in range(connect_attempts):
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=STREAM_LIMIT
            )
            await send(
                writer,
                type="hello",
                role="shard",
                worker=name or default_shard_worker_name(),
            )
            ack = await read_msg(reader)
        except OSError as exc:
            last = exc
            ack = None
        if ack is not None and ack["type"] == "hello_ack":
            break
        # "error" acks happen when a killed shard's id has not been
        # freed yet (its handler is mid-barrier); retry like a refused
        # connection so replacements can start eagerly.
        if ack is not None:
            last = ConnectionError(f"handshake rejected: {ack!r}")
        if writer is not None:
            writer.close()
            reader = writer = None
        if attempt + 1 < connect_attempts:
            await asyncio.sleep(connect_delay_s)
    if reader is None or writer is None or ack is None:
        raise ConnectionError(
            f"could not join shard coordinator at {address}: {last}"
        )
    try:
        shard_id = int(ack["shard"])
        interval = float(ack["heartbeat_interval_s"])
        job: ShardJob = unpack(ack["data"])
        trace = job.resolve_trace()
        buckets = trace.partition_names(job.n_shards, by=job.by)
        loop = asyncio.get_running_loop()
        engine = ShardEngine(
            pair=job.pair,
            trace=trace,
            ci_trace=job.ci_trace,
            shard_id=shard_id,
            n_shards=job.n_shards,
            own_names=buckets[shard_id],
            transport=_WireBarrier(loop, reader, writer),
            config=job.sim_config,
        )
        scheduler = make_scheduler(job.scheduler, job.config)
        run = asyncio.ensure_future(asyncio.to_thread(engine.run_shard, scheduler))
        try:
            while True:
                done, _ = await asyncio.wait([run], timeout=interval)
                if done:
                    break
                await send(writer, type="heartbeat")
        except BaseException:
            run.cancel()
            raise
        result = run.result()
        await send(writer, type="result", data=pack(result))
        try:
            await read_msg(reader)  # result_ack
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.CancelledError):
            pass  # coordinator may close right after the last result lands
        return shard_id
    finally:
        writer.close()


def run_shard_worker(address: str, **kwargs: object) -> int:
    """Synchronous wrapper around :func:`shard_worker_loop` (CLI entry)."""
    return asyncio.run(shard_worker_loop(address, **kwargs))  # type: ignore[arg-type]


def _spawned_worker(address: str) -> None:  # pragma: no cover - subprocess
    run_shard_worker(address)


async def _watch_spawned(procs: list[multiprocessing.Process]) -> None:
    """Raise once a spawned worker exits non-zero.

    A spawned worker exits 0 only after its shard's result landed, and
    nothing else will ever claim the shard id it frees, so an early
    failure means the run can no longer complete.
    """
    while True:
        codes = [p.exitcode for p in procs]
        if any(code not in (None, 0) for code in codes):
            raise RuntimeError(
                "shard worker process(es) died before the merged result "
                f"arrived (exit codes {codes})"
            )
        await asyncio.sleep(0.05)


def run_sharded_tcp(
    job: ShardJob,
    host: str = "127.0.0.1",
    port: int = 0,
    spawn_workers: bool = True,
) -> SimulationResult:
    """One-call process-sharded replay (``simulate --shards``, tests, bench).

    Starts a coordinator and, when ``spawn_workers`` is set, one local
    worker **process** per shard (``multiprocessing`` spawn-or-fork
    default), then blocks until the merged result is in. A spawned
    worker that exits non-zero first raises :class:`RuntimeError` and
    terminates its siblings. With ``spawn_workers=False`` the
    coordinator waits for externally started ``work --shard`` processes
    -- the CI smoke mode, where a replacement worker may resume a dead
    one's shard.
    """

    async def _run() -> SimulationResult:
        coordinator = ShardCoordinator(job, host=host, port=port)
        address = await coordinator.start()
        procs: list[multiprocessing.Process] = []
        if spawn_workers:
            for _ in range(job.n_shards):
                p = multiprocessing.Process(
                    target=_spawned_worker, args=(address,), daemon=True
                )
                p.start()
                procs.append(p)
        wait = asyncio.ensure_future(coordinator.wait())
        watch = asyncio.ensure_future(_watch_spawned(procs))
        try:
            await asyncio.wait({wait, watch}, return_when=asyncio.FIRST_COMPLETED)
            if not wait.done():
                watch.result()  # a worker died: raises
            return wait.result()
        finally:
            if not wait.done():
                for p in procs:
                    p.terminate()
            wait.cancel()
            watch.cancel()
            await coordinator.close()
            for p in procs:
                p.join(timeout=10.0)
                if p.is_alive():  # pragma: no cover - cleanup path
                    p.terminate()

    return asyncio.run(_run())
