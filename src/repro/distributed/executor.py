"""TcpExecutor: the distributed backend behind ``ParallelRunner``.

Hosts a :class:`~repro.distributed.server.JobServer` on a background
thread (its own event loop) and bridges the runner's synchronous
:class:`~repro.experiments.runner.Executor` protocol onto it:
``submit`` returns a plain :class:`concurrent.futures.Future` chained
to the server-side job future, ``as_completed`` pumps the outstanding
set, and ``shutdown`` closes the server (connected workers observe EOF
and exit).

Worker loss is retried internally, so a failed future means the job's
retry budget is exhausted (:class:`~repro.experiments.runner.JobFailedError`).
``commits_results`` is true exactly when a shared
:class:`~repro.experiments.runner.ResultCache` was handed to the
server, which then commits each outcome at most once as it lands.

**Graceful degradation:** if no worker is connected for
``local_fallback_after_s`` while work is queued, the executor leases
jobs to itself and executes them inline in the consuming thread --
the same entry points, so a sweep pointed at ``tcp://...`` with zero
workers still completes with bit-identical results (inline failures
feed the normal retry/budget accounting).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from typing import Any, Callable, Iterator, TypeVar

from repro.experiments.runner import (
    JobOutcome,
    ResultCache,
    RunnerJob,
    execute_job,
    execute_job_with_records,
)

from repro.distributed.protocol import (
    STREAM_LIMIT,
    parse_address,
    read_msg,
    send,
)
from repro.distributed.server import JobServer

_T = TypeVar("_T")

#: Worker name the server's stats table shows for inline fallback runs.
LOCAL_WORKER = "local-fallback"


def fetch_stats(address: str, timeout_s: float = 5.0) -> dict[str, Any]:
    """Query a job server's ``stats`` wire message synchronously."""

    async def go() -> dict[str, Any]:
        host, port = parse_address(address)
        reader, writer = await asyncio.open_connection(
            host, port, limit=STREAM_LIMIT
        )
        try:
            await send(writer, type="stats")
            msg = await read_msg(reader)
        finally:
            writer.close()
        if msg is None or msg.get("type") != "stats":
            raise ConnectionError(f"bad stats reply from {address}: {msg!r}")
        return msg

    return asyncio.run(asyncio.wait_for(go(), timeout_s))


class TcpExecutor:
    """Job-server-backed executor (see module docstring).

    ``bind`` is a ``tcp://host:port`` spec; port 0 picks a free port --
    read the resolved address off :attr:`address` and hand it to
    ``python -m repro.cli work <address>`` workers.
    """

    def __init__(
        self,
        bind: str = "tcp://127.0.0.1:0",
        *,
        cache: ResultCache | None = None,
        lease_timeout_s: float = 30.0,
        heartbeat_interval_s: float | None = None,
        max_retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        local_fallback_after_s: float | None = 1.0,
        poll_interval_s: float = 0.05,
    ) -> None:
        host, port = parse_address(bind)
        self.cache = cache
        self.commits_results = cache is not None
        self.local_fallback_after_s = local_fallback_after_s
        self.poll_interval_s = poll_interval_s
        self._outstanding: list[concurrent.futures.Future[JobOutcome]] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: JobServer | None = None

        ready = threading.Event()
        boot_errors: list[BaseException] = []

        def thread_main() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            server = JobServer(
                host,
                port,
                cache=cache,
                lease_timeout_s=lease_timeout_s,
                heartbeat_interval_s=heartbeat_interval_s,
                max_retries=max_retries,
                backoff_base_s=backoff_base_s,
                backoff_cap_s=backoff_cap_s,
            )
            try:
                loop.run_until_complete(server.start())
            except BaseException as exc:  # port in use, bad host, ...
                boot_errors.append(exc)
                ready.set()
                loop.close()
                return
            self._server = server
            ready.set()
            loop.run_forever()
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

        self._thread: threading.Thread | None = threading.Thread(
            target=thread_main, name="TcpExecutor", daemon=True
        )
        self._thread.start()
        ready.wait()
        if boot_errors:
            self._thread.join()
            self._thread = None
            raise boot_errors[0]

    # -- loop bridging -----------------------------------------------

    def _call(self, fn: Callable[..., _T], *args: Any) -> _T:
        """Run a synchronous server method on the server's loop."""
        assert self._loop is not None

        async def run() -> _T:
            return fn(*args)

        return asyncio.run_coroutine_threadsafe(run(), self._loop).result()

    @property
    def address(self) -> str:
        """The resolved ``tcp://host:port`` workers should dial."""
        assert self._server is not None
        return self._server.address

    def stats(self) -> dict[str, Any]:
        """Live queue/lease/retry snapshot via the wire protocol."""
        return fetch_stats(self.address)

    def worker_count(self) -> int:
        assert self._server is not None
        return self._call(self._server.worker_count)

    # -- Executor protocol -------------------------------------------

    def submit(
        self, job: RunnerJob, with_records: bool = False
    ) -> concurrent.futures.Future[JobOutcome]:
        if self._thread is None or self._loop is None or self._server is None:
            raise RuntimeError("TcpExecutor is shut down")
        server, loop = self._server, self._loop
        future: concurrent.futures.Future[JobOutcome] = concurrent.futures.Future()

        def relay(source: "asyncio.Future[JobOutcome]") -> None:
            if source.cancelled():
                future.cancel()
            elif source.exception() is not None:
                future.set_exception(source.exception())  # type: ignore[arg-type]
            else:
                future.set_result(source.result())

        def enqueue() -> None:
            server.submit(job, with_records).add_done_callback(relay)

        loop.call_soon_threadsafe(enqueue)
        self._outstanding.append(future)
        return future

    def as_completed(self) -> Iterator[concurrent.futures.Future[JobOutcome]]:
        pending: set[concurrent.futures.Future[JobOutcome]] = set(
            self._outstanding
        )
        self._outstanding = []
        quiet_since = time.monotonic()
        while pending:
            done, pending = concurrent.futures.wait(
                pending,
                timeout=self.poll_interval_s,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            if done:
                quiet_since = time.monotonic()
                yield from done
                continue
            if (
                self.local_fallback_after_s is not None
                and self.worker_count() == 0
                and time.monotonic() - quiet_since >= self.local_fallback_after_s
            ):
                if not self._run_one_locally():
                    # Nothing leasable right now (backoff window between
                    # retries); keep polling.
                    time.sleep(self.poll_interval_s)

    def _run_one_locally(self) -> bool:
        """Degrade gracefully: lease one job to ourselves and run it.

        Executes inline in the calling thread with a loop-side
        heartbeat keeping the lease alive, then reports through the
        same commit/fail paths a TCP worker would use.
        """
        assert self._server is not None and self._loop is not None
        server, loop = self._server, self._loop
        record = self._call(server.try_lease, LOCAL_WORKER)
        if record is None:
            return False
        job_id = record.job_id
        stop_beating = threading.Event()

        def beat() -> None:
            if stop_beating.is_set():
                return
            server.heartbeat(job_id)
            loop.call_later(server.heartbeat_interval_s, beat)

        loop.call_soon_threadsafe(beat)
        entry: Callable[[RunnerJob], JobOutcome] = (
            execute_job_with_records if record.with_records else execute_job
        )
        try:
            outcome = entry(record.job)
        except Exception as exc:
            stop_beating.set()
            self._call(server.fail_attempt, job_id, repr(exc))
            return True
        stop_beating.set()
        self._call(server.complete, job_id, outcome)
        return True

    def shutdown(self) -> None:
        if self._thread is None:
            return
        if self._server is not None and self._loop is not None:
            asyncio.run_coroutine_threadsafe(
                self._server.close(), self._loop
            ).result(timeout=10)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._thread = None
        for future in self._outstanding:
            future.cancel()
        self._outstanding = []
