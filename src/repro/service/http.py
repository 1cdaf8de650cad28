"""Asyncio HTTP front-end for the decision service (stdlib only).

A deliberately small HTTP/1.1 server over ``asyncio`` streams -- no web
framework, no new dependencies. One :class:`DecisionServer` owns one
:class:`~repro.service.online.DecisionService`; requests serialise
through an ``asyncio.Lock`` (the engine is single-threaded state; the
fused batch kernels want batching, not concurrency -- POST batched
arrivals for throughput).

Endpoints (all JSON):

- ``POST /decide`` -- body ``{"arrivals": [{"t_s": ..., "function":
  ...}, ...]}`` (or one bare arrival object). Arrivals must be
  time-ordered and at-or-after everything already decided. Responds
  ``{"decisions": [...]}``; 400 on bad input, 503 while the intensity
  feed is stale.
- ``GET /healthz`` -- 200 when the provider is fresh, 503 otherwise.
- ``GET /metrics`` -- decision counters, p50/p99 latency, provider
  staleness, live/archived swarm gauges.
- ``POST /checkpoint`` -- body optionally ``{"dir": ...}``; persists
  full scheduler + engine state (every function retired, its state
  written to the checkpoint directory) and keeps serving.

Graceful shutdown (:meth:`DecisionServer.stop`) checkpoints into the
service's configured checkpoint directory if it has one.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, Callable

from repro.service.online import DecisionService, StaleCarbonFeed

_MAX_BODY_BYTES = 64 * 1024 * 1024
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadContentLength(Exception):
    """A request whose body cannot be framed: answered, then closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class DecisionServer:
    """Serve one :class:`DecisionService` over HTTP.

    ``clock`` supplies "now" for health/metrics endpoints; the default
    (``None``) uses the service's event time -- correct for replayed or
    benchmarked traffic. Live deployments pass a real clock (the CLI's
    ``electricity-maps`` mode wires one rebased to process start) so
    staleness is judged against real time.
    """

    def __init__(
        self,
        service: DecisionService,
        host: str = "127.0.0.1",
        port: int = 0,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.clock = clock
        self._lock = asyncio.Lock()
        self._server: asyncio.Server | None = None

    def _now(self) -> float | None:
        return self.clock() if self.clock is not None else None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self, checkpoint: bool = True) -> None:
        """Stop accepting connections; checkpoint if configured."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if checkpoint and self.service.checkpoint_dir is not None:
            async with self._lock:
                self.service.checkpoint()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # -- request plumbing --------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadContentLength as exc:
                    # The body's extent is unknown, so the stream cannot
                    # be resynchronised: answer and close.
                    await self._write_response(
                        writer, exc.status, {"error": str(exc)}, False
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, payload = await self._route(method, path, body)
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                # Loop teardown cancels handler tasks parked on an idle
                # keep-alive connection; swallowing here keeps shutdown
                # quiet (there is nothing left to clean up).
                asyncio.CancelledError,
            ):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return "BAD", "/", {}, b""
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            # ASCII digits only: int() also takes "+5", "-5" and "1_0".
            if not (raw_length.isascii() and raw_length.isdigit()):
                raise ValueError(raw_length)
            length = int(raw_length)
            if length > _MAX_BODY_BYTES:
                raise _BadContentLength(
                    413, f"body of {length} bytes exceeds {_MAX_BODY_BYTES}"
                )
            body = await reader.readexactly(length) if length else b""
        except ValueError:
            raise _BadContentLength(
                400, f"bad Content-Length: {raw_length!r}"
            ) from None
        return method.upper(), path, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, object],
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing ----------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict[str, object]]:
        path = path.split("?", 1)[0]
        routes: dict[
            tuple[str, str], Callable[[bytes], Awaitable[tuple[int, dict[str, object]]]]
        ] = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/metrics"): self._metrics,
            ("POST", "/decide"): self._decide,
            ("POST", "/checkpoint"): self._checkpoint,
        }
        handler = routes.get((method, path))
        if handler is None:
            known = {p for _, p in routes}
            if path in known:
                return 405, {"error": f"method {method} not allowed on {path}"}
            return 404, {"error": f"no such endpoint: {path}"}
        try:
            return await handler(body)
        except StaleCarbonFeed as exc:
            return 503, {"error": str(exc), "stale": True}
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # pragma: no cover - defensive
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    async def _healthz(self, body: bytes) -> tuple[int, dict[str, object]]:
        now = self._now()
        healthy = self.service.healthy(now)
        payload: dict[str, object] = {
            "status": "ok" if healthy else "stale",
            "provider": self.service.provider.name,
            "staleness_s": self.service.provider.staleness_s(
                self.service.last_t if now is None else now
            ),
        }
        return (200 if healthy else 503), payload

    async def _metrics(self, body: bytes) -> tuple[int, dict[str, object]]:
        async with self._lock:
            return 200, self.service.metrics_snapshot(self._now())

    async def _decide(self, body: bytes) -> tuple[int, dict[str, object]]:
        payload = json.loads(body.decode("utf-8")) if body else {}
        if isinstance(payload, dict) and "arrivals" in payload:
            raw = payload["arrivals"]
        elif isinstance(payload, dict) and "t_s" in payload:
            raw = [payload]
        else:
            raise ValueError(
                'expected {"arrivals": [{"t_s", "function"}, ...]} '
                'or one {"t_s", "function"} object'
            )
        if not isinstance(raw, list):
            raise ValueError("arrivals must be a list")
        arrivals = [(float(a["t_s"]), str(a["function"])) for a in raw]
        async with self._lock:
            decisions = self.service.decide(arrivals)
        return 200, {"decisions": decisions}

    async def _checkpoint(self, body: bytes) -> tuple[int, dict[str, object]]:
        payload = json.loads(body.decode("utf-8")) if body else {}
        directory = payload.get("dir") if isinstance(payload, dict) else None
        async with self._lock:
            summary = self.service.checkpoint(directory)
        return 200, {"checkpoint": summary}
