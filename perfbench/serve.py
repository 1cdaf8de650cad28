"""Decision-server process for the ``decide-http`` workload.

Usage: ``python3 perfbench/serve.py TRACE.npz [SPANS.npz]``

Builds the workload's ``DecisionService`` from the compiled trace,
serves it on an ephemeral localhost port, and prints ``READY <port>``.
A ``stop`` line (or end of file) on standard input shuts it down; the
last line printed is ``{"peak_rss_mb": ..., "decide_s": [...]}``, the
latter the time of every ``decide`` call the server made, in order.
With ``SPANS.npz`` every layer is traced in this process and the spans
are written there on shutdown.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from decide_http import build_service  # noqa: E402
from measure import peak_rss_mb  # noqa: E402
from tracing import Tracer, install  # noqa: E402


async def serve(npz_path: str, decide_s: list[float]) -> None:
    from repro.service import DecisionServer

    _, service = build_service(npz_path)
    decide = service.decide
    clock = time.perf_counter

    def timed_decide(arrivals):
        start = clock()
        try:
            return decide(arrivals)
        finally:
            decide_s.append(clock() - start)

    service.decide = timed_decide
    server = DecisionServer(service, port=0)
    await server.start()
    print(f"READY {server.port}", flush=True)
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin
    )
    try:
        while True:
            line = await stdin.readline()
            if not line or line.strip() == b"stop":
                break
    finally:
        await server.stop(checkpoint=False)


def main(argv: list[str]) -> int:
    npz_path = argv[0]
    spans_path = argv[1] if len(argv) > 1 else None
    decide_s: list[float] = []
    if spans_path is None:
        asyncio.run(serve(npz_path, decide_s))
    else:
        tracer = Tracer()
        with install(tracer):
            asyncio.run(serve(npz_path, decide_s))
        tracer.save(spans_path)
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "decide_s": decide_s}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
