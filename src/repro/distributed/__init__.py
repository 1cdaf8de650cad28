"""Distributed sweep execution: a TCP job fabric for ``ParallelRunner``.

Layers (see :doc:`docs/distributed` for the deployment recipe):

- :mod:`repro.distributed.protocol` -- newline-delimited JSON line
  protocol with base64-pickle payloads.
- :mod:`repro.distributed.server` -- :class:`JobServer`, the asyncio
  lease queue with heartbeat expiry, bounded capped-exponential retry
  and at-most-once cache commit.
- :mod:`repro.distributed.worker` -- the ``python -m repro.cli work``
  client loop.
- :mod:`repro.distributed.executor` -- :class:`TcpExecutor`, the
  :class:`repro.experiments.runner.Executor` backend gluing it into
  ``ParallelRunner`` (with graceful local fallback when no workers
  connect).
"""

from repro.distributed.executor import LOCAL_WORKER, TcpExecutor, fetch_stats
from repro.distributed.protocol import format_address, parse_address
from repro.distributed.server import JobServer, backoff_s
from repro.distributed.worker import run_worker, worker_loop

__all__ = [
    "LOCAL_WORKER",
    "JobServer",
    "TcpExecutor",
    "backoff_s",
    "fetch_stats",
    "format_address",
    "parse_address",
    "run_worker",
    "worker_loop",
]
