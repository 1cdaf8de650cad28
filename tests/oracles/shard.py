"""The per-event foreign replay for :class:`ShardEngine`.

A shard replays runs of arrivals owned by other shards through
``ShardEngine._replay_foreign_run``, which absorbs provably inert
stretches with one batched estimator observation and sends only warm
hits through the per-event ``_replay_foreign``. This engine sends every
foreign arrival through ``_replay_foreign`` -- drain, ``place_foreign``,
warm-hit consume, one arrival at a time -- which is what the absorber
must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.engine import ShardStep
from repro.simulator.scheduler import BaseScheduler
from repro.simulator.shard import ShardEngine
from repro.workloads.functions import FunctionProfile


class PerEventShardEngine(ShardEngine):
    """A :class:`ShardEngine` with no bulk absorption."""

    def _replay_foreign_run(
        self,
        scheduler: BaseScheduler,
        step: ShardStep,
        times: np.ndarray,
        ids: np.ndarray,
        funcs: list[FunctionProfile],
        index: dict[str, int],
        start: int,
        stop: int,
    ) -> None:
        for t, fid in zip(times[start:stop].tolist(), ids[start:stop].tolist()):
            self._replay_foreign(scheduler, step, t, funcs[fid])
