"""In-memory span tracer wrapped around each layer's public entry points.

The program itself carries no tracing. In a traced run the benchmark
replaces a fixed list of methods (``LAYER_HOOKS``) with wrappers that
record one span per call -- name, start, end, and the span that was
open when the call began -- and puts the originals back afterwards.
Spans stay in compact arrays until the run ends; :func:`Tracer.summary`
then turns them into per-layer call counts and self times, where a
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterable

import numpy as np

#: ``(module, owner, attribute, span name)`` for every wrapped entry
#: point. ``owner`` is a class name inside ``module``, or ``None`` for a
#: module-level function.
LAYER_HOOKS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.workloads.tracefile", None, "compile_azure_csv", "workloads.compile"),
    ("repro.workloads.tracefile", None, "open_trace", "workloads.open"),
    ("repro.simulator.engine", "SimulationEngine", "step_batch", "engine"),
    ("repro.simulator.engine", "SimulationEngine", "finish", "engine"),
    ("repro.core.scheduler", "EcoLifeScheduler", "place", "scheduler.place"),
    ("repro.core.scheduler", "EcoLifeScheduler", "keepalive", "kdm.decide"),
    ("repro.core.scheduler", "EcoLifeScheduler", "keepalive_batch", "kdm.decide"),
    (
        "repro.core.scheduler",
        "EcoLifeScheduler",
        "rank_keepalive_candidates",
        "adjust.rank",
    ),
    ("repro.core.arrival", "ArrivalEstimator", "observe", "arrival.observe"),
    ("repro.core.arrival", "ArrivalEstimator", "p_warm", "arrival.p_warm"),
    ("repro.core.objective", "ObjectiveBuilder", "fitness", "objective.build"),
    ("repro.core.objective", "ObjectiveBuilder", "batch_fitness", "objective.build"),
    ("repro.optimizers.batch", "SwarmFleet", "step_one", "swarm.step_one"),
    ("repro.optimizers.batch", "SwarmFleet", "step", "swarm.step"),
    ("repro.optimizers.batch", "SwarmFleet", "perceive_batch", "swarm.perceive"),
    ("repro.carbon.footprint", "CarbonModel", "service", "carbon.bill"),
    ("repro.carbon.footprint", "CarbonModel", "keepalive", "carbon.bill"),
    ("repro.carbon.footprint", "CarbonModel", "service_energy_wh", "carbon.bill"),
    ("repro.carbon.footprint", "CarbonModel", "keepalive_energy_wh", "carbon.bill"),
    ("repro.carbon.footprint", "CarbonModel", "est_service_split", "carbon.estimate"),
    (
        "repro.carbon.footprint",
        "CarbonModel",
        "est_keepalive_rate_split",
        "carbon.estimate",
    ),
    ("repro.carbon.footprint", "CarbonModel", "est_service_g", "carbon.estimate"),
    (
        "repro.carbon.footprint",
        "CarbonModel",
        "est_keepalive_rate_g_per_s",
        "carbon.estimate",
    ),
    ("repro.service.online", "DecisionService", "decide", "service.decide"),
)

#: Span names whose calls return a closure that is itself traced.
CLOSURE_SPANS = {"objective.build": "objective.eval"}


class Tracer:
    """Span store plus named counters for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_call: Callable[[tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with one span per call; ``on_call(args, result)`` counts."""
        nid = self._id(name)
        name_ids, parents, starts, ends = (
            self.name_ids,
            self.parents,
            self.starts,
            self.ends,
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    # -- reduction ---------------------------------------------------------

    def durations(self, name: str) -> np.ndarray:
        """Durations (s) of every span called ``name``, in start order."""
        nid = self._ids.get(name)
        if nid is None:
            return np.empty(0)
        table = self.table()
        dur = table["ends"] - table["starts"]
        return dur[table["name_ids"] == nid]

    def summary(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "self_s", "total_s"}}`` over all spans.

        ``calls`` skips a span whose parent has the same name (a wrapped
        method calling another method wrapped under that name), so it
        counts entries into the layer, not internal hops.
        """
        return summarize(self.names, **self.table())

    def table(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (copies: the arrays keep growing)."""
        return {
            "name_ids": np.array(self.name_ids, dtype=np.int32),
            "parents": np.array(self.parents, dtype=np.int32),
            "starts": np.array(self.starts, dtype=np.float64),
            "ends": np.array(self.ends, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        """Write every span (``.npz``) once the run is over."""
        np.savez(
            path,
            names=np.array(self.names, dtype=np.str_),
            counters=np.array(json.dumps(self.counters)),
            **self.table(),
        )


def summarize(
    names: list[str],
    name_ids: np.ndarray,
    parents: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> dict[str, dict[str, float]]:
    """Per-name calls, self time and total time of a span table."""
    n = len(names)
    dur = ends - starts
    has_parent = parents >= 0
    child = np.bincount(
        parents[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    self_s = dur - child
    parent_name = np.full(len(dur), -1)
    parent_name[has_parent] = name_ids[parents[has_parent]]
    entry = parent_name != name_ids
    calls = np.bincount(name_ids[entry], minlength=n)
    self_by = np.bincount(name_ids, weights=self_s, minlength=n)
    total_by = np.bincount(name_ids[entry], weights=dur[entry], minlength=n)
    return {
        name: {
            "calls": float(calls[i]),
            "self_s": float(self_by[i]),
            "total_s": float(total_by[i]),
        }
        for i, name in enumerate(names)
    }


def _counting_hooks(
    tracer: Tracer,
) -> dict[tuple[str | None, str], Callable[[tuple, Any], None]]:
    """Per-attribute counters fed from a wrapped call's args and result."""
    c = tracer.counters

    def decisions_one(args: tuple, result: Any) -> None:
        c["kdm.decisions"] += 1

    def decisions_batch(args: tuple, result: Any) -> None:
        c["kdm.decisions"] += len(args[1])

    def candidates(args: tuple, result: Any) -> None:
        c["adjust.candidates"] += len(args[1].candidates)

    def width_one(args: tuple, result: Any) -> None:
        c["swarm.stepped"] += 1

    def width_batch(args: tuple, result: Any) -> None:
        c["swarm.stepped"] += len(args[1])

    def perceived(args: tuple, result: Any) -> None:
        c["swarm.perceived"] += len(args[1])
        c["swarm.redistributed"] += int(np.sum(result))

    return {
        ("EcoLifeScheduler", "keepalive"): decisions_one,
        ("EcoLifeScheduler", "keepalive_batch"): decisions_batch,
        ("EcoLifeScheduler", "rank_keepalive_candidates"): candidates,
        ("SwarmFleet", "step_one"): width_one,
        ("SwarmFleet", "step"): width_batch,
        ("SwarmFleet", "perceive_batch"): perceived,
    }


class Installed:
    """Wrappers currently patched in, and the originals to put back."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def remove(self) -> None:
        """Restore every original attribute (idempotent)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()


def install(
    tracer: Tracer,
    hooks: Iterable[tuple[str, str | None, str, str]] = LAYER_HOOKS,
) -> Installed:
    """Patch a traced wrapper over every hook; returns the undo handle."""
    counting = _counting_hooks(tracer)
    installed = Installed()
    try:
        for module_name, owner_name, attr, span in hooks:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__[attr]
            fn = original
            closure_span = CLOSURE_SPANS.get(span)
            if closure_span is not None:
                fn = _tracing_returned_closure(tracer, closure_span, fn)
            wrapped = tracer.wrap(span, fn, counting.get((owner_name, attr)))
            installed._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
    except BaseException:
        installed.remove()
        raise
    return installed


def _tracing_returned_closure(
    tracer: Tracer, span: str, build: Callable[..., Any]
) -> Callable[..., Any]:
    @functools.wraps(build)
    def build_traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.wrap(span, build(*args, **kwargs))

    return build_traced
