"""Warm containers and warm pools.

A *warm pool* (paper Sec. IV-B) is the set of function containers kept alive
in the memory of one hardware generation. Each pool has a memory capacity;
EcoLife "must ensure that the combined memory usage of all functions kept
alive in the warm pool does not exceed the maximum memory capacity".

One container per function per pool is modelled (the keep-alive problem is
per-function; concurrent executions simply miss the pool and start cold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.hardware.specs import Generation
from repro.workloads.functions import FunctionProfile


@dataclass
class WarmContainer:
    """A function image kept alive in one pool.

    ``token`` invalidates stale expiry events after a warm hit or a move;
    ``decider_index`` is the invocation record that made (and is billed for)
    this keep-alive decision; ``segment_start_s`` is when the *current*
    keep-alive segment began (it resets when the container moves pools).
    """

    func: FunctionProfile
    location: Generation
    segment_start_s: float
    expire_s: float
    decider_index: int
    token: int = 0

    @property
    def name(self) -> str:
        return self.func.name

    @property
    def mem_gb(self) -> float:
        return self.func.mem_gb

    def remaining_s(self, t: float) -> float:
        """Keep-alive time left at ``t`` (>= 0)."""
        return max(self.expire_s - t, 0.0)


class PoolFullError(RuntimeError):
    """Raised on an insert that would exceed the pool's memory capacity."""


@dataclass
class WarmPool:
    """All containers kept alive on one hardware generation."""

    generation: Generation
    capacity_gb: float = math.inf
    _containers: dict[str, WarmContainer] = field(default_factory=dict)
    _used_gb: float = 0.0
    #: Member name -> memory (GB): what :meth:`_recount` sums.
    _mems: dict[str, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.capacity_gb < 0.0:
            raise ValueError(f"capacity_gb must be >= 0, got {self.capacity_gb}")

    def __setstate__(self, state: dict) -> None:
        # Pools pickled before ``_mems`` existed carry only the members.
        self.__dict__.update(state)
        if "_mems" not in state:
            self._mems = {name: c.mem_gb for name, c in self._containers.items()}

    # -- queries -------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._containers

    def __len__(self) -> int:
        return len(self._containers)

    def get(self, name: str) -> WarmContainer | None:
        return self._containers.get(name)

    @property
    def used_gb(self) -> float:
        return self._used_gb

    @property
    def free_gb(self) -> float:
        return self.capacity_gb - self._used_gb

    def fits(self, mem_gb: float) -> bool:
        """Would a container of ``mem_gb`` fit right now?"""
        return mem_gb <= self.free_gb + 1e-12

    def containers(self) -> list[WarmContainer]:
        """Snapshot of current containers (stable iteration order)."""
        return list(self._containers.values())

    def names(self) -> list[str]:
        """Current container names (stable iteration order)."""
        return list(self._containers)

    # -- mutation ------------------------------------------------------------

    def insert(self, container: WarmContainer) -> None:
        """Add a container; the caller must have removed any predecessor."""
        if container.location is not self.generation:
            raise ValueError(
                f"container location {container.location} does not match pool "
                f"{self.generation}"
            )
        if container.name in self._containers:
            raise ValueError(f"{container.name!r} is already in the pool")
        if not self.fits(container.mem_gb):
            raise PoolFullError(
                f"pool {self.generation}: {container.mem_gb:.2f} GB does not fit "
                f"({self._used_gb:.2f}/{self.capacity_gb:.2f} GB used)"
            )
        self._containers[container.name] = container
        self._mems[container.name] = container.mem_gb
        self._recount()

    def remove(self, name: str) -> WarmContainer:
        """Remove and return a container (KeyError if absent)."""
        container = self._containers.pop(name)
        del self._mems[name]
        self._recount()
        return container

    def _recount(self) -> None:
        """Recompute the memory ledger from the membership map.

        A running ``+=``/``-=`` ledger accumulates floating-point error
        over long insert/remove churn (each op rounds once, and the
        errors never cancel exactly), eventually mis-answering
        :meth:`fits` near capacity. Recomputing with :func:`math.fsum`
        keeps ``used_gb`` the correctly-rounded sum of the *current*
        members -- exactly ``0.0`` for an empty pool, no clamp needed.
        """
        self._used_gb = math.fsum(self._mems.values())
