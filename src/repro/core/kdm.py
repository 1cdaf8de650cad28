"""Keeping-alive Decision Maker (KDM, paper Sec. IV-C).

One persistent optimizer per serverless function ("for each new invocation
of a serverless function, EcoLife assigns a PSO optimizer and preserves it
... for the next function invocation"). Before every decision the KDM:

1. measures the environment deltas -- change in system-wide invocation rate
   (dF) and carbon intensity (dCI) since this function's last decision;
2. feeds them to the DPSO perception-response mechanism (weight adaptation
   plus half-swarm redistribution);
3. advances the optimizer a few iterations against the current objective,
   scored once per decision over every (location, K_AT cell) as a table
   (:meth:`~repro.core.objective.ObjectiveBuilder.objective_table`);
4. decodes the swarm's best position into (location, keep-alive period).

The PSO backends keep every function's swarm in one
:class:`~repro.optimizers.batch.SwarmFleet`. Every group of decisions
for distinct functions (:meth:`KeepAliveDecisionMaker.decide_batch`), a
group of one included, gathers from one objective table
(:meth:`~repro.core.objective.ObjectiveBuilder.batch_fitness`) and steps
through one :meth:`~repro.optimizers.batch.SwarmFleet.step` call; see
``docs/optimizers.md``.

The GA/SA backends exist for the paper's in-text optimizer comparison and
share the exact same objective (the one-function
:meth:`~repro.core.objective.ObjectiveBuilder.fitness`); they keep one
optimizer object per function and decide one item at a time. Both paths
decode best positions the same way (``decode_locations`` and
``decode_k``).

Under function churn the per-function state (slots/optimizers, arrival
estimators, perception scalars) grows without bound, so the KDM also
runs an optional **state-retirement sweep** (``config.retire_after_s`` /
``config.max_live_swarms``): idle functions are archived into compact
:class:`RetiredFunction` records -- swarm rows plus RNG stream state --
and rehydrated bit-identically when they reappear. Sweeps trigger on
decision traffic and on the engine's container-expiry notifications;
they bound memory without changing a single decision.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.arrival import ArrivalRegistry
from repro.core.config import EcoLifeConfig, OptimizerKind
from repro.core.objective import ObjectiveBuilder
from repro.optimizers.annealing import SimulatedAnnealing
from repro.optimizers.base import ContinuousOptimizer
from repro.optimizers.batch import SwarmArchive, SwarmFleet
from repro.optimizers.genetic import GeneticOptimizer
from repro.simulator.records import KeepAliveDecision
from repro.simulator.scheduler import SchedulerEnv
from repro.workloads.functions import FunctionProfile


def _stable_seed(root_seed: int, name: str) -> np.random.Generator:
    """Per-function RNG that is stable across processes and runs."""
    return np.random.default_rng(
        np.random.SeedSequence([root_seed, zlib.crc32(name.encode("utf-8"))])
    )


@dataclass
class RetiredFunction:
    """Archived per-function scheduler state (state-retirement sweep).

    Everything the KDM must restore for the function's next decision to
    be bit-identical to a never-retired run: the swarm archive (PSO)
    *or* the optimizer object (GA/SA) and the perception scalars. The
    arrival estimator is shelved inside the
    :class:`~repro.core.arrival.ArrivalRegistry` by the same sweep --
    readers such as the warm-pool adjuster may still need its history
    while the function is retired (a container can outlive its
    function's last decision). ``None`` fields simply never existed at
    retirement time.
    """

    swarm: SwarmArchive | None
    optimizer: object | None
    last_ci: float | None
    last_rate: float | None
    last_seen: float


class KeepAliveDecisionMaker:
    """Per-function optimizer registry + decision logic."""

    def __init__(
        self,
        env: SchedulerEnv,
        config: EcoLifeConfig,
        arrivals: ArrivalRegistry,
        builder: ObjectiveBuilder | None = None,
    ) -> None:
        self.env = env
        self.config = config
        self.arrivals = arrivals
        self.builder = builder or ObjectiveBuilder(env, config)
        self._optimizers: dict[str, ContinuousOptimizer] = {}
        self._last_ci: dict[str, float] = {}
        self._last_rate: dict[str, float] = {}
        self.decisions = 0
        self.redistributions = 0
        # PSO: one SwarmFleet slot per function. GA/SA: one optimizer
        # object per function in ``_optimizers``.
        self.use_fleet = config.optimizer is OptimizerKind.PSO
        self._fleet: SwarmFleet | None = None
        self._slots: dict[str, int] = {}
        # State retirement (config.retire_after_s / max_live_swarms):
        # idle functions are swept into compact archives and rehydrated
        # bit-identically on their next appearance. ``_last_seen`` is
        # kept in least-recently-touched order (every touch moves the
        # name to the end), so sweeps read their victims off the front
        # instead of sorting the whole live set.
        self._retirement = config.retirement_enabled
        self._archives: dict[str, RetiredFunction] = {}
        self._last_seen: dict[str, float] = {}
        self._next_sweep_t = float("-inf")
        self.retired = 0
        self.rehydrated = 0
        self.peak_live = 0

    # -- optimizer lifecycle -----------------------------------------------------

    def _new_optimizer(self, name: str) -> ContinuousOptimizer:
        """The GA or SA optimizer of one function (PSO lives in the fleet)."""
        rng = _stable_seed(self.config.seed, name)
        if self.config.optimizer is OptimizerKind.GENETIC:
            return GeneticOptimizer(
                dim=2,
                rng=rng,
                population=self.config.n_particles,
                crossover_prob=0.6,
                mutation_prob=0.01,
            )
        return SimulatedAnnealing(dim=2, rng=rng)

    def optimizer_for(self, name: str) -> ContinuousOptimizer:
        opt = self._optimizers.get(name)
        if opt is None:
            if name in self._archives:
                self._rehydrate(name)
                opt = self._optimizers.get(name)
            if opt is None:
                opt = self._new_optimizer(name)
                self._optimizers[name] = opt
        return opt

    @property
    def optimizer_count(self) -> int:
        """Live per-function optimizer states (archived ones excluded)."""
        return len(self._slots) if self.use_fleet else len(self._optimizers)

    # -- fleet lifecycle ---------------------------------------------------------

    def _fleet_for_config(self) -> SwarmFleet:
        """The lazily-created fleet matching this KDM's PSO configuration."""
        if self._fleet is None:
            cfg = self.config
            if cfg.use_dynamic_pso:
                self._fleet = SwarmFleet(
                    dim=2,
                    n_particles=cfg.n_particles,
                    params=cfg.dpso,
                )
            else:
                self._fleet = SwarmFleet(
                    dim=2,
                    n_particles=cfg.n_particles,
                    omega=cfg.vanilla_omega,
                    c1=cfg.vanilla_c,
                    c2=cfg.vanilla_c,
                )
        return self._fleet

    def _slot_for(self, name: str) -> int:
        """The fleet slot of one function, seeding a new swarm on first use.

        The swarm draws from a stable per-function RNG stream, so its
        trajectory is independent of slot order and of the process.
        """
        slot = self._slots.get(name)
        if slot is None:
            if name in self._archives:
                self._rehydrate(name)
                slot = self._slots.get(name)
            if slot is None:
                slot = self._fleet_for_config().add_swarm(
                    _stable_seed(self.config.seed, name)
                )
                self._slots[name] = slot
        return slot

    # -- state retirement --------------------------------------------------------

    @property
    def live_count(self) -> int:
        """Functions with live (non-archived) scheduler state."""
        return len(self._last_seen) if self._retirement else self.optimizer_count

    @property
    def archived_count(self) -> int:
        """Archived (retired, not yet rehydrated) functions."""
        return len(self._archives)

    @property
    def fleet_capacity(self) -> int:
        """Allocated fleet slots (0 when the fleet was never created)."""
        return self._fleet.capacity if self._fleet is not None else 0

    def on_arrival(self, name: str, t: float) -> None:
        """Note an invocation arrival (the scheduler's place-time hook).

        Must run before the arrival estimator is updated: it rehydrates
        any archived state so a retired-then-returning function's
        estimator keeps its history and its decisions stay bit-identical
        to a never-retired run.
        """
        if not self._retirement:
            return
        if name in self._archives:
            self._rehydrate(name)
        self._touch(name, t)

    def maybe_sweep(self, now: float) -> None:
        """Opportunistic retirement sweep (decision and expiry hooks).

        The O(live) idle scan is throttled to a few times per
        ``retire_after_s`` window; the ``max_live_swarms`` cap check is
        O(1) and runs every call. Sweeping never changes decisions --
        retire/rehydrate is an identity -- so the trigger cadence only
        shapes memory, not results.
        """
        if not self._retirement:
            return
        cfg = self.config
        over = (
            cfg.max_live_swarms is not None
            and len(self._last_seen) > cfg.max_live_swarms
        )
        idle_due = cfg.retire_after_s is not None and now >= self._next_sweep_t
        if idle_due:
            self._next_sweep_t = now + cfg.retire_after_s / 4.0
        if idle_due or over:
            self.sweep(now)

    def sweep(self, now: float) -> int:
        """Retire idle functions; returns how many were archived.

        Policy: everything idle longer than ``retire_after_s`` goes;
        then, if still above ``max_live_swarms``, the least-recently
        touched functions go until the cap holds. ``_last_seen`` is
        maintained in touch-recency order (:meth:`_touch` re-inserts at
        the end), so the cap's victims are simply the first surviving
        entries -- no O(live log live) sort. Touch recency can lag
        strict ``last_seen`` order by at most one in-flight service
        time (decisions land at ``t_end``, out of arrival order), which
        may shuffle victim *selection* at the margin but can never
        change a decision: retire/rehydrate is an identity. The fleet
        is compacted after a non-empty sweep (slot remaps are applied
        to the registry).
        """
        cfg = self.config
        victims: list[str] = []
        chosen: set[str] = set()
        if cfg.retire_after_s is not None:
            cutoff = now - cfg.retire_after_s
            victims = [n for n, t in self._last_seen.items() if t <= cutoff]
            chosen = set(victims)
        if cfg.max_live_swarms is not None:
            excess = len(self._last_seen) - len(victims) - cfg.max_live_swarms
            if excess > 0:
                lru = (n for n in self._last_seen if n not in chosen)
                victims.extend(itertools.islice(lru, excess))
        for name in victims:
            self._retire(name)
        if victims and self._fleet is not None:
            remap = self._fleet.compact()
            if remap:
                self._slots = {
                    n: remap.get(s, s) for n, s in self._slots.items()
                }
        return len(victims)

    def _retire(self, name: str) -> None:
        swarm = None
        slot = self._slots.pop(name, None)
        if slot is not None:
            swarm = self._fleet.retire(slot)
        self.arrivals.retire(name)
        # Cost caches are pure functions of the profile; rebuilds are
        # bit-identical, so eviction only bounds memory.
        self.builder.costs.evict(name)
        self._archives[name] = RetiredFunction(
            swarm=swarm,
            optimizer=self._optimizers.pop(name, None),
            last_ci=self._last_ci.pop(name, None),
            last_rate=self._last_rate.pop(name, None),
            last_seen=self._last_seen.pop(name),
        )
        self.retired += 1

    def _rehydrate(self, name: str) -> None:
        arch = self._archives.pop(name)
        self.arrivals.revive(name)
        if arch.last_ci is not None:
            self._last_ci[name] = arch.last_ci
        if arch.last_rate is not None:
            self._last_rate[name] = arch.last_rate
        if arch.optimizer is not None:
            self._optimizers[name] = arch.optimizer
        if arch.swarm is not None:
            self._slots[name] = self._fleet_for_config().rehydrate(arch.swarm)
        self._touch(name, arch.last_seen)
        self.rehydrated += 1

    # -- checkpoint export/import -------------------------------------------------

    def retire_all(self) -> int:
        """Archive every live function (checkpoint / graceful shutdown).

        Retire/rehydrate is an identity, so a service that archives its
        whole live set, exports the archives, and keeps running answers
        exactly the decisions it would have without the checkpoint --
        each function rehydrates on its next arrival through the normal
        path. Requires retirement to be enabled (the online service
        forces it on with ``retire_after_s=inf``, which legally enables
        the machinery with zero idle retirement).
        """
        if not self._retirement:
            raise RuntimeError(
                "retire_all() needs retirement enabled "
                "(set retire_after_s -- inf works -- or max_live_swarms)"
            )
        victims = list(self._last_seen)
        for name in victims:
            self._retire(name)
        if victims and self._fleet is not None:
            # Every slot was just retired, so there is nothing to remap.
            self._fleet.compact()
        return len(victims)

    def export_archives(self) -> dict[str, RetiredFunction]:
        """All archived state, in retirement order (a copy of the shelf).

        Call after :meth:`retire_all` to capture the full per-function
        state for a checkpoint.
        """
        return dict(self._archives)

    def import_archive(self, name: str, record: RetiredFunction) -> None:
        """Adopt one archived function (checkpoint restore).

        The record lands on the shelf and rehydrates through the normal
        on-arrival path when the function next appears.
        """
        if name in self._archives or name in self._last_seen:
            raise ValueError(f"function state already present: {name!r}")
        self._archives[name] = record

    def _touch(self, name: str, t: float) -> None:
        """Record activity for the idle sweep (and the peak-live gauge).

        Re-inserting at the end keeps ``_last_seen`` in touch-recency
        order -- the LRU index :meth:`sweep` reads its cap victims from.
        """
        prev = self._last_seen.pop(name, None)
        self._last_seen[name] = t if prev is None or t > prev else prev
        live = len(self._last_seen)
        if live > self.peak_live:
            self.peak_live = live

    # -- decision ------------------------------------------------------------------

    def decide(self, func: FunctionProfile, t: float) -> KeepAliveDecision:
        """Choose (keep-alive location, keep-alive period) for ``func`` at ``t``."""
        return self.decide_batch([(func, t)])[0]

    def decide_batch(
        self, items: Sequence[tuple[FunctionProfile, float]]
    ) -> list[KeepAliveDecision]:
        """Decide for several (function, decision time) pairs at once.

        PSO: runs of *distinct* functions step through the fleet in fused
        kernels; a repeated function splits the batch (its second
        decision depends on its first, so the sub-batches run in order).
        GA/SA: one optimizer step per item, in order. Either way the
        decisions are identical to calling :meth:`decide` item by item.
        """
        if not self.use_fleet:
            return [self._step_optimizer(func, t) for func, t in items]
        if items:
            self.maybe_sweep(items[0][1])
        out: list[KeepAliveDecision] = []
        batch: list[tuple[FunctionProfile, float]] = []
        seen: set[str] = set()
        for func, t in items:
            if func.name in seen:
                out.extend(self._decide_fleet(batch))
                batch, seen = [], set()
            batch.append((func, t))
            seen.add(func.name)
        if batch:
            out.extend(self._decide_fleet(batch))
        return out

    def _step_optimizer(self, func: FunctionProfile, t: float) -> KeepAliveDecision:
        """One GA/SA decision: step the function's own optimizer.

        SA evaluates a whole 100->1 cooling schedule (~44 candidates) per
        iteration, so it gets a single schedule per decision; GA runs the
        configured number of generations -- roughly matched evaluation
        budgets across backends.
        """
        self.maybe_sweep(t)
        opt = self.optimizer_for(func.name)
        fitness = self.builder.fitness(func, t, self.arrivals.get(func.name))
        iterations = (
            1
            if isinstance(opt, SimulatedAnnealing)
            else self.config.iterations_per_invocation
        )
        opt.step(fitness, iterations=iterations)
        self.decisions += 1
        self._touch(func.name, t)
        return self._decode(opt.best_position[None])[0]

    def _decide_fleet(
        self, batch: Sequence[tuple[FunctionProfile, float]]
    ) -> list[KeepAliveDecision]:
        """Step distinct functions' swarms together through the fleet."""
        fleet = self._fleet_for_config()
        indices = [self._slot_for(func.name) for func, _ in batch]

        dynamic = self.config.use_dynamic_pso
        # (ci, running max) per decision, read once: the perception
        # delta and the objective table both use it.
        intensities: list[tuple[float, float]] = []
        deltas_f: list[float] = []
        deltas_ci: list[float] = []
        for func, t in batch:
            pair = self.env.ci_pair(t)
            intensities.append(pair)
            ci = pair[0]
            rate = self.env.rate_per_minute(t)
            if dynamic:
                deltas_ci.append(abs(ci - self._last_ci.get(func.name, ci)))
                deltas_f.append(abs(rate - self._last_rate.get(func.name, rate)))
            self._last_ci[func.name] = ci
            self._last_rate[func.name] = rate
        if dynamic:
            # One perception pass (scalar weight math per swarm, one
            # scatter of the fired swarms' redistributions) --
            # bit-identical to per-swarm perceive.
            fired = fleet.perceive_batch(indices, deltas_f, deltas_ci)
            self.redistributions += int(fired.sum())

        # Every group, a lone swarm included, gathers from one table and
        # steps through the fleet's one kernel.
        fitness = self.builder.batch_fitness(
            [func for func, _ in batch],
            [t for _, t in batch],
            [self.arrivals.get(func.name) for func, _ in batch],
            intensities=intensities,
        )
        fleet.step(indices, fitness, iterations=self.config.iterations_per_invocation)

        self.decisions += len(batch)
        for func, t in batch:
            self._touch(func.name, t)
        return self._decode(fleet.gbest_positions(indices))

    def _decode(self, positions: np.ndarray) -> list[KeepAliveDecision]:
        """Decode ``(n, 2)`` best positions into keep-alive decisions."""
        locations = self.builder.config.locations
        return [
            KeepAliveDecision(location=locations[i], duration_s=k_s)
            for i, k_s in zip(
                self.builder.decode_locations(positions[:, 0]).tolist(),
                self.builder.decode_k(positions[:, 1]).tolist(),
            )
        ]
