"""Batched multi-function swarm engine.

EcoLife's KDM runs one 15-particle DPSO per serverless function per
invocation (paper Sec. IV-C). At trace scale that is thousands of tiny
numpy calls per simulated second -- each individually too small to
amortise numpy's per-call overhead. :class:`SwarmFleet` holds *every*
function's swarm in stacked ``(n_swarms, n_particles, dim)`` arrays and
steps any subset of them through a handful of fused kernels.

The fleet is the only PSO implementation the scheduler runs. Its
**equivalence contract** (enforced by ``tests/test_optimizers_batch.py``):
a fleet seeded with per-swarm RNG streams is *bit-identical* to the same
number of independent sequential swarms -- the ``ParticleSwarm`` /
``DynamicPSO`` oracles in ``tests/oracles`` -- seeded with the same
streams: positions, velocities, personal/global bests, and
perception-response redistributions all match to the last ULP. Three
rules make that hold:

1. **Per-swarm RNG streams.** Each swarm keeps its own
   ``np.random.Generator`` and draws the same doubles the sequential
   implementation draws, in the same within-stream order (init positions,
   init velocities, redistribution choices, then ``r1``/``r2`` per
   iteration). A step call takes all its iterations' ``r1``/``r2`` in one
   ``uniform(size=(iterations, 2, n, dim))`` draw -- the same doubles,
   in the same order, as two ``(n, dim)`` draws per iteration. Streams
   are independent, so the interleaving *across* swarms is free while the
   draws *within* each stream stay aligned.
2. **Identical expression shapes.** Every fused kernel computes the
   sequential expression with the same associativity (for example
   ``(c1 * r1) * (pbest - x)``), with per-swarm scalars broadcast along
   the particle axis -- elementwise float64 arithmetic is then IEEE-
   identical regardless of batch shape.
3. **Per-swarm reductions.** ``argmin``/``max`` run along the particle
   axis only, preserving the sequential tie-breaking (first index wins).

The fitness callable is *batched*: it receives ``(n_active, rows, dim)``
positions for the active subset and returns ``(n_active, rows)`` scores
(see :meth:`repro.core.objective.ObjectiveBuilder.batch_fitness`). It must
be a pure function of the positions for the duration of one step call --
the KDM's closures gather from a table built once per decision -- so the
landscape is fixed within a call: personal bests and the incumbent best
are re-scored only inside the call's first evaluation (a later re-score
would recompute the stored scores exactly), while the sequential oracles
re-score on every iteration and still match bit for bit.

**One kernel.** :meth:`SwarmFleet.step` is the only PSO loop. It gathers
the stepped swarms' rows once per call, runs every iteration on those
local copies and writes them back once after the last iteration. The
KDM steps every decision group through it, a lone swarm at width 1
against a one-row batched fitness. Perception-response draws each fired
swarm's redistribution from its own stream and applies all of them with
one scatter per array.

Under function churn the set of ever-seen functions is unbounded, so the
fleet also supports **slot retirement**: :meth:`SwarmFleet.retire`
snapshots a swarm (rows + RNG bit-generator state) into a
:class:`SwarmArchive` and frees its slot for reuse,
:meth:`SwarmFleet.rehydrate` restores it bit-identically, and
:meth:`SwarmFleet.compact` swap-with-last-packs live slots and shrinks
the backing arrays when occupancy drops below a watermark. The
equivalence contract extends across retire/rehydrate round trips.

**One random source.** The stream contract above is the fleet's only
draw contract: ``r1``/``r2`` and redistribution values always come from
the swarm's own ``np.random.Generator``. A step call pays one
Python-level ``uniform`` call per swarm, which measured cheaper
end to end than a vectorised counter-based generator at the batch widths
the scheduler actually forms (see ``docs/optimizers.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.optimizers.dynamic_pso import DPSOParams

# The ``clip`` ufunc itself: ``ndarray.clip`` reaches it through a Python
# wrapper (``numpy._core._methods._clip``) whose overhead shows at the
# step's array sizes. numpy's stubs do not list it.
try:
    from numpy._core.umath import clip as _clip  # type: ignore[attr-defined]
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip  # type: ignore[attr-defined,no-redef]

#: Batched objective: (n_active, rows, dim) positions -> (n_active, rows)
#: scores, lower is better. Row order follows the ``indices`` passed to
#: :meth:`SwarmFleet.step`.
BatchFitnessFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SwarmArchive:
    """Compact snapshot of one retired swarm (:meth:`SwarmFleet.retire`).

    Holds copies of the swarm's stacked rows plus the serialised state of
    its ``np.random.Generator`` bit generator, which is what lets
    :meth:`SwarmFleet.rehydrate` resume the swarm's private random stream
    *bit-identically* -- a retired-then-returning function continues
    exactly where a never-retired one would be. Archives are plain data
    (arrays + scalars + one state dict), so they are picklable and cheap
    to hold for millions of dormant functions.
    """

    positions: np.ndarray  # (n_particles, dim)
    velocities: np.ndarray  # (n_particles, dim)
    pbest_positions: np.ndarray  # (n_particles, dim)
    pbest_scores: np.ndarray  # (n_particles,)
    omega: float
    c1: float
    c2: float
    best_position: np.ndarray  # (dim,)
    best_score: float
    has_best: bool
    df_max: float
    dci_max: float
    last_perception: float
    #: ``rng.bit_generator.state`` -- includes the bit-generator class name.
    bit_generator_state: dict


class SwarmFleet:
    """A fleet of persistent particle swarms stepped in fused kernels.

    One fleet serves one scheduler configuration: every member swarm
    shares ``n_particles``, ``vmax``, the re-scoring mode, and (for the
    dynamic variant) the :class:`DPSOParams` ranges, while positions,
    velocities, bests, weights, perception maxima, and RNG streams are
    per-swarm. Swarms are addressed by the integer slot returned from
    :meth:`add_swarm`.

    ``params=None`` gives the vanilla-PSO fleet (fixed weights, cached
    best scores, no perception-response), mirroring
    ``ParticleSwarm(rescore_bests=False)``; passing :class:`DPSOParams`
    gives the DPSO fleet (re-scored bests, :meth:`perceive_batch`).
    """

    # Stacked per-swarm arrays, allocated by :meth:`_alloc` from
    # ``_STACKED_STATE`` (declared here so the attributes type-check;
    # they do not exist until ``__init__`` runs ``_alloc``).
    positions: np.ndarray
    velocities: np.ndarray
    pbest_positions: np.ndarray
    pbest_scores: np.ndarray
    omega: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    best_positions: np.ndarray
    best_scores: np.ndarray
    _has_best: np.ndarray
    _df_max: np.ndarray
    _dci_max: np.ndarray
    last_perception: np.ndarray
    _live: np.ndarray

    def __init__(
        self,
        dim: int,
        n_particles: int = 15,
        vmax: float = 0.35,
        params: DPSOParams | None = None,
        omega: float = 0.7,
        c1: float = 1.4,
        c2: float = 1.4,
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be > 0, got {dim}")
        if n_particles < 2:
            raise ValueError("need at least 2 particles")
        if not 0.0 < vmax <= 1.0:
            raise ValueError("vmax must be in (0, 1]")
        self.dim = dim
        self.n_particles = n_particles
        self.vmax = vmax
        self.params = params
        self.dynamic = params is not None
        self.rescore_bests = self.dynamic
        # Initial weights: DPSO starts at the exploratory end of its
        # ranges; vanilla uses the given constants.
        if self.dynamic:
            self._omega0 = params.omega_max
            self._c0 = params.c_max
        else:
            self._omega0 = omega
            self._c0 = c1
            self._c20 = c2
        #: Per-slot RNG streams; ``None`` marks a retired (free) slot.
        self._rngs: list[np.random.Generator | None] = []
        self._m = 0  # allocation tail: slots [0, _m) have ever been used
        self._free: list[int] = []  # retired slots available for reuse (LIFO)
        self._alloc(4)

    # -- storage --------------------------------------------------------------

    #: Every stacked per-swarm array: attribute -> allocator over
    #: ``(capacity, n_particles, dim)``. Single source of truth walked by
    #: both :meth:`_alloc` and :meth:`_move_slot`, so a new per-swarm
    #: field cannot be allocated yet silently skipped by compaction moves
    #: (which would corrupt it only on churned runs). The retire/
    #: rehydrate mirrors live next to :class:`SwarmArchive`, whose typed
    #: fields a new entry must extend anyway.
    _STACKED_STATE: dict[str, Callable[[int, int, int], np.ndarray]] = {
        "positions": lambda c, n, d: np.empty((c, n, d)),
        "velocities": lambda c, n, d: np.empty((c, n, d)),
        "pbest_positions": lambda c, n, d: np.empty((c, n, d)),
        "pbest_scores": lambda c, n, d: np.empty((c, n)),
        "omega": lambda c, n, d: np.empty(c),
        "c1": lambda c, n, d: np.empty(c),
        "c2": lambda c, n, d: np.empty(c),
        "best_positions": lambda c, n, d: np.zeros((c, d)),
        "best_scores": lambda c, n, d: np.empty(c),
        "_has_best": lambda c, n, d: np.zeros(c, dtype=bool),
        "_df_max": lambda c, n, d: np.zeros(c),
        "_dci_max": lambda c, n, d: np.zeros(c),
        "last_perception": lambda c, n, d: np.zeros(c),
        "_live": lambda c, n, d: np.zeros(c, dtype=bool),
    }

    #: Archive plan: stacked array -> the :class:`SwarmArchive` field
    #: that round-trips it through retire()/rehydrate(), or ``None`` for
    #: bookkeeping-only state that is *deliberately* not checkpointed.
    #: ecolint's ECO005 contract check cross-validates this map against
    #: ``_STACKED_STATE``, the SwarmArchive dataclass, and both method
    #: bodies -- adding a stacked array without extending the plan (and
    #: the snapshot/restore paths) is a lint error, not a latent
    #: rehydration bug.
    _ARCHIVE_PLAN: dict[str, str | None] = {
        "positions": "positions",
        "velocities": "velocities",
        "pbest_positions": "pbest_positions",
        "pbest_scores": "pbest_scores",
        "omega": "omega",
        "c1": "c1",
        "c2": "c2",
        "best_positions": "best_position",
        "best_scores": "best_score",
        "_has_best": "has_best",
        "_df_max": "df_max",
        "_dci_max": "dci_max",
        "last_perception": "last_perception",
        # Slot occupancy: reconstructed by rehydrate(), not swarm state.
        "_live": None,
    }

    def _alloc(self, capacity: int) -> None:
        """(Re)allocate stacked state for ``capacity`` swarms."""
        n, d = self.n_particles, self.dim
        for name, make in self._STACKED_STATE.items():
            new = make(capacity, n, d)
            old = getattr(self, name, None)
            if old is not None:
                new[: self._m] = old[: self._m]
            setattr(self, name, new)
        self._capacity = capacity

    def __len__(self) -> int:
        return self.n_swarms

    @property
    def n_swarms(self) -> int:
        """Number of *live* swarms (retired slots excluded)."""
        return self._m - len(self._free)

    @property
    def capacity(self) -> int:
        """Allocated slot capacity of the stacked arrays."""
        return self._capacity

    def is_live(self, index: int) -> bool:
        return 0 <= index < self._m and bool(self._live[index])

    def rng_of(self, index: int) -> np.random.Generator:
        self._require_live(index)
        return self._rngs[index]

    def _require_live(self, index: int) -> None:
        if not self.is_live(index):
            raise IndexError(f"swarm slot {index} is not live")

    # -- lifecycle ------------------------------------------------------------

    def _take_slot(self) -> int:
        """Claim a slot: reuse the free list, else extend the tail."""
        if self._free:
            return self._free.pop()
        if self._m == self._capacity:
            self._alloc(self._capacity * 2)
        self._rngs.append(None)
        i = self._m
        self._m += 1
        return i

    def add_swarm(self, rng: np.random.Generator) -> int:
        """Register a new swarm drawing its initial state from ``rng``.

        Draw order matches ``ParticleSwarm.__init__`` exactly: uniform
        positions over the unit box, then uniform velocities in
        ``[-vmax, vmax]``. Retired slots are reused before the arrays
        grow.
        """
        i = self._take_slot()
        self._rngs[i] = rng
        n, d = self.n_particles, self.dim
        self.positions[i] = rng.uniform(0.0, 1.0, size=(n, d))
        self.velocities[i] = rng.uniform(-self.vmax, self.vmax, size=(n, d))
        self.pbest_positions[i] = self.positions[i]
        self.pbest_scores[i] = np.inf
        self.omega[i] = self._omega0
        self.c1[i] = self._c0
        self.c2[i] = self._c0 if self.dynamic else self._c20
        self.best_scores[i] = np.inf
        self._has_best[i] = False
        self._df_max[i] = 0.0
        self._dci_max[i] = 0.0
        self.last_perception[i] = 0.0
        self._live[i] = True
        return i

    # -- retirement / compaction ----------------------------------------------

    def retire(self, index: int) -> SwarmArchive:
        """Snapshot one swarm into a :class:`SwarmArchive` and free its slot.

        The archive captures the swarm's stacked rows *and* its RNG
        bit-generator state, so a later :meth:`rehydrate` resumes the
        swarm bit-identically. The freed slot goes on the free list and
        is reused by the next :meth:`add_swarm`/:meth:`rehydrate`;
        :meth:`compact` reclaims the backing memory when occupancy drops.
        """
        self._require_live(index)
        rng = self._rngs[index]
        archive = SwarmArchive(
            positions=self.positions[index].copy(),
            velocities=self.velocities[index].copy(),
            pbest_positions=self.pbest_positions[index].copy(),
            pbest_scores=self.pbest_scores[index].copy(),
            omega=float(self.omega[index]),
            c1=float(self.c1[index]),
            c2=float(self.c2[index]),
            best_position=self.best_positions[index].copy(),
            best_score=float(self.best_scores[index]),
            has_best=bool(self._has_best[index]),
            df_max=float(self._df_max[index]),
            dci_max=float(self._dci_max[index]),
            last_perception=float(self.last_perception[index]),
            bit_generator_state=rng.bit_generator.state,
        )
        self._rngs[index] = None
        self._live[index] = False
        self._free.append(index)
        return archive

    def rehydrate(self, archive: SwarmArchive) -> int:
        """Restore a retired swarm into a (possibly different) slot.

        Reconstructs the RNG from the archived bit-generator state, so
        the swarm's stream continues exactly where :meth:`retire` froze
        it -- the equivalence contract extends across a
        retire/rehydrate round trip. Returns the new slot index.
        """
        n, d = self.n_particles, self.dim
        if archive.positions.shape != (n, d):
            raise ValueError(
                f"archive shape {archive.positions.shape} does not match "
                f"fleet particles {(n, d)}"
            )
        state = archive.bit_generator_state
        bit_gen = getattr(np.random, state["bit_generator"])()
        bit_gen.state = state
        i = self._take_slot()
        self._rngs[i] = np.random.Generator(bit_gen)
        self.positions[i] = archive.positions
        self.velocities[i] = archive.velocities
        self.pbest_positions[i] = archive.pbest_positions
        self.pbest_scores[i] = archive.pbest_scores
        self.omega[i] = archive.omega
        self.c1[i] = archive.c1
        self.c2[i] = archive.c2
        self.best_positions[i] = archive.best_position
        self.best_scores[i] = archive.best_score
        self._has_best[i] = archive.has_best
        self._df_max[i] = archive.df_max
        self._dci_max[i] = archive.dci_max
        self.last_perception[i] = archive.last_perception
        self._live[i] = True
        return i

    def _move_slot(self, src: int, dst: int) -> None:
        for name in self._STACKED_STATE:
            arr = getattr(self, name)
            arr[dst] = arr[src]
        self._rngs[dst] = self._rngs[src]
        self._rngs[src] = None
        self._live[dst] = True
        self._live[src] = False

    def compact(
        self, shrink_watermark: float = 0.25, min_capacity: int = 4
    ) -> dict[int, int]:
        """Densify live slots into ``[0, n_swarms)`` and shrink capacity.

        Swap-with-last compaction: live swarms above the dense bound move
        into free holes below it, then the backing arrays shrink (halving)
        while occupancy stays at or below ``shrink_watermark``. Returns
        ``{old_slot: new_slot}`` for every moved swarm -- callers holding
        slot indices MUST apply the remap. Slot moves never touch swarm
        state or RNG streams, so compaction is invisible to the
        equivalence contract.
        """
        remap: dict[int, int] = {}
        if self._free:
            live = self._m - len(self._free)
            holes = sorted(h for h in self._free if h < live)
            tail = [i for i in range(live, self._m) if self._live[i]]
            for hole, src in zip(holes, tail):
                self._move_slot(src, hole)
                remap[src] = hole
            self._m = live
            del self._rngs[live:]
            self._free.clear()
        new_cap = self._capacity
        while new_cap > min_capacity and self._m <= int(new_cap * shrink_watermark):
            new_cap //= 2
        new_cap = max(new_cap, min_capacity, self._m)
        if new_cap < self._capacity:
            self._alloc(new_cap)
        return remap

    # -- perception-response (DPSO) -------------------------------------------

    def perceive_batch(
        self,
        indices: Sequence[int] | np.ndarray,
        delta_f: Sequence[float] | np.ndarray,
        delta_ci: Sequence[float] | np.ndarray,
    ) -> np.ndarray:
        """DPSO perception for a batch of swarms.

        Per swarm this runs the sequential ``DynamicPSO.perceive`` oracle
        (``tests/oracles``) on Python floats -- the same operations in the
        same order, so the weights are bit-identical to it. ``min(max(x,
        lo), hi)`` is the oracle's ``np.clip`` on a scalar: both keep
        ``x`` on ties and pass a NaN through. The KDM's batches are a few
        swarms wide, where one scalar write per slot costs less than a
        numpy call per array. The triggered swarms are redistributed together
        by :meth:`_redistribute`. Returns the boolean fired mask (aligned
        with ``indices``).
        """
        if not self.dynamic:
            raise RuntimeError(
                "perceive_batch() requires a DPSOParams-configured fleet"
            )
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            return np.zeros(0, dtype=bool)
        ids = idx.tolist()
        if len(set(ids)) != idx.size:
            raise ValueError("perceive_batch() indices must be distinct")
        if min(ids) < 0 or not self._live[idx].all():
            raise IndexError("perceive_batch() indices must address live slots")
        if not len(delta_f) == len(delta_ci) == len(ids):
            raise ValueError("perceive_batch() needs one delta pair per index")
        p = self.params
        fired: list[bool] = []
        for i, d_f, d_ci in zip(ids, delta_f, delta_ci):
            df = abs(float(d_f))
            dci = abs(float(d_ci))
            df_max = max(self._df_max.item(i), df)
            dci_max = max(self._dci_max.item(i), dci)
            # A zero maximum reads as no change (never divided, so no 0/0).
            nf = df / df_max if df_max > 0.0 else 0.0
            nci = dci / dci_max if dci_max > 0.0 else 0.0
            change = nf + nci
            c = min(max(p.c_max * (1.0 - change), p.c_min), p.c_max)
            self._df_max[i] = df_max
            self._dci_max[i] = dci_max
            self.last_perception[i] = change
            self.omega[i] = min(max(p.omega_max * change, p.omega_min), p.omega_max)
            self.c1[i] = c
            self.c2[i] = c
            fired.append(change > p.perception_threshold)
        mask = np.array(fired)
        if any(fired):
            self._redistribute(idx[mask], p.redistribute_fraction)
        return mask

    def redistribute(self, index: int, fraction: float = 0.5) -> None:
        """Re-place a fraction of one swarm; mirrors
        ``ParticleSwarm.redistribute`` (same RNG draw order, including the
        early return that skips all draws when the fraction rounds to 0).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self._require_live(index)
        self._redistribute(np.array([index], dtype=np.intp), fraction)

    def _redistribute(self, idx: np.ndarray, fraction: float) -> None:
        """Re-place ``round(fraction * n_particles)`` particles of each
        (distinct) swarm at ``idx``.

        Each swarm draws its particle choice, positions and velocities
        from its own stream in ``ParticleSwarm.redistribute``'s order;
        the draws are then applied with one scatter per array.
        """
        n, d = self.n_particles, self.dim
        k = int(round(fraction * n))
        if k == 0 or idx.size == 0:
            return
        m, vmax = idx.size, self.vmax
        picks = np.empty((m, k), dtype=np.intp)
        new_pos = np.empty((m, k, d))
        new_vel = np.empty((m, k, d))
        for j, i in enumerate(idx.tolist()):
            rng = self._rngs[i]
            picks[j] = rng.choice(n, size=k, replace=False)
            new_pos[j] = rng.uniform(0.0, 1.0, size=(k, d))
            new_vel[j] = rng.uniform(-vmax, vmax, size=(k, d))
        rows = idx[:, None]
        self.positions[rows, picks] = new_pos
        self.velocities[rows, picks] = new_vel
        self.pbest_positions[rows, picks] = new_pos
        self.pbest_scores[rows, picks] = np.inf

    # -- search ---------------------------------------------------------------

    def step(
        self,
        indices: Sequence[int] | np.ndarray,
        fitness: BatchFitnessFn,
        iterations: int = 1,
    ) -> None:
        """Advance the swarms at ``indices`` against a batched fitness.

        ``fitness`` rows must align with ``indices`` (row ``j`` scores
        swarm ``indices[j]``'s particles). Indices must be distinct --
        stepping the same swarm twice in one call would race on the
        scattered writes.

        **Contract:** for the duration of one call, ``fitness`` is a pure
        function of the positions (the KDM's closures gather from a table
        built per decision). So personal bests and the incumbent best are
        re-scored only in the first iteration's evaluation -- later
        re-scores would recompute the stored scores exactly -- and each
        swarm draws the whole call's ``r1``/``r2`` in one ``uniform``
        call, the same doubles in the same order as per-iteration draws.
        A call with ``iterations`` iterations makes ``iterations`` fitness
        calls.

        The swarms' rows are gathered once, iterated in locals and
        written back once after the last iteration; mirrors
        ``ParticleSwarm.step`` per swarm (with ``_refresh_best`` and
        ``_record_best``).
        """
        idx = np.asarray(indices, dtype=np.intp)
        s = idx.size
        if s == 0:
            return
        ids = idx.tolist()
        if s > 1 and len(set(ids)) != s:
            raise ValueError("step() indices must be distinct")
        if min(ids) < 0 or not self._live[idx].all():
            raise IndexError("step() indices must address live slots")
        n, d, vmax = self.n_particles, self.dim, self.vmax
        rescore = self.rescore_bests
        first_shape, shape = (s, 2 * n + 1), (s, n)

        pos = self.positions[idx]  # (s, n, d) gathered copies
        vel = self.velocities[idx]
        pb_pos = self.pbest_positions[idx]
        pb_scores = self.pbest_scores[idx]
        best_pos = self.best_positions[idx]  # (s, d)
        best_scores = self.best_scores[idx]
        has_best = self._has_best[idx]
        om = self.omega[idx][:, None, None]
        rows = np.arange(s)

        # r1/r2 for every iteration, pre-scaled by the per-swarm weights:
        # c1 * r1 is the sequential (c1 * r1) * (pbest - x) factor.
        draws = np.empty((2, iterations, s, n, d))
        for j, i in enumerate(ids):
            draws[:, :, j] = (
                self._rngs[i].uniform(size=(iterations, 2, n, d)).swapaxes(0, 1)
            )
        c1r1 = self.c1[idx][:, None, None] * draws[0]
        c2r2 = self.c2[idx][:, None, None] * draws[1]

        for it in range(iterations):
            if rescore and it == 0:
                # Current positions, stale personal bests and the
                # incumbent (_refresh_best) in one call. A never-stepped
                # swarm's zero placeholder incumbent is evaluated (the
                # kernel is rectangular) and its score discarded.
                scores = fitness(
                    np.concatenate((pos, pb_pos, best_pos[:, None, :]), axis=1)
                )
                if scores.shape != first_shape:
                    self._check_scores(scores, s, 2 * n + 1)
                cur = scores[:, :n]
                pb_scores[...] = scores[:, n : 2 * n]
                np.copyto(best_scores, scores[:, 2 * n], where=has_best)
            else:
                cur = fitness(pos)
                if cur.shape != shape:
                    self._check_scores(cur, s, n)

            # The gathered locals are copies: update them in place.
            improved = cur <= pb_scores
            np.copyto(pb_pos, pos, where=improved[..., None])
            np.copyto(pb_scores, cur, where=improved)

            g = pb_scores.argmin(axis=1)  # first-index ties, as argmin()
            gbest = pb_pos[rows, g]  # (s, d)

            # _record_best: track the incumbent optimum per swarm.
            g_scores = pb_scores[rows, g]
            better = g_scores < best_scores
            np.copyto(best_scores, g_scores, where=better)
            np.copyto(best_pos, gbest, where=better[:, None])
            has_best |= better

            vel = (
                om * vel
                + c1r1[it] * (pb_pos - pos)
                + c2r2[it] * (gbest[:, None, :] - pos)
            )
            _clip(vel, -vmax, vmax, out=vel)
            pos = pos + vel
            _clip(pos, 0.0, 1.0, out=pos)

        self.positions[idx] = pos
        self.velocities[idx] = vel
        self.pbest_positions[idx] = pb_pos
        self.pbest_scores[idx] = pb_scores
        self.best_positions[idx] = best_pos
        self.best_scores[idx] = best_scores
        self._has_best[idx] = has_best

    def step_one(
        self,
        index: int,
        fitness: Callable[[np.ndarray], np.ndarray],
        iterations: int = 1,
    ) -> None:
        """:meth:`step` for one swarm against a plain ``(rows, dim) ->
        (rows,)`` fitness.

        Nothing in the scheduler calls it: the KDM steps a lone swarm
        through :meth:`step`. It stays because the repository benchmark's
        tracer (``perfbench/tracing.py``) wraps it by name; it goes with
        that hook.
        """
        self._require_live(index)
        self.step([index], lambda x: fitness(x[0])[None], iterations)

    @staticmethod
    def _check_scores(scores: np.ndarray, s: int, rows: int) -> None:
        if np.shape(scores) != (s, rows):
            raise ValueError(
                f"batch fitness returned shape {np.shape(scores)}, "
                f"expected {(s, rows)}"
            )

    # -- readout --------------------------------------------------------------

    def gbest_positions(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Current swarm-best position per requested swarm, ``(s, dim)``."""
        idx = np.asarray(indices, dtype=np.intp)
        ids = idx.tolist()
        if (ids and min(ids) < 0) or not self._live[idx].all():
            raise IndexError("gbest_positions() indices must address live slots")
        g = np.argmin(self.pbest_scores[idx], axis=1)
        return self.pbest_positions[idx, g]
