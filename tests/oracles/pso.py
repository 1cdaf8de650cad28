"""Sequential vanilla PSO (paper Sec. IV-C, "Basics of PSO"): an oracle.

One swarm object per function. The scheduler steps every swarm through
:class:`~repro.optimizers.batch.SwarmFleet`; this class is the
per-function reference the fleet matches bit for bit, seeded with the
same RNG stream.

Velocity/position update per iteration::

    V <- w*V + c1*r1*(pbest - X) + c2*r2*(gbest - X)
    X <- X + V

with ``r1, r2 ~ U(0,1)`` drawn element-wise. Positions are confined to the
unit box by clipping, velocities by ``vmax``. Personal/global bests are
re-scored every step so the swarm adapts when the landscape drifts between
invocations (the serverless environment is non-stationary).
"""

from __future__ import annotations

import numpy as np

from repro.optimizers.base import ContinuousOptimizer, FitnessFn, clip_box


class ParticleSwarm(ContinuousOptimizer):
    """A persistent particle swarm minimiser.

    Parameters mirror the paper's setup: 15 particles; ``omega``, ``c1``,
    ``c2`` control exploration/exploitation and are mutated on the fly by
    the dynamic extension (:class:`tests.oracles.dynamic_pso.DynamicPSO`).

    ``rescore_bests`` controls whether personal/global best *scores* are
    re-evaluated against the current landscape each step. Classic vanilla
    PSO caches them (``False``) -- which is exactly why it goes stale in the
    non-stationary serverless environment and why the paper adds the
    perception-response mechanism; the dynamic variant enables re-scoring.
    """

    def __init__(
        self,
        dim: int,
        rng: np.random.Generator,
        n_particles: int = 15,
        omega: float = 0.7,
        c1: float = 1.4,
        c2: float = 1.4,
        vmax: float = 0.35,
        rescore_bests: bool = False,
    ) -> None:
        super().__init__(dim, rng)
        if n_particles < 2:
            raise ValueError("need at least 2 particles")
        if not 0.0 < vmax <= 1.0:
            raise ValueError("vmax must be in (0, 1]")
        self.n_particles = n_particles
        self.omega = omega
        self.c1 = c1
        self.c2 = c2
        self.vmax = vmax
        self.rescore_bests = rescore_bests

        self.positions = self._uniform(n_particles)
        self.velocities = rng.uniform(-vmax, vmax, size=(n_particles, dim))
        self.pbest_positions = self.positions.copy()
        self.pbest_scores = np.full(n_particles, np.inf)

    # -- knobs ----------------------------------------------------------------

    def set_weights(self, omega: float, c1: float, c2: float) -> None:
        """Update the inertia and cognitive/social coefficients."""
        self.omega = float(omega)
        self.c1 = float(c1)
        self.c2 = float(c2)

    def redistribute(self, fraction: float = 0.5) -> None:
        """Randomly re-place a fraction of the swarm (perception-response).

        The redistributed particles forget their personal bests (they are
        meant to explore); the remaining particles keep theirs, which is
        the "memory" half the paper describes.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        k = int(round(fraction * self.n_particles))
        if k == 0:
            return
        idx = self.rng.choice(self.n_particles, size=k, replace=False)
        self.positions[idx] = self._uniform(k)
        self.velocities[idx] = self.rng.uniform(
            -self.vmax, self.vmax, size=(k, self.dim)
        )
        self.pbest_positions[idx] = self.positions[idx]
        self.pbest_scores[idx] = np.inf

    # -- search ---------------------------------------------------------------

    def step(self, fitness: FitnessFn, iterations: int = 1) -> None:
        """Run PSO iterations against the current landscape."""
        if self.rescore_bests:
            self._refresh_best(fitness)
        for _ in range(iterations):
            self._iterate(fitness)

    def _iterate(self, fitness: FitnessFn) -> None:
        n = self.n_particles
        if self.rescore_bests:
            # Evaluate current positions and re-score stale personal bests
            # in a single vectorised call.
            batch = np.concatenate([self.positions, self.pbest_positions], axis=0)
            scores = np.asarray(fitness(batch), dtype=float)
            if scores.shape != (2 * n,):
                raise ValueError(
                    f"fitness returned shape {scores.shape}, expected {(2 * n,)}"
                )
            cur, pb = scores[:n], scores[n:]
        else:
            cur = np.asarray(fitness(self.positions), dtype=float)
            if cur.shape != (n,):
                raise ValueError(
                    f"fitness returned shape {cur.shape}, expected {(n,)}"
                )
            pb = self.pbest_scores

        improved = cur <= pb
        self.pbest_positions[improved] = self.positions[improved]
        self.pbest_scores = np.where(improved, cur, pb)

        g = int(np.argmin(self.pbest_scores))
        gbest = self.pbest_positions[g]
        self._record_best(
            self.pbest_positions, self.pbest_scores
        )

        r1 = self.rng.uniform(size=(n, self.dim))
        r2 = self.rng.uniform(size=(n, self.dim))
        self.velocities = (
            self.omega * self.velocities
            + self.c1 * r1 * (self.pbest_positions - self.positions)
            + self.c2 * r2 * (gbest[None, :] - self.positions)
        )
        np.clip(self.velocities, -self.vmax, self.vmax, out=self.velocities)
        self.positions = clip_box(self.positions + self.velocities)

    @property
    def gbest_position(self) -> np.ndarray:
        """Current swarm-best (may differ from the historical best)."""
        g = int(np.argmin(self.pbest_scores))
        return self.pbest_positions[g]
