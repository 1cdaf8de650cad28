"""Sequential Dynamic PSO (DPSO): the oracle for the fleet.

One optimizer object per function, as the paper describes it. The
batched :class:`~repro.optimizers.batch.SwarmFleet` is the only PSO
implementation the scheduler runs; this class is the reference it must
match bit for bit, seeded with the same RNG stream.

The paper's two PSO extensions:

1. **Dynamic weights** (Sec. IV-C): the inertia and cognitive/social
   coefficients react to the observed environment changes::

       w  = w_max * (dF/dF_max + dCI/dCI_max)          (clamped to [w_min, w_max])
       c1 = c2 = c_max * (1 - dF/dF_max - dCI/dCI_max) (clamped to [c_min, c_max])

   where ``dF`` is the change in the function-invocation rate and ``dCI``
   the change in carbon intensity since the last invocation; the ``*_max``
   denominators are the maximum absolute changes observed so far.

2. **Perception-response**: when a change is perceived, half of the swarm
   is randomly redistributed over the search space (exploration) while the
   other half keeps its positions (memory) -- Fig. 5.
"""

from __future__ import annotations

import numpy as np

from repro.optimizers.dynamic_pso import DPSOParams
from tests.oracles.pso import ParticleSwarm


class DynamicPSO(ParticleSwarm):
    """Particle swarm with perception-driven weight adaptation.

    Call :meth:`perceive` with the raw environment deltas before each
    :meth:`step`; the optimizer normalises them against the largest deltas
    seen so far, adapts its weights, and redistributes half the swarm when
    the environment moved.
    """

    def __init__(
        self,
        dim: int,
        rng: np.random.Generator,
        n_particles: int = 15,
        params: DPSOParams | None = None,
        vmax: float = 0.35,
    ) -> None:
        self.params = params or DPSOParams()
        super().__init__(
            dim,
            rng,
            n_particles=n_particles,
            omega=self.params.omega_max,
            c1=self.params.c_max,
            c2=self.params.c_max,
            vmax=vmax,
            rescore_bests=True,  # the dynamic variant tracks drift
        )
        self._df_max = 0.0
        self._dci_max = 0.0
        self.last_perception = 0.0

    def perceive(self, delta_f: float, delta_ci: float) -> bool:
        """Adapt to environment change; returns True if a response fired.

        ``delta_f``/``delta_ci`` are absolute changes since the last
        invocation of the function this optimizer belongs to.
        """
        df = abs(float(delta_f))
        dci = abs(float(delta_ci))
        self._df_max = max(self._df_max, df)
        self._dci_max = max(self._dci_max, dci)

        nf = df / self._df_max if self._df_max > 0.0 else 0.0
        nci = dci / self._dci_max if self._dci_max > 0.0 else 0.0
        change = nf + nci
        self.last_perception = change

        p = self.params
        omega = float(np.clip(p.omega_max * change, p.omega_min, p.omega_max))
        c = float(np.clip(p.c_max * (1.0 - change), p.c_min, p.c_max))
        self.set_weights(omega, c, c)

        if change > p.perception_threshold:
            self.redistribute(p.redistribute_fraction)
            return True
        return False
