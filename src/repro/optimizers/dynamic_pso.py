"""EcoLife's Dynamic PSO (DPSO): the paper's two PSO extensions.

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

:class:`~repro.optimizers.batch.SwarmFleet` implements both for every
function's swarm at once; this module holds their parameters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DPSOParams:
    """Weight ranges (paper Sec. V: w in [0.5, 1], c1/c2 in [0.3, 1])."""

    omega_min: float = 0.5
    omega_max: float = 1.0
    c_min: float = 0.3
    c_max: float = 1.0
    redistribute_fraction: float = 0.5
    #: Minimum normalised change (dF + dCI) that counts as "perceived".
    perception_threshold: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.omega_min <= self.omega_max:
            raise ValueError("omega range invalid")
        if not 0.0 <= self.c_min <= self.c_max:
            raise ValueError("c range invalid")
        if not 0.0 <= self.redistribute_fraction <= 1.0:
            raise ValueError("redistribute_fraction must be in [0, 1]")
