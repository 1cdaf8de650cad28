"""Reference implementations the fast paths in ``src/`` are checked against.

- :mod:`tests.oracles.pso` / :mod:`tests.oracles.dynamic_pso` -- one
  sequential (D)PSO object per function, the oracle for
  :class:`~repro.optimizers.batch.SwarmFleet`.
- :mod:`tests.oracles.sequential` -- an EcoLife scheduler whose KDM
  steps those sequential optimizers instead of the fleet.
- :mod:`tests.oracles.objective` -- the per-particle KDM objective
  closures (and the padded ``ArrivalBatch`` queries) that
  :class:`~repro.core.objective.ObjectiveBuilder`'s table gather must
  equal bit for bit.
- :mod:`tests.oracles.replay` -- the per-arrival engine replay (drain,
  place, ``keepalive``, admit, one arrival at a time) that the engine's
  grouped stepping loop must reproduce.
"""

from tests.oracles import objective
from tests.oracles.dynamic_pso import DynamicPSO
from tests.oracles.pso import ParticleSwarm
from tests.oracles.replay import reference_replay
from tests.oracles.sequential import SequentialKDM, sequential_ecolife

__all__ = [
    "DynamicPSO",
    "ParticleSwarm",
    "SequentialKDM",
    "objective",
    "reference_replay",
    "sequential_ecolife",
]
