"""Reference implementations the fast paths in ``src/`` are checked against.

- :mod:`tests.oracles.pso` / :mod:`tests.oracles.dynamic_pso` -- one
  sequential (D)PSO object per function, the oracle for
  :class:`~repro.optimizers.batch.SwarmFleet`.
- :mod:`tests.oracles.sequential` -- an EcoLife scheduler whose KDM
  steps those sequential optimizers instead of the fleet (decoding with
  :func:`tests.oracles.objective.decode_single`).
- :mod:`tests.oracles.objective` -- the per-particle KDM objective
  closures (and the padded ``ArrivalBatch`` queries) that
  :class:`~repro.core.objective.ObjectiveBuilder`'s table gather must
  equal bit for bit, and the per-column table lookups its one-pass
  gather must equal.
- :mod:`tests.oracles.adjustment` -- the scalar per-location cost
  estimates and normalisers (from the carbon model, one location at a
  time), the per-candidate warm-pool ranker and the ``min``-over-
  ``fscore`` EPDM that :class:`~repro.core.adjustment.WarmPoolAdjuster`
  and :class:`~repro.core.epdm.ExecutionPlacementDecisionMaker` must
  reproduce.
- :mod:`tests.oracles.intensity` -- the numpy ``searchsorted`` point
  and cumulative-integral lookups that
  :class:`~repro.carbon.intensity.CarbonIntensityTrace`'s list
  ``bisect`` lookups must equal bit for bit.
- :mod:`tests.oracles.replay` -- the per-arrival engine replay (drain,
  place, ``keepalive``, admit, one arrival at a time) that the engine's
  grouped stepping loop must reproduce.
- :mod:`tests.oracles.gridsearch` -- exhaustive search over a candidate
  grid, the lower bound the heuristic optimizers' tests compare with.
"""

from tests.oracles import adjustment, intensity, objective
from tests.oracles.dynamic_pso import DynamicPSO
from tests.oracles.pso import ParticleSwarm
from tests.oracles.replay import reference_replay
from tests.oracles.sequential import SequentialKDM, sequential_ecolife

__all__ = [
    "DynamicPSO",
    "ParticleSwarm",
    "SequentialKDM",
    "adjustment",
    "intensity",
    "objective",
    "reference_replay",
    "sequential_ecolife",
]
