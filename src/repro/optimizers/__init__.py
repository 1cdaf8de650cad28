"""Optimization substrate: the batched (D)PSO fleet and the GA/SA baselines."""

from repro.optimizers.annealing import SimulatedAnnealing
from repro.optimizers.base import ContinuousOptimizer, FitnessFn, clip_box
from repro.optimizers.batch import BatchFitnessFn, SwarmArchive, SwarmFleet
from repro.optimizers.dynamic_pso import DPSOParams
from repro.optimizers.genetic import GeneticOptimizer

__all__ = [
    "BatchFitnessFn",
    "ContinuousOptimizer",
    "FitnessFn",
    "SwarmArchive",
    "SwarmFleet",
    "clip_box",
    "DPSOParams",
    "GeneticOptimizer",
    "SimulatedAnnealing",
]
