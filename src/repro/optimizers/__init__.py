"""Optimization substrate: the batched (D)PSO fleet, GA/SA baselines, grid search."""

from repro.optimizers.annealing import SimulatedAnnealing
from repro.optimizers.base import ContinuousOptimizer, FitnessFn, clip_box
from repro.optimizers.batch import BatchFitnessFn, SwarmArchive, SwarmFleet
from repro.optimizers.dynamic_pso import DPSOParams
from repro.optimizers.genetic import GeneticOptimizer
from repro.optimizers.gridsearch import cartesian_grid, grid_best

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
    "grid_best",
    "cartesian_grid",
]
