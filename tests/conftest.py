"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.carbon import CarbonIntensityTrace, CarbonModel
from repro.hardware import PAIR_A, PAIR_B, PAIR_C
from repro.workloads import MOTIVATION_FUNCTIONS, SEBS_FUNCTIONS


@pytest.fixture
def pair_a():
    return PAIR_A


@pytest.fixture
def pair_b():
    return PAIR_B


@pytest.fixture
def pair_c():
    return PAIR_C


@pytest.fixture
def flat_trace():
    """A constant 250 g/kWh trace (CISO-mean level)."""
    return CarbonIntensityTrace.constant(250.0)


@pytest.fixture
def carbon_model(flat_trace):
    return CarbonModel(trace=flat_trace)


@pytest.fixture
def video():
    return MOTIVATION_FUNCTIONS[0]


@pytest.fixture
def graph_bfs():
    return MOTIVATION_FUNCTIONS[1]


@pytest.fixture
def dna_vis():
    return MOTIVATION_FUNCTIONS[2]


@pytest.fixture
def all_functions():
    return list(SEBS_FUNCTIONS.values())


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
