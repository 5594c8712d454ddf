"""Shared oracles for the test suite: brute-force solvers kept deliberately
independent of the library code paths they check."""

from __future__ import annotations

import itertools

import numpy as np
import pytest


def brute_force_wasserstein(space, A: np.ndarray, B: np.ndarray, p: float = 2.0) -> float:
    """Exhaustive minimum over all permutations (N <= 8)."""
    n = len(A)
    assert n <= 8, "brute force oracle is for tiny ensembles"
    cost = space.cross_dist(A, B) ** p
    perms = np.array(list(itertools.permutations(range(n))))
    best = cost[np.arange(n), perms].sum(axis=1).min()
    return float((best / n) ** (1.0 / p))


def grid_minimize(objective, lo: float, hi: float, resolution: float) -> tuple:
    """1-d grid search; returns (argmin, min)."""
    grid = np.arange(lo, hi + resolution, resolution)
    vals = np.asarray([objective(t) for t in grid])
    k = int(np.argmin(vals))
    return float(grid[k]), float(vals[k])


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
