"""Shared oracles for the test suite: brute-force solvers kept deliberately
independent of the library code paths they check, random point clouds, and
the one-chain view of the ensemble engine."""

from __future__ import annotations

import csv
import itertools

import numpy as np
import pytest

from rfilab.geometry import SpiderPoint, SpiderSpace
from rfilab.rfi import ChainConfig, run_ensemble
from rfilab.transport import Ensemble


def brute_force_wasserstein(space, A: np.ndarray, B: np.ndarray, p: float = 2.0) -> float:
    """Exhaustive minimum over all permutations (N <= 8).  Each pair's cost
    comes from ``space.pair_dist`` on repeated rows, plain differences, not
    from the ``cross_dist`` expansion that the solver's costs use."""
    n = len(A)
    assert n <= 8, "brute force oracle is for tiny ensembles"
    cost = space.pair_dist(np.repeat(A, n, axis=0), np.tile(B, (n, 1))).reshape(n, n) ** p
    perms = np.array(list(itertools.permutations(range(n))))
    best = cost[np.arange(n), perms].sum(axis=1).min()
    return float((best / n) ** (1.0 / p))


def cloud(space, n: int, seed: int) -> np.ndarray:
    """``n`` packed points of ``space``: normal coordinates at a random
    scale and offset, or spider points of which about a quarter sit at the
    origin."""
    rng = np.random.default_rng(seed)
    if isinstance(space, SpiderSpace):
        radii = np.where(rng.random(n) < 0.25, 0.0, rng.exponential(size=n))
        return space.pack(np.column_stack([rng.integers(0, space.legs, size=n), radii]))
    x = rng.normal(size=(n, space.dim)) * 10.0 ** rng.uniform(-3, 3) + rng.normal(size=space.dim) * 10.0
    if space.complex_coords:
        x = x + 1j * rng.normal(size=(n, space.dim))
    return space.pack(x)


def write_csv_oracle(ens: Ensemble, path) -> None:
    """An ensemble file as ``csv.writer`` writes it: the column names, then
    one row per particle with the ``repr`` of each value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(ens.column_names())
        for row in ens.rows():
            writer.writerow([repr(float(v)) for v in row])


def grid_minimize(objective, lo: float, hi: float, resolution: float) -> tuple:
    """1-d grid search; returns (argmin, min)."""
    grid = np.arange(lo, hi + resolution, resolution)
    vals = np.asarray([objective(t) for t in grid])
    k = int(np.argmin(vals))
    return float(grid[k]), float(vals[k])


def spider_frechet_mean_grid(space, points, resolution: float = 1e-3) -> SpiderPoint:
    """Brute-force Frechet mean of equal-weight spider points: scan a radius
    grid on every leg."""
    pts = space.pack(points)
    w = np.full(len(pts), 1.0 / len(pts))
    rmax = float(pts[:, 1].max(initial=0.0)) + resolution
    radii = np.arange(0.0, rmax + resolution, resolution)
    best = SpiderPoint(0, 0.0)
    best_val = np.inf
    for leg in range(space.legs):
        for rho in radii:
            cand = np.repeat(np.array([[float(leg), float(rho)]]), len(pts), axis=0)
            val = float(np.sum(w * space.pair_dist(pts, cand) ** 2))
            if val < best_val - 1e-15:
                best_val = val
                best = SpiderPoint(leg, float(rho))
    return best


def phase_error(rho: np.ndarray, rho_star: np.ndarray) -> float:
    """Distance to rho* modulo the global phase ambiguity of magnitude sets."""
    rho = np.asarray(rho, dtype=np.complex128).reshape(-1)
    rho_star = np.asarray(rho_star, dtype=np.complex128).reshape(-1)
    inner = abs(np.sum(rho * rho_star.conj()))
    sq = np.sum(np.abs(rho) ** 2) + np.sum(np.abs(rho_star) ** 2) - 2.0 * inner
    return float(np.sqrt(max(sq, 0.0)))


def chain_path(family, x0, K: int, seed: int) -> list:
    """Points [X_0, ..., X_K] of one chain: ``run_ensemble`` on a one-particle
    ensemble, recording every step."""
    traj = run_ensemble(ChainConfig(family, Ensemble(family.space, [x0]), K, seed))
    return [point(ens, 0) for ens in traj.ensembles]


def point(ens: Ensemble, i: int):
    """Particle ``i`` of an ensemble, unpacked to its space's point type."""
    return ens.space.unpack(ens.points[i : i + 1])[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
