"""The random function iteration engine.

A chain applies a randomly selected member of an operator family at every
step; an ensemble run evolves N particles, each under its own i.i.d. index
stream.  Randomness is counter-based: the index draws for step k of a run
come from a Philox generator keyed by (seed, stream, k), so the draw for
particle p at step k is a pure function of (seed, p, k).  Work can be
partitioned across any number of workers without changing a single output
bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List

import numpy as np

from .operators import OperatorFamily
from .transport import Ensemble

__all__ = ["ChainConfig", "Trajectory", "run_chain", "run_ensemble", "derive_seed"]

# stream namespaces keeping independent uses of one seed from colliding
STREAM_STEP = 0
STREAM_CHAIN = 1
STREAM_INIT = 2
STREAM_BURNIN = 3


def _generator(seed: int, stream: int, step: int = 0) -> np.random.Generator:
    key = np.random.SeedSequence((int(seed), int(stream), int(step))).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, tag: int) -> int:
    """Deterministic 63-bit child seed for auxiliary runs (burn-in, floors)."""
    return int(np.random.SeedSequence((int(seed), int(tag))).generate_state(1, np.uint64)[0] >> 1)


@dataclass(frozen=True)
class ChainConfig:
    """One ensemble experiment: family, initial ensemble, horizon, seed."""

    family: OperatorFamily
    initial: Ensemble
    iterations: int
    seed: int
    record_every: int = 1
    common_noise: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iteration count must be >= 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.family.space != self.initial.space:
            raise ValueError("family and initial ensemble live in different spaces")


@dataclass
class Trajectory:
    """Recorded ensembles along a run with their step numbers."""

    steps: List[int]
    ensembles: List[Ensemble]

    def final(self) -> Ensemble:
        return self.ensembles[-1]

    def ensemble_at(self, step: int) -> Ensemble:
        return self.ensembles[self.steps.index(step)]


def run_chain(family: OperatorFamily, x0, K: int, seed: int) -> list:
    """Single-chain path [X_0, ..., X_K] under i.i.d. operator selection."""
    if K < 0:
        raise ValueError("iteration count must be >= 0")
    space = family.space
    x = space.validate_point(x0)
    gen = _generator(seed, STREAM_CHAIN)
    idx = family.sample_indices(gen.random(K)) if K > 0 else np.empty(0, dtype=np.intp)
    path = [x]
    for k in range(K):
        x = family.operators[int(idx[k])](x)
        path.append(x)
    return path


def _step(family: OperatorFamily, pts: np.ndarray, idx: np.ndarray, workers: int) -> np.ndarray:
    if workers <= 1 or len(pts) < 2 * workers:
        return family.apply_index(idx, pts)
    out = np.empty_like(pts)
    bounds = np.linspace(0, len(pts), workers + 1, dtype=int)

    def work(lo: int, hi: int) -> None:
        out[lo:hi] = family.apply_index(idx[lo:hi], pts[lo:hi])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        for fut in futures:
            fut.result()
    return out


def run_ensemble(cfg: ChainConfig) -> Trajectory:
    """Evolve the particle ensemble; particle p's draw at step k depends only
    on (seed, p, k), never on the worker layout."""
    family = cfg.family
    pts = cfg.initial.points.copy()
    n = len(pts)
    recorded_steps = [0]
    ensembles = [Ensemble(cfg.initial.space, pts)]
    for k in range(cfg.iterations):
        gen = _generator(cfg.seed, STREAM_STEP, k)
        if cfg.common_noise:
            idx = np.full(n, family.sample_indices(gen.random(1))[0], dtype=np.intp)
        else:
            idx = family.sample_indices(gen.random(n))
        pts = _step(family, pts, idx, cfg.workers)
        step = k + 1
        if step % cfg.record_every == 0 or step == cfg.iterations:
            recorded_steps.append(step)
            ensembles.append(Ensemble(cfg.initial.space, pts))
    return Trajectory(steps=recorded_steps, ensembles=ensembles)
