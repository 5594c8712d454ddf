"""The random function iteration engine.

A chain applies a randomly selected member of an operator family at every
step; an ensemble run evolves N particles, each under its own i.i.d. index
stream.  Randomness is counter-based: the index draws for step k of a run
come from a Philox generator keyed by (seed, stream, k), so the draw for
particle p at step k is a pure function of (seed, p, k): the first M
particles of an N-particle run take the same draws as an M-particle run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .operators import OperatorFamily
from .transport import Ensemble

__all__ = ["ChainConfig", "Trajectory", "run_ensemble", "derive_seed", "recorded_steps"]

# stream namespaces keeping independent uses of one seed from colliding; the
# numbers key every draw, so they stay fixed (stream 1 is no longer used)
STREAM_STEP = 0
STREAM_INIT = 2
STREAM_BURNIN = 3


def _generator(seed: int, stream: int, step: int = 0) -> np.random.Generator:
    key = np.random.SeedSequence((int(seed), int(stream), int(step))).generate_state(2, np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, tag: int) -> int:
    """Deterministic 63-bit child seed for auxiliary runs (burn-in, floors)."""
    return int(np.random.SeedSequence((int(seed), int(tag))).generate_state(1, np.uint64)[0] >> 1)


def recorded_steps(iterations: int, record_every: int) -> List[int]:
    """Step 0, every ``record_every``-th step and the last step."""
    return sorted({0, iterations, *range(record_every, iterations + 1, record_every)})


@dataclass(frozen=True)
class ChainConfig:
    """One ensemble experiment: family, initial ensemble, horizon, seed."""

    family: OperatorFamily
    initial: Ensemble
    iterations: int
    seed: int
    record_every: int = 1

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iteration count must be >= 0")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.family.space != self.initial.space:
            raise ValueError("family and initial ensemble live in different spaces")


@dataclass
class Trajectory:
    """Recorded ensembles along a run with their step numbers."""

    steps: List[int]
    ensembles: List[Ensemble]

    def final(self) -> Ensemble:
        return self.ensembles[-1]


def run_ensemble(cfg: ChainConfig) -> Trajectory:
    """Evolve the particle ensemble; particle p's draw at step k depends only
    on (seed, p, k), never on the ensemble size.  Only recorded steps are
    checked, so a recorded step with a non-finite coordinate raises a
    ValueError saying the chain diverged at or before that step; numpy's
    overflow and invalid-value warnings are off while the chain steps (the
    last step is always recorded, so the error still comes)."""
    family = cfg.family
    pts = cfg.initial.points.copy()
    n = len(pts)
    steps = recorded_steps(cfg.iterations, cfg.record_every)
    record = set(steps)
    ensembles = [Ensemble(cfg.initial.space, pts)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.iterations):
            gen = _generator(cfg.seed, STREAM_STEP, k)
            idx = family.sample_indices(gen.random(n))
            pts = family.apply_index(idx, pts)
            if k + 1 in record:
                try:
                    ensembles.append(Ensemble(cfg.initial.space, pts))
                except ValueError as exc:
                    raise ValueError(f"the chain diverged at or before step {k + 1}: {exc}") from exc
    return Trajectory(steps=steps, ensembles=ensembles)
