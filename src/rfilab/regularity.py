"""Transport discrepancy and empirical almost-firm-nonexpansiveness estimates.

The central quantity is the six-distance combination

    psi(x, x0, Fx, Fx0) = d^2(Fx, x) + d^2(Fx0, x0) + d^2(Fx, Fx0)
                          + d^2(x, x0) - d^2(Fx, x0) - d^2(x, Fx0)

which is nonnegative on CAT(0) spaces and, in inner-product spaces, equals
the squared difference of displacements ||(x - Fx) - (x0 - Fx0)||^2.

A mapping F is almost alpha-firmly nonexpansive with constant alpha and
violation eps when

    d^2(Fx, Fy) <= (1 + eps) d^2(x, y) - ((1 - alpha)/alpha) psi(x, y, Fx, Fy).

The estimator below computes, over a sampled pair region, the smallest
violation making that inequality hold pair by pair, and reports the max:
for each operator of a family, and in expectation over the family's index.
It draws the pairs once and applies each operator once to each pair, so
the family's terms are sums of the operators' own.  Every term is a
function of its own pair's rows, so the operators run on fixed blocks of
rows, and only one block's images and temporaries exist at a time.  This is a sampled lower
bound on the true violation, never a certificate; the sampling region
travels with the report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import EuclideanSpace, Space, SpiderSpace, row_blocks
from .operators import Operator, OperatorFamily

__all__ = [
    "PairSampler",
    "BoxPairSampler",
    "SpiderPairSampler",
    "RegularityReport",
    "RegularityBlock",
    "psi_array",
    "estimate_violation",
    "estimate_violation_in_expectation",
    "fb_violation_bound",
    "dr_violation_bound",
]

# pairs closer than this are skipped: the defining inequalities degenerate
MIN_PAIR_DISTANCE = 1e-12
# pairs whose images and per-pair terms are computed at once
VIOLATION_ROWS = 256


def psi_array(space: Space, X: np.ndarray, X0: np.ndarray, FX: np.ndarray, FX0: np.ndarray) -> np.ndarray:
    """Vectorized transport discrepancy over rows of packed point arrays.

    In inner-product spaces the six-distance combination equals the squared
    displacement difference ||(x - Fx) - (x0 - Fx0)||^2 identically; that
    representation is free of the cancellation noise the six distance
    squares accumulate, so it is used there.  Elsewhere the definition
    applies directly.
    """
    if isinstance(space, EuclideanSpace):
        d = (X - FX) - (X0 - FX0)
        return np.sum((d * d.conj()).real, axis=1)
    d = space.pair_dist
    return (
        d(FX, X) ** 2
        + d(FX0, X0) ** 2
        + d(FX, FX0) ** 2
        + d(X, X0) ** 2
        - d(FX, X0) ** 2
        - d(X, FX0) ** 2
    )


# ---------------------------------------------------------------------------
# pair samplers (the sampling region is configuration, and is reported)
# ---------------------------------------------------------------------------

class PairSampler:
    """Draws packed point-pair arrays from a declared region, reproducibly."""

    space: Space

    def pairs(self, n: int) -> tuple:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, 0x5A17, 0)))


@dataclass(frozen=True)
class BoxPairSampler(PairSampler):
    """Uniform pairs from the axis box [low, high]^dim (complex: both parts)."""

    space: EuclideanSpace
    low: float
    high: float
    seed: int

    def pairs(self, n: int):
        gen = _rng(self.seed)
        shape = (2, n, self.space.dim)
        if self.space.complex_coords:
            pts = np.empty(shape, dtype=complex)
            pts.real = gen.uniform(self.low, self.high, size=shape)
            pts.imag = gen.uniform(self.low, self.high, size=shape)
        else:
            pts = gen.uniform(self.low, self.high, size=shape)
        return pts[0], pts[1]

    def describe(self) -> str:
        return f"uniform box [{self.low}, {self.high}]^{self.space.dim} ({self.space.kind})"


@dataclass(frozen=True)
class SpiderPairSampler(PairSampler):
    """Uniform leg, uniform radius in [0, max_radius] on each side of the pair."""

    space: SpiderSpace
    max_radius: float
    seed: int

    def pairs(self, n: int):
        gen = _rng(self.seed)
        legs = gen.integers(0, self.space.legs, size=(2, n))
        radii = gen.uniform(0.0, self.max_radius, size=(2, n))
        A = self.space.pack(np.stack([legs[0], radii[0]], axis=1))
        B = self.space.pack(np.stack([legs[1], radii[1]], axis=1))
        return A, B

    def describe(self) -> str:
        return f"uniform legs x radius [0, {self.max_radius}] on {self.space.legs}-spider"


# ---------------------------------------------------------------------------
# violation estimation
# ---------------------------------------------------------------------------

@dataclass
class RegularityReport:
    """Sampled violation estimate for a fixed constant alpha, written to the
    report as ``dataclasses.asdict`` gives it.  ``worst_pair`` holds the
    packed rows of the pair that attains ``epsilon_hat``, as JSON lists: a
    float per coordinate, ``[re, im]`` per complex coordinate, and
    ``[leg, radius]`` on the spider."""

    alpha: float
    epsilon_hat: float
    worst_pair: tuple
    n_pairs: int
    n_used: int
    region: str


@dataclass
class RegularityBlock:
    """The report's ``regularity`` block, as ``dataclasses.asdict`` gives
    it: the constant ``alpha``, one report per operator of the family, in
    order, and the report in expectation over the family's index."""

    alpha: float
    per_operator: list
    in_expectation: RegularityReport


def estimate_violation(op: Operator, alpha: float, sampler: PairSampler, n_pairs: int) -> RegularityReport:
    """Smallest sampled violation of the alpha-firm inequality for one
    operator: the family estimate of ``op`` alone, at weight 1."""
    return estimate_violation_in_expectation(OperatorFamily((op,), [1.0]), alpha, sampler, n_pairs).in_expectation


def estimate_violation_in_expectation(
    family: OperatorFamily, alpha: float, sampler: PairSampler, n_pairs: int
) -> RegularityBlock:
    """Smallest sampled violation of the alpha-firm inequality for each
    operator of the family, and in expectation over its index, with exact
    weights, from one draw of ``n_pairs`` pairs.  Each operator is applied
    once to each side of the pairs, VIOLATION_ROWS pairs at a time; its
    report comes from its own terms, and the family's from their weighted
    sums, which skip zero weights."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if n_pairs < 1:
        raise ValueError("need at least one pair")
    A, B = sampler.pairs(n_pairs)
    space = family.space
    blocks = row_blocks(len(A), VIOLATION_ROWS)
    d2 = np.concatenate([space.pair_dist(A[lo:hi], B[lo:hi]) ** 2 for lo, hi in blocks])
    keep = d2 >= MIN_PAIR_DISTANCE**2
    if not np.any(keep):
        raise ValueError("all sampled pairs are degenerate (coincident points)")
    region = sampler.describe()

    def report(d2F: np.ndarray, psi: np.ndarray) -> RegularityReport:
        ratio = (d2F[keep] + ((1.0 - alpha) / alpha) * psi[keep] - d2[keep]) / d2[keep]
        k = int(np.argmax(ratio))
        idx = np.flatnonzero(keep)[k]
        pair = (A[idx], B[idx])
        if np.iscomplexobj(A):
            pair = tuple(space.real_view(row[None]).reshape(-1, 2) for row in pair)
        return RegularityReport(
            alpha=alpha,
            epsilon_hat=max(0.0, float(ratio[k])),
            worst_pair=tuple(row.tolist() for row in pair),
            n_pairs=n_pairs,
            n_used=int(keep.sum()),
            region=region,
        )

    d2F = np.zeros(len(A))
    psi = np.zeros(len(A))
    per_operator = []
    for w, op in zip(family.weights, family.operators):
        d2F_op = np.empty(len(A))
        psi_op = np.empty(len(A))
        for lo, hi in blocks:
            a, b = A[lo:hi], B[lo:hi]
            Fa, Fb = op.apply(a), op.apply(b)
            d2F_op[lo:hi] = space.pair_dist(Fa, Fb) ** 2
            psi_op[lo:hi] = psi_array(space, a, b, Fa, Fb)
        per_operator.append(report(d2F_op, psi_op))
        if w != 0.0:
            d2F += w * d2F_op
            psi += w * psi_op
    return RegularityBlock(alpha, per_operator, report(d2F, psi))


# ---------------------------------------------------------------------------
# closed-form violation bounds for the splitting schemes
# ---------------------------------------------------------------------------

def fb_violation_bound(t: float, L: float, tau_f: float, tau_g: float) -> float:
    """Forward-backward violation bound max{0, (1+2*tau_g)(1+t(2*tau_f+2*t*L^2)) - 1}."""
    if t <= 0 or L <= 0:
        raise ValueError("step and Lipschitz constant must be > 0")
    return max(0.0, (1.0 + 2.0 * tau_g) * (1.0 + t * (2.0 * tau_f + 2.0 * t * L * L)) - 1.0)


def dr_violation_bound(tau_f: float, tau_g: float) -> float:
    """Douglas-Rachford violation bound ((1+2*tau_g)(1+2*tau_f) - 1)/2, clamped at 0."""
    return max(0.0, 0.5 * ((1.0 + 2.0 * tau_g) * (1.0 + 2.0 * tau_f) - 1.0))
