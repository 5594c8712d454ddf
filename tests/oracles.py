"""Reference helpers that only the tests use: single-point geometry, extra
operators (with their one-row cases for ``test_call_is_apply_on_a_one_row_ensemble``),
a Gaussian pair sampler, ``check_submonotone``, the inner-product oracle of
the a(1/2)-firm violation that ``regularity.estimate_violation`` computes,
the regularity block estimated operator by operator, the two-point
scenario's balanced invariant ensemble, and the contraction and sgd
scenarios' invariant samplers as one unblocked draw."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from rfilab.geometry import EuclideanSpace, Space
from rfilab.operators import Operator, OperatorFamily, _require_euclidean
from rfilab.regularity import MIN_PAIR_DISTANCE, PairSampler, RegularityReport, _rng, psi_estimation_array
from rfilab.rfi import STREAM_INIT
from rfilab.transport import Ensemble


def _packed(space: Space, x) -> np.ndarray:
    return space.pack([space.validate_point(x)])


def distance(space: Space, a, b) -> float:
    """Metric distance between two points of ``space``."""
    return float(space.pair_dist(_packed(space, a), _packed(space, b))[0])


def geodesic_point(space: Space, a, b, t: float):
    """Point w on the geodesic from a to b with d(a, w) = t * d(a, b)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"geodesic parameter must lie in [0, 1], got {t}")
    return space.unpack(space.geodesic_arr(_packed(space, a), _packed(space, b), t))[0]


@dataclass(frozen=True)
class SphereProjection(Operator):
    """Projector onto the sphere of given radius; the origin maps to radius*e0."""

    space: EuclideanSpace
    radius: float = 1.0

    def __post_init__(self):
        _require_euclidean(self.space, "SphereProjection")
        if self.radius <= 0:
            raise ValueError("sphere radius must be > 0")

    def apply(self, pts):
        nrm = np.linalg.norm(pts, axis=1)
        out = np.empty_like(pts)
        zero = nrm == 0.0
        safe = ~zero
        out[safe] = pts[safe] * (self.radius / nrm[safe])[:, None]
        if np.any(zero):
            row = np.zeros(pts.shape[1], dtype=pts.dtype)
            row[0] = self.radius
            out[zero] = row
        return out


@dataclass(frozen=True)
class QuadraticProx(Operator):
    """Prox of f(y) = y'Qy/2 + q'y: solves (lam*Q + I) y = x - lam*q."""

    space: EuclideanSpace
    Q: np.ndarray
    q: np.ndarray
    lam: float = 1.0

    def __post_init__(self):
        _require_euclidean(self.space, "QuadraticProx")
        Q = np.asarray(self.Q, dtype=float)
        if Q.shape != (self.space.dim, self.space.dim):
            raise ValueError(f"Q must be {self.space.dim}x{self.space.dim}")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        if self.lam <= 0:
            raise ValueError(f"prox parameter must be > 0, got {self.lam}")
        q = np.zeros(self.space.dim) if self.q is None else np.asarray(self.q, dtype=float)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_system", self.lam * Q + np.eye(self.space.dim))

    def apply(self, pts):
        rhs = (pts - self.lam * self.q).T
        return np.linalg.solve(self._system, rhs).T


@dataclass(frozen=True)
class SoftThreshold(Operator):
    """Prox of threshold * ||.||_1: componentwise shrinkage."""

    space: EuclideanSpace
    threshold: float

    def __post_init__(self):
        _require_euclidean(self.space, "SoftThreshold")
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")

    def apply(self, pts):
        return np.sign(pts) * np.maximum(np.abs(pts) - self.threshold, 0.0)


_R2 = EuclideanSpace(2)
_Q, _q = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.1])
SINGLE_PATH_CASES = {
    SphereProjection: lambda: (SphereProjection(_R2, 2.0), [0.3, -0.7]),
    QuadraticProx: lambda: (QuadraticProx(_R2, _Q, _q, 0.7), [0.3, -0.7]),
    SoftThreshold: lambda: (SoftThreshold(_R2, 0.4), [0.3, -0.7]),
}


@dataclass(frozen=True)
class GaussianPairSampler(PairSampler):
    """Pairs drawn as center + scale * standard normal perturbations."""

    space: EuclideanSpace
    center: np.ndarray
    scale: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "center", self.space.validate_point(self.center))

    def pairs(self, n: int):
        gen = _rng(self.seed)
        shape = (2, n, self.space.dim)
        if self.space.complex_coords:
            noise = gen.normal(size=shape) + 1j * gen.normal(size=shape)
        else:
            noise = gen.normal(size=shape)
        pts = self.center[None, None, :] + self.scale * noise
        return pts[0], pts[1]

    def describe(self) -> str:
        return f"gaussian around a center point, scale {self.scale} ({self.space.kind})"


def check_submonotone(resolvent: Operator, sampler: PairSampler, n_pairs: int) -> float:
    """Smallest tau_g making the resolvent's graph submonotonicity hold on the sample.

    With x+ = J(x), z = x - x+ (and likewise y+, w), the inequality is
    -(tau_g/2) ||x - y||^2 <= <z - w, x+ - y+>; the returned value is the
    sampled a(1/2)-firm violation of J.
    """
    A, B = sampler.pairs(n_pairs)
    Ap = resolvent.apply(A)
    Bp = resolvent.apply(B)
    dx = A - B
    d2 = np.sum((dx * np.conj(dx)).real, axis=1)
    keep = d2 >= MIN_PAIR_DISTANCE**2
    z = (A - Ap)[keep]
    w = (B - Bp)[keep]
    inner = np.sum(((z - w) * np.conj((Ap - Bp)[keep])).real, axis=1)
    return float(np.max(-2.0 * inner / d2[keep]))


def balanced_two_point(space: Space, n: int) -> Ensemble:
    """The exact invariant ensemble of the two-point scenario: n//2 points
    at -1 and the rest at +1."""
    return Ensemble(space, np.where(np.arange(n) < n // 2, -1.0, 1.0)[:, None])


def contraction_invariant_unblocked(r: float, n: int, seed: int) -> np.ndarray:
    """Points of ``scenario_contraction(r)``'s invariant sampler, drawn as one
    (n, depth) sign matrix: sum_j r^j zeta_j truncated at depth terms."""
    depth = max(8, int(math.ceil(math.log(1e-16) / math.log(r))))
    gen = np.random.default_rng(np.random.SeedSequence((int(seed), STREAM_INIT)))
    signs = gen.choice([-1.0, 1.0], size=(n, depth))
    return (signs @ r ** np.arange(depth)).reshape(n, 1)


def sgd_invariant_unblocked(Q, q, atoms, t: float, n: int, seed: int) -> np.ndarray:
    """Points of ``scenario_sgd_linear_noise(Q, q=q, atoms=atoms, t=t)``'s
    invariant sampler, drawn with one (n, depth) atom-index matrix:
    sum_j (I - tQ)^j (-t)(zeta_j + q) truncated at depth terms."""
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    zmat = np.asarray(atoms, dtype=float)
    M = np.eye(len(Q)) - t * Q
    rho = float(np.max(np.abs(np.linalg.eigvals(M))))
    depth = max(8, int(math.ceil(math.log(1e-16) / math.log(max(rho, 1e-16)))))
    gen = np.random.default_rng(np.random.SeedSequence((int(seed), STREAM_INIT)))
    idx = gen.integers(0, len(zmat), size=(n, depth))
    pts = np.zeros((n, len(Q)))
    power = np.eye(len(Q))
    for j in range(depth):
        pts += (-t) * (zmat[idx[:, j]] + q) @ power.T
        power = power @ M.T
    return pts


def _violation_separately(family: OperatorFamily, alpha: float, sampler: PairSampler, n_pairs: int):
    """The family's violation estimate from its own draw of the pairs."""
    A, B = sampler.pairs(n_pairs)
    space = family.space
    d2F = np.zeros(len(A))
    psi = np.zeros(len(A))
    for w, op in zip(family.weights, family.operators):
        if w == 0.0:
            continue
        FA = op.apply(A)
        FB = op.apply(B)
        d2F += w * space.pair_dist(FA, FB) ** 2
        psi += w * psi_estimation_array(space, A, B, FA, FB)
    d2 = space.pair_dist(A, B) ** 2
    keep = d2 >= MIN_PAIR_DISTANCE**2
    ratio = (d2F[keep] + ((1.0 - alpha) / alpha) * psi[keep] - d2[keep]) / d2[keep]
    k = int(np.argmax(ratio))
    idx = np.flatnonzero(keep)[k]
    pair = (A[idx], B[idx])
    if np.iscomplexobj(A):
        pair = tuple(np.stack([row.real, row.imag], axis=1) for row in pair)
    return RegularityReport(alpha, max(0.0, float(ratio[k])), tuple(row.tolist() for row in pair), n_pairs,
                            int(keep.sum()), sampler.describe())


def regularity_block_separately(family: OperatorFamily, alpha: float, sampler: PairSampler, n_pairs: int) -> dict:
    """The report's ``regularity`` block from K + 1 separate estimates: each
    operator alone at weight 1, then the family, each drawing the pairs
    again and applying its operators to them."""
    return {
        "alpha": alpha,
        "per_operator": [asdict(_violation_separately(OperatorFamily((op,), [1.0]), alpha, sampler, n_pairs))
                         for op in family.operators],
        "in_expectation": asdict(_violation_separately(family, alpha, sampler, n_pairs)),
    }
