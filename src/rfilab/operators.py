"""Self-mappings on geodesic spaces and the weighted families driving the chains.

Every operator is immutable after construction and maps points of one
declared space.  ``apply`` on a packed (N, ...) point array is the one
implementation of each map; ``op(x)`` on a single point packs it as a
one-row ensemble, applies, and unpacks.  ``apply`` returns a new array
that the caller owns: it never returns its input or a view of it.  The
composite operators rely on this and finish their result in place, in
the array their inner operator returned, so each particle step allocates
its result once.  Families pair a finite operator list with an explicit
sampling weight vector, which keeps index expectations exactly
computable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import EuclideanSpace, Space, SpiderPoint, SpiderSpace

__all__ = [
    "Operator",
    "OperatorFamily",
    "SmoothTerm",
    "Identity",
    "AffineMap",
    "PointProjection",
    "HyperplaneProjection",
    "MagnitudeProjection",
    "SupportRealityProjection",
    "RelaxedProjection",
    "Reflection",
    "ForwardBackward",
    "DouglasRachford",
    "SpiderProx",
    "UnsupportedSpaceError",
    "quadratic_smooth_term",
]


class UnsupportedSpaceError(TypeError):
    """Operation requires vector-space structure the given space lacks."""


def _require_euclidean(space: Space, what: str) -> EuclideanSpace:
    if not isinstance(space, EuclideanSpace):
        raise UnsupportedSpaceError(f"{what} requires a Euclidean space, got {space.kind}")
    return space


def _require_same_space(space: Space, *parts: Operator) -> None:
    for part in parts:
        if part.space != space:
            raise ValueError(f"component operator lives on {part.space}, not on {space}")


class Operator(ABC):
    """Deterministic self-mapping on its declared space."""

    space: Space

    def __call__(self, x):
        """Evaluate one point as a one-row ensemble through ``apply``."""
        x = self.space.validate_point(x)
        return self.space.unpack(self.apply(self.space.pack([x])))[0]

    @abstractmethod
    def apply(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate on a packed (N, ...) array of points.

        Returns a new array of the input's shape and dtype, which the caller
        owns and may write to; ``pts`` is left unchanged.  An operator that
        returned ``pts`` or a view of it would be overwritten by the
        composites (``Reflection``, ``DouglasRachford``, ...) that finish
        their result in place.
        """


# ---------------------------------------------------------------------------
# terms entering the splitting schemes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothTerm:
    """The quadratic f(x) = x'Qx/2 + <q + zeta, x> and its regularity constants.

    ``grad`` maps stacked (N, dim) points to their (N, dim) gradients
    ``(x Q + q) + zeta``.  ``zeta`` is one noise atom's linear perturbation:
    zero from :func:`quadratic_smooth_term`, the one constructor, and set
    with ``dataclasses.replace``.  ``lipschitz`` is the gradient's Lipschitz
    constant; ``tau`` is the hypomonotonicity violation (negative for
    strongly monotone gradients).
    """

    Q: np.ndarray
    q: np.ndarray
    lipschitz: float
    tau: float
    zeta: np.ndarray

    def grad(self, x: np.ndarray) -> np.ndarray:
        return (x @ self.Q + self.q) + self.zeta


def quadratic_smooth_term(Q: np.ndarray, q: Optional[np.ndarray] = None) -> SmoothTerm:
    """f(x) = x'Qx/2 + q'x for symmetric Q, with exact (L, tau) from the spectrum."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("Q must be a square matrix")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ValueError("Q must be symmetric")
    q = np.zeros(Q.shape[0]) if q is None else np.asarray(q, dtype=float).reshape(-1)
    eig = np.linalg.eigvalsh(Q)
    L = float(max(np.max(np.abs(eig)), 1e-300))
    return SmoothTerm(Q, q, lipschitz=L, tau=float(-eig.min()), zeta=np.zeros(Q.shape[0]))


# ---------------------------------------------------------------------------
# elementary operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Identity(Operator):
    space: Space

    def apply(self, pts):
        return np.array(pts, copy=True)


@dataclass(frozen=True)
class AffineMap(Operator):
    """x -> scale * x + shift on Euclidean space (scalar or matrix scale)."""

    space: EuclideanSpace
    scale: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        _require_euclidean(self.space, "AffineMap")
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=self.space.dtype))
        object.__setattr__(self, "shift", self.space.validate_point(self.shift))

    def apply(self, pts):
        out = pts @ self.scale.T if self.scale.ndim == 2 else self.scale * pts
        out += self.shift
        return out


@dataclass(frozen=True)
class PointProjection(Operator):
    """Projector onto the singleton {target}: a constant map."""

    space: Space
    target: object

    def __post_init__(self):
        object.__setattr__(self, "target", self.space.validate_point(self.target))

    def apply(self, pts):
        row = self.space.pack([self.target])
        return np.repeat(row, len(pts), axis=0)


@dataclass(frozen=True)
class HyperplaneProjection(Operator):
    """Orthogonal projector onto {x : <normal, x> = offset}."""

    space: EuclideanSpace
    normal: np.ndarray
    offset: float

    def __post_init__(self):
        _require_euclidean(self.space, "HyperplaneProjection")
        a = np.asarray(self.normal, dtype=float).reshape(-1)
        if a.shape != (self.space.dim,):
            raise ValueError(f"normal must have dimension {self.space.dim}")
        nrm2 = float(a @ a)
        if nrm2 == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", a)
        object.__setattr__(self, "_nrm2", nrm2)

    def apply(self, pts):
        resid = pts @ self.normal
        resid -= self.offset
        resid /= self._nrm2
        out = resid[:, None] * self.normal
        return np.subtract(pts, out, out=out)


@dataclass(frozen=True)
class MagnitudeProjection(Operator):
    """Projector onto {rho : |DFT(mask * rho)| = magnitudes} via the unitary DFT.

    The mask must have unit modulus so the masked DFT is unitary and the
    pullback of the per-coordinate circle projection is the exact metric
    projection.  Zero DFT coefficients take phase 1 (deterministic tie-break).
    """

    space: EuclideanSpace
    magnitudes: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        space = _require_euclidean(self.space, "MagnitudeProjection")
        if not space.complex_coords:
            raise UnsupportedSpaceError("MagnitudeProjection needs complex coordinates")
        m = np.asarray(self.magnitudes, dtype=float).reshape(-1)
        if m.shape != (space.dim,):
            raise ValueError(f"magnitudes must have dimension {space.dim}")
        if np.any(m < 0):
            raise ValueError("magnitudes must be nonnegative")
        object.__setattr__(self, "magnitudes", m)
        mask = np.asarray(self.mask, dtype=np.complex128).reshape(-1)
        if mask.shape != (space.dim,):
            raise ValueError(f"mask must have dimension {space.dim}")
        if not np.allclose(np.abs(mask), 1.0, atol=1e-12):
            raise ValueError("mask entries must have unit modulus")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_mask_conj", mask.conj())

    def apply(self, pts):
        Z = np.fft.fft(pts * self.mask, axis=1, norm="ortho")
        mag = np.abs(Z)
        if mag.all():
            np.divide(Z, mag, out=Z)
            Z *= self.magnitudes
        else:  # some coefficient is exactly 0: it takes phase 1
            zero = mag == 0.0
            Z = self.magnitudes * np.where(zero, 1.0 + 0.0j, Z / np.where(zero, 1.0, mag))
        out = np.fft.ifft(Z, axis=1, norm="ortho")
        out *= self._mask_conj
        return out


@dataclass(frozen=True)
class SupportRealityProjection(Operator):
    """Projector onto {rho complex : rho real, rho zero off the support mask}."""

    space: EuclideanSpace
    support: np.ndarray

    def __post_init__(self):
        space = _require_euclidean(self.space, "SupportRealityProjection")
        if not space.complex_coords:
            raise UnsupportedSpaceError("SupportRealityProjection needs complex coordinates")
        s = np.asarray(self.support, dtype=bool).reshape(-1)
        if s.shape != (space.dim,):
            raise ValueError(f"support mask must have dimension {space.dim}")
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "_off_support", ~s)

    def apply(self, pts):
        out = pts.real.astype(np.complex128)
        np.copyto(out, 0.0, where=self._off_support)
        return out


@dataclass(frozen=True)
class RelaxedProjection(Operator):
    """x -> x + relax * (P(x) - x); for convex targets this is the resolvent of
    the scaled squared distance (relax/(2*(1-relax))) * dist^2."""

    space: Space
    projector: Operator
    relax: float

    def __post_init__(self):
        if not 0.0 < self.relax <= 1.0:
            raise ValueError(f"relaxation must lie in (0, 1], got {self.relax}")
        _require_same_space(self.space, self.projector)

    def apply(self, pts):
        proj = self.projector.apply(pts)
        proj -= pts
        proj *= self.relax
        proj += pts
        return proj


@dataclass(frozen=True)
class Reflection(Operator):
    """Reflected resolvent 2*op - Id (Euclidean only)."""

    space: EuclideanSpace
    op: Operator

    def __post_init__(self):
        _require_euclidean(self.space, "Reflection")
        _require_same_space(self.space, self.op)

    def apply(self, pts):
        out = self.op.apply(pts)
        out *= 2.0
        out -= pts
        return out


@dataclass(frozen=True)
class ForwardBackward(Operator):
    """x -> J_g(x - step * grad f(x)); with J_g the identity, a plain gradient step."""

    space: EuclideanSpace
    g_resolvent: Operator
    smooth: SmoothTerm
    step: float

    def __post_init__(self):
        _require_euclidean(self.space, "ForwardBackward")
        if self.step <= 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        _require_same_space(self.space, self.g_resolvent)

    def apply(self, pts):
        g = self.smooth.grad(pts)
        g *= self.step
        return self.g_resolvent.apply(np.subtract(pts, g, out=g))


@dataclass(frozen=True)
class DouglasRachford(Operator):
    """x -> (R_f(R_g(x)) + x) / 2 built from two resolvents."""

    space: EuclideanSpace
    f_resolvent: Operator
    g_resolvent: Operator

    def __post_init__(self):
        _require_euclidean(self.space, "DouglasRachford")
        _require_same_space(self.space, self.f_resolvent, self.g_resolvent)
        object.__setattr__(self, "_reflect_f", Reflection(self.space, self.f_resolvent))
        object.__setattr__(self, "_reflect_g", Reflection(self.space, self.g_resolvent))

    def apply(self, pts):
        out = self._reflect_f.apply(self._reflect_g.apply(pts))
        out += pts
        out *= 0.5
        return out


@dataclass(frozen=True)
class SpiderProx(Operator):
    """Prox of (1/2) d(., anchor)^2 on the spider: slide toward the anchor by
    the fraction lam/(1+lam) of the connecting geodesic."""

    space: SpiderSpace
    anchor: SpiderPoint
    lam: float

    def __post_init__(self):
        if not isinstance(self.space, SpiderSpace):
            raise ValueError("SpiderProx requires a spider space")
        if self.lam <= 0:
            raise ValueError(f"prox parameter must be > 0, got {self.lam}")
        self.space.validate_point(self.anchor)
        object.__setattr__(self, "_t", self.lam / (1.0 + self.lam))
        object.__setattr__(self, "_anchor_row", self.space.pack([self.anchor]))

    def apply(self, pts):
        anchors = np.repeat(self._anchor_row, len(pts), axis=0)
        return self.space.geodesic_arr(pts, anchors, self._t)


# ---------------------------------------------------------------------------
# weighted families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatorFamily:
    """Finite list of operators with a probability vector over their indices."""

    operators: tuple
    weights: np.ndarray

    def __post_init__(self):
        ops = tuple(self.operators)
        if not ops:
            raise ValueError("operator family must be nonempty")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape != (len(ops),):
            raise ValueError("weights length must match operator count")
        bad = ~np.isfinite(w)
        if bad.any():
            raise ValueError(f"weights must be finite, got {w[bad].tolist()} at indices {np.flatnonzero(bad).tolist()}")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
        space = ops[0].space
        for op in ops[1:]:
            if op.space != space:
                raise ValueError("all operators in a family must share one space")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "weights", w)
        cum = np.cumsum(w)
        cum[-1] = max(cum[-1], np.nextafter(1.0, 2.0))
        object.__setattr__(self, "_cum", cum)

    @classmethod
    def uniform(cls, operators: Sequence[Operator]) -> "OperatorFamily":
        n = len(operators)
        return cls(tuple(operators), np.full(n, 1.0 / max(n, 1)))  # n = 0 fails as the constructor does

    @property
    def space(self) -> Space:
        return self.operators[0].space

    def __len__(self) -> int:
        return len(self.operators)

    def sample_indices(self, uniforms: np.ndarray) -> np.ndarray:
        """Map uniform(0,1) draws to operator indices by inverse CDF: the
        number of cumulative weights at or below each draw, counted by one
        comparison per interior weight.  For draws in [0, 1) this is
        ``np.searchsorted(self._cum, uniforms, side="right")``, since the
        last cumulative weight exceeds 1."""
        u = np.asarray(uniforms)
        idx = np.zeros(u.shape, dtype=np.intp)
        for c in self._cum[:-1]:
            idx += u >= c
        return idx

    def apply_index(self, idx: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Apply operator idx[k] to row k of a packed array.  Each operator
        gets its rows in increasing order as an index list, which gathers and
        scatters faster than the equivalent boolean mask at large N."""
        out = np.empty_like(pts)
        for i, op in enumerate(self.operators):
            rows = np.flatnonzero(idx == i)
            if rows.size:
                out[rows] = op.apply(pts.take(rows, axis=0))
        return out
