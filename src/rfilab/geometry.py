"""Geodesic metric spaces: Euclidean R^n and the K-leg spider.

Both spaces are nonpositively curved (CAT(0)), which is what makes the
transport-discrepancy machinery in :mod:`rfilab.regularity` nonnegative.
Points live either as plain numpy vectors (Euclidean, real or complex) or
as :class:`SpiderPoint` values.  Ensembles of points are handled through a
"packed" array layout so that distances and geodesics vectorize:

* Euclidean: shape ``(N, dim)`` array of the space dtype.
* Spider: shape ``(N, 2)`` float array with columns ``(leg, radius)``.

The metric (``pair_dist``, ``cross_dist``) and the geodesic (``geodesic_arr``)
act on packed arrays only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "EuclideanSpace",
    "SpiderSpace",
    "SpiderPoint",
    "Space",
]

# rows of |a_i|^2 + |b_j|^2 that EuclideanSpace.cross_dist forms at once:
# a temporary of 64 rows next to the full cost, not a second full matrix
CROSS_DIST_ROWS = 64


def row_blocks(n: int, rows: int):
    """``(lo, hi)`` bounds of consecutive blocks of ``rows`` rows covering
    ``range(n)``.  A last block of one row joins the block before it: numpy
    takes a one-row matrix-vector product as a dot product, whose rounding
    can differ from the matrix kernel's."""
    bounds = list(range(0, n, rows)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


@dataclass(frozen=True)
class SpiderPoint:
    """A point on a K-leg spider: a leg index and a radius from the origin.

    The origin admits one representation per leg; equality must not depend
    on which leg a zero-radius point was built on, so radius 0 is
    canonicalized to leg 0 at construction.
    """

    leg: int
    radius: float

    def __post_init__(self):
        r = float(self.radius)
        if not np.isfinite(r) or r < 0.0:
            raise ValueError(f"spider radius must be finite and >= 0, got {self.radius}")
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "leg", int(self.leg) if r > 0.0 else 0)
        if self.leg < 0:
            raise ValueError(f"spider leg must be >= 0, got {self.leg}")


@dataclass(frozen=True)
class EuclideanSpace:
    """R^dim with the Euclidean norm; complex coordinates model C^dim = R^(2 dim)."""

    dim: int
    complex_coords: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"euclidean dimension must be >= 1, got {self.dim}")

    @property
    def kind(self) -> str:
        return "euclidean"

    @property
    def dtype(self):
        return np.complex128 if self.complex_coords else np.float64

    # -- packing ---------------------------------------------------------
    def pack(self, points) -> np.ndarray:
        arr = np.asarray(points, dtype=self.dtype)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite coordinates in euclidean points")
        return arr

    def unpack(self, arr: np.ndarray) -> list:
        return [np.array(row) for row in arr]

    def validate_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype).reshape(-1)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a point of dimension {self.dim}, got shape {x.shape}")
        return x

    # -- metric ----------------------------------------------------------
    def real_view(self, arr: np.ndarray) -> np.ndarray:
        """Packed rows as real rows: ``[re, im]`` per complex coordinate."""
        if self.complex_coords:
            return np.ascontiguousarray(arr).view(np.float64).reshape(arr.shape[0], -1)
        return arr

    def pair_dist(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Elementwise distances between rows of two packed arrays."""
        d = A - B
        if self.complex_coords:
            return np.sqrt(np.sum((d * d.conj()).real, axis=1))
        return np.sqrt(np.sum(d * d, axis=1))

    def cross_dist(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Full (len(A), len(B)) distance matrix, entry (i, j) the square
        root of max(0, (|a_i|^2 + |b_j|^2) - 2 a_i.b_j), built in the one
        float64 buffer it returns, 8 len(A) len(B) bytes: the sums
        |a_i|^2 + |b_j|^2 are formed CROSS_DIST_ROWS rows at a time."""
        Ar = self.real_view(A)
        Br = self.real_view(B)
        aa = np.sum(Ar * Ar, axis=1)[:, None]
        bb = np.sum(Br * Br, axis=1)[None, :]
        sq = Ar @ Br.T
        sq *= 2.0
        for lo, hi in row_blocks(len(sq), CROSS_DIST_ROWS):
            np.subtract(aa[lo:hi] + bb, sq[lo:hi], out=sq[lo:hi])
        np.maximum(sq, 0.0, out=sq)
        np.sqrt(sq, out=sq)
        return sq

    # -- geodesics -------------------------------------------------------
    def geodesic_arr(self, A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
        return (1.0 - t) * A + t * B


@dataclass(frozen=True)
class SpiderSpace:
    """K half-lines glued at a common origin; distances route through the origin."""

    legs: int

    def __post_init__(self):
        if self.legs < 2:
            raise ValueError(f"spider needs >= 2 legs, got {self.legs}")

    @property
    def kind(self) -> str:
        return "spider"

    # -- packing ---------------------------------------------------------
    def pack(self, points) -> np.ndarray:
        if isinstance(points, np.ndarray) and points.ndim == 2 and points.shape[1] == 2:
            arr = points.astype(np.float64, copy=True)
        else:
            rows = []
            for p in points:
                if isinstance(p, SpiderPoint):
                    rows.append((p.leg, p.radius))
                else:
                    leg, radius = p
                    rows.append((int(leg), float(radius)))
            arr = np.asarray(rows, dtype=np.float64)
            if arr.ndim == 1:
                arr = arr.reshape(1, 2)
        if np.any(arr[:, 1] < 0) or not np.all(np.isfinite(arr)):
            raise ValueError("spider radii must be finite and >= 0")
        if np.any(arr[:, 0] < 0) or np.any(arr[:, 0] >= self.legs) or np.any(arr[:, 0] != np.round(arr[:, 0])):
            raise ValueError(f"spider legs must be integers in [0, {self.legs})")
        arr[arr[:, 1] == 0.0, 0] = 0.0  # canonical origin
        return arr

    def unpack(self, arr: np.ndarray) -> list:
        return [SpiderPoint(int(leg), float(r)) for leg, r in arr]

    def validate_point(self, x) -> SpiderPoint:
        if not isinstance(x, SpiderPoint):
            raise ValueError(f"expected a SpiderPoint, got {type(x).__name__}")
        if x.radius > 0.0 and x.leg >= self.legs:
            raise ValueError(f"leg {x.leg} outside spider with {self.legs} legs")
        return x

    # -- metric ----------------------------------------------------------
    def pair_dist(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        same = A[:, 0] == B[:, 0]
        return np.where(same, np.abs(A[:, 1] - B[:, 1]), A[:, 1] + B[:, 1])

    def cross_dist(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Full (len(A), len(B)) distance matrix, built in the one float64
        buffer it returns (8 len(A) len(B) bytes) next to a boolean
        same-leg mask of len(A) len(B) bytes."""
        same = A[:, 0][:, None] == B[:, 0][None, :]
        ra = A[:, 1][:, None]
        rb = B[:, 1][None, :]
        out = ra + rb
        np.subtract(ra, rb, out=out, where=same)
        np.abs(out, out=out, where=same)
        return out

    # -- geodesics -------------------------------------------------------
    def geodesic_arr(self, A: np.ndarray, B: np.ndarray, t: float) -> np.ndarray:
        same = A[:, 0] == B[:, 0]
        # same leg: interpolate the radius
        r_same = (1.0 - t) * A[:, 1] + t * B[:, 1]
        # different legs: walk down a's leg, through the origin, out b's leg
        s = t * (A[:, 1] + B[:, 1])
        on_a = s <= A[:, 1]
        r_diff = np.where(on_a, A[:, 1] - s, s - A[:, 1])
        leg_diff = np.where(on_a, A[:, 0], B[:, 0])
        out = np.empty_like(A)
        out[:, 0] = np.where(same, A[:, 0], leg_diff)
        out[:, 1] = np.maximum(np.where(same, r_same, r_diff), 0.0)
        out[out[:, 1] == 0.0, 0] = 0.0
        return out


Space = Union[EuclideanSpace, SpiderSpace]
