"""Exact optimal transport between equal-size empirical measures.

Restricting to equal-size, equal-weight ensembles turns Wasserstein
distances into assignment problems with exact solvers and explicit optimal
couplings (permutations).  On the real line the sorted matching is optimal
and used directly; elsewhere the cost matrix goes through an exact
assignment solver.  Weighted finite measures (needed only for the coarse
Ricci estimator's point-mass push-forwards) are handled by a small
transportation LP.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from .geometry import EuclideanSpace, Space, SpiderSpace
from .operators import OperatorFamily
from .regularity import psi_estimation_array

__all__ = [
    "Ensemble",
    "Coupling",
    "wasserstein",
    "markov_transport_discrepancy",
    "coarse_ricci_estimate",
]


# exact W_p solves made by this process, by path (`rfilab run` reports them)
SOLVES = {"assignment": 0, "sorted": 0}


@dataclass(frozen=True)
class Ensemble:
    """Equal-weight empirical measure: N particles of one space, packed."""

    space: Space
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", self.space.pack(self.points).copy())
        if len(self.points) < 1:
            raise ValueError("ensemble needs at least one particle")

    @classmethod
    def from_points(cls, space: Space, points) -> "Ensemble":
        return cls(space, space.pack(points))

    def __len__(self) -> int:
        return len(self.points)

    def point(self, i: int):
        return self.space.unpack(self.points[i : i + 1])[0]

    # -- serialization ----------------------------------------------------
    def column_names(self) -> list:
        if isinstance(self.space, SpiderSpace):
            return ["leg", "radius"]
        if self.space.complex_coords:
            names = []
            for j in range(self.space.dim):
                names += [f"x{j}_re", f"x{j}_im"]
            return names
        return [f"x{j}" for j in range(self.space.dim)]

    def rows(self) -> np.ndarray:
        if isinstance(self.space, SpiderSpace):
            return self.points
        if self.space.complex_coords:
            out = np.empty((len(self), 2 * self.space.dim))
            out[:, 0::2] = self.points.real
            out[:, 1::2] = self.points.imag
            return out
        return self.points

    def to_csv(self, path) -> None:
        path = Path(path)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.column_names())
            for row in self.rows():
                writer.writerow([repr(float(v)) for v in row])

    def to_json(self) -> dict:
        return {
            "space": {"kind": self.space.kind}
            | (
                {"legs": self.space.legs}
                if isinstance(self.space, SpiderSpace)
                else {"dim": self.space.dim, "complex": self.space.complex_coords}
            ),
            "columns": self.column_names(),
            "points": [[float(v) for v in row] for row in self.rows()],
        }

    @classmethod
    def from_csv(cls, path, space: Optional[Space] = None) -> "Ensemble":
        path = Path(path)
        with path.open("r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            data = np.asarray([[float(v) for v in row] for row in reader])
        if space is None:
            space = _space_from_header(header, data)
        if isinstance(space, SpiderSpace):
            return cls(space, data)
        if space.complex_coords:
            pts = data[:, 0::2] + 1j * data[:, 1::2]
        else:
            pts = data
        return cls(space, pts)


def _space_from_header(header: Sequence[str], data: np.ndarray) -> Space:
    if list(header) == ["leg", "radius"]:
        legs = int(max(2, data[:, 0].max() + 1)) if len(data) else 2
        return SpiderSpace(legs)
    if header and header[0].endswith("_re"):
        return EuclideanSpace(len(header) // 2, complex_coords=True)
    return EuclideanSpace(len(header))


@dataclass(frozen=True)
class Coupling:
    """Permutation pairing particle i of the source to sigma[i] of the target."""

    permutation: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.permutation, dtype=np.intp)
        if sorted(sigma.tolist()) != list(range(len(sigma))):
            raise ValueError("coupling must be a permutation")
        object.__setattr__(self, "permutation", sigma)


def _check_pair(A: Ensemble, B: Ensemble) -> None:
    if A.space != B.space:
        raise ValueError("ensembles live in different spaces")
    if len(A) != len(B):
        raise ValueError(f"ensemble sizes differ ({len(A)} vs {len(B)}); unequal sizes unsupported")


def wasserstein(A: Ensemble, B: Ensemble, p: float = 2.0):
    """Exact W_p between equal-size ensembles, with an optimal coupling.

    Returns ``(value, Coupling)`` where value = (mean of d^p over the
    optimal pairing)^(1/p).
    """
    _check_pair(A, B)
    if p < 1.0:
        raise ValueError(f"order p must be >= 1, got {p}")
    space = A.space
    if isinstance(space, EuclideanSpace) and space.dim == 1 and not space.complex_coords:
        # on the line the monotone (sorted) coupling is optimal for any p >= 1
        SOLVES["sorted"] += 1
        ia = np.argsort(A.points[:, 0], kind="stable")
        ib = np.argsort(B.points[:, 0], kind="stable")
        sigma = np.empty(len(A), dtype=np.intp)
        sigma[ia] = ib
        dist = np.abs(A.points[:, 0] - B.points[sigma, 0])
    else:
        SOLVES["assignment"] += 1
        cost = space.cross_dist(A.points, B.points) ** p
        rows, cols = linear_sum_assignment(cost)
        sigma = np.empty(len(A), dtype=np.intp)
        sigma[rows] = cols
        dist = space.pair_dist(A.points, B.points[sigma])
    value = float(np.mean(dist**p) ** (1.0 / p))
    return value, Coupling(sigma)


def _weighted_wasserstein_pp(space: Space, atoms_a: np.ndarray, wa: np.ndarray, atoms_b: np.ndarray, wb: np.ndarray, p: float) -> float:
    """W_p^p between weighted finite measures via the transportation LP."""
    cost = space.cross_dist(atoms_a, atoms_b) ** p
    na, nb = cost.shape
    # marginal constraints: row sums = wa, column sums = wb
    A_eq = []
    for i in range(na):
        row = np.zeros((na, nb))
        row[i, :] = 1.0
        A_eq.append(row.ravel())
    for j in range(nb):
        col = np.zeros((na, nb))
        col[:, j] = 1.0
        A_eq.append(col.ravel())
    b_eq = np.concatenate([wa, wb])
    res = linprog(cost.ravel(), A_eq=np.asarray(A_eq)[:-1], b_eq=b_eq[:-1], bounds=(0, None), method="highs")
    if not res.success:
        raise ArithmeticError(f"transport LP failed: {res.message}")
    return float(res.fun)


def markov_transport_discrepancy(
    family: OperatorFamily,
    mu: Ensemble,
    pi_candidates: Sequence[Ensemble],
    couplings: Optional[Sequence[Coupling]] = None,
) -> float:
    """Estimated Markov transport discrepancy of ``mu``.

    For each candidate invariant ensemble, couples ``mu`` to it optimally in
    W_2, averages the transport discrepancy of every family member over the
    coupled pairs with exact index weights, and returns the smallest square
    root.  The candidate list plays the role of the (unknown) invariant set:
    the result is an upper bound on the true discrepancy.

    ``couplings``, if given, holds one optimal W_2 coupling of ``mu`` per
    candidate (the second value of ``wasserstein(mu, cand)``), used in place
    of solving again; a ``None`` entry is solved for.
    """
    candidates = list(pi_candidates)
    if not candidates:
        raise ValueError(
            "no invariant-measure candidates supplied; the Markov transport "
            "discrepancy is +inf by convention when that set is empty"
        )
    if couplings is None:
        couplings = [None] * len(candidates)
    elif len(couplings) != len(candidates):
        raise ValueError(f"need one coupling per candidate ({len(couplings)} for {len(candidates)})")
    space = family.space
    best = np.inf
    for cand, coupling in zip(candidates, couplings):
        _check_pair(mu, cand)
        if coupling is None:
            _, coupling = wasserstein(mu, cand, p=2.0)
        elif len(coupling.permutation) != len(mu):
            raise ValueError(f"coupling pairs {len(coupling.permutation)} particles, ensemble has {len(mu)}")
        X = mu.points
        Y = cand.points[coupling.permutation]
        total = 0.0
        for w, op in zip(family.weights, family.operators):
            if w == 0.0:
                continue
            total += w * float(np.mean(psi_estimation_array(space, X, Y, op.apply(X), op.apply(Y))))
        best = min(best, np.sqrt(max(total, 0.0)))
    return float(best)


def coarse_ricci_estimate(family: OperatorFamily, x, y, p: float = 2.0) -> float:
    """Coarse Ricci curvature 1 - W_p^p(delta_x P, delta_y P) / d(x, y)^p.

    Push-forwards of point masses under a finite-support family are computed
    exactly as weighted atom sets.
    """
    space = family.space
    d = space.dist(x, y)
    if d == 0.0:
        raise ValueError("coarse Ricci curvature needs two distinct points")
    atoms_x = space.pack([op(x) for op in family.operators])
    atoms_y = space.pack([op(y) for op in family.operators])
    wpp = _weighted_wasserstein_pp(space, atoms_x, family.weights, atoms_y, family.weights, p)
    return float(1.0 - wpp / d**p)
