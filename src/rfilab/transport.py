"""Exact optimal transport between equal-size empirical measures.

Restricting to equal-size, equal-weight ensembles turns Wasserstein
distances into assignment problems with exact solvers and explicit optimal
couplings (permutations).  On the real line the sorted matching is optimal
and used directly; elsewhere the cost matrix goes through an exact
assignment solver.  Such a solve between N-particle ensembles holds one
N x N float64 cost, 8 N^2 bytes, in the process that runs it: ``cross_dist``
builds it in one buffer and it is raised to the power p in place.  So
solves running at once in several processes hold one such cost each.  The
Markov transport discrepancy of an ensemble reuses such a coupling to the
reference ensemble.

From N = WARM_START_MIN particles on, the solver is warm-started: an exact
solve on m = N // 4 rows and columns gives dual potentials, which
c-transforms extend to all N rows and columns, and the cost has u_i + v_j
subtracted in place.  That shifts the total of every permutation by the
same constant, so the optimal assignment is the same, and W_p is priced on
the points as before; but scipy's solver, which starts from zero duals,
starts near the optimum.  The coarse rows are every WARM_START_RATIO-th
point in a spatial order of the source ensemble, a recursive median split
along each cell's widest coordinate down to cells of at most 4 points; the
coarse columns come from the target ensemble's order alike.  So they
cover each cloud evenly, where every 4th particle index would clump, as
the coarse level of multiscale OT does (Schmitzer, JMIV 2016; Merigot,
CGF 2011); here it only warm-starts the dense exact solver.  On a
Kaczmarz run in R^2 at N = 1000 (seed 950) the solver took 0.03-0.06 s
per step solve after the warm start, against 0.13-0.18 s with every 4th
particle index as the coarse set and 0.11-0.36 s on the cost as built;
the warm start itself took 0.02 s, 5-7 ms of it the two spatial orders
(2 vCPUs).  The cost is left as it is where the coarse optimum costs at
least 99.9% of the identity pairing (a flat problem, such as a cloud
against a near point mass, where duals carry nothing), where the
Bellman-Ford relaxation that gives the coarse duals reaches no fixed point
in m passes or stalls at rounding level (cycles on degenerate costs), and
where an entry or a potential is not finite (the solver's own checks then
apply).  The warm start holds one m x m float64 buffer, 8 N^2 / 16 bytes,
next to the cost, and forms its other temporaries CROSS_DIST_ROWS rows at
a time.  Below N = 1000 every solve takes the cost as built.  The solves
of a run (its steps and 3 floor draws; seed 950, 2 vCPUs) took 0.16-0.17 s
plain and 0.21-0.22 s warm for phase retrieval in C^64 at N = 500 (the
mixed_phase benchmark), but 0.24-0.37 s plain and 0.16-0.21 s warm for
inconsistent Kaczmarz in R^2 at N = 500, and 1.6-2.0 s plain and 0.6 s
warm on ot_kaczmarz at N = 1000.

Ensembles are stored as CSV: a header row, read by the ``csv`` module,
that names the columns and so the space, then one row of plain decimal
numbers per particle, parsed by numpy's C reader (``np.loadtxt``).  A blank
line, a quoted field, a ``#``, a digit separator (``1_0``) or a row whose
length differs from the header's is rejected with a ValueError.
"""

from __future__ import annotations

import csv
import functools
import importlib.util
import re
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, SOURCE_SUFFIXES, ExtensionFileLoader, SourceFileLoader
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .geometry import CROSS_DIST_ROWS, EuclideanSpace, Space, SpiderSpace, row_blocks
from .operators import OperatorFamily
from .regularity import psi_array

__all__ = [
    "Ensemble",
    "Coupling",
    "wasserstein",
    "markov_transport_discrepancy",
]


# exact W_p solves made by this process, by path (`rfilab run` reports them)
SOLVES = {"assignment": 0, "sorted": 0}

# values per block of text that `Ensemble.to_csv` formats and writes at once
CSV_BLOCK_VALUES = 1 << 14

# an assignment solve of at least WARM_START_MIN particles starts from the
# potentials of an exact solve on every WARM_START_RATIO-th particle of a
# spatial order of each ensemble
WARM_START_MIN = 1000
WARM_START_RATIO = 4


def _load_scipy_module(name: str, suffixes: Sequence[str], loader_class):
    """The scipy module ``name`` loaded by ``loader_class`` from the first
    file that its path plus one of ``suffixes`` names, or taken from
    sys.modules if it is there.  scipy's install directory is found by
    ``importlib.util.find_spec("scipy")``, which imports nothing, so no
    package's __init__.py runs.  Raises ImportError if there is no such
    file."""
    module = sys.modules.get(name)
    if module is None:
        _, *packages, stem = name.split(".")
        directory = Path(importlib.util.find_spec("scipy").submodule_search_locations[0], *packages)
        found = [directory / f"{stem}{suffix}" for suffix in suffixes]
        path = next((f for f in found if f.is_file()), None)
        if path is None:
            raise ImportError(f"no {name} in {directory}")
        loader = loader_class(name, str(path))
        module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(name, path, loader=loader))
        loader.exec_module(module)
    return module


def _load_compiled_solver():
    """``linear_sum_assignment`` of scipy's compiled module
    ``scipy.optimize._lsap``, loaded from its file, so that neither
    scipy/__init__.py nor scipy/optimize/__init__.py (scipy.linalg,
    _optimize, ...) runs.  Raises if the module is missing or has no such
    function."""
    return _load_scipy_module("scipy.optimize._lsap", EXTENSION_SUFFIXES, ExtensionFileLoader).linear_sum_assignment


@functools.cache
def assignment_solver():
    """scipy's exact assignment solver, loaded once per process: the compiled
    ``_lsap`` extension, or, if that load fails (no such file, an import
    error, no such function), the same function through the public
    ``scipy.optimize`` import."""
    try:
        return _load_compiled_solver()
    except (ImportError, OSError, AttributeError):
        from scipy.optimize import linear_sum_assignment

        return linear_sum_assignment


def scipy_version() -> str:
    """scipy's version string, the ``version`` of scipy/version.py loaded
    from its file, which is where ``scipy.__version__`` comes from; if that
    load fails (no such file, an import error, no such name), the public
    import's ``scipy.__version__``."""
    try:
        return _load_scipy_module("scipy.version", SOURCE_SUFFIXES, SourceFileLoader).version
    except (ImportError, OSError, AttributeError):
        import scipy

        return scipy.__version__


def linear_sum_assignment(cost: np.ndarray):
    """Exact assignment of ``cost`` by scipy's solver, loaded on the first
    call as the compiled ``_lsap`` extension (the public import is the
    fallback): no command imports the scipy package, and commands that
    solve no assignment load no solver at all."""
    return assignment_solver()(cost)


def _column_min(cost: np.ndarray, u: np.ndarray) -> np.ndarray:
    """min over i of cost[i, j] - u[i], for each column j, formed
    CROSS_DIST_ROWS rows at a time: the c-transform of the row potentials."""
    v = np.full(cost.shape[1], np.inf)
    for lo, hi in row_blocks(len(cost), CROSS_DIST_ROWS):
        np.minimum(v, (cost[lo:hi] - u[lo:hi, None]).min(axis=0), out=v)
    return v


def _coarse_column_duals(W: np.ndarray, sigma: np.ndarray) -> Optional[np.ndarray]:
    """Column duals v of the square assignment ``W`` that ``sigma`` solves
    optimally: with u_i = W[i, sigma_i] - v[sigma_i], every W_ij - u_i - v_j
    is at least 0.  They are shortest-path distances from v = 0 over the
    edges W_ij - W[i, sigma_i], which overwrite ``W`` (0 on the matching),
    by Bellman-Ford relaxation, one c-transform per pass; None when m
    passes reach no fixed point, or a pass lowers no dual by more than
    m eps max|W| (rounding-level cycles on a degenerate cost)."""
    m = len(W)
    tol = m * np.finfo(np.float64).eps * W.max()  # costs are at least 0
    W -= W[np.arange(m), sigma][:, None]
    v = np.zeros(m)
    for _ in range(m):
        t = _column_min(W, -v[sigma])
        drop = np.max(v - t)
        if drop <= 0.0:
            return v
        if drop <= tol:
            return None
        np.minimum(v, t, out=v)
    return None


def _spatial_order(rows: np.ndarray) -> np.ndarray:
    """Indices of ``rows`` in the order of a recursive median split: each
    cell of more than WARM_START_RATIO rows is sorted, stably, along its
    widest coordinate and cut at its middle position.  So consecutive
    positions are close in space, and every WARM_START_RATIO-th position
    samples each region of the cloud in proportion to its points."""
    order = np.arange(len(rows))
    cells = [(0, len(rows))]
    while cells:
        lo, hi = cells.pop()
        if hi - lo <= WARM_START_RATIO:
            continue
        cell = rows[order[lo:hi]]
        axis = np.argmax(cell.max(axis=0) - cell.min(axis=0))
        order[lo:hi] = order[lo:hi][np.argsort(cell[:, axis], kind="stable")]
        mid = (lo + hi) // 2
        cells += [(lo, mid), (mid, hi)]
    return order


def _warm_start(cost: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Subtract from the square ``cost``, in place, row and column potentials
    u_i + v_j taken from an exact solve on every WARM_START_RATIO-th row and
    column in a spatial order (:func:`_spatial_order`) of the points
    ``rows`` and ``cols``, extended to all rows and columns by
    c-transforms; every entry stays at least 0, and every permutation's
    total drops by the same sum(u) + sum(v).  The cost is left as it is
    where the coarse problem is flat (its optimum costs at least 99.9% of
    the identity pairing), where its duals reach no fixed point, or where an
    entry or a potential is not finite."""
    n = len(cost)
    # each coarse set in particle-index order: in spatial order the k-th
    # coarse row and column lie close, and the flat check's identity pairing
    # would look near-optimal on a problem that is not flat
    ia, ib = (np.sort(_spatial_order(x)[WARM_START_RATIO - 1 :: WARM_START_RATIO], kind="stable") for x in (rows, cols))
    m = len(ia)
    W = cost[np.ix_(ia, ib)]
    if not np.isfinite(W).all():
        return
    _, sigma = assignment_solver()(W)
    if W[np.arange(m), sigma].sum() >= 0.999 * np.trace(W):
        return
    coarse_v = _coarse_column_duals(W, sigma)
    if coarse_v is None:
        return
    u = np.empty(n)
    for lo, hi in row_blocks(n, CROSS_DIST_ROWS):
        u[lo:hi] = (cost[lo:hi, ib] - coarse_v).min(axis=1)
    v = _column_min(cost, u)
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        return
    for lo, hi in row_blocks(n, CROSS_DIST_ROWS):
        # (c - u_i) - v_j, as _column_min forms c - u_i: at least 0 exactly
        cost[lo:hi] -= u[lo:hi, None]
        cost[lo:hi] -= v


def sorted_path(space: Space) -> bool:
    """Whether W_p on ``space`` takes the sorted matching (the real line)
    rather than an assignment solve."""
    return isinstance(space, EuclideanSpace) and space.dim == 1 and not space.complex_coords


@dataclass(frozen=True)
class Ensemble:
    """Equal-weight empirical measure: N particles of one space, packed."""

    space: Space
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", self.space.pack(self.points).copy())
        if len(self.points) < 1:
            raise ValueError("ensemble needs at least one particle")

    def __len__(self) -> int:
        return len(self.points)

    # -- serialization ----------------------------------------------------
    def column_names(self) -> list:
        return _column_names(self.space)

    def rows(self) -> np.ndarray:
        if isinstance(self.space, SpiderSpace):
            return self.points
        return self.space.real_view(self.points)

    def to_csv(self, path) -> None:
        """Write a header and one row per particle, each value its ``repr``:
        the bytes of ``csv.writer``, since no name or value needs quoting,
        formatted a block of rows at a time: one ``repr`` pass over the
        block's values, grouped back into rows of ``ncols``."""
        rows = self.rows()
        ncols = rows.shape[1]
        block = max(1, CSV_BLOCK_VALUES // ncols)
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(self.column_names()) + "\r\n")
            for start in range(0, len(rows), block):
                values = map(repr, rows[start : start + block].ravel().tolist())
                fh.write("\r\n".join(map(",".join, zip(*[values] * ncols))) + "\r\n")

    @classmethod
    def from_csv(cls, path, space: Optional[Space] = None) -> "Ensemble":
        """Read what :meth:`to_csv` writes.  The header is read by ``csv``;
        it decides the space where ``space`` is not given, and must be the
        space's column names either way.  The rows are read by
        ``np.loadtxt``, so each value is a plain decimal number as ``float``
        reads it (``nan`` and ``inf`` included, ``1_0`` and non-ASCII digits
        not), with no quoting and no comments.  A file with no header or no
        rows, a blank line, a value that is not a number, a row whose length
        differs from the header's, or a header that is not the space's
        raises ValueError; one from a row names the row's line in the
        file."""
        with Path(path).open("r", encoding="utf-8") as fh:
            header = next(csv.reader(fh), [])
            # not splitlines(), which would also break a row at \f, \v or \x1c
            lines = fh.read().split("\n")
        if lines[-1] == "":
            lines.pop()
        if not header or not lines or not all(lines):
            raise ValueError("expected a header row, then one value per column on every row")
        try:
            data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        except ValueError as exc:
            raise ValueError(_at_file_line(str(exc))) from None
        if data.shape[1] != len(header):
            raise ValueError(f"expected {len(header)} values per row, as in the header, got {data.shape[1]}")
        if space is None:
            space = _space_from_header(header, data)
        if header != _column_names(space):
            raise ValueError(f"expected the header {','.join(_column_names(space))}, got {','.join(header)}")
        if isinstance(space, SpiderSpace):
            return cls(space, data)
        if space.complex_coords:
            pts = data[:, 0::2] + 1j * data[:, 1::2]
        else:
            pts = data
        return cls(space, pts)


def _at_file_line(message: str) -> str:
    """np.loadtxt's ``message``, with the fault's line in the file in place
    of loadtxt's data-row index, and without its hint to use ``usecols``.
    loadtxt counts a bad value's row from 0 and a changed column count's
    from 1; the header is line 1 of the file."""
    if match := re.search(r" at row (\d+), column (\d+)\.$", message):
        return f"line {int(match[1]) + 2}, column {match[2]}: {message[:match.start()]}"
    if match := re.search(r" at row (\d+); use `usecols`.*$", message):
        return f"line {int(match[1]) + 1}: {message[:match.start()]}"
    return message


def _column_names(space: Space) -> list:
    if isinstance(space, SpiderSpace):
        return ["leg", "radius"]
    if space.complex_coords:
        return [f"x{j}_{part}" for j in range(space.dim) for part in ("re", "im")]
    return [f"x{j}" for j in range(space.dim)]


def _space_from_header(header: Sequence[str], data: np.ndarray) -> Space:
    if list(header) == ["leg", "radius"]:
        legs = int(max(2, data[:, 0].max() + 1))
        return SpiderSpace(legs)
    if header and header[0].endswith("_re"):
        return EuclideanSpace(len(header) // 2, complex_coords=True)
    return EuclideanSpace(len(header))


@dataclass(frozen=True)
class Coupling:
    """Permutation pairing particle i of the source to sigma[i] of the target:
    a 1-D array that sorts to ``arange(n)``, checked in numpy."""

    permutation: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.permutation, dtype=np.intp)
        if sigma.ndim != 1 or not np.array_equal(np.sort(sigma), np.arange(len(sigma))):
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
    optimal pairing)^(1/p).  Off the real line the pairing is an exact
    assignment solve of the N x N cost d^p; from N = WARM_START_MIN on, the
    cost first has potentials u_i + v_j from a quarter-size exact solve on
    points spread evenly over each ensemble subtracted in place
    (:func:`_warm_start`), which leaves the optimal assignment as it is and
    lets the solver start near it.
    """
    _check_pair(A, B)
    if p < 1.0:
        raise ValueError(f"order p must be >= 1, got {p}")
    space = A.space
    if sorted_path(space):
        # on the line the monotone (sorted) coupling is optimal for any p >= 1
        SOLVES["sorted"] += 1
        ia = np.argsort(A.points[:, 0], kind="stable")
        ib = np.argsort(B.points[:, 0], kind="stable")
        sigma = np.empty(len(A), dtype=np.intp)
        sigma[ia] = ib
        dist = np.abs(A.points[:, 0] - B.points[sigma, 0])
    else:
        SOLVES["assignment"] += 1
        cost = space.cross_dist(A.points, B.points)
        cost **= p
        if len(cost) >= WARM_START_MIN:
            _warm_start(cost, A.rows(), B.rows())
        rows, cols = linear_sum_assignment(cost)
        sigma = np.empty(len(A), dtype=np.intp)
        sigma[rows] = cols
        dist = space.pair_dist(A.points, B.points[sigma])
    value = float(np.mean(dist**p) ** (1.0 / p))
    return value, Coupling(sigma)


def markov_transport_discrepancy(
    family: OperatorFamily, mu: Ensemble, reference: Ensemble, coupling: Optional[Coupling] = None
) -> float:
    """Estimated Markov transport discrepancy of ``mu`` against ``reference``.

    Couples ``mu`` to the reference ensemble, the stand-in for the (unknown)
    invariant set, optimally in W_2, averages the transport discrepancy of
    every family member over the coupled pairs with exact index weights, and
    returns the square root: an upper bound on the true discrepancy.

    ``coupling``, if given, is an optimal W_2 coupling of ``mu`` to the
    reference (the second value of ``wasserstein(mu, reference)``), used in
    place of solving again.
    """
    _check_pair(mu, reference)
    if coupling is None:
        _, coupling = wasserstein(mu, reference, p=2.0)
    elif len(coupling.permutation) != len(mu):
        raise ValueError(f"coupling pairs {len(coupling.permutation)} particles, ensemble has {len(mu)}")
    X = mu.points
    Y = reference.points[coupling.permutation]
    total = 0.0
    for w, op in zip(family.weights, family.operators):
        if w == 0.0:
            continue
        total += w * float(np.mean(psi_array(family.space, X, Y, op.apply(X), op.apply(Y))))
    return float(np.sqrt(max(total, 0.0)))
