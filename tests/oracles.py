"""Reference helpers that only the tests use: single-point geometry, extra
operators (with their one-row cases for ``test_call_is_apply_on_a_one_row_ensemble``),
a Gaussian pair sampler, ``check_submonotone``, the inner-product oracle of
the a(1/2)-firm violation that ``regularity.estimate_violation`` computes,
the regularity block estimated operator by operator and with every
operator applied to all pairs at once, the box sampler's complex pairs
formed as a sum, the two-point
scenario's balanced invariant ensemble, the contraction and sgd
scenarios' invariant samplers as one unblocked draw, the family
dispatch by boolean masks and its index draw by binary search, the
library operators as out-of-place expressions (with the coordinatewise
magnitude projection), the rate fits and linear gauge as separate
functions, each fit windowing the series itself, the ensemble CSV
reader as the ``csv`` module and one ``float`` per value, each space's
cost matrix as whole-matrix expressions with their temporaries, and the
config checker as one hand-written loop or rule per block and key."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from rfilab.analysis import QLinearFit, RateReport, RLinearFit
from rfilab.cli import ConfigError
from rfilab.geometry import EuclideanSpace, Space, SpiderSpace
from rfilab.operators import (
    AffineMap,
    DouglasRachford,
    ForwardBackward,
    HyperplaneProjection,
    MagnitudeProjection,
    Operator,
    OperatorFamily,
    Reflection,
    RelaxedProjection,
    SupportRealityProjection,
    _require_euclidean,
)
from rfilab.regularity import (
    MIN_PAIR_DISTANCE,
    BoxPairSampler,
    PairSampler,
    RegularityBlock,
    RegularityReport,
    _rng,
    psi_estimation_array,
)
from rfilab.rfi import STREAM_INIT
from rfilab.scenarios import SCENARIO_BUILDERS
from rfilab.transport import Ensemble, _space_from_header


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


def apply_index_masked(family: OperatorFamily, idx: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``family.apply_index(idx, pts)`` dispatched by one boolean mask per
    operator: operator idx[k] applied to row k of a packed array."""
    out = np.empty_like(pts)
    for i, op in enumerate(family.operators):
        rows = idx == i
        if np.any(rows):
            out[rows] = op.apply(pts[rows])
    return out


def sample_indices_searchsorted(family: OperatorFamily, uniforms) -> np.ndarray:
    """``family.sample_indices(uniforms)`` as a binary search over the
    family's cumulative weights."""
    return np.searchsorted(family._cum, uniforms, side="right")


def project_magnitude(m, z):
    """Coordinatewise projection of z onto circles of radius m (phase 1 at 0)."""
    m = np.asarray(m, dtype=float)
    z = np.asarray(z, dtype=np.complex128)
    if np.any(m < 0):
        raise ValueError("magnitudes must be nonnegative")
    mag = np.abs(z)
    zero = mag == 0.0
    phase = np.where(zero, 1.0 + 0.0j, z / np.where(zero, 1.0, mag))
    return m * phase


def apply_out_of_place(op: Operator, pts: np.ndarray) -> np.ndarray:
    """``op.apply(pts)`` with each library operator that finishes its result
    in place written out of place, each nested operator evaluated the same
    way; any other operator is its own ``apply``."""
    if isinstance(op, AffineMap):
        return (pts @ op.scale.T if op.scale.ndim == 2 else op.scale * pts) + op.shift
    if isinstance(op, HyperplaneProjection):
        return pts - ((pts @ op.normal - op.offset) / op._nrm2)[:, None] * op.normal
    if isinstance(op, MagnitudeProjection):
        Z = project_magnitude(op.magnitudes, np.fft.fft(pts * op.mask, axis=1, norm="ortho"))
        return np.fft.ifft(Z, axis=1, norm="ortho") * op.mask.conj()
    if isinstance(op, SupportRealityProjection):
        out = pts.real.astype(np.complex128)
        out[:, ~op.support] = 0.0
        return out
    if isinstance(op, RelaxedProjection):
        return pts + op.relax * (apply_out_of_place(op.projector, pts) - pts)
    if isinstance(op, Reflection):
        return 2.0 * apply_out_of_place(op.op, pts) - pts
    if isinstance(op, ForwardBackward):
        return apply_out_of_place(op.g_resolvent, pts - op.step * op.smooth.grad(pts))
    if isinstance(op, DouglasRachford):
        inner = apply_out_of_place(Reflection(op.space, op.g_resolvent), pts)
        return 0.5 * (apply_out_of_place(Reflection(op.space, op.f_resolvent), inner) + pts)
    return op.apply(pts)


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


def box_pairs_summed(sampler: BoxPairSampler, n: int):
    """``BoxPairSampler.pairs`` with the complex pairs formed as
    ``re + 1j * im``, which holds both parts and two complex temporaries."""
    gen = _rng(sampler.seed)
    shape = (2, n, sampler.space.dim)
    if sampler.space.complex_coords:
        re = gen.uniform(sampler.low, sampler.high, size=shape)
        im = gen.uniform(sampler.low, sampler.high, size=shape)
        pts = re + 1j * im
    else:
        pts = gen.uniform(sampler.low, sampler.high, size=shape)
    return pts[0], pts[1]


def violation_block_whole(family: OperatorFamily, alpha: float, sampler: PairSampler, n_pairs: int) -> RegularityBlock:
    """``regularity.estimate_violation_in_expectation`` with each operator
    applied to all pairs at once, and a box sampler's pairs drawn by
    :func:`box_pairs_summed`."""
    if isinstance(sampler, BoxPairSampler):
        A, B = box_pairs_summed(sampler, n_pairs)
    else:
        A, B = sampler.pairs(n_pairs)
    space = family.space
    d2 = space.pair_dist(A, B) ** 2
    keep = d2 >= MIN_PAIR_DISTANCE**2
    region = sampler.describe()

    def report(d2F: np.ndarray, psi: np.ndarray) -> RegularityReport:
        ratio = (d2F[keep] + ((1.0 - alpha) / alpha) * psi[keep] - d2[keep]) / d2[keep]
        k = int(np.argmax(ratio))
        idx = np.flatnonzero(keep)[k]
        pair = (A[idx], B[idx])
        if np.iscomplexobj(A):
            pair = tuple(space.real_view(row[None]).reshape(-1, 2) for row in pair)
        return RegularityReport(alpha, max(0.0, float(ratio[k])), tuple(row.tolist() for row in pair), n_pairs,
                                int(keep.sum()), region)

    d2F = np.zeros(len(A))
    psi = np.zeros(len(A))
    per_operator = []
    for w, op in zip(family.weights, family.operators):
        FA = op.apply(A)
        FB = op.apply(B)
        d2F_op = space.pair_dist(FA, FB) ** 2
        psi_op = psi_estimation_array(space, A, B, FA, FB)
        per_operator.append(report(d2F_op, psi_op))
        if w != 0.0:
            d2F += w * d2F_op
            psi += w * psi_op
    return RegularityBlock(alpha, per_operator, report(d2F, psi))


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


def _positive_window(series, window, steps):
    """Step axis and values of the window, cut before its first entry that is
    not positive (a zero distance has no ratio or logarithm)."""
    d = np.asarray(series, dtype=float)
    n = len(d)
    lo, hi = (0, n - 1) if window is None else (int(window[0]), int(window[1]))
    if not (0 <= lo < hi <= n - 1):
        raise ValueError(f"window [{lo}, {hi}] invalid for a series of length {n}")
    stop = np.flatnonzero(~(d[lo : hi + 1] > 0.0))
    if stop.size:
        hi = lo + int(stop[0]) - 1
    if hi - lo < 1:
        raise ValueError("window must contain at least two positive entries")
    k = np.arange(n, dtype=float) if steps is None else np.asarray(steps, dtype=float)
    return k[lo : hi + 1], d[lo : hi + 1], (lo, hi)


def fit_qlinear(series, window=None, steps=None) -> QLinearFit:
    """Max (and geometric mean) of the per-step ratio over the window, each
    ratio spanning g steps taken to the power 1/g."""
    k, d, (lo, hi) = _positive_window(series, window, steps)
    ratios = (d[1:] / d[:-1]) ** (1.0 / np.diff(k))
    return QLinearFit(
        rate=float(np.max(ratios)),
        geometric_mean=float(np.exp(np.mean(np.log(ratios)))),
        window=(lo, hi),
    )


def fit_rlinear(series, window=None, steps=None) -> RLinearFit:
    """Least-squares (step, log d) fit: d ~ beta * rate^step, windowed as :func:`fit_qlinear`."""
    k, d, (lo, hi) = _positive_window(series, window, steps)
    y = np.log(d)
    coef = np.polyfit(k, y, 1)
    fitted = np.polyval(coef, k)
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return RLinearFit(beta=float(np.exp(coef[1])), rate=float(np.exp(coef[0])), residual=residual, window=(lo, hi))


def theta_linear(epsilon: float, tau: float, r: float) -> float:
    """Linear-gauge contraction factor gamma = 1 + epsilon - tau / r^2."""
    if epsilon < 0 or tau <= 0 or r <= 0:
        raise ValueError("need epsilon >= 0, tau > 0, r > 0")
    lower = math.sqrt(tau / (1.0 + epsilon))
    upper = math.sqrt(tau / epsilon) if epsilon > 0 else math.inf
    if r < lower * (1.0 - 1e-15):
        raise ValueError(f"r={r} below the admissibility bound sqrt(tau/(1+eps))={lower}")
    if r > upper:
        raise ValueError(f"r={r} above the admissibility bound sqrt(tau/eps)={upper}")
    return 1.0 + epsilon - tau / (r * r)


def build_rate_report(steps, distances, burn_in_fraction: float = 0.2, floor=None) -> RateReport:
    """The rates block from the two fits above, each windowing the series
    again, with their windows then overwritten by the requested one.  A
    series with no fit counts as converged only when an entry of the window
    is within 3x the floor."""
    steps = list(int(s) for s in steps)
    d = np.asarray(distances, dtype=float)
    series = list(zip(steps, d.tolist()))
    lo = int(np.floor(burn_in_fraction * (len(d) - 1)))
    hi = len(d) - 1
    if floor is not None and floor > 0:
        below = lo + np.flatnonzero(d[lo:] <= 3.0 * floor)
        if below.size and below[0] > lo + 1:
            hi = int(below[0])
        elif below.size and below[0] <= lo + 1:
            return RateReport(series, None, None, (lo, hi), converged_within_floor=True, floor=floor)
    window = (lo, hi)
    try:
        q_linear = fit_qlinear(d, window, steps)
    except ValueError:  # fewer than two positive entries in the window
        converged = floor is not None and bool(np.any(d[max(lo, 0) : hi + 1] <= 3.0 * floor))
        return RateReport(series, None, None, window, converged_within_floor=converged, floor=floor)
    r_linear = fit_rlinear(d, window, steps)
    return RateReport(series, replace(q_linear, window=window), replace(r_linear, window=window), window, floor=floor)


def ensemble_from_csv(path) -> Ensemble:
    """``Ensemble.from_csv(path)`` as the ``csv`` module and one ``float``
    per value: the header, which decides the space, then every row, with
    the row lengths checked against it."""
    with Path(path).open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [[float(v) for v in row] for row in reader]
    if not header or any(len(row) != len(header) for row in rows):
        raise ValueError("expected a header row, then one value per column on every row")
    data = np.asarray(rows).reshape(len(rows), len(header))
    space = _space_from_header(header, data)
    if isinstance(space, SpiderSpace):
        return Ensemble(space, data)
    if space.complex_coords:
        return Ensemble(space, data[:, 0::2] + 1j * data[:, 1::2])
    return Ensemble(space, data)


def cross_dist(space: Space, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``space.cross_dist(A, B)`` as whole-matrix expressions, each
    temporary a full (len(A), len(B)) array."""
    if isinstance(space, SpiderSpace):
        same = A[:, 0][:, None] == B[:, 0][None, :]
        ra = A[:, 1][:, None]
        rb = B[:, 1][None, :]
        return np.where(same, np.abs(ra - rb), ra + rb)
    Ar = space.real_view(A)
    Br = space.real_view(B)
    aa = np.sum(Ar * Ar, axis=1)[:, None]
    bb = np.sum(Br * Br, axis=1)[None, :]
    sq = aa + bb - 2.0 * (Ar @ Br.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


REFERENCE_DEFAULTS = {"mode": "burn_in", "factor": 10}

# key -> (type, required, default, constraint note); an integer key's note
# opens with its lower bound, ">= n", which is checked
CONFIG_SCHEMA = {
    "scenario": (dict, True, None, "object with 'name' (str) and optional 'params' (object)"),
    "ensemble_size": (int, True, None, ">= 1"),
    "iterations": (int, True, None, ">= 0"),
    "seed": (int, True, None, ">= 0"),
    "record_every": (int, False, 1, ">= 1"),
    "workers": (int, False, 1, ">= 1; worker processes, capped at usable CPUs; changes no output byte"),
    "diagnostics": (dict, False, {}, "booleans: wasserstein, psi, regularity, rates"),
    "reference": (dict, False, REFERENCE_DEFAULTS, "mode: burn_in | ground_truth | file; factor; path"),
    "regularity_pairs": (int, False, 2000, ">= 1; pair count for violation estimates"),
    "output_dir": (str, False, None, "results directory (--out overrides)"),
}

DIAGNOSTIC_DEFAULTS = {"wasserstein": True, "psi": True, "regularity": False, "rates": False}
REFERENCE_KEYS = ("mode", "factor", "path")
SCENARIO_KEYS = ("name", "params")


def validate_config(raw: dict) -> dict:
    """``cli.validate_config`` as one loop over the top-level keys, one
    hand-written loop or rule per block and key, and defaults kept beside
    the schema; it accepts an empty ``output_dir``, which the program
    rejects."""
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    cfg = {}
    for key, (typ, required, default, note) in CONFIG_SCHEMA.items():
        if key not in raw:
            if required:
                raise ConfigError(f"config.{key}: missing required key ({note})")
            cfg[key] = json.loads(json.dumps(default)) if isinstance(default, dict) else default
            continue
        val = raw[key]
        if typ is int and isinstance(val, bool):
            raise ConfigError(f"config.{key}: expected integer, got boolean")
        if not isinstance(val, typ):
            raise ConfigError(f"config.{key}: expected {typ.__name__} ({note})")
        if typ is int and val < (low := int(note.split(";")[0].removeprefix(">= "))):
            raise ConfigError(f"config.{key}: must be >= {low}")
        cfg[key] = val
    for key in raw:
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"config.{key}: unknown key")
    scenario = cfg["scenario"]
    for key in scenario:
        if key not in SCENARIO_KEYS:
            raise ConfigError(f"config.scenario.{key}: unknown key (known: {', '.join(SCENARIO_KEYS)})")
    name = scenario.get("name")
    if not isinstance(name, str) or name not in SCENARIO_BUILDERS:
        known = ", ".join(sorted(SCENARIO_BUILDERS))
        raise ConfigError(f"config.scenario.name: must be one of {known}")
    if not isinstance(scenario.get("params", {}), dict):
        raise ConfigError("config.scenario.params: must be an object")
    diags = dict(DIAGNOSTIC_DEFAULTS)
    for key, val in cfg["diagnostics"].items():
        if key not in DIAGNOSTIC_DEFAULTS:
            raise ConfigError(f"config.diagnostics.{key}: unknown diagnostic")
        if not isinstance(val, bool):
            raise ConfigError(f"config.diagnostics.{key}: must be a boolean")
        diags[key] = val
    if diags["rates"] and not diags["wasserstein"]:
        raise ConfigError("config.diagnostics.rates: needs diagnostics.wasserstein (rates are fitted to the W2 series)")
    cfg["diagnostics"] = diags
    for key in cfg["reference"]:
        if key not in REFERENCE_KEYS:
            raise ConfigError(f"config.reference.{key}: unknown key (known: {', '.join(REFERENCE_KEYS)})")
    ref = cfg["reference"] = {**REFERENCE_DEFAULTS, **cfg["reference"]}
    mode = ref["mode"]
    if mode not in ("burn_in", "ground_truth", "file"):
        raise ConfigError("config.reference.mode: must be burn_in, ground_truth or file")
    if mode == "file" and not isinstance(ref.get("path"), str):
        raise ConfigError("config.reference.path: required for mode 'file'")
    if mode != "file" and "path" in ref:
        raise ConfigError(f"config.reference.path: only read with mode 'file' (mode is '{mode}')")
    factor = ref["factor"]
    if isinstance(factor, bool) or not isinstance(factor, int) or factor < 1:
        raise ConfigError("config.reference.factor: must be an integer >= 1")
    return cfg
