"""Post-processing: rate fits, gauge-function checks, subregularity constants.

A distance series (d_k) is classified by two fits.  The Q-linear rate is the
maximum consecutive ratio over a window (conservative: the defining
inequality quantifies over every k), with the geometric-mean ratio carried
as a secondary diagnostic.  The R-linear fit is a least-squares line on
(k, log d_k), giving d_k <= beta * c^k up to the reported residual.

Linear metric subregularity of the Markov transport discrepancy with
constant r turns, together with a firm-nonexpansiveness constant alpha and
violation eps, into a linear contraction factor

    gamma = 1 + eps - tau / r^2,   tau = (1 - alpha) / alpha,

valid on the admissibility window sqrt(tau/(1+eps)) <= r <= sqrt(tau/eps);
the per-step distance rate is c = sqrt(gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "QLinearFit",
    "RLinearFit",
    "SubregularityFit",
    "GaugeSpec",
    "ThetaCheck",
    "RateReport",
    "fit_qlinear",
    "fit_rlinear",
    "theta_linear",
    "check_theta_admissible",
    "estimate_subregularity",
    "rate_bound_from_theorem",
    "build_rate_report",
]


@dataclass(frozen=True)
class QLinearFit:
    rate: float            # max consecutive ratio on the window
    geometric_mean: float  # secondary statistic
    window: Tuple[int, int]

    def to_dict(self) -> dict:
        return {"rate": self.rate, "geometric_mean": self.geometric_mean, "window": list(self.window)}


@dataclass(frozen=True)
class RLinearFit:
    beta: float
    rate: float
    residual: float  # rms residual of the log-linear fit
    window: Tuple[int, int]

    def to_dict(self) -> dict:
        return {"beta": self.beta, "rate": self.rate, "residual": self.residual, "window": list(self.window)}


@dataclass(frozen=True)
class SubregularityFit:
    r_hat: float     # max distance / psi over usable pairs
    ls_slope: float  # least-squares slope through the origin
    n_used: int

    def to_dict(self) -> dict:
        return {"r_hat": self.r_hat, "ls_slope": self.ls_slope, "n_used": self.n_used}


def _positive_window(
    series: Sequence[float], window: Optional[Tuple[int, int]], steps: Optional[Sequence[int]]
) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
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


def fit_qlinear(
    series: Sequence[float], window: Optional[Tuple[int, int]] = None, steps: Optional[Sequence[int]] = None
) -> QLinearFit:
    """Max (and geometric mean) of the per-step ratio over the window.

    Entry i sits at chain step ``steps[i]`` (default i); a ratio spanning g
    steps is taken to the power 1/g, so recording every r steps still gives
    per-step rates.  The first non-positive entry ends the window.
    """
    k, d, (lo, hi) = _positive_window(series, window, steps)
    ratios = (d[1:] / d[:-1]) ** (1.0 / np.diff(k))
    return QLinearFit(
        rate=float(np.max(ratios)),
        geometric_mean=float(np.exp(np.mean(np.log(ratios)))),
        window=(lo, hi),
    )


def fit_rlinear(
    series: Sequence[float], window: Optional[Tuple[int, int]] = None, steps: Optional[Sequence[int]] = None
) -> RLinearFit:
    """Least-squares (step, log d) fit: d ~ beta * rate^step, windowed as :func:`fit_qlinear`."""
    k, d, (lo, hi) = _positive_window(series, window, steps)
    y = np.log(d)
    coef = np.polyfit(k, y, 1)
    fitted = np.polyval(coef, k)
    residual = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return RLinearFit(beta=float(np.exp(coef[1])), rate=float(np.exp(coef[0])), residual=residual, window=(lo, hi))


# ---------------------------------------------------------------------------
# gauge algebra
# ---------------------------------------------------------------------------

def _linear_window(epsilon: float, tau: float) -> Tuple[float, float]:
    lower = math.sqrt(tau / (1.0 + epsilon))
    upper = math.sqrt(tau / epsilon) if epsilon > 0 else math.inf
    return lower, upper


def theta_linear(epsilon: float, tau: float, r: float) -> float:
    """Linear-gauge contraction factor gamma = 1 + epsilon - tau / r^2."""
    if epsilon < 0 or tau <= 0 or r <= 0:
        raise ValueError("need epsilon >= 0, tau > 0, r > 0")
    lower, upper = _linear_window(epsilon, tau)
    if r < lower * (1.0 - 1e-15):
        raise ValueError(f"r={r} below the admissibility bound sqrt(tau/(1+eps))={lower}")
    if r > upper:
        raise ValueError(f"r={r} above the admissibility bound sqrt(tau/eps)={upper}")
    return 1.0 + epsilon - tau / (r * r)


def rate_bound_from_theorem(alpha: float, epsilon: float, r: float) -> float:
    """Linear rate c = sqrt(1 + eps - (1-alpha)/(r^2 alpha)) from the subregularity constant."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if epsilon < 0:
        raise ValueError("violation must be >= 0")
    tau = (1.0 - alpha) / alpha
    lower, upper = _linear_window(epsilon, tau)
    if r < lower * (1.0 - 1e-15):
        raise ValueError(f"r={r} below the admissibility bound sqrt((1-a)/(a(1+eps)))={lower}")
    if r >= upper:
        raise ValueError(f"r={r} at or above the admissibility bound sqrt((1-a)/(a eps))={upper}")
    gamma = theta_linear(epsilon, tau, r)
    return math.sqrt(max(gamma, 0.0))


@dataclass(frozen=True)
class GaugeSpec:
    """A metric-subregularity gauge: linear with constant r, or a custom table.

    For the linear kind the contraction factor gamma = 1 + epsilon - tau/r^2
    must land in [0, 1], which pins r to the admissibility window
    sqrt(tau/(1+epsilon)) <= r <= sqrt(tau/epsilon).
    """

    kind: str  # "linear" | "table"
    epsilon: float
    tau: float
    r: Optional[float] = None
    table: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "linear":
            if self.r is None:
                raise ValueError("linear gauge needs the constant r")
            theta_linear(self.epsilon, self.tau, self.r)  # validates the window
        elif self.kind == "table":
            if not self.table:
                raise ValueError("table gauge needs theta samples")
            object.__setattr__(self, "table", tuple((float(t), float(v)) for t, v in self.table))
        else:
            raise ValueError(f"unknown gauge kind {self.kind!r}")

    @classmethod
    def linear(cls, epsilon: float, tau: float, r: float) -> "GaugeSpec":
        return cls(kind="linear", epsilon=epsilon, tau=tau, r=r)

    @classmethod
    def from_table(cls, epsilon: float, tau: float, table) -> "GaugeSpec":
        return cls(kind="table", epsilon=epsilon, tau=tau, table=tuple(table))

    def gamma(self) -> float:
        if self.kind != "linear":
            raise ValueError("gamma is defined for the linear gauge only")
        return theta_linear(self.epsilon, self.tau, self.r)

    def admissible(self, budget: int = 20000) -> "ThetaCheck":
        """Check the gauge's theta function against the three conditions."""
        if self.kind == "linear":
            g = float(self.gamma())
            ok = bool(0.0 < g < 1.0)
            return ThetaCheck(ok, "linear gauge factor in (0, 1)" if ok else f"gamma={g} outside (0, 1)", 0, 0.0)
        return check_theta_admissible(self.table, budget=budget)


@dataclass(frozen=True)
class ThetaCheck:
    """Outcome of the gauge admissibility check; ok=None means inconclusive."""

    ok: Optional[bool]
    reason: str
    iterations: int
    partial_sum: float

    def to_dict(self) -> dict:
        return {"ok": self.ok, "reason": self.reason, "iterations": self.iterations, "partial_sum": self.partial_sum}


def check_theta_admissible(theta_table: Sequence[Tuple[float, float]], budget: int = 20000) -> ThetaCheck:
    """Check the three gauge conditions on a tabulated theta.

    (i) theta(0) = 0 and (ii) 0 < theta(t) < t for t > 0 are verified on the
    table nodes.  (iii) summability of the iterates theta^(j)(t) is probed by
    iterating from the largest node with linear interpolation: the partial
    sum either stabilizes (admissible), keeps adding dyadic blocks of nearly
    constant mass (divergent tail, inadmissible), or the budget runs out
    without a clear signal (inconclusive).
    """
    table = sorted((float(t), float(v)) for t, v in theta_table)
    if not table:
        raise ValueError("theta table is empty")
    ts = np.asarray([t for t, _ in table])
    vs = np.asarray([v for _, v in table])
    if np.any(ts < 0):
        raise ValueError("theta table arguments must be >= 0")
    if np.unique(ts).size != ts.size:
        raise ValueError("theta table arguments must be distinct")
    if ts[0] == 0.0 and vs[0] != 0.0:
        return ThetaCheck(False, "theta(0) != 0", 0, 0.0)
    pos = ts > 0
    if np.any(vs[pos] <= 0.0) or np.any(vs[pos] >= ts[pos]):
        return ThetaCheck(False, "0 < theta(t) < t violated at a table node", 0, 0.0)

    def interp(t: float) -> float:
        # linear interpolation pinned at (0, 0); beyond the table keep the
        # last slope ratio, capped below t to stay inside condition (ii)
        if t <= 0.0:
            return 0.0
        if t >= ts[-1]:
            return min(vs[-1] / ts[-1] * t, np.nextafter(t, 0.0))
        return float(np.interp(t, np.concatenate(([0.0], ts)), np.concatenate(([0.0], vs))))

    t = float(ts[-1])
    partial = 0.0
    block_sums: List[float] = []
    block = 0.0
    next_boundary = 1
    for j in range(1, budget + 1):
        t = interp(t)
        partial += t
        block += t
        if j == next_boundary:
            block_sums.append(block)
            block = 0.0
            next_boundary *= 2
        if t < 1e-14 * (1.0 + ts[-1]):
            return ThetaCheck(True, "iterates stabilized", j, partial)
        if len(block_sums) >= 4:
            b1, b2 = block_sums[-2], block_sums[-1]
            if b1 > 0 and b2 < 0.5 * b1:
                return ThetaCheck(True, "dyadic block sums decay geometrically", j, partial)
            if b1 > 0 and b2 > 0.9 * b1:
                return ThetaCheck(False, "dyadic block sums do not decay (divergent tail)", j, partial)
    return ThetaCheck(None, "iteration budget exceeded without a clear signal", budget, partial)


# ---------------------------------------------------------------------------
# subregularity
# ---------------------------------------------------------------------------

def estimate_subregularity(psi_values: Sequence[float], distances: Sequence[float]) -> SubregularityFit:
    """Fit the linear gauge of d(mu, invariant set) <= r * Psi(mu) from samples.

    Pairs with psi <= 0 (at the invariant measure, up to noise) are excluded.
    The primary constant is the max ratio; the slope of the least-squares
    line through the origin is secondary.  Scaling all psi values by s scales
    r_hat by exactly 1/s.
    """
    psi = np.asarray(psi_values, dtype=float)
    dist = np.asarray(distances, dtype=float)
    if psi.size == 0 or psi.shape != dist.shape:
        raise ValueError("need matching, nonempty psi and distance samples")
    keep = psi > 0.0
    if not np.any(keep):
        raise ValueError("all psi samples are <= 0; nothing to fit")
    psi = psi[keep]
    dist = dist[keep]
    r_hat = float(np.max(dist / psi))
    slope = float(np.sum(dist * psi) / np.sum(psi * psi))
    return SubregularityFit(r_hat=r_hat, ls_slope=slope, n_used=int(psi.size))


# ---------------------------------------------------------------------------
# aggregated report
# ---------------------------------------------------------------------------

@dataclass
class RateReport:
    series: List[Tuple[int, float]]
    q_fit: Optional[QLinearFit]
    r_fit: Optional[RLinearFit]
    fit_window: Tuple[int, int]
    converged_within_floor: bool = False
    floor: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "series": [[int(k), float(v)] for k, v in self.series],
            "q_linear": self.q_fit.to_dict() if self.q_fit else None,
            "r_linear": self.r_fit.to_dict() if self.r_fit else None,
            "fit_window": list(self.fit_window),
            "converged_within_floor": self.converged_within_floor,
            "floor": self.floor,
        }


def build_rate_report(
    steps: Sequence[int],
    distances: Sequence[float],
    burn_in_fraction: float = 0.2,
    floor: Optional[float] = None,
    window: Optional[Tuple[int, int]] = None,
) -> RateReport:
    """Fit rates on a recorded distance series.

    The default window drops the first ``burn_in_fraction`` of recorded steps
    (early transients) and, when a Monte-Carlo floor is supplied, stops where
    the series first dips under 3x the floor; past that point ratios measure
    sampling noise, not contraction.
    """
    steps = list(int(s) for s in steps)
    d = np.asarray(distances, dtype=float)
    series = list(zip(steps, d.tolist()))
    if window is None:
        lo = int(np.floor(burn_in_fraction * (len(d) - 1)))
        hi = len(d) - 1
        if floor is not None and floor > 0:
            below = np.flatnonzero(d <= 3.0 * floor)
            if below.size and below[0] > lo + 1:
                hi = int(below[0])
            elif below.size and below[0] <= lo + 1:
                return RateReport(series, None, None, (lo, hi), converged_within_floor=True, floor=floor)
        window = (lo, hi)
    try:
        q_fit = fit_qlinear(d, window, steps)
    except ValueError:  # fewer than two positive entries in the window
        return RateReport(series, None, None, window, converged_within_floor=floor is not None, floor=floor)
    r_fit = fit_rlinear(d, window, steps)
    # the report records the requested window, also when a zero cut it short
    q_fit = replace(q_fit, window=window)
    r_fit = replace(r_fit, window=window)
    return RateReport(series, q_fit, r_fit, window, floor=floor)
