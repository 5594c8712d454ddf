"""Post-processing: rate fits, the linear-gauge rate bound, subregularity constants.

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
    "RateReport",
    "fit_qlinear",
    "fit_rlinear",
    "theta_linear",
    "estimate_subregularity",
    "rate_bound_from_theorem",
    "build_rate_report",
]


@dataclass(frozen=True)
class QLinearFit:
    rate: float            # max consecutive ratio on the window
    geometric_mean: float  # secondary statistic
    window: Tuple[int, int]


@dataclass(frozen=True)
class RLinearFit:
    beta: float
    rate: float
    residual: float  # rms residual of the log-linear fit
    window: Tuple[int, int]


@dataclass(frozen=True)
class SubregularityFit:
    r_hat: float     # max distance / psi over usable pairs
    ls_slope: float  # least-squares slope through the origin
    n_used: int


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


def rate_bound_from_theorem(alpha: float, epsilon: float, r: float) -> float:
    """Linear rate c = sqrt(1 + eps - (1-alpha)/(r^2 alpha)) from the subregularity
    constant; unlike :func:`theta_linear`, r = sqrt(tau/eps) is excluded."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    tau = (1.0 - alpha) / alpha
    upper = math.sqrt(tau / epsilon) if epsilon > 0 else math.inf
    if r >= upper:
        raise ValueError(f"r={r} at or above the admissibility bound sqrt((1-a)/(a eps))={upper}")
    return math.sqrt(max(theta_linear(epsilon, tau, r), 0.0))


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
    """The report's ``rates`` block, written as ``dataclasses.asdict`` gives it."""

    series: List[Tuple[int, float]]
    q_linear: Optional[QLinearFit]
    r_linear: Optional[RLinearFit]
    fit_window: Tuple[int, int]
    converged_within_floor: bool = False
    floor: Optional[float] = None


def build_rate_report(
    steps: Sequence[int],
    distances: Sequence[float],
    burn_in_fraction: float = 0.2,
    floor: Optional[float] = None,
) -> RateReport:
    """Fit rates on a recorded distance series.

    The window drops the first ``burn_in_fraction`` of recorded steps (early
    transients) and, when a Monte-Carlo floor is supplied, stops where the
    series first dips under 3x the floor; past that point ratios measure
    sampling noise, not contraction.
    """
    steps = list(int(s) for s in steps)
    d = np.asarray(distances, dtype=float)
    series = list(zip(steps, d.tolist()))
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
        q_linear = fit_qlinear(d, window, steps)
    except ValueError:  # fewer than two positive entries in the window
        return RateReport(series, None, None, window, converged_within_floor=floor is not None, floor=floor)
    r_linear = fit_rlinear(d, window, steps)
    # the report records the requested window, also when a zero cut it short
    q_linear = replace(q_linear, window=window)
    r_linear = replace(r_linear, window=window)
    return RateReport(series, q_linear, r_linear, window, floor=floor)
