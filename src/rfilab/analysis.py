"""Post-processing: rate fits, the linear-gauge rate bound, subregularity constants.

:func:`build_rate_report` classifies a distance series (d_k) by two fits on
one window, which it alone computes: the recorded steps after a burn-in
fraction, up to where the series, past that fraction, first dips under 3x
the Monte-Carlo floor, and up to its first entry that is not positive.  The
Q-linear rate is the maximum per-step ratio over the window (conservative:
the defining inequality quantifies over every k), with the geometric-mean
ratio carried as a secondary diagnostic.  The R-linear fit is a
least-squares line on (k, log d_k), giving d_k <= beta * c^k up to the
reported residual.

Linear metric subregularity of the Markov transport discrepancy with
constant r turns, together with a firm-nonexpansiveness constant alpha and
violation eps, into a linear contraction factor

    gamma = 1 + eps - tau / r^2,   tau = (1 - alpha) / alpha,

valid on the admissibility window sqrt(tau/(1+eps)) <= r < sqrt(tau/eps);
the per-step distance rate is c = sqrt(gamma), which
:func:`rate_bound_from_theorem` computes and checks the window for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "QLinearFit",
    "RLinearFit",
    "SubregularityFit",
    "RateReport",
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


# ---------------------------------------------------------------------------
# gauge algebra
# ---------------------------------------------------------------------------

def rate_bound_from_theorem(alpha: float, epsilon: float, r: float) -> float:
    """Linear rate c = sqrt(1 + eps - tau/r^2), tau = (1-alpha)/alpha, from the
    subregularity constant r on sqrt(tau/(1+eps)) <= r < sqrt(tau/eps)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if epsilon < 0 or r <= 0:
        raise ValueError(f"need epsilon >= 0 and r > 0, got epsilon={epsilon}, r={r}")
    tau = (1.0 - alpha) / alpha
    lower = math.sqrt(tau / (1.0 + epsilon))
    upper = math.sqrt(tau / epsilon) if epsilon > 0 else math.inf
    if r < lower * (1.0 - 1e-15):
        raise ValueError(f"r={r} below the admissibility bound sqrt(tau/(1+eps))={lower}")
    if r >= upper:
        raise ValueError(f"r={r} at or above the admissibility bound sqrt(tau/eps)={upper}")
    return math.sqrt(max(1.0 + epsilon - tau / (r * r), 0.0))


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
    series first dips under 3x the floor after the burn-in (entries the
    window drops are not looked at): past it, ratios measure sampling
    noise.  Both fits stop before the window's first entry that is not
    positive (a zero has no ratio or logarithm) and record the window as it
    was before that cut.  A ratio spanning g steps is taken to the power
    1/g.  With fewer than two entries left nothing is fitted, and the series
    counts as converged when an entry of the window is within 3x the floor.
    """
    steps = list(int(s) for s in steps)
    d = np.asarray(distances, dtype=float)
    series = list(zip(steps, d.tolist()))
    lo = int(np.floor(burn_in_fraction * (len(d) - 1)))
    hi = len(d) - 1
    if floor is not None and floor > 0:
        below = lo + np.flatnonzero(d[lo:] <= 3.0 * floor)
        if below.size and below[0] > lo + 1:
            hi = int(below[0])
        elif below.size:
            return RateReport(series, None, None, (lo, hi), converged_within_floor=True, floor=floor)
    window = (lo, hi)
    w = d[lo : hi + 1]
    m = int(np.argmin(np.append(w > 0.0, False)))  # entries before the first that is not positive
    if m < 2:
        converged = floor is not None and bool(np.any(w <= 3.0 * floor))
        return RateReport(series, None, None, window, converged_within_floor=converged, floor=floor)
    k, w = np.asarray(steps, dtype=float)[lo : lo + m], w[:m]
    ratios = (w[1:] / w[:-1]) ** (1.0 / np.diff(k))
    q_linear = QLinearFit(
        rate=float(np.max(ratios)), geometric_mean=float(np.exp(np.mean(np.log(ratios)))), window=window
    )
    y = np.log(w)
    coef = np.polyfit(k, y, 1)
    residual = float(np.sqrt(np.mean((y - np.polyval(coef, k)) ** 2)))
    r_linear = RLinearFit(beta=float(np.exp(coef[1])), rate=float(np.exp(coef[0])), residual=residual, window=window)
    return RateReport(series, q_linear, r_linear, window, floor=floor)
