from dataclasses import asdict

import numpy as np
import pytest

from rfilab.analysis import (
    build_rate_report,
    estimate_subregularity,
    fit_qlinear,
    fit_rlinear,
    rate_bound_from_theorem,
    theta_linear,
)


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------

def test_fit_qlinear_exact_geometric():
    series = 0.5 ** np.arange(12)
    fit = fit_qlinear(series)
    assert fit.rate == pytest.approx(0.5, abs=1e-14)
    assert fit.geometric_mean == pytest.approx(0.5, abs=1e-14)


def test_fit_qlinear_constant_series():
    fit = fit_qlinear(np.ones(10))
    assert fit.rate == pytest.approx(1.0, abs=1e-15)  # reported, not linear-convergent


def test_fit_qlinear_window_and_zeros():
    series = [1.0, 0.5, 0.25, 0.0, 7.0]
    fit = fit_qlinear(series)  # zero terminates the window
    assert fit.window == (0, 2)
    assert fit.rate == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        fit_qlinear([1.0])
    with pytest.raises(ValueError):
        fit_qlinear([1.0, 0.5], window=(0, 0))


def test_fit_rlinear_exact():
    series = 3.0 * 0.8 ** np.arange(15)
    fit = fit_rlinear(series)
    assert fit.beta == pytest.approx(3.0, abs=1e-10)
    assert fit.rate == pytest.approx(0.8, abs=1e-10)
    assert fit.residual <= 1e-12


def test_fit_rlinear_alternating_envelope():
    k = np.arange(20)
    series = np.where(k % 2 == 0, 0.9**k, 2 * 0.9**k)
    fit = fit_rlinear(series)
    assert fit.rate == pytest.approx(0.9, abs=0.01)  # R-linear despite ratio swings


def test_fit_rlinear_sublinear_flagged():
    k = np.arange(1, 400)
    series = 1.0 / k
    short = fit_rlinear(series, window=(0, 30))
    long = fit_rlinear(series, window=(0, 398 - 1))
    assert long.rate > short.rate  # fitted rate creeps toward 1 as the window grows
    assert long.rate > 0.97


# ---------------------------------------------------------------------------
# gauge algebra
# ---------------------------------------------------------------------------

def test_theta_linear_values():
    assert theta_linear(0.0, 1.0, np.sqrt(2.0)) == pytest.approx(0.5, abs=1e-14)
    assert theta_linear(0.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)  # lower edge
    assert theta_linear(0.02, 0.5, 1.0) == pytest.approx(0.52, abs=1e-14)


def test_theta_linear_window_errors():
    with pytest.raises(ValueError, match="below"):
        theta_linear(0.0, 1.0, 0.5)
    with pytest.raises(ValueError, match="above"):
        theta_linear(0.5, 1.0, 2.0)


def test_rate_bound_values():
    assert rate_bound_from_theorem(0.5, 0.0, np.sqrt(2.0)) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert rate_bound_from_theorem(2.0 / 3.0, 0.0, 1.0) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    # lower admissible edge: rate 0
    assert rate_bound_from_theorem(0.5, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        rate_bound_from_theorem(0.5, 0.5, 2.0)  # at/above the upper bound


def test_rate_bound_matches_theta_linear(rng):
    # rate^2 == gamma for random admissible (alpha, eps, r)
    for _ in range(1000):
        alpha = float(rng.uniform(0.05, 0.95))
        eps = float(rng.uniform(0.0, 0.5))
        tau = (1 - alpha) / alpha
        lo = np.sqrt(tau / (1 + eps))
        hi = np.sqrt(tau / eps) if eps > 0 else lo * 10
        r = float(rng.uniform(lo, min(hi, lo * 10) * 0.999))
        if r >= hi:
            continue
        c = rate_bound_from_theorem(alpha, eps, r)
        gamma = theta_linear(eps, tau, r)
        assert abs(c**2 - gamma) <= 1e-12


# ---------------------------------------------------------------------------
# subregularity
# ---------------------------------------------------------------------------

def test_estimate_subregularity_exact_ratio():
    psi = np.array([1.0, 2.0, 3.0])
    fit = estimate_subregularity(psi, 2.0 * psi)
    assert fit.r_hat == pytest.approx(2.0, abs=1e-15)
    assert fit.ls_slope == pytest.approx(2.0, abs=1e-12)


def test_estimate_subregularity_excludes_zero_psi():
    fit = estimate_subregularity([0.0, 1.0, 2.0], [5.0, 3.0, 6.0])
    assert fit.n_used == 2
    assert fit.r_hat == pytest.approx(3.0, abs=1e-15)
    with pytest.raises(ValueError):
        estimate_subregularity([], [])
    with pytest.raises(ValueError):
        estimate_subregularity([0.0], [1.0])


def test_estimate_subregularity_scale_covariance(rng):
    psi = rng.uniform(0.1, 2.0, size=50)
    dist = rng.uniform(0.1, 4.0, size=50)
    base = estimate_subregularity(psi, dist)
    scaled = estimate_subregularity(7.0 * psi, dist)
    assert scaled.r_hat == pytest.approx(base.r_hat / 7.0, rel=1e-15)


# ---------------------------------------------------------------------------
# aggregated report
# ---------------------------------------------------------------------------

def test_build_rate_report_respects_floor():
    d = [10.0, 5.0, 2.5, 1.25, 0.02, 0.018, 0.022]
    report = build_rate_report(range(7), d, burn_in_fraction=0.0, floor=0.01)
    assert report.q_linear is not None
    assert report.q_linear.rate == pytest.approx(0.5, rel=0.3)
    assert report.fit_window[1] <= 4  # stops once the series dips under 3x floor


def test_build_rate_report_converged_series():
    d = [0.01, 0.012, 0.009]
    report = build_rate_report(range(3), d, burn_in_fraction=0.0, floor=0.01)
    assert report.converged_within_floor
    assert report.q_linear is None


def test_build_rate_report_uses_step_axis():
    # recording every 2 steps must still give the per-step rate
    steps = [0, 2, 4, 6, 8]
    d = [1.0, 0.25, 0.0625, 0.25**3, 0.25**4]
    report = build_rate_report(steps, d, burn_in_fraction=0.0)
    assert report.q_linear.rate == pytest.approx(0.5, abs=1e-12)
    assert report.r_linear.rate == pytest.approx(0.5, abs=1e-12)


def test_rate_report_fields_are_the_report_rates_keys():
    # report.json's rates block is asdict(build_rate_report(...)), so the
    # dataclass fields are its keys, nested fits included
    rates = asdict(build_rate_report(range(6), 0.5 ** np.arange(6), burn_in_fraction=0.0, floor=1e-6))
    assert set(rates) == {"series", "q_linear", "r_linear", "fit_window", "converged_within_floor", "floor"}
    assert set(rates["q_linear"]) == {"rate", "geometric_mean", "window"}
    assert set(rates["r_linear"]) == {"beta", "rate", "residual", "window"}
