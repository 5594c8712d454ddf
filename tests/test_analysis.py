import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rfilab.analysis import build_rate_report, estimate_subregularity, rate_bound_from_theorem


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------

def _fits(series):
    report = build_rate_report(range(len(series)), series, burn_in_fraction=0.0)
    return report.q_linear, report.r_linear


def test_fit_qlinear_exact_geometric():
    fit, _ = _fits(0.5 ** np.arange(12))
    assert fit.rate == pytest.approx(0.5, abs=1e-14)
    assert fit.geometric_mean == pytest.approx(0.5, abs=1e-14)


def test_fit_qlinear_constant_series():
    fit, _ = _fits(np.ones(10))
    assert fit.rate == pytest.approx(1.0, abs=1e-15)  # reported, not linear-convergent


def test_fit_qlinear_window_and_zeros():
    series = [1.0, 0.5, 0.25, 0.0, 7.0]
    fit, _ = _fits(series)  # zero terminates the fit, not the recorded window
    assert fit.window == (0, 4)
    assert fit.rate == pytest.approx(0.5, abs=1e-15)
    assert oracles.fit_qlinear(series).window == (0, 2)
    assert _fits([1.0]) == (None, None)
    assert build_rate_report(range(2), [1.0, 0.5], burn_in_fraction=1.0).q_linear is None  # window (1, 1)


def test_fit_rlinear_exact():
    _, fit = _fits(3.0 * 0.8 ** np.arange(15))
    assert fit.beta == pytest.approx(3.0, abs=1e-10)
    assert fit.rate == pytest.approx(0.8, abs=1e-10)
    assert fit.residual <= 1e-12


def test_fit_rlinear_alternating_envelope():
    k = np.arange(20)
    series = np.where(k % 2 == 0, 0.9**k, 2 * 0.9**k)
    _, fit = _fits(series)
    assert fit.rate == pytest.approx(0.9, abs=0.01)  # R-linear despite ratio swings


def test_fit_rlinear_sublinear_flagged():
    k = np.arange(1, 400)
    series = 1.0 / k
    _, short = _fits(series[:31])
    _, long = _fits(series[:398])
    assert long.rate > short.rate  # fitted rate creeps toward 1 as the window grows
    assert long.rate > 0.97


# ---------------------------------------------------------------------------
# gauge algebra
# ---------------------------------------------------------------------------

def test_theta_linear_values():
    # gamma = c^2 at alpha = 1 / (1 + tau)
    assert rate_bound_from_theorem(0.5, 0.0, np.sqrt(2.0)) ** 2 == pytest.approx(0.5, abs=1e-14)
    assert rate_bound_from_theorem(0.5, 0.0, 1.0) ** 2 == pytest.approx(0.0, abs=1e-14)  # lower edge
    assert rate_bound_from_theorem(2.0 / 3.0, 0.02, 1.0) ** 2 == pytest.approx(0.52, abs=1e-14)


def test_theta_linear_window_errors():
    with pytest.raises(ValueError, match="below"):
        rate_bound_from_theorem(0.5, 0.0, 0.5)
    with pytest.raises(ValueError, match="above"):
        rate_bound_from_theorem(0.5, 0.5, 2.0)
    with pytest.raises(ValueError, match="above"):
        rate_bound_from_theorem(0.5, 0.5, math.sqrt(2.0))  # the upper edge itself is excluded
    for alpha, eps, r in [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.5, -0.1, 1.0), (0.5, 0.0, 0.0), (0.5, 0.0, -1.0)]:
        with pytest.raises(ValueError):
            rate_bound_from_theorem(alpha, eps, r)


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
        gamma = oracles.theta_linear(eps, tau, r)
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


def test_build_rate_report_floor_cut_skips_the_burn_in():
    # entry 0 lies under 3x the floor but before the window (2, 10): the cut
    # is the first entry of the window under it, 0.08 at index 8
    d = [0.1, 10, 5, 2.5, 1.25, 0.62, 0.31, 0.16, 0.08, 0.04, 0.02]
    report = build_rate_report(range(11), d, floor=0.05)
    assert not report.converged_within_floor
    assert report.fit_window == report.q_linear.window == report.r_linear.window == (2, 8)
    assert report.q_linear.rate == pytest.approx(0.16 / 0.31)


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


@pytest.mark.parametrize(
    "steps, d, floor, converged",
    [
        ([0], [49.96], 0.15, False),  # K = 0: one entry far above the floor
        ([0], [49.96], 0.0, False),
        ([0], [49.96], None, False),
        ([], [], 0.15, False),
        ([0, 1], [5.0, np.nan], 0.15, False),  # a NaN is no evidence either way
        ([0, 1, 2], [5.0, 0.0, 1.0], 0.0, True),  # an exact zero with a floor of 0
        ([0, 1, 2], [5.0, 0.0, 1.0], None, False),
        ([0], [0.3], 0.15, True),  # within 3x the floor
    ],
    ids=["k0_floor", "k0_floor_zero", "k0_no_floor", "empty", "nan", "zero_floor_zero", "zero_no_floor", "k0_within"],
)
def test_build_rate_report_short_series_is_converged_only_within_the_floor(steps, d, floor, converged):
    report = build_rate_report(steps, d, burn_in_fraction=0.0, floor=floor)
    assert report.q_linear is None and report.r_linear is None
    assert report.converged_within_floor is converged


@settings(max_examples=400, deadline=None)
@given(
    data=st.lists(st.tuples(st.integers(1, 4), st.floats(0.05, 1.2)), max_size=30),
    specials=st.lists(st.tuples(st.integers(0, 29), st.sampled_from([0.0, math.nan])), max_size=2),
    burn_in_fraction=st.one_of(st.just(0.0), st.just(0.2), st.floats(0.0, 1.0)),
    floor=st.one_of(st.none(), st.just(0.0), st.floats(1e-3, 1.0)),
)
def test_build_rate_report_is_the_two_fits_on_their_own_windows(data, specials, burn_in_fraction, floor):
    # the one-window fold against the separate fits, each windowing the
    # series itself, to the byte: repr tells nan, -0.0 and numpy scalars
    # apart.  The series falls from 10 by a factor per step, with uneven
    # steps, so that floors cut it, with a zero or NaN put in at random
    steps = np.cumsum([gap for gap, _ in data]).tolist()
    d = (10.0 * np.cumprod([factor for _, factor in data])).tolist()
    for i, value in specials:
        if i < len(d):
            d[i] = value
    got = asdict(build_rate_report(steps, d, burn_in_fraction, floor))
    assert repr(got) == repr(asdict(oracles.build_rate_report(steps, d, burn_in_fraction, floor)))
