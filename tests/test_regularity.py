import numpy as np
import pytest

from rfilab.geometry import EuclideanSpace, SpiderPoint, SpiderSpace
from rfilab.operators import (
    AffineMap,
    ForwardBackward,
    HyperplaneProjection,
    Identity,
    OperatorFamily,
    PointProjection,
    SoftThreshold,
    SphereProjection,
    SpiderProx,
    quadratic_smooth_term,
)
from rfilab.regularity import (
    BoxPairSampler,
    SpiderPairSampler,
    check_hypomonotone,
    check_submonotone,
    dr_violation_bound,
    estimate_violation,
    estimate_violation_in_expectation,
    fb_violation_bound,
    psi_array,
    transport_discrepancy,
)

R1 = EuclideanSpace(1)
R2 = EuclideanSpace(2)


# ---------------------------------------------------------------------------
# transport discrepancy
# ---------------------------------------------------------------------------

def test_psi_trivial_cancellations():
    x = np.array([0.7])
    assert transport_discrepancy(R1, x, x, np.array([2.0]), np.array([2.0])) == pytest.approx(0.0, abs=1e-14)
    # F = Id: displacement difference vanishes
    a, b = np.array([1.3]), np.array([-0.4])
    assert transport_discrepancy(R1, a, b, a, b) == pytest.approx(0.0, abs=1e-14)


def test_psi_displacement_identity_example():
    # both the six-term form and the displacement form give 1 here
    val = transport_discrepancy(R1, np.array([0.0]), np.array([1.0]), np.array([0.0]), np.array([0.0]))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_psi_equals_displacement_form_bulk(rng):
    n = 100_000
    X, X0, FX, FX0 = (rng.normal(size=(n, 3)) * 3 for _ in range(4))
    six_term = psi_array(EuclideanSpace(3), X, X0, FX, FX0)
    displacement = np.sum(((X - FX) - (X0 - FX0)) ** 2, axis=1)
    scale = np.maximum(np.abs(six_term), np.abs(displacement))
    rel = np.abs(six_term - displacement) / np.maximum(scale, 1.0)
    assert np.max(rel) <= 1e-10


def test_psi_nonnegative_on_spider_bulk(rng):
    n = 100_000
    space = SpiderSpace(4)
    legs = rng.integers(0, 4, size=(2, n)).astype(float)
    radii = rng.uniform(0, 4, size=(2, n))
    X = np.stack([legs[0], radii[0]], axis=1)
    X0 = np.stack([legs[1], radii[1]], axis=1)
    X = space.pack(X)
    X0 = space.pack(X0)
    # F drawn from the scenario operator set: squared-distance proxes
    op = SpiderProx(space, SpiderPoint(2, 1.5), 0.7)
    vals = psi_array(space, X, X0, op.apply(X), op.apply(X0))
    assert vals.min() >= -1e-10


# ---------------------------------------------------------------------------
# violation estimation
# ---------------------------------------------------------------------------

def test_estimate_violation_hyperplane_projector():
    op = HyperplaneProjection(R2, np.array([1.0, -2.0]), 0.5)
    rep = estimate_violation(op, 0.5, BoxPairSampler(R2, -10, 10, seed=5), 10_000)
    assert rep.epsilon_hat <= 1e-10
    assert rep.n_used == 10_000


def test_estimate_violation_identity_any_alpha():
    for alpha in (0.2, 0.5, 0.9):
        rep = estimate_violation(Identity(R2), alpha, BoxPairSampler(R2, -5, 5, seed=2), 1000)
        assert rep.epsilon_hat == pytest.approx(0.0, abs=1e-12)


def test_estimate_violation_doubling_map():
    # d^2(Fx,Fy) = 4 d^2 and psi = d^2, so the needed violation is exactly 4
    op = AffineMap(R1, np.asarray(2.0), np.array([0.0]))
    rep = estimate_violation(op, 0.5, BoxPairSampler(R1, -3, 3, seed=9), 5000)
    assert rep.epsilon_hat == pytest.approx(4.0, abs=1e-9)


def test_estimate_violation_alpha_domain():
    with pytest.raises(ValueError):
        estimate_violation(Identity(R1), 1.0, BoxPairSampler(R1, -1, 1, seed=0), 10)


def test_in_expectation_two_point_and_singleton():
    family = OperatorFamily.uniform(
        [PointProjection(R1, np.array([-1.0])), PointProjection(R1, np.array([1.0]))]
    )
    samp = BoxPairSampler(R1, -4, 4, seed=3)
    rep = estimate_violation_in_expectation(family, 0.5, samp, 4000)
    # six-term psi cancellation noise divided by small d^2 leaves ~1e-10
    assert rep.epsilon_hat <= 1e-8

    single = OperatorFamily.uniform([AffineMap(R1, np.asarray(2.0), np.array([0.0]))])
    a = estimate_violation_in_expectation(single, 0.5, samp, 4000)
    b = estimate_violation(single.operators[0], 0.5, samp, 4000)
    assert a.epsilon_hat == pytest.approx(b.epsilon_hat, abs=1e-12)


def test_in_expectation_contraction_constant():
    r = 0.5
    family = OperatorFamily.uniform(
        [AffineMap(R1, np.asarray(r), np.array([1.0])), AffineMap(R1, np.asarray(r), np.array([-1.0]))]
    )
    rep = estimate_violation_in_expectation(family, (1 + r) / 2, BoxPairSampler(R1, -5, 5, seed=8), 10_000)
    assert rep.epsilon_hat <= 1e-10


def test_lifting_bound(rng):
    # the family violation never exceeds the worst member violation
    family = OperatorFamily.uniform(
        [
            AffineMap(R1, np.asarray(1.4), np.array([0.3])),
            AffineMap(R1, np.asarray(0.3), np.array([-1.0])),
            SoftThreshold(R1, 0.5),
        ]
    )
    samp = BoxPairSampler(R1, -6, 6, seed=17)
    exp_rep = estimate_violation_in_expectation(family, 0.6, samp, 5000)
    worst = max(estimate_violation(op, 0.6, samp, 5000).epsilon_hat for op in family.operators)
    assert exp_rep.epsilon_hat <= worst + 1e-8


def test_afne_implies_ane_on_sample():
    op = AffineMap(R2, np.asarray(1.2), np.array([0.0, 0.0]))
    samp = BoxPairSampler(R2, -4, 4, seed=4)
    rep = estimate_violation(op, 0.5, samp, 2000)
    A, B = samp.pairs(2000)
    d = R2.pair_dist(A, B)
    dF = R2.pair_dist(op.apply(A), op.apply(B))
    keep = d > 1e-12
    assert np.max(dF[keep] - np.sqrt(1 + rep.epsilon_hat) * d[keep]) <= 1e-8


def test_report_serializes():
    rep = estimate_violation(Identity(R2), 0.5, BoxPairSampler(R2, -1, 1, seed=1), 100)
    d = rep.to_dict()
    assert set(d) == {"alpha", "epsilon_hat", "n_pairs", "n_used", "region", "worst_pair"}


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def test_fb_violation_bound_values():
    assert fb_violation_bound(0.1, 1.0, 0.0, 0.0) == pytest.approx(0.02, abs=1e-15)
    assert fb_violation_bound(1.0, 1.0, -1.0, 0.0) == 0.0  # boundary t = |tau|/L^2
    assert fb_violation_bound(1e-12, 1.0, 0.0, 0.0) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        fb_violation_bound(0.0, 1.0, 0.0, 0.0)


def test_dr_violation_bound_values():
    assert dr_violation_bound(0.0, 0.0) == 0.0
    assert dr_violation_bound(0.0, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert dr_violation_bound(0.5, 0.5) == pytest.approx(1.5, abs=1e-15)
    assert dr_violation_bound(-0.4, 0.0) == 0.0  # clamped


def test_fb_empirical_below_bound(rng):
    # random PSD quadratic + convex g: sampled violation at alpha=2/3 under the bound
    for trial in range(5):
        gen = np.random.default_rng(100 + trial)
        M = gen.normal(size=(2, 2))
        f = quadratic_smooth_term(M @ M.T)
        t = float(gen.uniform(0.05, 0.5))
        op = ForwardBackward(R2, SoftThreshold(R2, 0.3), f, t)
        rep = estimate_violation(op, 2.0 / 3.0, BoxPairSampler(R2, -5, 5, seed=trial), 5000)
        assert rep.epsilon_hat <= fb_violation_bound(t, f.lipschitz, f.tau, 0.0) + 1e-6


# ---------------------------------------------------------------------------
# monotonicity constants
# ---------------------------------------------------------------------------

def test_check_hypomonotone_examples():
    samp = BoxPairSampler(R2, -4, 4, seed=11)
    assert check_hypomonotone(lambda x: x, samp, 2000) == pytest.approx(-1.0, abs=1e-9)
    assert check_hypomonotone(lambda x: np.ones(2), samp, 2000) == pytest.approx(0.0, abs=1e-12)
    assert check_hypomonotone(lambda x: -x, samp, 2000) == pytest.approx(1.0, abs=1e-9)


def test_check_submonotone_examples():
    samp = BoxPairSampler(EuclideanSpace(3), -5, 5, seed=7)
    st = SoftThreshold(EuclideanSpace(3), 1.0)
    assert check_submonotone(st, samp, 4000) <= 1e-10
    ident = Identity(EuclideanSpace(3))
    assert check_submonotone(ident, samp, 4000) == pytest.approx(0.0, abs=1e-12)


def test_check_submonotone_circle_projector_baseline():
    # prox-regular nonconvex target: positive violation; frozen regression value
    samp = BoxPairSampler(R2, low=0.3, high=2.0, seed=123)
    tau = check_submonotone(SphereProjection(R2, 1.0), samp, 4000)
    assert tau > 0.0
    assert tau == pytest.approx(1.6385462863445546, abs=1e-9)
    # the constant is exactly the sampled a(1/2)-fne violation of the projector
    rep = estimate_violation(SphereProjection(R2, 1.0), 0.5, samp, 4000)
    assert rep.epsilon_hat == pytest.approx(tau, abs=1e-9)


def test_spider_sampler_region_reported():
    space = SpiderSpace(3)
    samp = SpiderPairSampler(space, 2.0, seed=5)
    rep = estimate_violation(SpiderProx(space, SpiderPoint(1, 1.0), 0.5), 0.5, samp, 500)
    assert "spider" in rep.region
    assert rep.epsilon_hat <= 1e-10  # resolvent of a convex function
