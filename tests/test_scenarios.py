import numpy as np
import pytest

from rfilab.geometry import SpiderPoint
from rfilab.operators import quadratic_smooth_term
from rfilab.regularity import (
    BoxPairSampler,
    GaussianPairSampler,
    check_submonotone,
    dr_violation_bound,
    estimate_violation,
    estimate_violation_in_expectation,
    fb_violation_bound,
)
from rfilab.rfi import ChainConfig, run_chain, run_ensemble
from rfilab.scenarios import (
    SCENARIO_BUILDERS,
    build_scenario,
    floor_pair_seeds,
    long_run_reference,
    monte_carlo_floor,
    phase_error,
    random_kaczmarz_instance,
    scenario_contraction,
    scenario_dr_parallel_lines,
    scenario_kaczmarz,
    scenario_phase_retrieval,
    scenario_sgd_linear_noise,
    scenario_spider_frechet,
    scenario_two_point,
    spider_frechet_mean,
    spider_frechet_mean_grid,
)
from rfilab.transport import Ensemble, markov_transport_discrepancy, wasserstein


# ---------------------------------------------------------------------------
# two-point
# ---------------------------------------------------------------------------

def test_two_point_structure():
    sc = scenario_two_point()
    traj = run_ensemble(ChainConfig(sc.family, sc.initial(400, 1), 4, seed=2))
    for ens in traj.ensembles[1:]:
        assert set(np.unique(ens.points)) <= {-1.0, 1.0}
    # least-squares point is the mean of the invariant measure
    pi = sc.ground_truth.invariant_sampler(400, 0)
    assert float(pi.points.mean()) == pytest.approx(sc.ground_truth.extras["mean"], abs=1e-12)


def test_two_point_one_step_attainment():
    sc = scenario_two_point()
    n = 1000
    traj = run_ensemble(ChainConfig(sc.family, sc.initial(n, 3), 1, seed=4))
    pi = sc.ground_truth.invariant_sampler(n, 0)
    floor = monte_carlo_floor(sc, n, 1, seed=5)
    value, _ = wasserstein(traj.final(), pi)
    assert value <= 3 * floor


def test_two_point_violation_zero():
    sc = scenario_two_point()
    rep = estimate_violation_in_expectation(
        sc.family, 0.5, BoxPairSampler(sc.space, -4, 4, seed=6), 4000
    )
    assert rep.epsilon_hat <= 1e-8


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def test_contraction_invariant_is_bernoulli_convolution():
    sc = scenario_contraction(0.5)
    n = 2000
    floor = monte_carlo_floor(sc, n, 40, seed=9, repeats=5)
    # r = 1/2: the invariant law is uniform on [-2, 2]; single W2 draws
    # fluctuate, so compare the median of a few independent draws
    gen = np.random.default_rng(8)
    draws = []
    for seed in (7, 17, 27):
        ref = sc.ground_truth.invariant_sampler(n, seed)
        uniform = Ensemble(sc.space, gen.uniform(-2, 2, size=(n, 1)))
        draws.append(wasserstein(ref, uniform)[0])
    assert float(np.median(draws)) <= 2 * floor


def test_contraction_rate_and_violation():
    sc = scenario_contraction(0.5)
    n = 2000
    ref = sc.ground_truth.invariant_sampler(n, 10)
    traj = run_ensemble(ChainConfig(sc.family, sc.initial(n, 11), 12, seed=12))
    dists = [wasserstein(ens, ref)[0] for ens in traj.ensembles]
    ratios = np.array(dists[1:9]) / np.array(dists[:8])
    assert np.max(ratios) <= sc.ground_truth.q_rate + 0.1
    rep = estimate_violation_in_expectation(
        sc.family, sc.ground_truth.alpha, BoxPairSampler(sc.space, -5, 5, seed=13), 10_000
    )
    assert rep.epsilon_hat <= 1e-8


def test_contraction_subregularity_constants_consistent():
    # r_hat and the e:Hood constant q_hat fitted from one run must satisfy
    # r_hat <= (q_hat (1 - r))^{-1} (1 + tol)
    r = 0.5
    sc = scenario_contraction(r)
    n = 2000
    ref = sc.ground_truth.invariant_sampler(n, 20)
    traj = run_ensemble(ChainConfig(sc.family, sc.initial(n, 21), 10, seed=22))
    dists = [wasserstein(ens, ref)[0] for ens in traj.ensembles]
    psis = [markov_transport_discrepancy(sc.family, ens, [ref]) for ens in traj.ensembles]
    consecutive = [
        wasserstein(traj.ensembles[i + 1], traj.ensembles[i])[0] for i in range(len(dists) - 1)
    ]
    keep = [i for i in range(len(consecutive)) if psis[i] > 0 and consecutive[i] > 0]
    r_hat = max(dists[i] / psis[i] for i in keep)
    q_hat = min(psis[i] / consecutive[i] for i in keep)
    assert r_hat <= (1 / (q_hat * (1 - r))) * 1.25
    # for this family Psi(mu) = (1-r) W2(mu, pi), so r_hat itself is ~ 1/(1-r)
    assert r_hat == pytest.approx(1.0 / (1.0 - r), rel=0.15)


# ---------------------------------------------------------------------------
# kaczmarz
# ---------------------------------------------------------------------------

def test_kaczmarz_consistent_collapse():
    A, b, x_star = random_kaczmarz_instance(3, 2, consistent=True, seed=5)
    sc = scenario_kaczmarz(A, b, consistent=True)
    assert np.allclose(sc.ground_truth.extras["x_star"], x_star, atol=1e-8)
    n = 300
    traj = run_ensemble(ChainConfig(sc.family, sc.initial(n, 30), 60, seed=31))
    target = Ensemble(sc.space, np.tile(x_star, (n, 1)))
    dists = [wasserstein(ens, target)[0] for ens in traj.ensembles]
    assert all(d2 <= d1 + 1e-9 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] < 0.2 * dists[0]


def test_kaczmarz_single_hyperplane_one_step():
    sc = scenario_kaczmarz(np.array([[1.0, 0.0]]), np.array([2.0]), consistent=True)
    path = run_chain(sc.family, np.array([7.0, 3.0]), 3, seed=0)
    assert np.allclose(path[1], [2.0, 3.0])
    assert np.allclose(path[2], path[1])  # idempotent from then on


def test_kaczmarz_two_parallel_lines_cycle_support():
    # the only inconsistent two-line geometry: iterates live on the two lines
    A = np.array([[0.0, 1.0], [0.0, 1.0]])
    b = np.array([0.0, 1.5])
    sc = scenario_kaczmarz(A, b, consistent=False)
    traj = run_ensemble(ChainConfig(sc.family, sc.initial(100, 1), 5, seed=2))
    ys = traj.final().points[:, 1]
    assert set(np.round(np.unique(ys), 12)) <= {0.0, 1.5}


def test_kaczmarz_inconsistent_invariance():
    A, b, _ = random_kaczmarz_instance(3, 2, consistent=False, seed=6)
    sc = scenario_kaczmarz(A, b, consistent=False)
    n, k = 400, 120
    pi = long_run_reference(sc, n, k, seed=33)
    floor = monte_carlo_floor(sc, n, k, seed=34)
    psi = markov_transport_discrepancy(sc.family, pi, [long_run_reference(sc, n, k, seed=35)])
    assert psi <= 3 * floor


# ---------------------------------------------------------------------------
# stochastic gradient descent with linear noise
# ---------------------------------------------------------------------------

def test_sgd_example_rate_and_bound():
    f = quadratic_smooth_term(np.eye(1))
    sc = scenario_sgd_linear_noise(f, [np.array([1.0]), np.array([-1.0])], t=0.5)
    n = 2000
    ref = sc.ground_truth.invariant_sampler(n, 40)
    traj = run_ensemble(ChainConfig(sc.family, sc.initial(n, 41), 10, seed=42))
    dists = [wasserstein(ens, ref)[0] for ens in traj.ensembles]
    ratios = np.array(dists[1:6]) / np.array(dists[:5])
    assert np.max(ratios) <= 0.5 + 0.1  # contraction factor 1 - t
    rep = estimate_violation_in_expectation(
        sc.family, 2.0 / 3.0, BoxPairSampler(sc.space, -5, 5, seed=43), 10_000
    )
    assert rep.epsilon_hat <= fb_violation_bound(0.5, f.lipschitz, f.tau, 0.0) + 1e-6


def test_sgd_zero_atoms_is_deterministic_descent():
    f = quadratic_smooth_term(np.eye(2))
    sc = scenario_sgd_linear_noise(f, [np.zeros(2)], t=0.5)
    path = run_chain(sc.family, np.array([4.0, -2.0]), 30, seed=1)
    assert np.linalg.norm(path[-1]) <= 1e-8


def test_sgd_step_window_warning():
    f = quadratic_smooth_term(np.eye(1))
    with pytest.warns(UserWarning, match="window"):
        sc = scenario_sgd_linear_noise(f, [np.array([1.0])], t=1.5)
    assert "window" in sc.notes


# ---------------------------------------------------------------------------
# phase retrieval
# ---------------------------------------------------------------------------

def test_phase_retrieval_fixed_points_and_boundedness():
    sc = scenario_phase_retrieval(n=64, n_masks=3, seed=11)
    rho = sc.ground_truth.extras["rho_star"]
    for op in sc.family.operators:
        assert np.linalg.norm(op(rho) - rho) <= 1e-12 * max(1.0, np.linalg.norm(rho))
    path = run_chain(sc.family, sc.initial(1, 50).point(0), 500, seed=51)
    norms = [float(np.linalg.norm(x)) for x in path]
    assert max(norms) <= 10.0 * max(1.0, np.linalg.norm(rho))
    errs = [phase_error(x, rho) for x in path]
    assert errs[-1] <= errs[0]


def test_phase_retrieval_single_mask_projector_fixed_points():
    # with the qualitative set removed, the DR map reduces to the magnitude
    # projector, whose fixed points are exactly the constraint set
    from rfilab.operators import DouglasRachford, Identity, MagnitudeProjection

    sc = scenario_phase_retrieval(n=32, n_masks=1, seed=3)
    mask = sc.ground_truth.extras["masks"][0]
    mags = sc.ground_truth.extras["magnitudes"][0]
    space = sc.space
    proj = MagnitudeProjection(space, mags, mask)
    free = DouglasRachford(space, Identity(space), proj)
    gen = np.random.default_rng(4)
    z = gen.normal(size=32) + 1j * gen.normal(size=32)
    member = proj(z)  # a constructed point of the constraint set
    assert np.linalg.norm(free(member) - member) <= 1e-10


def test_phase_retrieval_violation_below_dr_bound():
    sc = scenario_phase_retrieval(n=64, n_masks=4, seed=7)
    rho = sc.ground_truth.extras["rho_star"]
    sampler = GaussianPairSampler(sc.space, rho, scale=0.1, seed=70)
    for op in sc.family.operators:
        tau_hat = check_submonotone(op.g_resolvent, sampler, 2000)
        rep = estimate_violation(op, 0.5, sampler, 2000)
        assert rep.epsilon_hat <= dr_violation_bound(0.0, max(tau_hat, 0.0)) + 1e-4


def test_phase_retrieval_desk_scale_cap():
    with pytest.raises(ValueError):
        scenario_phase_retrieval(n=512)


# ---------------------------------------------------------------------------
# spider Frechet means
# ---------------------------------------------------------------------------

def test_spider_symmetric_anchors_mean_is_origin():
    anchors = [SpiderPoint(0, 1.0), SpiderPoint(1, 1.0), SpiderPoint(2, 1.0)]
    sc = scenario_spider_frechet(anchors, lam=0.1)
    truth = sc.ground_truth.extras["frechet_mean"]
    assert truth == SpiderPoint(0, 0.0)
    oracle = spider_frechet_mean_grid(sc.space, sc.space.pack(anchors), resolution=1e-3)
    assert sc.space.dist(truth, oracle) <= 2e-3


def test_spider_closed_form_matches_grid(rng):
    from rfilab.geometry import SpiderSpace

    space = SpiderSpace(4)
    for _ in range(10):
        pts = np.stack(
            [rng.integers(0, 4, size=6).astype(float), rng.uniform(0, 2.0, size=6)], axis=1
        )
        closed = spider_frechet_mean(space, pts)
        grid = spider_frechet_mean_grid(space, pts, resolution=2e-3)
        assert space.dist(closed, grid) <= 5e-3


def test_spider_single_anchor_converges_to_anchor():
    anchor = SpiderPoint(2, 1.5)
    sc = scenario_spider_frechet([anchor], lam=0.5, legs=3)
    path = run_chain(sc.family, SpiderPoint(0, 2.0), 80, seed=3)
    assert sc.space.dist(path[-1], anchor) <= 1e-6


def test_spider_two_anchor_bias_curve():
    # anchors at radii 0 and 2 on one leg: mean at radius 1; the stationary
    # spread around it shrinks as lam decreases
    anchors = [SpiderPoint(1, 0.0), SpiderPoint(1, 2.0)]
    mean_point = SpiderPoint(1, 1.0)
    errs = {}
    for lam in (0.5, 0.1, 0.02):
        sc = scenario_spider_frechet(anchors, lam=lam, legs=3)
        assert sc.ground_truth.extras["frechet_mean"] == mean_point
        traj = run_ensemble(ChainConfig(sc.family, sc.initial(500, 5), 600, seed=6, record_every=600))
        pts = traj.final().points
        cand = np.repeat(sc.space.pack([mean_point]), len(pts), axis=0)
        errs[lam] = float(np.mean(sc.space.pair_dist(pts, cand)))
    assert errs[0.02] < errs[0.1] < errs[0.5]
    assert errs[0.02] <= 0.15


# ---------------------------------------------------------------------------
# Douglas-Rachford on parallel lines
# ---------------------------------------------------------------------------

def test_spider_diminishing_comparison_reaches_the_mean():
    from rfilab.scenarios import spider_diminishing_comparison

    anchors = [SpiderPoint(1, 0.0), SpiderPoint(1, 2.0)]
    path = spider_diminishing_comparison(anchors, lam0=2.0, x0=SpiderPoint(2, 1.0), steps=4000, seed=3, legs=3)
    final = path[-1]
    # decaying steps average out the anchor noise and drift to the mean
    assert final.leg == 1
    assert abs(final.radius - 1.0) <= 0.15


def test_dr_parallel_lines_convex_violation_zero():
    sc = scenario_dr_parallel_lines(gap=2.0)
    rep = estimate_violation_in_expectation(
        sc.family, 0.5, BoxPairSampler(sc.space, -4, 4, seed=60), 5000
    )
    assert rep.epsilon_hat <= 1e-8


def test_dr_parallel_lines_self_consistency():
    sc = scenario_dr_parallel_lines(gap=2.0)
    n, k = 400, 60
    pi = long_run_reference(sc, n, k, seed=61)
    stepped = run_ensemble(ChainConfig(sc.family, pi, 1, seed=62)).final()
    floor = monte_carlo_floor(sc, n, k, seed=63)
    value, _ = wasserstein(stepped, pi)
    assert value <= 3 * floor


# ---------------------------------------------------------------------------
# shared invariance properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "factory",
    [
        scenario_two_point,
        lambda: scenario_contraction(0.5, offset=5.0),
        lambda: scenario_kaczmarz(*random_kaczmarz_instance(3, 2, False, seed=1)[:2], consistent=False),
        lambda: scenario_sgd_linear_noise(
            quadratic_smooth_term(np.eye(1)), [np.array([1.0]), np.array([-1.0])], t=0.5
        ),
        lambda: scenario_spider_frechet(
            [SpiderPoint(0, 1.0), SpiderPoint(1, 1.0), SpiderPoint(2, 1.0)], lam=0.1
        ),
        lambda: scenario_dr_parallel_lines(2.0),
        lambda: scenario_phase_retrieval(n=32, n_masks=3, seed=2),
    ],
    ids=["two_point", "contraction", "kaczmarz", "sgd", "spider", "dr_lines", "phase_retrieval"],
)
def test_long_run_invariance_self_consistency(factory):
    sc = factory()
    n, k = 400, 120
    pi = long_run_reference(sc, n, k, seed=80)
    stepped = run_ensemble(ChainConfig(sc.family, pi, 1, seed=81)).final()
    floor = monte_carlo_floor(sc, n, k, seed=82)
    value, _ = wasserstein(stepped, pi)
    assert value <= 3 * floor
    psi = markov_transport_discrepancy(sc.family, pi, [long_run_reference(sc, n, k, seed=83)])
    assert psi <= 3 * floor


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_build_scenario_registry():
    for name in ("two_point", "contraction", "kaczmarz", "sgd_linear_noise", "spider_frechet", "dr_parallel_lines"):
        sc = build_scenario(name, {})
        assert sc.family.weights.sum() == pytest.approx(1.0, abs=1e-12)
    sc = build_scenario("phase_retrieval", {"n": 16, "n_masks": 2})
    assert sc.params["n"] == 16
    with pytest.raises(ValueError, match="unknown scenario"):
        build_scenario("nope", {})


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_build_scenario_rejects_unknown_params(name):
    # {"R": 0.9} used to build contraction with r = 0.5, the default
    assert "R" not in SCENARIO_BUILDERS[name].params
    with pytest.raises(ValueError, match=f"scenario '{name}' has no parameter 'R'"):
        build_scenario(name, {"R": 0.9})


def test_monte_carlo_floor_is_the_median_over_its_pair_seeds():
    sc = scenario_contraction()
    draws = [
        wasserstein(long_run_reference(sc, 40, 5, a), long_run_reference(sc, 40, 5, b))[0]
        for a, b in floor_pair_seeds(9, 3)
    ]
    assert monte_carlo_floor(sc, 40, 5, seed=9) == float(np.median(draws))


def test_builders_are_seed_deterministic():
    a = build_scenario("phase_retrieval", {"n": 16, "n_masks": 2, "instance_seed": 9})
    b = build_scenario("phase_retrieval", {"n": 16, "n_masks": 2, "instance_seed": 9})
    assert np.array_equal(a.ground_truth.extras["rho_star"], b.ground_truth.extras["rho_star"])
    ia = a.initial(10, 3)
    ib = b.initial(10, 3)
    assert np.array_equal(ia.points, ib.points)
