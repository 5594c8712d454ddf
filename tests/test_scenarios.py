import inspect

import numpy as np
import pytest

from conftest import chain_path, phase_error, point, spider_frechet_mean_grid
from oracles import (
    GaussianPairSampler,
    balanced_two_point,
    check_submonotone,
    contraction_invariant_unblocked,
    distance,
    sgd_invariant_unblocked,
)

from rfilab.geometry import EuclideanSpace, SpiderPoint
from rfilab.operators import ForwardBackward, Identity, quadratic_smooth_term
from rfilab.regularity import (
    BoxPairSampler,
    dr_violation_bound,
    estimate_violation,
    estimate_violation_in_expectation,
    fb_violation_bound,
)
from rfilab.rfi import ChainConfig, derive_seed, run_ensemble
from rfilab.scenarios import (
    SCENARIO_BUILDERS,
    ParamError,
    build_scenario,
    floor_draw,
    floor_seeds,
    floor_source,
    long_run_reference,
    monte_carlo_floor,
    random_kaczmarz_instance,
    scenario_contraction,
    scenario_dr_parallel_lines,
    scenario_kaczmarz,
    scenario_phase_retrieval,
    scenario_sgd_linear_noise,
    scenario_spider_frechet,
    scenario_two_point,
    spider_frechet_mean,
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
    pi = balanced_two_point(sc.space, 400)
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
    ).in_expectation
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
    assert np.max(ratios) <= sc.ground_truth.extras["r"] + 0.1
    rep = estimate_violation_in_expectation(
        sc.family, sc.ground_truth.alpha, BoxPairSampler(sc.space, -5, 5, seed=13), 10_000
    ).in_expectation
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
    psis = [markov_transport_discrepancy(sc.family, ens, ref) for ens in traj.ensembles]
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
    path = chain_path(sc.family, np.array([7.0, 3.0]), 3, seed=0)
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
    psi = markov_transport_discrepancy(sc.family, pi, long_run_reference(sc, n, k, seed=35))
    assert psi <= 3 * floor


# ---------------------------------------------------------------------------
# stochastic gradient descent with linear noise
# ---------------------------------------------------------------------------

def test_sgd_example_rate_and_bound():
    sc = scenario_sgd_linear_noise()  # f(x) = x^2/2, atoms +-1, t = 0.5
    n = 2000
    ref = sc.ground_truth.invariant_sampler(n, 40)
    traj = run_ensemble(ChainConfig(sc.family, sc.initial(n, 41), 10, seed=42))
    dists = [wasserstein(ens, ref)[0] for ens in traj.ensembles]
    ratios = np.array(dists[1:6]) / np.array(dists[:5])
    assert np.max(ratios) <= 0.5 + 0.1  # contraction factor 1 - t
    rep = estimate_violation_in_expectation(
        sc.family, 2.0 / 3.0, BoxPairSampler(sc.space, -5, 5, seed=43), 10_000
    ).in_expectation
    extras = sc.ground_truth.extras
    assert rep.epsilon_hat <= fb_violation_bound(0.5, extras["lipschitz"], extras["tau_f"], 0.0) + 1e-6


def test_sgd_zero_atoms_is_deterministic_descent():
    sc = scenario_sgd_linear_noise(dim=2, atoms=[np.zeros(2)], t=0.5)
    path = chain_path(sc.family, np.array([4.0, -2.0]), 30, seed=1)
    assert np.linalg.norm(path[-1]) <= 1e-8


def test_sgd_step_that_lands_on_the_minimizer_has_a_sampler():
    # t Q = I: x -> -t (q + zeta), so the invariant law is the atoms' image
    sc = scenario_sgd_linear_noise(Q=[[2.0]], t=0.5)
    assert sc.ground_truth.extras["step_contraction"] == 0.0
    pts = sc.ground_truth.invariant_sampler(100, 3).points
    assert set(np.unique(pts)) == {-0.5, 0.5}


def test_sgd_step_window_warning():
    with pytest.warns(UserWarning, match="window"):
        sc = scenario_sgd_linear_noise(atoms=[np.array([1.0])], t=1.5)
    assert "window" in sc.notes


# ---------------------------------------------------------------------------
# phase retrieval
# ---------------------------------------------------------------------------

def test_phase_retrieval_fixed_points_and_boundedness():
    sc = scenario_phase_retrieval(n=64, n_masks=3, instance_seed=11)
    rho = sc.ground_truth.extras["rho_star"]
    for op in sc.family.operators:
        assert np.linalg.norm(op(rho) - rho) <= 1e-12 * max(1.0, np.linalg.norm(rho))
    path = chain_path(sc.family, point(sc.initial(1, 50), 0), 500, seed=51)
    norms = [float(np.linalg.norm(x)) for x in path]
    assert max(norms) <= 10.0 * max(1.0, np.linalg.norm(rho))
    errs = [phase_error(x, rho) for x in path]
    assert errs[-1] <= errs[0]


def test_phase_retrieval_single_mask_projector_fixed_points():
    # with the qualitative set removed, the DR map reduces to the magnitude
    # projector, whose fixed points are exactly the constraint set
    from rfilab.operators import DouglasRachford, Identity, MagnitudeProjection

    sc = scenario_phase_retrieval(n=32, n_masks=1, instance_seed=3)
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
    sc = scenario_phase_retrieval(n=64, n_masks=4, instance_seed=7)
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
    assert distance(sc.space, truth, oracle) <= 2e-3


def test_spider_closed_form_matches_grid(rng):
    from rfilab.geometry import SpiderSpace

    space = SpiderSpace(4)
    for _ in range(10):
        pts = np.stack(
            [rng.integers(0, 4, size=6).astype(float), rng.uniform(0, 2.0, size=6)], axis=1
        )
        closed = spider_frechet_mean(space, pts)
        grid = spider_frechet_mean_grid(space, pts, resolution=2e-3)
        assert distance(space, closed, grid) <= 5e-3


def test_spider_single_anchor_converges_to_anchor():
    anchor = SpiderPoint(2, 1.5)
    sc = scenario_spider_frechet([anchor], lam=0.5, legs=3)
    path = chain_path(sc.family, SpiderPoint(0, 2.0), 80, seed=3)
    assert distance(sc.space, path[-1], anchor) <= 1e-6


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

def test_dr_parallel_lines_convex_violation_zero():
    sc = scenario_dr_parallel_lines(gap=2.0)
    rep = estimate_violation_in_expectation(
        sc.family, 0.5, BoxPairSampler(sc.space, -4, 4, seed=60), 5000
    ).in_expectation
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
        scenario_sgd_linear_noise,
        lambda: scenario_spider_frechet(
            [SpiderPoint(0, 1.0), SpiderPoint(1, 1.0), SpiderPoint(2, 1.0)], lam=0.1
        ),
        lambda: scenario_dr_parallel_lines(2.0),
        lambda: scenario_phase_retrieval(n=32, n_masks=3, instance_seed=2),
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
    psi = markov_transport_discrepancy(sc.family, pi, long_run_reference(sc, n, k, seed=83))
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
def test_scenario_function_is_its_one_declaration(name):
    # the registry builds with scenario_<name> itself, whose parameters are
    # exactly the JSON keys, in order, with the defaults in its signature
    build, params = SCENARIO_BUILDERS[name]
    assert build.__name__ == f"scenario_{name}"
    assert list(inspect.signature(build).parameters) == list(params)


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_build_scenario_rejects_unknown_params(name):
    # {"R": 0.9} used to build contraction with r = 0.5, the default
    assert "R" not in SCENARIO_BUILDERS[name].params
    known = ", ".join(SCENARIO_BUILDERS[name].params) or "none"
    with pytest.raises(ParamError) as caught:
        build_scenario(name, {"R": 0.9, "r": "x"})
    # the unknown key is named before any value is converted
    assert caught.value.args == ("R", f"not a parameter of '{name}' (known: {known})")


# a valid value of each declared key, with the keys it needs alongside
PARAM_SAMPLES = {
    ("contraction", "r"): {"r": 0.7},
    ("contraction", "offset"): {"offset": 3.0},
    ("kaczmarz", "A"): {"A": [[1.0, 0.0], [1.0, 1.0]], "b": [1.0, 2.0]},
    ("kaczmarz", "b"): {"A": [[1.0, 0.0], [1.0, 1.0]], "b": [1.0, 2.0]},
    ("kaczmarz", "consistent"): {"consistent": True},
    ("kaczmarz", "m"): {"m": 5},
    ("kaczmarz", "n"): {"n": 3},
    ("kaczmarz", "instance_seed"): {"instance_seed": 4},
    ("kaczmarz", "perturbation"): {"perturbation": 0.5},
    ("kaczmarz", "init_scale"): {"init_scale": 2.0},
    ("sgd_linear_noise", "Q"): {"Q": [[1.0, 0.0], [0.0, 0.5]]},
    ("sgd_linear_noise", "dim"): {"dim": 3},
    ("sgd_linear_noise", "q"): {"q": [0.5]},
    ("sgd_linear_noise", "atoms"): {"atoms": [[1.0], [-0.5], [-0.5]]},
    ("sgd_linear_noise", "t"): {"t": 0.3},
    ("phase_retrieval", "n"): {"n": 16},
    ("phase_retrieval", "n_masks"): {"n_masks": 2},
    ("phase_retrieval", "instance_seed"): {"instance_seed": 3},
    ("phase_retrieval", "relax"): {"relax": 0.4},
    ("phase_retrieval", "init_noise"): {"init_noise": 0.2},
    ("spider_frechet", "anchors"): {"anchors": [[0, 2.0], [1, 1.0]]},
    ("spider_frechet", "lam"): {"lam": 0.3},
    ("spider_frechet", "legs"): {"legs": 4},
    ("dr_parallel_lines", "gap"): {"gap": 1.5},
    ("dr_parallel_lines", "init_scale"): {"init_scale": 2.0},
}


@pytest.mark.parametrize(
    "name, key", [(name, key) for name, builder in SCENARIO_BUILDERS.items() for key in builder.params]
)
def test_build_scenario_accepts_every_declared_key(name, key):
    params = PARAM_SAMPLES[name, key]
    assert key in params
    assert build_scenario(name, params).name == name


@pytest.mark.parametrize("params", [{"A": [[1.0, 0.0]]}, {"b": [1.0]}], ids=["A_without_b", "b_without_A"])
def test_kaczmarz_takes_A_and_b_together(params):
    with pytest.raises(ValueError, match="'A' and 'b' together"):
        build_scenario("kaczmarz", params)


@pytest.mark.parametrize("name, params", [("kaczmarz", {"m": 0}), ("phase_retrieval", {"n_masks": 0})])
def test_scenario_without_operators_is_a_value_error(name, params):
    # the builder names the size that leaves the family empty, before the family does
    (key,) = params
    with pytest.raises(ParamError) as caught:
        build_scenario(name, params)
    assert caught.value.args == (key, "must be >= 1, got 0")


@pytest.mark.parametrize(
    "name, params",
    [("kaczmarz", {"A": [[1.0, 0.0]], "b": [1.0], "m": 0, "n": -1}), ("sgd_linear_noise", {"Q": [[0.5]], "dim": 0})],
    ids=["kaczmarz_m_n", "sgd_dim"],
)
def test_size_is_not_read_when_the_matrix_is_given(name, params):
    assert build_scenario(name, params).name == name


@pytest.mark.parametrize(
    "name, params, key",
    [
        ("kaczmarz", {"consistent": "false"}, "consistent"),
        ("kaczmarz", {"consistent": 1}, "consistent"),
        ("kaczmarz", {"m": "x"}, "m"),
        ("contraction", {"r": [1]}, "r"),
        ("contraction", {"offset": {"x": 1}}, "offset"),
        ("sgd_linear_noise", {"Q": [[1.0], [1.0, 2.0]]}, "Q"),
        ("spider_frechet", {"anchors": [[1]]}, "anchors"),
        ("kaczmarz", {"m": True}, "m"),
        ("kaczmarz", {"m": 2.7}, "m"),
        ("kaczmarz", {"instance_seed": 1.9}, "instance_seed"),
        ("spider_frechet", {"legs": 3.9}, "legs"),
        ("spider_frechet", {"lam": "0.2"}, "lam"),
        ("contraction", {"offset": True}, "offset"),
        ("contraction", {"offset": float("inf")}, "offset"),
        ("contraction", {"offset": 10**400}, "offset"),
        ("phase_retrieval", {"relax": float("nan")}, "relax"),
        ("kaczmarz", {"A": [["1", "0"], ["0", "1"]], "b": [1.0, 2.0]}, "A"),
        ("spider_frechet", {"anchors": [[1.7, 2.0]]}, "anchors"),
        ("spider_frechet", {"legs": 1}, "legs"),
        ("spider_frechet", {"legs": 2}, "legs"),
        ("spider_frechet", {"legs": -3, "anchors": [[0, 1.0]]}, "legs"),
        ("spider_frechet", {"legs": 1, "anchors": [[0, 1.0]]}, "legs"),
        ("contraction", {"r": 2.0}, "r"),
        ("contraction", {"r": 0.0}, "r"),
        ("phase_retrieval", {"n": 257}, "n"),
        ("phase_retrieval", {"relax": 1.0}, "relax"),
        ("phase_retrieval", {"relax": 0.0}, "relax"),
        ("spider_frechet", {"lam": 0.0}, "lam"),
        ("dr_parallel_lines", {"gap": 0.0}, "gap"),
        ("sgd_linear_noise", {"q": [1.0, 2.0]}, "q"),
        ("sgd_linear_noise", {"Q": [[1.0, 0.0], [0.0, 1.0]], "q": [1.0]}, "q"),
        ("sgd_linear_noise", {"atoms": [[1.0, 2.0], [3.0]]}, "atoms"),
        ("sgd_linear_noise", {"dim": 2, "atoms": [[1.0], [3.0]]}, "atoms"),
        ("sgd_linear_noise", {"atoms": []}, "atoms"),
        ("sgd_linear_noise", {"dim": 0}, "dim"),
        ("kaczmarz", {"m": -1}, "m"),
        ("kaczmarz", {"n": 0}, "n"),
        ("phase_retrieval", {"n": 0}, "n"),
        ("phase_retrieval", {"n_masks": -1}, "n_masks"),
        ("sgd_linear_noise", {"Q": [[1.0, 2.0], [3.0, 4.0]]}, "Q"),
        ("sgd_linear_noise", {"Q": [1.0, 2.0]}, "Q"),
        ("kaczmarz", {"A": [[]], "b": [1.0]}, "A"),
        ("kaczmarz", {"A": [[0.0, 0.0]], "b": [1.0]}, "A"),
        ("kaczmarz", {"A": [[1.0, 0.0], [0.0, 0.0]], "b": [1.0, 2.0]}, "A"),
        ("kaczmarz", {"A": [1.0, 2.0], "b": [1.0, 2.0]}, "A"),
        ("kaczmarz", {"A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0]}, "b"),
        ("sgd_linear_noise", {"t": 0.0}, "t"),
        ("sgd_linear_noise", {"t": -1.0}, "t"),
        ("kaczmarz", {"A": [[1.0, 0.0]]}, "b"),
        ("kaczmarz", {"b": [1.0]}, "A"),
        ("spider_frechet", {"anchors": []}, "anchors"),
    ],
)
def test_rejected_parameter_value_names_its_key(name, params, key):
    with pytest.raises(ParamError) as caught:
        build_scenario(name, params)
    assert caught.value.args[0] == key
    assert str(caught.value).startswith(f"parameter '{key}': ")


def test_builder_range_check_is_not_a_param_error():
    # an operator knows no parameter keys: the gradient step's own check of
    # t = -1 names none.  sgd's builder checks t before it builds the step,
    # so a scenario parameter is named
    space = EuclideanSpace(1)
    with pytest.raises(ValueError, match="step must be > 0") as caught:
        ForwardBackward(space, Identity(space), quadratic_smooth_term(np.eye(1)), -1.0)
    assert not isinstance(caught.value, ParamError)
    with pytest.raises(ParamError, match="step must be > 0") as caught:
        build_scenario("sgd_linear_noise", {"t": -1.0})
    assert caught.value.args[0] == "t"


@pytest.mark.parametrize(
    "params, legs",
    [({}, 3), ({"legs": 3}, 3), ({"legs": 5}, 5), ({"anchors": [[0, 1.0]]}, 2),
     ({"anchors": [[0, 1.0]], "legs": 2}, 2), ({"anchors": [[4, 1.0]]}, 5)],
)
def test_spider_legs_default_to_what_the_anchors_need(params, legs):
    # a given `legs` is kept as given; below the need it is a ParamError.  The
    # params (the manifest's scenario_params) record the leg count that ran.
    sc = build_scenario("spider_frechet", params)
    assert sc.space.legs == sc.params["legs"] == legs


def test_boolean_parameter_takes_json_booleans():
    assert build_scenario("kaczmarz", {"consistent": False}).params == {"consistent": False}
    assert build_scenario("kaczmarz", {"consistent": True}).params == {"consistent": True}


def test_monte_carlo_floor_is_the_median_of_floor_draws_against_its_own_reference():
    # contraction has an invariant sampler: the floor's reference and each
    # of its samples are draws of it, and a draw is W2(reference, sample)
    sc = scenario_contraction()
    sample = sc.ground_truth.invariant_sampler
    reference = sample(40, derive_seed(9, 11))
    draws = [wasserstein(reference, sample(40, seed))[0] for seed in floor_seeds(9, 3)]
    assert floor_source(sc) == "invariant_sampler"
    assert floor_seeds(9, 3) == [derive_seed(9, 12), derive_seed(9, 13), derive_seed(9, 14)]
    assert [floor_draw(sc, 40, 5, reference, seed) for seed in floor_seeds(9, 3)] == draws
    assert monte_carlo_floor(sc, 40, 5, seed=9) == float(np.median(draws))
    assert len(set(draws)) == 3 and min(draws) > 0


def test_monte_carlo_floor_without_a_sampler_is_the_median_over_burn_in_draws():
    # without a sampler the reference and each sample are burn-ins of 5 steps
    sc = scenario_spider_frechet()
    reference = long_run_reference(sc, 40, 5, derive_seed(9, 11))
    draws = [wasserstein(reference, long_run_reference(sc, 40, 5, seed))[0] for seed in floor_seeds(9, 3)]
    assert floor_source(sc) == "burn_in"
    assert [floor_draw(sc, 40, 5, reference, seed) for seed in floor_seeds(9, 3)] == draws
    assert monte_carlo_floor(sc, 40, 5, seed=9) == float(np.median(draws))
    assert len(set(draws)) == 3 and min(draws) > 0


@pytest.mark.parametrize("n, r", [(n, r) for n in (1, 1023, 1024, 1025, 5000) for r in (0.3, 0.5, 0.9)]
                         + [(50_000, 0.5)])
def test_contraction_sampler_draws_the_unblocked_values(n, r):
    # the sampler draws its signs in blocks of 1024 rows, n = 1025 ending in
    # a block of one row; the values are those of one (n, depth) draw, to
    # the last bit, up to the benchmark's n = 50,000
    got = scenario_contraction(r).ground_truth.invariant_sampler(n, 4).points
    assert got.tobytes() == contraction_invariant_unblocked(r, n, 4).tobytes()


SGD_SAMPLER_PARAMS = [
    {},
    {"dim": 2},
    {"Q": [[2.0, 0.5], [0.5, 1.0]], "q": [0.3, -0.2], "t": 0.15},
    {"dim": 2, "atoms": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], "t": 0.1},
    {"Q": [[1.0, 0.2, 0.0], [0.2, 1.5, 0.1], [0.0, 0.1, 0.8]], "atoms": [[1.0, 2.0, 0.0], [-1.0, 0.0, 0.5]],
     "t": 0.2},
    {"t": 0.9},
]


@pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 2049, 5000])
def test_sgd_sampler_draws_the_unblocked_values(n):
    # the sampler draws its atom indices in blocks of 1024 rows, as
    # contraction's draws its signs; the values are those of one (n, depth)
    # draw, to the last bit
    for params in SGD_SAMPLER_PARAMS:
        sc = build_scenario("sgd_linear_noise", params)
        ops = sc.family.operators
        smooth = ops[0].smooth
        for seed in (4, 11):
            got = sc.ground_truth.invariant_sampler(n, seed).points
            expected = sgd_invariant_unblocked(smooth.Q, smooth.q, [op.smooth.zeta for op in ops], ops[0].step, n, seed)
            assert got.tobytes() == expected.tobytes(), (params, seed)


def test_builders_are_seed_deterministic():
    a = build_scenario("phase_retrieval", {"n": 16, "n_masks": 2, "instance_seed": 9})
    b = build_scenario("phase_retrieval", {"n": 16, "n_masks": 2, "instance_seed": 9})
    assert np.array_equal(a.ground_truth.extras["rho_star"], b.ground_truth.extras["rho_star"])
    ia = a.initial(10, 3)
    ib = b.initial(10, 3)
    assert np.array_equal(ia.points, ib.points)
