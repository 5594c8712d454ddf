import numpy as np
import pytest

import oracles
from conftest import chain_path

from rfilab.geometry import EuclideanSpace
from rfilab.operators import AffineMap, Identity, OperatorFamily, PointProjection
from rfilab.rfi import ChainConfig, derive_seed, recorded_steps, run_ensemble
from rfilab.scenarios import build_scenario
from rfilab.transport import Ensemble, wasserstein

R1 = EuclideanSpace(1)


def two_point_family():
    return OperatorFamily.uniform(
        [PointProjection(R1, np.array([-1.0])), PointProjection(R1, np.array([1.0]))]
    )


def contraction_family(r=0.5):
    return OperatorFamily.uniform(
        [AffineMap(R1, np.asarray(r), np.array([1.0])), AffineMap(R1, np.asarray(r), np.array([-1.0]))]
    )


# ---------------------------------------------------------------------------
# single chains: one-particle ensembles
# ---------------------------------------------------------------------------

def test_run_chain_two_point_support():
    path = chain_path(two_point_family(), np.array([5.0]), 30, seed=1)
    assert len(path) == 31
    assert float(path[0][0]) == 5.0
    assert all(float(x[0]) in (-1.0, 1.0) for x in path[1:])


def test_run_chain_single_operator_is_deterministic():
    op = AffineMap(R1, np.asarray(0.5), np.array([1.0]))
    fam = OperatorFamily.uniform([op])
    path = chain_path(fam, np.array([0.0]), 10, seed=3)
    x = np.array([0.0])
    for k in range(10):
        x = op(x)
        assert np.allclose(path[k + 1], x)


def test_run_chain_identity_family():
    fam = OperatorFamily.uniform([Identity(R1)])
    path = chain_path(fam, np.array([2.5]), 5, seed=0)
    assert all(float(x[0]) == 2.5 for x in path)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("iterations, every, want", [
    (0, 1, [0]), (0, 5, [0]), (4, 1, [0, 1, 2, 3, 4]), (10, 10, [0, 10]), (10, 4, [0, 4, 8, 10]), (3, 7, [0, 3]),
])
def test_recorded_steps_are_the_steps_run_ensemble_records(rng, iterations, every, want):
    init = Ensemble(R1, rng.normal(size=(5, 1)))
    cfg = ChainConfig(two_point_family(), init, iterations, seed=2, record_every=every)
    assert recorded_steps(iterations, every) == want
    traj = run_ensemble(cfg)
    assert traj.steps == want and len(traj.ensembles) == len(want)


def test_run_ensemble_k0_returns_initial(rng):
    init = Ensemble(R1, rng.normal(size=(20, 1)))
    traj = run_ensemble(ChainConfig(two_point_family(), init, 0, seed=5))
    assert traj.steps == [0]
    assert np.array_equal(traj.ensembles[0].points, init.points)


def test_two_point_one_step_distribution(rng):
    init = Ensemble(R1, rng.normal(size=(1000, 1)) * 4)
    traj = run_ensemble(ChainConfig(two_point_family(), init, 1, seed=9))
    pts = traj.final().points[:, 0]
    assert set(np.unique(pts)) == {-1.0, 1.0}
    frac = float((pts > 0).mean())
    assert abs(frac - 0.5) <= 5 / np.sqrt(1000)


def test_record_every_and_final_step(rng):
    init = Ensemble(R1, rng.normal(size=(8, 1)))
    traj = run_ensemble(ChainConfig(two_point_family(), init, 7, seed=2, record_every=3))
    assert traj.steps == [0, 3, 6, 7]


def test_particle_draws_depend_only_on_seed_particle_and_step(rng):
    # particle p's draw at step k is a function of (seed, p, k) alone: the
    # first M particles of an N-particle run are an M-particle run
    init = Ensemble(R1, rng.normal(size=(101, 1)))
    full = run_ensemble(ChainConfig(contraction_family(), init, 25, seed=77))
    assert np.array_equal(full.final().points, run_ensemble(ChainConfig(contraction_family(), init, 25, seed=77)).final().points)
    for m in (1, 2, 50):
        head = run_ensemble(ChainConfig(contraction_family(), Ensemble(R1, init.points[:m]), 25, seed=77))
        assert head.steps == full.steps
        for a, b in zip(full.ensembles, head.ensembles):
            assert np.array_equal(a.points[:m], b.points)


def test_rerun_is_bit_identical(rng):
    init = Ensemble(R1, rng.normal(size=(50, 1)))
    cfg = ChainConfig(contraction_family(), init, 12, seed=123)
    a = run_ensemble(cfg)
    b = run_ensemble(cfg)
    for ea, eb in zip(a.ensembles, b.ensembles):
        assert np.array_equal(ea.points, eb.points)


@pytest.mark.parametrize("name", ["contraction", "phase_retrieval"])
def test_chain_is_byte_identical_under_the_masked_dispatch(monkeypatch, name):
    scenario = build_scenario(name)
    cfg = ChainConfig(scenario.family, scenario.initial(1025, 5), 6, seed=9, record_every=2)
    got = run_ensemble(cfg)
    monkeypatch.setattr(OperatorFamily, "apply_index", oracles.apply_index_masked)
    want = run_ensemble(cfg)
    assert got.steps == want.steps
    for a, b in zip(got.ensembles, want.ensembles, strict=True):
        assert a.points.tobytes() == b.points.tobytes()


def test_index_sampler_frequencies():
    # empirical frequencies over 1e6 draws within 4 standard errors of the weights
    weights = np.array([0.1, 0.3, 0.6])
    fam = OperatorFamily(
        tuple(PointProjection(R1, np.array([float(i)])) for i in range(3)), weights
    )
    gen = np.random.default_rng(0)
    idx = fam.sample_indices(gen.random(1_000_000))
    for i, w in enumerate(weights):
        freq = float((idx == i).mean())
        se = np.sqrt(w * (1 - w) / 1_000_000)
        assert abs(freq - w) <= 4 * se


def test_two_run_agreement_bernoulli_convolution(rng):
    # r = 1/2 contraction: invariant law is uniform on [-2, 2]; two independent
    # runs agree to within twice the calibrated Monte-Carlo floor
    fam = contraction_family(0.5)
    n, k = 2000, 40

    def final(seed):
        init = Ensemble(R1, rng.normal(size=(n, 1)))
        return run_ensemble(ChainConfig(fam, init, k, seed=seed)).final()

    floors = []
    for s in (101, 202, 303):
        a, b = final(derive_seed(s, 1)), final(derive_seed(s, 2))
        floors.append(wasserstein(a, b)[0])
    floor = float(np.median(floors))
    pair, _ = wasserstein(final(11), final(12))
    assert pair <= 2 * floor
    # and the long-run ensemble matches an independent uniform sample
    uniform = Ensemble(R1, np.random.default_rng(9).uniform(-2, 2, size=(n, 1)))
    against_uniform, _ = wasserstein(final(13), uniform)
    assert against_uniform <= 2 * floor


def test_monotone_w2_envelope(rng):
    # alpha-fne in expectation with violation 0: per-step W2-to-reference
    # ratios stay at or below 1 up to sampling tolerance (pre-floor window)
    fam = contraction_family(0.5)
    init = Ensemble(R1, rng.normal(size=(2000, 1)) + 20)
    ref_init = Ensemble(R1, rng.normal(size=(2000, 1)))
    ref = run_ensemble(ChainConfig(fam, ref_init, 60, seed=21)).final()
    traj = run_ensemble(ChainConfig(fam, init, 8, seed=22))
    dists = [wasserstein(ens, ref)[0] for ens in traj.ensembles]
    ratios = np.array(dists[1:]) / np.array(dists[:-1])
    assert np.max(ratios) <= 1.0 + 0.15


def test_config_validation(rng):
    init = Ensemble(R1, rng.normal(size=(4, 1)))
    with pytest.raises(ValueError):
        ChainConfig(two_point_family(), init, -1, seed=0)
    with pytest.raises(ValueError):
        ChainConfig(two_point_family(), init, 1, seed=0, record_every=0)
    init2 = Ensemble(EuclideanSpace(2), rng.normal(size=(4, 2)))
    with pytest.raises(ValueError):
        ChainConfig(two_point_family(), init2, 1, seed=0)

