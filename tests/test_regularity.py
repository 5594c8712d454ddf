import json
from dataclasses import asdict, dataclass

import numpy as np
import pytest

from oracles import (
    SoftThreshold,
    SphereProjection,
    box_pairs_summed,
    check_submonotone,
    psi_six_distance,
    regularity_block_separately,
    violation_block_whole,
)

from rfilab.geometry import EuclideanSpace, Space, SpiderPoint, SpiderSpace
from rfilab.operators import (
    AffineMap,
    ForwardBackward,
    HyperplaneProjection,
    Identity,
    Operator,
    OperatorFamily,
    PointProjection,
    SpiderProx,
    quadratic_smooth_term,
)
from rfilab.regularity import (
    BoxPairSampler,
    PairSampler,
    SpiderPairSampler,
    dr_violation_bound,
    estimate_violation,
    estimate_violation_in_expectation,
    fb_violation_bound,
    psi_array,
)
from rfilab.scenarios import SCENARIO_BUILDERS, build_scenario

R1 = EuclideanSpace(1)
R2 = EuclideanSpace(2)
C2 = EuclideanSpace(2, complex_coords=True)


# ---------------------------------------------------------------------------
# transport discrepancy
# ---------------------------------------------------------------------------

def test_psi_trivial_cancellations():
    x = R1.pack([0.7])
    two = R1.pack([2.0])
    assert psi_array(R1, x, x, two, two)[0] == pytest.approx(0.0, abs=1e-14)
    # F = Id: displacement difference vanishes
    a, b = R1.pack([1.3]), R1.pack([-0.4])
    assert psi_array(R1, a, b, a, b)[0] == pytest.approx(0.0, abs=1e-14)


def test_psi_displacement_identity_example():
    # both the six-term form and the displacement form give 1 here
    zero, one = R1.pack([0.0]), R1.pack([1.0])
    assert psi_six_distance(R1, zero, one, zero, zero)[0] == pytest.approx(1.0, abs=1e-12)
    assert psi_array(R1, zero, one, zero, zero)[0] == pytest.approx(1.0, abs=1e-12)


def test_psi_equals_displacement_form_bulk(rng):
    # psi_array takes the displacement form on a Euclidean space: it agrees
    # with the six-distance definition up to that form's cancellation noise
    n = 100_000
    X, X0, FX, FX0 = (rng.normal(size=(n, 3)) * 3 for _ in range(4))
    six_term = psi_six_distance(EuclideanSpace(3), X, X0, FX, FX0)
    displacement = psi_array(EuclideanSpace(3), X, X0, FX, FX0)
    assert np.array_equal(displacement, np.sum(((X - FX) - (X0 - FX0)) ** 2, axis=1))
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
    rep = estimate_violation_in_expectation(family, 0.5, samp, 4000).in_expectation
    # six-term psi cancellation noise divided by small d^2 leaves ~1e-10
    assert rep.epsilon_hat <= 1e-8

    single = OperatorFamily.uniform([AffineMap(R1, np.asarray(2.0), np.array([0.0]))])
    a = estimate_violation_in_expectation(single, 0.5, samp, 4000)
    b = estimate_violation(single.operators[0], 0.5, samp, 4000)
    assert a.per_operator == [a.in_expectation] == [b]


def test_in_expectation_contraction_constant():
    r = 0.5
    family = OperatorFamily.uniform(
        [AffineMap(R1, np.asarray(r), np.array([1.0])), AffineMap(R1, np.asarray(r), np.array([-1.0]))]
    )
    samp = BoxPairSampler(R1, -5, 5, seed=8)
    rep = estimate_violation_in_expectation(family, (1 + r) / 2, samp, 10_000).in_expectation
    assert rep.epsilon_hat <= 1e-10


def _zero_weight_family():
    ops = [AffineMap(R1, np.asarray(1.4), np.array([0.3])), SoftThreshold(R1, 0.5),
           AffineMap(R1, np.asarray(0.3), np.array([-1.0]))]
    return OperatorFamily(tuple(ops), [0.5, 0.0, 0.5]), BoxPairSampler(R1, -6, 6, seed=17)


def _scenario_case(name, params, sampler):
    sc = build_scenario(name, params)
    return sc.family, sampler(sc.space)


@pytest.mark.parametrize(
    "case",
    [
        lambda: _scenario_case("kaczmarz", {}, lambda space: BoxPairSampler(space, -5, 5, seed=21)),
        lambda: _scenario_case("phase_retrieval", {"n": 16}, lambda space: BoxPairSampler(space, -2, 2, seed=22)),
        lambda: _scenario_case("spider_frechet", {}, lambda space: SpiderPairSampler(space, 3.0, seed=23)),
        _zero_weight_family,
    ],
    ids=["kaczmarz_R2", "phase_retrieval_C16", "spider", "zero_weight"],
)
def test_one_pass_block_is_the_separate_estimates_to_the_byte(case):
    # one draw and one application of each operator give the block that
    # K + 1 separate estimates gave, every value to the last bit
    family, sampler = case()
    block = estimate_violation_in_expectation(family, 0.5, sampler, 1500)
    expected = regularity_block_separately(family, 0.5, sampler, 1500)
    assert json.dumps(asdict(block), sort_keys=True) == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_row_blocks_give_the_whole_block_to_the_byte(name):
    # every per-pair term is a function of its own pair's rows, so applying
    # the operators block by block gives the block of one whole-array pass,
    # every value to the last bit: below one block, at its edges, with a
    # last block of one row, and at the default pair count; each scenario
    # in the region a run derives from its initial ensemble
    from rfilab.cli import _default_sampler
    from rfilab.regularity import VIOLATION_ROWS

    scenario = build_scenario(name)
    sampler = _default_sampler(scenario, scenario.initial(200, 3), 7)
    alpha = scenario.ground_truth.alpha or 0.5
    for n_pairs in (1, 2, VIOLATION_ROWS - 1, VIOLATION_ROWS, VIOLATION_ROWS + 1, 2 * VIOLATION_ROWS + 1, 2000):
        block = estimate_violation_in_expectation(scenario.family, alpha, sampler, n_pairs)
        whole = violation_block_whole(scenario.family, alpha, sampler, n_pairs)
        assert json.dumps(asdict(block), sort_keys=True) == json.dumps(asdict(whole), sort_keys=True), n_pairs


@pytest.mark.parametrize("space", [R2, C2, EuclideanSpace(64, complex_coords=True)], ids=["R2", "C2", "C64"])
def test_box_pairs_fill_one_array_in_place(space):
    # the real parts, then the imaginary parts, drawn in that order into one
    # complex array: the pairs of re + 1j * im, byte for byte
    sampler = BoxPairSampler(space, -1.5, 2.5, seed=31)
    for got, want in zip(sampler.pairs(300), box_pairs_summed(sampler, 300)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@dataclass(frozen=True)
class _CountedPairs(PairSampler):
    sampler: PairSampler
    calls: list

    @property
    def space(self):
        return self.sampler.space

    def pairs(self, n: int):
        self.calls.append("pairs")
        return self.sampler.pairs(n)

    def describe(self) -> str:
        return self.sampler.describe()


@dataclass(frozen=True)
class _CountedOperator(Operator):
    op: Operator
    calls: list

    @property
    def space(self):
        return self.op.space

    def apply(self, pts):
        self.calls.append(("apply", self.op, len(pts)))
        return self.op.apply(pts)


def test_block_draws_the_pairs_once_and_applies_each_operator_twice():
    # each operator is applied once to each side of every pair, in blocks
    # of at most VIOLATION_ROWS rows: 2 of them for 500 pairs
    from rfilab.regularity import VIOLATION_ROWS

    family, sampler = _zero_weight_family()
    calls = []
    counted = OperatorFamily(tuple(_CountedOperator(op, calls) for op in family.operators), family.weights)
    block = estimate_violation_in_expectation(counted, 0.5, _CountedPairs(sampler, calls), 500)
    # the zero-weight member is applied too: it has its own report
    assert len(block.per_operator) == 3
    assert calls.count("pairs") == 1
    applied = [call for call in calls if call != "pairs"]
    assert len(applied) == 3 * 2 * 2 and max(rows for _, _, rows in applied) <= VIOLATION_ROWS
    for op in family.operators:
        assert sum(rows for _, applied_op, rows in applied if applied_op is op) == 2 * 500


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
    block = estimate_violation_in_expectation(family, 0.6, samp, 5000)
    worst = max(rep.epsilon_hat for rep in block.per_operator)
    assert block.in_expectation.epsilon_hat <= worst + 1e-8


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
    d = asdict(rep)
    assert set(d) == {"alpha", "epsilon_hat", "n_pairs", "n_used", "region", "worst_pair"}


@dataclass(frozen=True)
class _ListedPairs(PairSampler):
    """The pairs (A[i], B[i]) of two packed arrays, whatever the count asked."""

    space: Space
    A: np.ndarray
    B: np.ndarray

    def pairs(self, n: int):
        return self.A, self.B

    def describe(self) -> str:
        return "listed pairs"


@dataclass(frozen=True)
class _PushOut(Operator):
    """Moves every spider point 1 further out along its leg: the ratio of a
    pair on two legs is (4d + 8)/d^2 at alpha 1/2, and 0 on one leg."""

    space: SpiderSpace

    def apply(self, pts):
        return pts + [0.0, 1.0]


@pytest.mark.parametrize(
    "op, a_rows, b_rows, expected",
    [
        # pair 1 sits near the origin on opposite sides: the sphere projector tears it apart
        (SphereProjection(R2), [[3.0, 0.0], [0.01, 0.0], [0.0, 2.0]], [[4.0, 0.0], [-0.01, 0.0], [2.0, 0.0]],
         [[0.01, 0.0], [-0.01, 0.0]]),
        (SphereProjection(C2), [[3.0, 0.0], [0.01 + 0.02j, 0.0], [2j, 0.0]],
         [[4.0, 0.0], [-0.01 - 0.02j, 0.0], [0.0, 2.0]],
         [[[0.01, 0.02], [0.0, 0.0]], [[-0.01, -0.02], [0.0, 0.0]]]),
        # pair 1 lies on two legs at the smallest distance; its first point is
        # the origin, written on leg 2 and packed on leg 0
        (_PushOut(SpiderSpace(3)), [(1, 2.0), (2, 0.0), (0, 1.0)], [(1, 0.5), (1, 0.1), (2, 3.0)],
         [[0.0, 0.0], [1.0, 0.1]]),
    ],
    ids=["R2", "C2", "spider"],
)
def test_worst_pair_is_the_attaining_pair_as_packed_json_rows(op, a_rows, b_rows, expected):
    A, B = op.space.pack(a_rows), op.space.pack(b_rows)
    rep = estimate_violation(op, 0.5, _ListedPairs(op.space, A, B), len(A))
    alone = estimate_violation(op, 0.5, _ListedPairs(op.space, A[1:2], B[1:2]), 1)
    assert alone.epsilon_hat == rep.epsilon_hat > 0.0
    assert list(rep.worst_pair) == expected
    assert json.loads(json.dumps(asdict(rep)))["worst_pair"] == expected


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
