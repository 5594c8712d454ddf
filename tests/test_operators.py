import inspect
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import grid_minimize
from oracles import QuadraticProx, SoftThreshold, SphereProjection

from rfilab.geometry import EuclideanSpace, SpiderPoint, SpiderSpace
from rfilab.operators import (
    AffineMap,
    DouglasRachford,
    ForwardBackward,
    HyperplaneProjection,
    Identity,
    MagnitudeProjection,
    Operator,
    OperatorFamily,
    PointProjection,
    Reflection,
    RelaxedProjection,
    SpiderProx,
    SupportRealityProjection,
    UnsupportedSpaceError,
    quadratic_smooth_term,
)
from rfilab.scenarios import build_scenario

R1 = EuclideanSpace(1)
R2 = EuclideanSpace(2)
C1 = EuclideanSpace(1, complex_coords=True)
C4 = EuclideanSpace(4, complex_coords=True)
SPIDER = SpiderSpace(3)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_project_point_examples():
    assert PointProjection(R1, [-1.0])([7.0])[0] == -1.0
    assert PointProjection(R1, [3.0])([3.0])[0] == 3.0
    assert np.allclose(PointProjection(R2, np.array([1.0, 0.0]))(np.array([5.0, 5.0])), [1.0, 0.0])


def test_project_hyperplane_examples():
    assert np.allclose(HyperplaneProjection(R2, [1.0, 0.0], 0.0)([3.0, 4.0]), [0.0, 4.0])
    on_plane = np.array([2.0, 5.0])
    assert np.allclose(HyperplaneProjection(R2, [1.0, 0.0], 2.0)(on_plane), on_plane)
    assert np.allclose(HyperplaneProjection(R2, [1.0, 1.0], 2.0)([0.0, 0.0]), [1.0, 1.0])
    with pytest.raises(ValueError):
        HyperplaneProjection(R2, [0.0, 0.0], 1.0)


def test_project_hyperplane_against_constrained_least_squares(rng):
    # oracle: KKT system for min ||y - x||^2 s.t. <a, y> = b
    for _ in range(50):
        a = rng.normal(size=3)
        b = float(rng.normal())
        x = rng.normal(size=3)
        K = np.zeros((4, 4))
        K[:3, :3] = 2 * np.eye(3)
        K[:3, 3] = a
        K[3, :3] = a
        sol = np.linalg.solve(K, np.concatenate([2 * x, [b]]))
        y = HyperplaneProjection(EuclideanSpace(3), a, b)(x)
        assert np.allclose(y, sol[:3], atol=1e-10)
        assert abs(a @ y - b) <= 1e-12 * max(1.0, abs(b))


def test_project_magnitude_examples():
    # on C^1 with mask 1 the DFT is the identity: the projection onto the
    # circle of radius m
    def project(m, z):
        return MagnitudeProjection(C1, [m], [1.0])([z])[0]

    assert project(2.0, 1.0 + 0.0j) == 2.0 + 0.0j
    assert project(1.0, 0.0j) == 1.0 + 0.0j  # phase tie-break
    assert project(0.0, 3.0j) == 0.0
    out = MagnitudeProjection(C1, [2.0], [1.0]).apply(np.array([[1.0 + 1.0j], [-2.0j]]))
    assert np.allclose(np.abs(out), 2.0, rtol=1e-14)
    with pytest.raises(ValueError):
        MagnitudeProjection(C1, [-1.0], [1.0])


def test_projection_idempotence_bulk(rng):
    n = 10_000
    ops = [
        PointProjection(R2, np.array([0.5, -1.0])),
        HyperplaneProjection(R2, np.array([1.0, 2.0]), 0.7),
    ]
    X = rng.normal(size=(n, 2)) * 5
    for op in ops:
        once = op.apply(X)
        twice = op.apply(once)
        assert np.max(np.abs(twice - once)) <= 1e-12
    cspace = EuclideanSpace(4, complex_coords=True)
    mags = rng.uniform(0.1, 2.0, size=4)
    op = MagnitudeProjection(cspace, mags, np.exp(1j * np.arange(4.0)))
    Z = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    once = op.apply(Z)
    twice = op.apply(once)
    assert np.max(np.abs(twice - once)) <= 1e-12


# ---------------------------------------------------------------------------
# smooth and prox steps
# ---------------------------------------------------------------------------

def test_gradient_step_examples():
    # a gradient step is forward-backward with the identity as resolvent (g = 0)
    f = quadratic_smooth_term(np.eye(1))
    assert np.allclose(ForwardBackward(R1, Identity(R1), f, 1.0)(np.array([3.0])), [0.0])
    assert np.allclose(ForwardBackward(R1, Identity(R1), f, 0.5)(np.array([4.0])), [2.0])
    # f(x) = (x-1)^2/2 has gradient x - 1
    g = quadratic_smooth_term(np.eye(1), np.array([-1.0]))
    assert np.allclose(ForwardBackward(R1, Identity(R1), g, 0.1)(np.array([0.0])), [0.1])


def test_smooth_term_gradient_adds_the_atom_last(rng):
    # (x Q + q) + zeta, in this order: the sgd outputs depend on the rounding
    Q, q, zeta = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.1]), np.array([1.0, -1.0])
    X = rng.normal(size=(50, 2))
    assert np.array_equal(replace(quadratic_smooth_term(Q, q), zeta=zeta).grad(X), (X @ Q + q) + zeta)


def test_prox_quadratic_examples():
    assert np.allclose(QuadraticProx(R1, np.eye(1), np.zeros(1), 1.0)(np.array([2.0])), [1.0])
    x = np.array([3.0, -7.0])
    assert np.allclose(QuadraticProx(R2, np.zeros((2, 2)), np.zeros(2), 5.0)(x), x)
    assert np.allclose(QuadraticProx(R2, np.diag([1.0, 0.0]), np.zeros(2), 1.0)(np.array([2.0, 2.0])), [1.0, 2.0])
    with pytest.raises(ValueError):
        QuadraticProx(R2, np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2), 1.0)


def test_prox_quadratic_is_the_argmin(rng):
    for _ in range(20):
        M = rng.normal(size=(3, 3))
        Q = M @ M.T
        q = rng.normal(size=3)
        lam = float(rng.uniform(0.2, 3.0))
        x = rng.normal(size=3) * 3
        y = QuadraticProx(EuclideanSpace(3), Q, q, lam)(x)

        def objective(z):
            return 0.5 * z @ Q @ z + q @ z + (0.5 / lam) * np.sum((z - x) ** 2)

        base = objective(y)
        for _ in range(40):
            assert base <= objective(y + 1e-4 * rng.normal(size=3)) + 1e-12


def test_soft_threshold_grid_oracle():
    op = SoftThreshold(R1, 1.0)
    assert np.allclose(op(np.array([2.5])), [1.5])
    argmin, _ = grid_minimize(lambda y: abs(y) + 0.5 * (y - 2.5) ** 2, -5, 5, 1e-4)
    assert abs(argmin - 1.5) <= 1e-3


def test_reflect_examples():
    ident = Identity(R1)
    assert np.allclose(Reflection(R1, ident)(np.array([3.0])), [3.0])
    origin = PointProjection(R1, np.array([0.0]))
    assert np.allclose(Reflection(R1, origin)(np.array([3.0])), [-3.0])
    wall = HyperplaneProjection(R2, np.array([1.0, 0.0]), 0.0)
    assert np.allclose(Reflection(R2, wall)(np.array([3.0, 4.0])), [-3.0, 4.0])


def test_reflection_is_involution_for_affine_projections(rng):
    wall = HyperplaneProjection(R2, np.array([2.0, -1.0]), 1.3)
    X = rng.normal(size=(1000, 2)) * 4
    R = Reflection(R2, wall)
    assert np.max(np.abs(R.apply(R.apply(X)) - X)) <= 1e-10


def test_reflect_rejects_spider():
    spider = SpiderSpace(3)
    op = PointProjection(spider, SpiderPoint(1, 1.0))
    with pytest.raises(UnsupportedSpaceError):
        Reflection(spider, op)


# ---------------------------------------------------------------------------
# forward-backward and Douglas-Rachford
# ---------------------------------------------------------------------------

def test_forward_backward_examples():
    # the identity resolvent (a gradient step) is test_gradient_step_examples
    g_point = PointProjection(R1, np.array([2.0]))
    tiny = quadratic_smooth_term(1e-12 * np.eye(1))  # f = 0 up to numerics
    fb = ForwardBackward(R1, g_point, tiny, 1.0)
    assert np.allclose(fb(np.array([100.0])), [2.0], atol=1e-9)

    g_l1 = SoftThreshold(R1, 1.0)
    fb = ForwardBackward(R1, g_l1, tiny, 1.0)
    assert np.allclose(fb(np.array([2.5])), [1.5], atol=1e-9)


def test_forward_backward_nonexpansive_in_expectation(rng):
    # strongly monotone quadratic with linear noise, step at the window edge
    Q = np.diag([1.0, 0.5])
    f = quadratic_smooth_term(Q)
    t = abs(f.tau) / f.lipschitz**2
    atoms = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([0.0, 2.0])]
    ops = [ForwardBackward(R2, Identity(R2), replace(f, zeta=z), t) for z in atoms]
    family = OperatorFamily.uniform(ops)
    X = rng.normal(size=(2000, 2)) * 5
    Y = rng.normal(size=(2000, 2)) * 5
    num = np.zeros(2000)
    for w, op in zip(family.weights, family.operators):
        num += w * np.linalg.norm(op.apply(X) - op.apply(Y), axis=1)
    den = np.linalg.norm(X - Y, axis=1)
    keep = den > 1e-9
    assert np.max(num[keep] / den[keep]) <= 1.0 + 1e-8


def test_douglas_rachford_examples():
    zero = PointProjection(R1, np.array([0.0]))
    dr = DouglasRachford(R1, zero, zero)
    assert np.allclose(dr(np.array([4.0])), [4.0])

    plane = HyperplaneProjection(R2, np.array([0.0, 1.0]), 0.0)
    dr = DouglasRachford(R2, plane, plane)
    x = np.array([3.0, 0.0])  # on the plane: both reflections fix it
    assert np.allclose(dr(x), x)


def test_douglas_rachford_parallel_lines_translation(rng):
    gap = 2.0
    line0 = HyperplaneProjection(R2, np.array([0.0, 1.0]), 0.0)
    line1 = HyperplaneProjection(R2, np.array([0.0, 1.0]), gap)
    dr = DouglasRachford(R2, line1, line0)
    X = rng.normal(size=(500, 2)) * 3
    # oracle: compose the two reflections by brute force
    refl0 = 2.0 * line0.apply(X) - X
    refl1 = 2.0 * line1.apply(refl0) - refl0
    expected = 0.5 * (refl1 + X)
    assert np.allclose(dr.apply(X), expected, atol=1e-12)
    assert np.allclose(dr.apply(X) - X, np.tile([0.0, gap], (500, 1)), atol=1e-12)


def test_douglas_rachford_rejects_spider():
    spider = SpiderSpace(3)
    p = PointProjection(spider, SpiderPoint(1, 1.0))
    with pytest.raises(UnsupportedSpaceError):
        DouglasRachford(spider, p, p)


# ---------------------------------------------------------------------------
# spider prox
# ---------------------------------------------------------------------------

def test_spider_prox_examples():
    space = SpiderSpace(3)
    anchor = SpiderPoint(1, 4.0)
    op = SpiderProx(space, anchor, 1.0)
    assert op(SpiderPoint(1, 0.0)) == SpiderPoint(1, 2.0)
    assert op(anchor) == anchor
    heavy = SpiderProx(space, anchor, 1e9)
    moved = heavy(SpiderPoint(2, 3.0))
    assert moved.leg == anchor.leg and abs(moved.radius - anchor.radius) < 1e-6


def test_spider_prox_grid_oracle(rng):
    space = SpiderSpace(4)
    resolution = 1e-3
    for _ in range(25):
        anchor = SpiderPoint(int(rng.integers(0, 4)), float(rng.uniform(0.0, 3.0)))
        lam = float(rng.uniform(0.1, 5.0))
        x = SpiderPoint(int(rng.integers(0, 4)), float(rng.uniform(0.0, 3.0)))
        op = SpiderProx(space, anchor, lam)
        got = op(x)

        def dist(p, q):  # the spider metric, written out: the oracle stays independent of the library
            return abs(p.radius - q.radius) if p.leg == q.leg else p.radius + q.radius

        def objective(point):
            return 0.5 * dist(point, anchor) ** 2 + (0.5 / lam) * dist(point, x) ** 2

        got_val = objective(got)
        best = np.inf
        for leg in range(4):
            val = grid_minimize(lambda r: objective(SpiderPoint(leg, r)), 0.0, 4.0, resolution)[1]
            best = min(best, val)
        assert got_val <= best + resolution**2


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def test_family_validation():
    ops = [PointProjection(R1, np.array([-1.0])), PointProjection(R1, np.array([1.0]))]
    with pytest.raises(ValueError):
        OperatorFamily(tuple(ops), np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        OperatorFamily(tuple(ops), np.array([1.2, -0.2]))
    mixed = [PointProjection(R1, np.array([0.0])), PointProjection(R2, np.array([0.0, 0.0]))]
    with pytest.raises(ValueError):
        OperatorFamily.uniform(mixed)
    for make_empty in (lambda: OperatorFamily((), []), lambda: OperatorFamily.uniform([])):
        with pytest.raises(ValueError, match="must be nonempty"):
            make_empty()


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [0.5, -np.inf, 0.5]])
def test_family_rejects_non_finite_weights(weights):
    # NaN passes both the sign test and the sum test; the draw needs a finite CDF
    ops = tuple(Identity(R1) for _ in weights)
    with pytest.raises(ValueError, match=r"weights must be finite, got \[(nan|inf|-inf)\]"):
        OperatorFamily(ops, weights)


@settings(max_examples=150, deadline=None)
@given(raw=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=8)
       .filter(lambda raw: sum(raw) > 0.0), seed=st.integers(0, 2**32 - 1))
@example(raw=[0.0, 0.5, 0.5], seed=0)
@example(raw=[0.5, 0.0, 0.5], seed=0)
@example(raw=[0.5, 0.5, 0.0], seed=0)
@example(raw=[0.0, 1.0, 0.0, 0.0], seed=0)
@example(raw=[1.0], seed=0)
def test_sample_indices_is_the_binary_search(raw, seed):
    fam = OperatorFamily(tuple(Identity(R1) for _ in raw), np.asarray(raw) / sum(raw))
    cum = fam._cum
    edges = np.concatenate([[0.0], cum, np.nextafter(cum, 0.0)])
    draws = np.random.default_rng(seed).random(100_000)
    for u in (edges[edges < 1.0], draws):
        got = fam.sample_indices(u)
        assert got.dtype == np.intp
        assert np.array_equal(got, oracles.sample_indices_searchsorted(fam, u))


def test_family_apply_index_matches_pointwise(rng):
    fam = OperatorFamily.uniform(
        [AffineMap(R1, np.asarray(0.5), np.array([1.0])), AffineMap(R1, np.asarray(0.5), np.array([-1.0]))]
    )
    X = rng.normal(size=(64, 1))
    idx = rng.integers(0, 2, size=64)
    out = fam.apply_index(idx, X)
    for k in range(64):
        # the scalar AffineMap is elementwise: a row and a one-row ensemble round alike
        assert np.array_equal(out[k], fam.operators[idx[k]](X[k]))


# one family per scenario: R^1, R^2, C^16 and the spider
DISPATCH_SCENARIOS = {
    "two_point": {},
    "contraction": {},
    "sgd_linear_noise": {},
    "kaczmarz": {},
    "dr_parallel_lines": {},
    "phase_retrieval": {"n": 16},
    "spider_frechet": {},
}


def _index_vectors(family, n, seed):
    """A sampled index vector, the same with operator 0 never chosen, and
    every row given the last operator."""
    idx = family.sample_indices(np.random.default_rng(seed).random(n))
    return [idx, np.where(idx == 0, 1, idx), np.full(n, len(family) - 1, dtype=np.intp)]


@pytest.mark.parametrize("n", [1, 2, 1025])
@pytest.mark.parametrize("name", list(DISPATCH_SCENARIOS))
def test_apply_index_is_the_masked_dispatch_on_each_scenario(name, n):
    # index lists give each operator the rows a boolean mask gives, in the
    # same order, so every output byte is the mask dispatch's
    scenario = build_scenario(name, DISPATCH_SCENARIOS[name])
    fam = scenario.family
    pts = scenario.initial(n, 3).points
    for idx in _index_vectors(fam, n, seed=n):
        got = fam.apply_index(idx, pts)
        assert got.dtype == pts.dtype and got.shape == pts.shape
        assert got.tobytes() == oracles.apply_index_masked(fam, idx, pts).tobytes()


@pytest.mark.parametrize("n", [1, 2, 1025])
def test_apply_index_is_the_masked_dispatch_with_a_zero_weight_member(rng, n):
    ops = (AffineMap(R2, np.array([[0.5, 0.1], [0.0, 0.7]]), np.array([1.0, 0.0])),
           HyperplaneProjection(R2, np.array([1.0, 2.0]), 0.7),
           AffineMap(R2, np.asarray(0.3), np.array([0.0, -1.0])))
    fam = OperatorFamily(ops, np.array([0.5, 0.0, 0.5]))
    X = rng.normal(size=(n, 2))
    for idx in _index_vectors(fam, n, seed=n) + [np.ones(n, dtype=np.intp)]:
        assert fam.apply_index(idx, X).tobytes() == oracles.apply_index_masked(fam, idx, X).tobytes()


# ---------------------------------------------------------------------------
# one evaluation path
# ---------------------------------------------------------------------------

def _concrete_operator_classes():
    found, todo = [], [Operator]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if not inspect.isabstract(cls):
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


_WALL = HyperplaneProjection(R2, np.array([1.0, 2.0]), 0.7)
_QUAD = quadratic_smooth_term(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([0.3, -0.1]))
_Z = np.array([1.0 - 2.0j, 0.5j, -0.3, 2.0 + 1.0j])

# one operator and one point of its space per concrete class; the classes
# that only the tests use bring their own cases from oracles.py
SINGLE_PATH_CASES = {
    **oracles.SINGLE_PATH_CASES,
    Identity: lambda: (Identity(SPIDER), SpiderPoint(2, 1.5)),
    AffineMap: lambda: (AffineMap(R2, np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([1.0, -1.0])), [0.3, -0.7]),
    PointProjection: lambda: (PointProjection(SPIDER, SpiderPoint(1, 2.0)), SpiderPoint(0, 0.5)),
    HyperplaneProjection: lambda: (_WALL, [0.3, -0.7]),
    MagnitudeProjection: lambda: (MagnitudeProjection(C4, [1.0, 0.5, 2.0, 0.0], np.exp(1j * np.arange(4.0))), _Z),
    SupportRealityProjection: lambda: (SupportRealityProjection(C4, [True, False, True, True]), _Z),
    RelaxedProjection: lambda: (RelaxedProjection(R2, _WALL, 0.5), [0.3, -0.7]),
    Reflection: lambda: (Reflection(R2, _WALL), [0.3, -0.7]),
    ForwardBackward: lambda: (ForwardBackward(R2, SoftThreshold(R2, 0.4), _QUAD, 0.3), [0.3, -0.7]),
    DouglasRachford: lambda: (DouglasRachford(R2, _WALL, SoftThreshold(R2, 0.4)), [0.3, -0.7]),
    SpiderProx: lambda: (SpiderProx(SPIDER, SpiderPoint(1, 2.0), 0.5), SpiderPoint(2, 1.0)),
}


@pytest.mark.parametrize("cls", _concrete_operator_classes(), ids=lambda cls: cls.__name__)
def test_call_is_apply_on_a_one_row_ensemble(cls):
    assert "__call__" not in cls.__dict__  # op(x) is derived once, in Operator
    op, x = SINGLE_PATH_CASES[cls]()
    space = op.space
    assert np.array_equal(space.pack([op(x)]), op.apply(space.pack([x])))


def _wrong_space_part():
    return HyperplaneProjection(EuclideanSpace(3), np.array([1.0, 0.0, 0.0]), 0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda part: DouglasRachford(R2, part, _WALL),
        lambda part: DouglasRachford(R2, _WALL, part),
        lambda part: ForwardBackward(R2, part, _QUAD, 0.3),
        lambda part: Reflection(R2, part),
        lambda part: RelaxedProjection(R2, part, 0.5),
    ],
    ids=["douglas_rachford_f", "douglas_rachford_g", "forward_backward", "reflection", "relaxed_projection"],
)
def test_composite_rejects_component_on_another_space(build):
    with pytest.raises(ValueError, match="component operator"):
        build(_wrong_space_part())


# ---------------------------------------------------------------------------
# ownership: apply returns a new array, and the composites finish it in place
# ---------------------------------------------------------------------------

def _operators_within(op):
    """``op`` and every operator nested in its fields, depth first."""
    found = [op]
    for field in fields(op):
        part = getattr(op, field.name)
        if isinstance(part, Operator):
            found += _operators_within(part)
    return found


def _ownership_cases():
    """(operator, points) for every operator, nested ones included, of the 7
    scenarios at their default parameters, plus the operators the scenarios
    do not use; Euclidean points get a zero row, whose DFT is exactly 0."""
    cases = []
    for name in DISPATCH_SCENARIOS:
        scenario = build_scenario(name, {})
        pts = scenario.initial(64, 5).points
        if isinstance(scenario.family.space, EuclideanSpace):
            pts = np.concatenate([pts, np.zeros_like(pts[:1])])
        for i, top in enumerate(scenario.family.operators):
            for op in _operators_within(top):
                cases.append(pytest.param(op, pts, id=f"{name}-{i}-{type(op).__name__}"))
    spider_pts = SPIDER.pack([SpiderPoint(k % 3, 0.25 * k) for k in range(9)])
    r2_pts = np.random.default_rng(2).normal(size=(9, 2))
    cases += [
        pytest.param(Identity(R2), r2_pts, id="Identity"),
        pytest.param(PointProjection(SPIDER, SpiderPoint(1, 2.0)), spider_pts, id="PointProjection"),
        pytest.param(AffineMap(R2, np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([1.0, -1.0])), r2_pts,
                     id="AffineMap-matrix"),
        pytest.param(SpiderProx(SPIDER, SpiderPoint(1, 2.0), 0.5), spider_pts, id="SpiderProx"),
    ]
    return cases


@pytest.mark.parametrize("op, pts", _ownership_cases())
def test_apply_returns_a_new_array_and_leaves_its_input(op, pts):
    before = pts.copy()
    out = op.apply(pts)
    assert isinstance(out, np.ndarray) and out.flags.writeable
    assert out.shape == pts.shape and out.dtype == pts.dtype
    assert not np.shares_memory(out, pts)
    assert pts.tobytes() == before.tobytes()


@pytest.mark.parametrize("op, pts", _ownership_cases())
def test_apply_is_the_out_of_place_formula(op, pts):
    # the in-place arithmetic runs the same ufuncs on the same operands, so
    # every byte is the out-of-place expression's; without the zero row every
    # DFT coefficient is nonzero, with it MagnitudeProjection takes the
    # phase-1 tie-break
    for rows in (pts[:-1], pts):
        assert op.apply(rows).tobytes() == oracles.apply_out_of_place(op, rows).tobytes()

