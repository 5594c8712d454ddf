import inspect

import numpy as np
import pytest

from conftest import grid_minimize

from rfilab.geometry import EuclideanSpace, SpiderPoint, SpiderSpace
from rfilab.operators import (
    AffineMap,
    DouglasRachford,
    ForwardBackward,
    GradientStep,
    HyperplaneProjection,
    Identity,
    MagnitudeProjection,
    Operator,
    OperatorFamily,
    PointProjection,
    QuadraticProx,
    Reflection,
    RelaxedProjection,
    SoftThreshold,
    SphereProjection,
    SpiderProx,
    SupportRealityProjection,
    UnsupportedSpaceError,
    project_magnitude,
    quadratic_smooth_term,
    with_linear_term,
)

R1 = EuclideanSpace(1)
R2 = EuclideanSpace(2)
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
    assert project_magnitude([2.0], [1.0 + 0.0j])[0] == 2.0 + 0.0j
    assert project_magnitude([1.0], [0.0j])[0] == 1.0 + 0.0j  # phase tie-break
    assert project_magnitude([0.0], [3.0j])[0] == 0.0
    out = project_magnitude([2.0, 3.0], [1.0 + 1.0j, -2.0j])
    assert np.allclose(np.abs(out), [2.0, 3.0], rtol=1e-14)
    with pytest.raises(ValueError):
        project_magnitude([-1.0], [1.0 + 0.0j])


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
    op = MagnitudeProjection(cspace, mags, None)
    Z = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    once = op.apply(Z)
    twice = op.apply(once)
    assert np.max(np.abs(twice - once)) <= 1e-12


# ---------------------------------------------------------------------------
# smooth and prox steps
# ---------------------------------------------------------------------------

def test_gradient_step_examples():
    f = quadratic_smooth_term(np.eye(1))
    assert np.allclose(GradientStep(R1, f, 1.0)(np.array([3.0])), [0.0])
    assert np.allclose(GradientStep(R1, f, 0.5)(np.array([4.0])), [2.0])
    # f(x) = (x-1)^2/2 has gradient x - 1
    g = quadratic_smooth_term(np.eye(1), np.array([-1.0]))
    assert np.allclose(GradientStep(R1, g, 0.1)(np.array([0.0])), [0.1])


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
    f = quadratic_smooth_term(np.eye(1))
    fb = ForwardBackward(R1, Identity(R1), f, 1.0)
    assert np.allclose(fb(np.array([4.0])), [0.0])

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
    ops = [GradientStep(R2, with_linear_term(f, z), t) for z in atoms]
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

        def objective(point):
            return 0.5 * space.dist(point, anchor) ** 2 + (0.5 / lam) * space.dist(point, x) ** 2

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


def test_family_apply_index_matches_pointwise(rng):
    fam = OperatorFamily.uniform(
        [AffineMap(R1, np.asarray(0.5), np.array([1.0])), AffineMap(R1, np.asarray(0.5), np.array([-1.0]))]
    )
    X = rng.normal(size=(64, 1))
    idx = rng.integers(0, 2, size=64)
    out = fam.apply_index(idx, X)
    for k in range(64):
        assert np.allclose(out[k], fam.operators[idx[k]](X[k]))


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

# one operator and one point of its space per concrete class
SINGLE_PATH_CASES = {
    Identity: lambda: (Identity(SPIDER), SpiderPoint(2, 1.5)),
    AffineMap: lambda: (AffineMap(R2, np.array([[2.0, 1.0], [0.0, 1.0]]), np.array([1.0, -1.0])), [0.3, -0.7]),
    PointProjection: lambda: (PointProjection(SPIDER, SpiderPoint(1, 2.0)), SpiderPoint(0, 0.5)),
    HyperplaneProjection: lambda: (_WALL, [0.3, -0.7]),
    SphereProjection: lambda: (SphereProjection(R2, 2.0), [0.3, -0.7]),
    MagnitudeProjection: lambda: (MagnitudeProjection(C4, [1.0, 0.5, 2.0, 0.0], np.exp(1j * np.arange(4.0))), _Z),
    SupportRealityProjection: lambda: (SupportRealityProjection(C4, [True, False, True, True]), _Z),
    RelaxedProjection: lambda: (RelaxedProjection(R2, _WALL, 0.5), [0.3, -0.7]),
    GradientStep: lambda: (GradientStep(R2, _QUAD, 0.3), [0.3, -0.7]),
    QuadraticProx: lambda: (QuadraticProx(R2, _QUAD.quadratic[0], _QUAD.quadratic[1], 0.7), [0.3, -0.7]),
    SoftThreshold: lambda: (SoftThreshold(R2, 0.4), [0.3, -0.7]),
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
