from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import cloud
from oracles import distance, geodesic_point

from rfilab import geometry
from rfilab.geometry import EuclideanSpace, SpiderPoint, SpiderSpace


def random_spider_points(space, gen, n):
    legs = gen.integers(0, space.legs, size=n).astype(float)
    radii = gen.uniform(0.0, 5.0, size=n)
    return np.stack([legs, radii], axis=1)


def test_euclidean_distance_pythagorean():
    space = EuclideanSpace(2)
    assert distance(space, np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_spider_distance_through_origin_and_same_leg():
    space = SpiderSpace(3)
    assert distance(space, SpiderPoint(1, 2.0), SpiderPoint(2, 3.0)) == 5.0
    assert distance(space, SpiderPoint(1, 2.0), SpiderPoint(1, 0.5)) == 1.5


def test_distance_input_errors():
    with pytest.raises(ValueError):
        distance(EuclideanSpace(2), np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        distance(SpiderSpace(2), SpiderPoint(5, 1.0), SpiderPoint(0, 1.0))


def test_origin_representations_are_identified():
    space = SpiderSpace(4)
    assert SpiderPoint(3, 0.0) == SpiderPoint(0, 0.0)
    assert distance(space, SpiderPoint(2, 0.0), SpiderPoint(1, 0.0)) == 0.0
    packed = space.pack([SpiderPoint(3, 0.0), (2, 0.0)])
    assert np.all(packed[:, 0] == 0.0)


def test_euclidean_midpoint():
    space = EuclideanSpace(2)
    mid = geodesic_point(space, np.array([0.0, 0.0]), np.array([2.0, 2.0]), 0.5)
    assert np.allclose(mid, [1.0, 1.0])


def test_spider_midpoint_between_legs_is_origin():
    space = SpiderSpace(3)
    a, b = SpiderPoint(1, 2.0), SpiderPoint(2, 2.0)
    mid = geodesic_point(space, a, b, 0.5)
    # equidistant point of the two-leg path, checked by distances
    assert distance(space, a, mid) == pytest.approx(2.0, abs=1e-12)
    assert distance(space, mid, b) == pytest.approx(2.0, abs=1e-12)
    assert mid == SpiderPoint(0, 0.0)


def test_geodesic_endpoints_and_domain():
    e = EuclideanSpace(1)
    a, b = np.array([1.5]), np.array([-2.0])
    assert np.allclose(geodesic_point(e, a, b, 0.0), a)
    assert np.allclose(geodesic_point(e, a, b, 1.0), b)
    s = SpiderSpace(2)
    assert geodesic_point(s, SpiderPoint(0, 1.0), SpiderPoint(1, 2.0), 1.0) == SpiderPoint(1, 2.0)
    with pytest.raises(ValueError):
        geodesic_point(e, a, b, 1.5)


def test_metric_axioms_bulk(rng):
    n = 10_000
    e = EuclideanSpace(3)
    X = rng.normal(size=(n, 3))
    Y = rng.normal(size=(n, 3))
    Z = rng.normal(size=(n, 3))
    assert np.array_equal(e.pair_dist(X, Y), e.pair_dist(Y, X))
    gap = e.pair_dist(X, Z) - (e.pair_dist(X, Y) + e.pair_dist(Y, Z))
    assert gap.max() <= 1e-12

    s = SpiderSpace(5)
    A = random_spider_points(s, rng, n)
    B = random_spider_points(s, rng, n)
    C = random_spider_points(s, rng, n)
    assert np.array_equal(s.pair_dist(A, B), s.pair_dist(B, A))
    gap = s.pair_dist(A, C) - (s.pair_dist(A, B) + s.pair_dist(B, C))
    assert gap.max() <= 1e-12


def test_geodesic_distance_proportionality(rng):
    n = 10_000
    s = SpiderSpace(4)
    A = random_spider_points(s, rng, n)
    B = random_spider_points(s, rng, n)
    ts = rng.uniform(0.0, 1.0, size=n)
    d = s.pair_dist(A, B)
    for t in (0.25, 0.5, 0.9):
        W = s.geodesic_arr(A, B, t)
        assert np.max(np.abs(s.pair_dist(A, W) - t * d)) <= 1e-12
        assert np.max(np.abs(s.pair_dist(W, B) - (1.0 - t) * d)) <= 1e-12
    # per-sample random t on the euclidean side
    e = EuclideanSpace(2)
    X = rng.normal(size=(n, 2))
    Y = rng.normal(size=(n, 2))
    W = (1 - ts[:, None]) * X + ts[:, None] * Y
    assert np.max(np.abs(e.pair_dist(X, W) - ts * e.pair_dist(X, Y))) <= 1e-12


def test_cat0_comparison_inequality(rng):
    # d(z, (1-t)x (+) t y)^2 <= (1-t) d(z,x)^2 + t d(z,y)^2 - t(1-t) d(x,y)^2
    n = 10_000
    s = SpiderSpace(4)
    X = random_spider_points(s, rng, n)
    Y = random_spider_points(s, rng, n)
    Z = random_spider_points(s, rng, n)
    t = float(rng.uniform(0.1, 0.9))
    W = s.geodesic_arr(X, Y, t)
    lhs = s.pair_dist(Z, W) ** 2
    rhs = (1 - t) * s.pair_dist(Z, X) ** 2 + t * s.pair_dist(Z, Y) ** 2 - t * (1 - t) * s.pair_dist(X, Y) ** 2
    assert np.max(lhs - rhs) <= 1e-10

    e = EuclideanSpace(3)
    Xe = rng.normal(size=(n, 3))
    Ye = rng.normal(size=(n, 3))
    Ze = rng.normal(size=(n, 3))
    We = e.geodesic_arr(Xe, Ye, t)
    lhs = e.pair_dist(Ze, We) ** 2
    rhs = (1 - t) * e.pair_dist(Ze, Xe) ** 2 + t * e.pair_dist(Ze, Ye) ** 2 - t * (1 - t) * e.pair_dist(Xe, Ye) ** 2
    # flat space: equality up to roundoff
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_complex_coordinates_distance(rng):
    space = EuclideanSpace(3, complex_coords=True)
    A = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
    B = rng.normal(size=(200, 3)) + 1j * rng.normal(size=(200, 3))
    manual = np.sqrt(np.sum(np.abs(A - B) ** 2, axis=1))
    assert np.allclose(space.pair_dist(A, B), manual, atol=1e-14)
    cross = space.cross_dist(A[:5], B[:7])
    for i in range(5):
        for j in range(7):
            assert cross[i, j] == pytest.approx(np.sqrt(np.sum(np.abs(A[i] - B[j]) ** 2)), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    space=st.sampled_from([EuclideanSpace(1), EuclideanSpace(2), EuclideanSpace(3),
                           EuclideanSpace(1, True), EuclideanSpace(2, True), EuclideanSpace(3, True),
                           SpiderSpace(2), SpiderSpace(3), SpiderSpace(4), SpiderSpace(5), SpiderSpace(6)]),
    n=st.integers(1, 300),
    m=st.integers(1, 300),
    rows=st.sampled_from([1, 5, geometry.CROSS_DIST_ROWS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cross_dist_bytes_equal_whole_matrix_oracle(space, n, m, rows, seed):
    # the cost built in one buffer, a block of rows at a time, holds the
    # bytes of the whole-matrix expressions, for any block size
    assume(n != m)
    A, B = cloud(space, n, seed), cloud(space, m, seed + 1)
    with mock.patch.object(geometry, "CROSS_DIST_ROWS", rows):
        got = space.cross_dist(A, B)
    assert got.shape == (n, m) and got.dtype == np.float64
    assert got.tobytes() == oracles.cross_dist(space, A, B).tobytes()


@pytest.mark.parametrize("space, n", [(EuclideanSpace(2), 1000), (EuclideanSpace(3), 1025),
                                      (EuclideanSpace(64, complex_coords=True), 500)],
                         ids=["R2-1000", "R3-1025", "C64-500"])
def test_cross_dist_bytes_equal_whole_matrix_oracle_at_size(space, n):
    # 1025 rows leave a last block of one row at the default block size
    A, B = cloud(space, n, 3), cloud(space, n, 4)
    assert space.cross_dist(A, B).tobytes() == oracles.cross_dist(space, A, B).tobytes()


def test_space_validation():
    with pytest.raises(ValueError):
        EuclideanSpace(0)
    with pytest.raises(ValueError):
        SpiderSpace(1)
    with pytest.raises(ValueError):
        SpiderPoint(0, -1.0)
