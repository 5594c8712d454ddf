import contextlib
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import brute_force_wasserstein, cloud, write_csv_oracle

from rfilab import transport
from rfilab.geometry import EuclideanSpace, SpiderSpace
from rfilab.operators import AffineMap, Identity, OperatorFamily, PointProjection
from rfilab.transport import (
    Coupling,
    Ensemble,
    markov_transport_discrepancy,
    wasserstein,
)

R1 = EuclideanSpace(1)


def two_point_family():
    return OperatorFamily.uniform(
        [PointProjection(R1, np.array([-1.0])), PointProjection(R1, np.array([1.0]))]
    )


# ---------------------------------------------------------------------------
# wasserstein
# ---------------------------------------------------------------------------

def test_wasserstein_single_pair():
    A = Ensemble(R1, [[0.0]])
    B = Ensemble(R1, [[1.0]])
    value, coupling = wasserstein(A, B, 2.0)
    assert value == 1.0
    assert coupling.permutation.tolist() == [0]


def test_wasserstein_equal_measures():
    A = Ensemble(R1, [[-1.0], [1.0]])
    B = Ensemble(R1, [[-1.0], [1.0]])
    value, coupling = wasserstein(A, B, 2.0)
    assert value == 0.0
    assert coupling.permutation.tolist() == [0, 1]


def test_wasserstein_split_mass():
    # both pairings cost the same: W2(delta_0, (delta_-1 + delta_1)/2) = 1
    A = Ensemble(R1, [[0.0], [0.0]])
    B = Ensemble(R1, [[-1.0], [1.0]])
    value, _ = wasserstein(A, B, 2.0)
    assert value == pytest.approx(1.0, abs=1e-15)


def test_wasserstein_input_errors():
    A = Ensemble(R1, [[0.0]])
    B = Ensemble(R1, [[0.0], [1.0]])
    with pytest.raises(ValueError):
        wasserstein(A, B)
    C = Ensemble(EuclideanSpace(2), [[0.0, 0.0]])
    with pytest.raises(ValueError):
        wasserstein(A, C)
    with pytest.raises(ValueError):
        wasserstein(A, Ensemble(R1, [[1.0]]), p=0.5)


def test_assignment_matches_brute_force(rng):
    # 1-d sort path, planar Hungarian path, and spider Hungarian path
    for trial in range(60):
        n = int(rng.integers(2, 9))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        e1 = Ensemble(R1, rng.normal(size=(n, 1)) * 3)
        f1 = Ensemble(R1, rng.normal(size=(n, 1)) * 3)
        got, _ = wasserstein(e1, f1, p)
        assert abs(got**p - brute_force_wasserstein(R1, e1.points, f1.points, p) ** p) <= 1e-12

        e2 = Ensemble(EuclideanSpace(2), rng.normal(size=(n, 2)))
        f2 = Ensemble(EuclideanSpace(2), rng.normal(size=(n, 2)))
        got, _ = wasserstein(e2, f2, p)
        assert abs(got**p - brute_force_wasserstein(EuclideanSpace(2), e2.points, f2.points, p) ** p) <= 1e-12

        sp = SpiderSpace(3)
        pa = np.stack([rng.integers(0, 3, size=n).astype(float), rng.uniform(0, 2, size=n)], axis=1)
        pb = np.stack([rng.integers(0, 3, size=n).astype(float), rng.uniform(0, 2, size=n)], axis=1)
        ea, eb = Ensemble(sp, pa), Ensemble(sp, pb)
        got, _ = wasserstein(ea, eb, p)
        assert abs(got**p - brute_force_wasserstein(sp, ea.points, eb.points, p) ** p) <= 1e-12


def test_wasserstein_metric_properties(rng):
    space = EuclideanSpace(2)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        A = Ensemble(space, rng.normal(size=(n, 2)))
        B = Ensemble(space, rng.normal(size=(n, 2)))
        C = Ensemble(space, rng.normal(size=(n, 2)))
        ab, _ = wasserstein(A, B)
        ba, _ = wasserstein(B, A)
        assert ab == pytest.approx(ba, abs=1e-12)
        ac, _ = wasserstein(A, C)
        bc, _ = wasserstein(B, C)
        assert ac <= ab + bc + 1e-10
        w1, _ = wasserstein(A, B, p=1.0)
        assert w1 <= ab + 1e-12  # Jensen: W1 <= W2


def test_optimal_coupling_realizes_value(rng):
    space = EuclideanSpace(3)
    A = Ensemble(space, rng.normal(size=(12, 3)))
    B = Ensemble(space, rng.normal(size=(12, 3)))
    value, coupling = wasserstein(A, B, 2.0)
    d = space.pair_dist(A.points, B.points[coupling.permutation])
    assert value == pytest.approx(float(np.sqrt(np.mean(d**2))), abs=1e-14)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("space", [EuclideanSpace(2), EuclideanSpace(3, complex_coords=True), SpiderSpace(4)],
                         ids=["R2", "C3", "spider4"])
def test_assignment_solve_equals_oracle_cost_solve(space, p):
    # the solver receives the bytes of the whole-matrix cost raised to p out
    # of place, and the value and coupling follow from its permutation
    A, B = Ensemble(space, cloud(space, 150, 5)), Ensemble(space, cloud(space, 150, 6))
    costs = []
    solve = transport.linear_sum_assignment

    def spy(cost):
        costs.append(cost.tobytes())
        return solve(cost)

    with mock.patch.object(transport, "linear_sum_assignment", spy):
        value, coupling = wasserstein(A, B, p)
    want = oracles.cross_dist(space, A.points, B.points) ** p
    assert costs == [want.tobytes()]
    rows, cols = solve(want)
    sigma = np.empty(len(A), dtype=np.intp)
    sigma[rows] = cols
    assert np.array_equal(coupling.permutation, sigma)
    assert value == float(np.mean(space.pair_dist(A.points, B.points[sigma]) ** p) ** (1.0 / p))


@pytest.mark.parametrize("space, n", [(EuclideanSpace(2), 1000), (EuclideanSpace(16, complex_coords=True), 1000),
                                      (SpiderSpace(5), 1000), (EuclideanSpace(3), 2000)],
                         ids=["R2", "C16", "spider5", "R3-2000"])
def test_assignment_solve_holds_one_cost_matrix(space, n):
    # a solve holds one n x n float64 cost, 8 n^2 bytes, and no second buffer
    # of that size; numpy reports its buffers to tracemalloc, so the peak
    # repeats exactly (whole-matrix expressions peak at 2 to 3.13 costs).
    # B is A in reverse order: the spatial orders of A and B pick the same
    # points as coarse rows and columns (on the spider, tied points at the
    # origin may swap), so the coarse solve of the warm start finds a
    # matching of cost 0 up to rounding, its m x m buffer (n^2 / 16 entries)
    # sits next to the cost, and the solver then matches in O(n^2); the
    # cost is the same n x n float64 buffer as for any other pair
    A = Ensemble(space, cloud(space, n, 7))
    B = Ensemble(space, A.points[::-1])
    transport.assignment_solver()  # loaded before the trace starts
    tracemalloc.start()
    try:
        wasserstein(A, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n


def test_coupling_validation():
    # a duplicate, an index out of range, a negative index, and 2-D arrays
    # whose rows are permutations
    for sigma in ([0, 0, 1], [0, 1, 3], [-1, 0, 1], [[0, 1], [1, 0]], [[0, 1, 2]]):
        with pytest.raises(ValueError, match="must be a permutation"):
            Coupling(np.array(sigma))
    # a random permutation at the benchmark's N = 50,000
    sigma = np.random.default_rng(3).permutation(50_000)
    coupling = Coupling(sigma)
    assert coupling.permutation.dtype == np.intp
    assert np.array_equal(coupling.permutation, sigma)


# ---------------------------------------------------------------------------
# the assignment solver
# ---------------------------------------------------------------------------

class _RefusingLoader:
    """An extension loader that refuses every module."""

    def __init__(self, name, path):
        raise ImportError(f"refused {name} at {path}")


@pytest.mark.parametrize("failure", ["loader_raises", "no_file"])
def test_assignment_solver_falls_back_to_the_public_import(monkeypatch, failure):
    # the compiled module is read from its file, not taken from sys.modules
    monkeypatch.delitem(sys.modules, "scipy.optimize._lsap", raising=False)
    direct = transport._load_compiled_solver()
    monkeypatch.delitem(sys.modules, "scipy.optimize._lsap", raising=False)
    if failure == "loader_raises":
        monkeypatch.setattr(transport, "ExtensionFileLoader", _RefusingLoader)
    else:
        monkeypatch.setattr(transport, "EXTENSION_SUFFIXES", [".no-such-suffix.so"])
    with pytest.raises(ImportError):
        transport._load_compiled_solver()
    fallback = transport.assignment_solver.__wrapped__()  # uncached: this process keeps its solver

    import scipy.optimize

    assert fallback is scipy.optimize.linear_sum_assignment
    rng = np.random.default_rng(11)
    ties = [np.ones((9, 9)), np.floor(3.0 * rng.random((40, 40))), np.zeros((1, 1))]
    for cost in [rng.random((n, n)) for n in (2, 7, 60)] + ties:
        for got, want in zip(fallback(cost), direct(cost)):
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the warm start of large assignment solves
# ---------------------------------------------------------------------------

WARM_SPACES = {"R2": EuclideanSpace(2), "R3": EuclideanSpace(3), "C8": EuclideanSpace(8, complex_coords=True),
               "spider4": SpiderSpace(4)}
# every space and p at N = 1000; N = 1001 (not a multiple of 4) in each
# space with one p; N = 2000 in C^8 only, where a case takes 1.5-4.6 s
# against 3.7-12 s in R^2, R^3 and on the spider
WARM_CASES = ([(1000, space, p) for space in WARM_SPACES for p in (1.0, 2.0, 3.0)]
              + [(1001, "R2", 3.0), (1001, "R3", 1.0), (1001, "C8", 2.0), (1001, "spider4", 3.0)]
              + [(2000, "C8", 1.0)])


def _pair(space, n: int, law: str):
    """Two ensembles of ``n`` points: independent samples of one law
    (``same``), or the second shifted by 3 and scaled by 1/2 (``shifted``).
    Spider radii are exponential, so that no two points tie at the origin."""
    rng = np.random.default_rng(n)

    def draw(shift, scale):
        if isinstance(space, SpiderSpace):
            radii = shift + scale * rng.exponential(size=n)
            return space.pack(np.column_stack([rng.integers(0, space.legs, size=n), radii]))
        x = rng.normal(size=(n, space.dim))
        if space.complex_coords:
            x = x + 1j * rng.normal(size=(n, space.dim))
        return space.pack(shift + scale * x)

    A = Ensemble(space, draw(0.0, 1.0))
    return A, Ensemble(space, draw(3.0, 0.5) if law == "shifted" else draw(0.0, 1.0))


@contextlib.contextmanager
def _solver_inputs():
    """Patch the solver to keep a copy of each cost it receives, in the
    list this yields."""
    received = []
    solve = transport.linear_sum_assignment

    def spy(cost):
        received.append(cost.copy())
        return solve(cost)

    with mock.patch.object(transport, "linear_sum_assignment", spy):
        yield received


def _plain_solve(A, B, p):
    """``cross_dist(A, B) ** p``, and its permutation and W_p value from a
    plain solve."""
    space = A.space
    cost = space.cross_dist(A.points, B.points) ** p
    _, sigma = transport.assignment_solver()(cost)
    return cost, sigma, float(np.mean(space.pair_dist(A.points, B.points[sigma]) ** p) ** (1.0 / p))


@pytest.mark.parametrize("law", ["shifted", "same"])
@pytest.mark.parametrize("n, space, p", WARM_CASES, ids=[f"{s}-N{n}-p{p:g}" for n, s, p in WARM_CASES])
def test_warm_started_solve_equals_plain_solve(n, space, p, law):
    # the same permutation, and so the same value, as a plain solve; every
    # reduced cost is at least 0
    A, B = _pair(WARM_SPACES[space], n, law)
    with _solver_inputs() as inputs:
        value, coupling = wasserstein(A, B, p)
    (received,) = inputs
    cost, sigma, want = _plain_solve(A, B, p)
    assert np.array_equal(coupling.permutation, sigma)
    assert value == want
    assert received.min() >= 0.0
    if law == "shifted" and space != "spider4":
        # the potentials from the coarse duals leave under 3% of the optimum
        # as the reduced cost of the optimal assignment (0.02-1.2% in these
        # cases); without the coarse duals (v = 0) they leave 12-52% in
        # R^2, and without a warm start all of it
        rows = np.arange(n)
        assert received[rows, sigma].sum() <= 0.03 * cost[rows, sigma].sum()


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_warm_start_leaves_a_flat_cost(p):
    # B within 1e-3 of one point: the columns look alike, and the coarse
    # optimum costs over 99.9% of the identity pairing (99.94-99.98%
    # measured), so the solver receives the cost as built
    rng = np.random.default_rng(3)
    space = EuclideanSpace(2)
    A = Ensemble(space, rng.normal(size=(1000, 2)))
    B = Ensemble(space, np.array([1.0, -2.0]) + 1e-3 * rng.normal(size=(1000, 2)))
    with _solver_inputs() as received:
        value, coupling = wasserstein(A, B, p)
    cost, sigma, want = _plain_solve(A, B, p)
    assert [r.tobytes() for r in received] == [cost.tobytes()]
    assert np.array_equal(coupling.permutation, sigma)
    assert value == want


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_warm_start_reduces_a_cost_on_a_segment(p):
    # two samples of one law on a thin segment: each spatial order runs
    # along the segment, so the k-th coarse row and column of those orders
    # pair up monotonically, at 99.97-100% of the coarse optimum.  Taken in
    # particle-index order instead, they pair at random (the optimum costs
    # 0.2-5% of that), so the flat check lets the warm start run, and the
    # solver receives a reduced cost and returns the plain solve's answer
    rng = np.random.default_rng(5)
    space = EuclideanSpace(2)
    A, B = (Ensemble(space, np.column_stack([rng.random(1000), 1e-3 * rng.random(1000)])) for _ in range(2))
    with _solver_inputs() as received:
        value, coupling = wasserstein(A, B, p)
    cost, sigma, want = _plain_solve(A, B, p)
    assert [r.tobytes() for r in received] != [cost.tobytes()]
    assert np.array_equal(coupling.permutation, sigma)
    assert value == want


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_warm_start_on_a_degenerate_cost(p):
    # A and B within 1e-7 of one point: every cost is a small multiple of
    # the rounding unit of |a|^2 + |b|^2, so many assignments tie at the
    # optimum.  The solve finishes, and its assignment is optimal for the
    # cost as built, as the plain solve's is; which of the tied assignments
    # it returns may differ
    rng = np.random.default_rng(3)
    space, centre = EuclideanSpace(2), np.array([1.0, -2.0])
    A = Ensemble(space, centre + 1e-7 * rng.normal(size=(1000, 2)))
    B = Ensemble(space, centre + 1e-7 * rng.normal(size=(1000, 2)))
    _, coupling = wasserstein(A, B, p)
    cost, sigma, _ = _plain_solve(A, B, p)
    rows = np.arange(1000)
    total = cost[rows, sigma].sum()
    assert cost[rows, coupling.permutation].sum() <= total + 1000 * np.finfo(np.float64).eps * total


def test_coarse_duals_stop_on_a_rounding_level_cycle():
    # the identity is optimal for W up to one rounding unit: the cycle
    # through both off-diagonal entries is shorter by 2^-52, so every pass
    # lowers both duals by that much and no pass reaches a fixed point
    W = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-52]])
    assert transport._coarse_column_duals(W.copy(), np.array([0, 1])) is None
    # with the optimal matching, the duals satisfy W_ij - u_i - v_j >= 0
    sigma = np.array([1, 0])
    v = transport._coarse_column_duals(W.copy(), sigma)
    u = W[[0, 1], sigma] - v[sigma]
    assert (W - u[:, None] - v[None, :] >= 0.0).all()


def test_warm_start_begins_at_warm_start_min():
    # 999 particles: the solver receives the cost as built (1000: above)
    A, B = _pair(EuclideanSpace(2), transport.WARM_START_MIN - 1, "shifted")
    with _solver_inputs() as received:
        wasserstein(A, B)
    assert [r.tobytes() for r in received] == [(A.space.cross_dist(A.points, B.points) ** 2.0).tobytes()]


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["coarse_row", "other_row"])
def test_warm_start_leaves_non_finite_costs(sign):
    # a point so far out that its squared norm overflows makes its row of
    # the cost inf: the solver receives the cost as built and raises as on a
    # plain solve.  At +1e200 the point ends the spatial order, so its row is
    # in the coarse solve, whose guard returns before solving; at -1e200 it
    # starts the order, outside the coarse rows, and the guard on the
    # potentials returns after the coarse solve
    A, B = _pair(EuclideanSpace(2), 1000, "shifted")
    points = A.points.copy()
    points[0] = sign * 1e200
    A = Ensemble(A.space, points)
    ratio = transport.WARM_START_RATIO
    assert (0 in transport._spatial_order(A.rows())[ratio - 1 :: ratio]) == (sign > 0)
    shapes, solve = [], transport.assignment_solver()

    def solver(cost):
        shapes.append(cost.shape)
        return solve(cost)

    with (_solver_inputs() as received, mock.patch.object(transport, "assignment_solver", lambda: solver),
          pytest.raises(ValueError) as raised):
        wasserstein(A, B)
    assert shapes == ([] if sign > 0 else [(250, 250)]) + [(1000, 1000)]
    cost = A.space.cross_dist(A.points, B.points) ** 2.0
    assert [r.tobytes() for r in received] == [cost.tobytes()]
    with pytest.raises(ValueError) as plain:
        solve(cost)
    assert str(raised.value) == str(plain.value)


@pytest.mark.parametrize("n", [1000, 1001])
@pytest.mark.parametrize("space", WARM_SPACES)
def test_spatial_order(space, n):
    # a permutation of the particles, the same on a rerun
    rows = _pair(WARM_SPACES[space], n, "same")[0].rows()
    order = transport._spatial_order(rows)
    assert np.array_equal(np.sort(order), np.arange(n))
    assert np.array_equal(transport._spatial_order(rows.copy()), order)
    # points 10 apart along the last coordinate and within 1 (or 3 legs) of
    # each other along the rest: every cell's widest coordinate is the last,
    # so the order sorts the points along it
    rng = np.random.default_rng(n)
    rows = rng.random((n, rows.shape[1]))
    rows[:, -1] = 10.0 * rng.permutation(n)
    if space == "spider4":
        rows[:, 0] = rng.integers(0, 4, size=n)
    elif WARM_SPACES[space].complex_coords:
        rows = rows[:, 0::2] + 1j * rows[:, 1::2]
    rows = Ensemble(WARM_SPACES[space], rows).rows()
    assert np.array_equal(transport._spatial_order(rows), np.argsort(rows[:, -1]))


# ---------------------------------------------------------------------------
# Markov transport discrepancy
# ---------------------------------------------------------------------------

def test_psi_hat_zero_at_same_ensemble(rng):
    fam = two_point_family()
    mu = Ensemble(R1, rng.normal(size=(40, 1)))
    assert markov_transport_discrepancy(fam, mu, mu) == pytest.approx(0.0, abs=1e-12)


def test_psi_hat_hand_value_two_point():
    # all mass at 0 against the exact invariant ensemble: every term is 1
    fam = two_point_family()
    n = 10
    mu = Ensemble(R1, np.zeros((n, 1)))
    pi = Ensemble(R1, np.concatenate([-np.ones((n // 2, 1)), np.ones((n // 2, 1))]))
    assert markov_transport_discrepancy(fam, mu, pi) == pytest.approx(1.0, abs=1e-12)


def test_psi_hat_identity_family(rng):
    fam = OperatorFamily.uniform([Identity(R1)])
    mu = Ensemble(R1, rng.normal(size=(30, 1)))
    nu = Ensemble(R1, rng.normal(size=(30, 1)))
    assert markov_transport_discrepancy(fam, mu, nu) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("space", [R1, EuclideanSpace(2)], ids=["sorted", "assignment"])
def test_psi_hat_given_couplings_equals_solving(rng, space):
    # a caller that already holds the W2 coupling gets the same Psi, exactly
    d = space.dim
    fam = OperatorFamily.uniform([AffineMap(space, 0.5 * np.eye(d), np.ones(d)), Identity(space)])
    mu = Ensemble(space, rng.normal(size=(20, d)))
    near = Ensemble(space, rng.normal(size=(20, d)) + 0.5)
    far = Ensemble(space, rng.normal(size=(20, d)) + 50)
    for reference in (near, far, mu):
        coupling = wasserstein(mu, reference)[1]
        given = markov_transport_discrepancy(fam, mu, reference, coupling)
        assert given == markov_transport_discrepancy(fam, mu, reference)


def test_psi_hat_rejects_mismatched_couplings(rng):
    fam = two_point_family()
    mu = Ensemble(R1, rng.normal(size=(6, 1)))
    with pytest.raises(ValueError, match="pairs 1 particles"):
        markov_transport_discrepancy(fam, mu, mu, Coupling([0]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_ensemble_csv_roundtrip(tmp_path, rng):
    real = Ensemble(EuclideanSpace(3), rng.normal(size=(10, 3)))
    real.to_csv(tmp_path / "real.csv")
    back = Ensemble.from_csv(tmp_path / "real.csv")
    assert np.array_equal(back.points, real.points)

    spider = Ensemble(SpiderSpace(3), [[0, 1.0], [2, 0.5], [1, 0.0]])
    spider.to_csv(tmp_path / "spider.csv")
    back = Ensemble.from_csv(tmp_path / "spider.csv")
    assert np.array_equal(back.points, spider.points)

    z = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    comp = Ensemble(EuclideanSpace(2, complex_coords=True), z)
    comp.to_csv(tmp_path / "complex.csv")
    back = Ensemble.from_csv(tmp_path / "complex.csv")
    assert np.array_equal(back.points, comp.points)


# finite extremes of float64: negative zero, the smallest subnormal, +-max
EXTREMES = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


def _csv_ensemble(kind: str, dim: int, n: int, seed: int, specials) -> Ensemble:
    """An ensemble of ``n`` particles of R^dim, C^dim or a (dim + 1)-leg
    spider: normal values and finite random bit patterns, with ``specials``
    (value, index) put in place of some of them.  Spider radii are the
    values with their sign dropped, except that -0.0 stays."""
    rng = np.random.default_rng(seed)
    cols = 2 * dim if kind == "complex" else 2 if kind == "spider" else dim
    values = rng.normal(size=n * cols)
    bits = rng.integers(0, 2**64, size=n * cols, dtype=np.uint64).view(np.float64)
    values = np.where(rng.random(n * cols) < 0.5, values, np.where(np.isfinite(bits), bits, 1.0))
    for value, at in specials:
        values[at % len(values)] = value
    values = values.reshape(n, cols)
    if kind == "spider":
        legs = rng.integers(0, dim + 1, size=n)
        radii = np.where(values[:, 1] < 0.0, -values[:, 1], values[:, 1])  # keeps -0.0
        return Ensemble(SpiderSpace(dim + 1), np.column_stack([legs, radii]))
    if kind == "complex":
        points = np.empty((n, dim), dtype=complex)
        points.real, points.imag = values[:, 0::2], values[:, 1::2]
        return Ensemble(EuclideanSpace(dim, complex_coords=True), points)
    return Ensemble(EuclideanSpace(dim), values)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["real", "complex", "spider"]),
    dim=st.integers(1, 4),
    n=st.integers(1, 2000),
    block=st.sampled_from([1, 3, 64, 1000, transport.CSV_BLOCK_VALUES]),
    seed=st.integers(0, 2**32 - 1),
    at=st.lists(st.integers(0, 10**6), min_size=len(EXTREMES), max_size=len(EXTREMES)),
    drawn=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 10**6)), max_size=8),
)
def test_to_csv_bytes_equal_csv_writer(tmp_path_factory, kind, dim, n, block, seed, at, drawn):
    # blocks of 1 to 1000 values split every ensemble of more than a few rows
    # over several blocks
    ens = _csv_ensemble(kind, dim, n, seed, [*zip(EXTREMES, at), *drawn])
    directory = tmp_path_factory.mktemp("csv")
    with mock.patch.object(transport, "CSV_BLOCK_VALUES", block):
        ens.to_csv(directory / "fast.csv")
    write_csv_oracle(ens, directory / "oracle.csv")
    assert (directory / "fast.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


def test_to_csv_bytes_equal_csv_writer_50000_rows(tmp_path):
    # at the default block size 50 000 rows of one value span four blocks
    ens = _csv_ensemble("real", 1, 50_000, 11, list(zip(EXTREMES, (0, 16_383, 16_384, 49_999))))
    assert 50_000 > 3 * transport.CSV_BLOCK_VALUES
    ens.to_csv(tmp_path / "fast.csv")
    write_csv_oracle(ens, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from([("real", 1), ("real", 2), ("real", 3), ("complex", 1), ("complex", 2), ("complex", 3),
                           ("spider", 4)]),
    n=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
    at=st.lists(st.integers(0, 10**6), min_size=len(EXTREMES), max_size=len(EXTREMES)),
    drawn=st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.integers(0, 10**6)), max_size=8),
)
def test_from_csv_reads_what_the_csv_module_reads(tmp_path_factory, shape, n, seed, at, drawn):
    # numpy's C reader against the csv module and one float() per value, to
    # the bit: -0.0, subnormals and +-max among normal values and random bit
    # patterns, in R^1-R^3, C^1-C^3 and on a 5-leg spider
    kind, dim = shape
    path = tmp_path_factory.mktemp("csv") / "ensemble.csv"
    _csv_ensemble(kind, dim, n, seed, [*zip(EXTREMES, at), *drawn]).to_csv(path)
    got, expected = Ensemble.from_csv(path), oracles.ensemble_from_csv(path)
    assert got.space == expected.space
    assert got.points.dtype == expected.points.dtype
    assert got.points.tobytes() == expected.points.tobytes()


@pytest.mark.parametrize("text", ['x0\n"1.0"\n', "x0\n1_0\n"], ids=["quoted_field", "digit_separator"])
def test_from_csv_rejects_what_the_csv_module_read(tmp_path, text):
    # values rfilab never writes: the csv module unquotes a field and float()
    # takes a digit separator, while numpy's reader rejects both
    path = tmp_path / "ensemble.csv"
    path.write_text(text)
    assert oracles.ensemble_from_csv(path).points.tolist() == [[1.0 if "1.0" in text else 10.0]]
    with pytest.raises(ValueError, match="could not convert"):
        Ensemble.from_csv(path)
