"""Executable catalog of chain scenarios with known ground truth where it exists.

Each scenario bundles a space, a weighted operator family, a seeded initial
ensemble builder, and whatever ground truth is available (invariant-measure
sampler, firmness constant alpha, expected rate, closed-form violation
bound).  Scenario construction is deterministic given its parameters and an
instance seed; the CLI addresses scenarios by name through
:func:`build_scenario`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import EuclideanSpace, SpiderPoint, SpiderSpace, Space
from .operators import (
    AffineMap,
    DouglasRachford,
    GradientStep,
    HyperplaneProjection,
    MagnitudeProjection,
    OperatorFamily,
    PointProjection,
    RelaxedProjection,
    SmoothTerm,
    SpiderProx,
    SupportRealityProjection,
    quadratic_smooth_term,
    with_linear_term,
)
from .regularity import dr_violation_bound, fb_violation_bound
from .rfi import STREAM_BURNIN, STREAM_INIT, ChainConfig, derive_seed, run_ensemble
from .transport import Ensemble, wasserstein

__all__ = [
    "GroundTruth",
    "Scenario",
    "scenario_two_point",
    "scenario_contraction",
    "scenario_kaczmarz",
    "scenario_sgd_linear_noise",
    "scenario_phase_retrieval",
    "scenario_spider_frechet",
    "scenario_dr_parallel_lines",
    "random_kaczmarz_instance",
    "spider_frechet_mean",
    "spider_frechet_mean_grid",
    "spider_diminishing_comparison",
    "phase_error",
    "long_run_reference",
    "monte_carlo_floor",
    "floor_pair_seeds",
    "build_scenario",
    "unknown_params",
    "SCENARIO_BUILDERS",
]


@dataclass(frozen=True)
class GroundTruth:
    """What is known about a scenario independently of any simulation."""

    invariant_sampler: Optional[Callable[[int, int], Ensemble]] = None
    alpha: Optional[float] = None
    q_rate: Optional[float] = None
    violation_bound: Optional[float] = None
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    space: Space
    family: OperatorFamily
    initial: Callable[[int, int], Ensemble]
    ground_truth: GroundTruth = field(default_factory=GroundTruth)
    params: dict = field(default_factory=dict)
    notes: str = ""


def _init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), STREAM_INIT)))


# ---------------------------------------------------------------------------
# two-point jumps: the canonical inconsistent feasibility toy
# ---------------------------------------------------------------------------

def scenario_two_point() -> Scenario:
    """Random jumps between the singletons {-1} and {+1} on the line.

    No common fixed point exists; the unique invariant measure puts mass 1/2
    on each point and is reached after a single step.  The least-squares
    point is the mean, 0.
    """
    space = EuclideanSpace(1)
    family = OperatorFamily.uniform(
        [PointProjection(space, np.array([-1.0])), PointProjection(space, np.array([1.0]))]
    )

    def initial(n: int, seed: int) -> Ensemble:
        gen = _init_rng(seed)
        return Ensemble(space, gen.uniform(-3.0, 3.0, size=(n, 1)))

    def invariant(n: int, seed: int) -> Ensemble:
        pts = np.ones((n, 1))
        pts[: n // 2, 0] = -1.0
        return Ensemble(space, pts)

    truth = GroundTruth(
        invariant_sampler=invariant,
        alpha=0.5,
        q_rate=0.0,
        violation_bound=0.0,
        extras={"mean": 0.0, "support": [-1.0, 1.0], "attained_at": 1},
    )
    return Scenario("two_point", space, family, initial, truth)


# ---------------------------------------------------------------------------
# affine contraction pair
# ---------------------------------------------------------------------------

def scenario_contraction(r: float = 0.5, offset: float = 50.0) -> Scenario:
    """Family {x -> r x + 1, x -> r x - 1} on the line: a contraction in
    expectation with constant r, firm in expectation with alpha = (1+r)/2.

    The invariant measure is the law of sum_j r^j zeta_j with zeta = +-1
    uniform (uniform on [-2, 2] when r = 1/2); the ground-truth sampler
    truncates the series far below double precision.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"contraction factor must lie in (0, 1), got {r}")
    space = EuclideanSpace(1)
    family = OperatorFamily.uniform(
        [
            AffineMap(space, np.asarray(r), np.array([1.0])),
            AffineMap(space, np.asarray(r), np.array([-1.0])),
        ]
    )
    depth = max(8, int(math.ceil(math.log(1e-16) / math.log(r))))

    def initial(n: int, seed: int) -> Ensemble:
        gen = _init_rng(seed)
        return Ensemble(space, offset + gen.uniform(-1.0, 1.0, size=(n, 1)))

    def invariant(n: int, seed: int) -> Ensemble:
        gen = _init_rng(seed)
        signs = gen.choice([-1.0, 1.0], size=(n, depth))
        powers = r ** np.arange(depth)
        return Ensemble(space, (signs @ powers).reshape(n, 1))

    truth = GroundTruth(
        invariant_sampler=invariant,
        alpha=(1.0 + r) / 2.0,
        q_rate=r,
        violation_bound=0.0,
        extras={"r": r, "subregularity_constant": 1.0 / (1.0 - r)},
    )
    return Scenario("contraction", space, family, initial, truth, params={"r": r, "offset": offset})


# ---------------------------------------------------------------------------
# randomized Kaczmarz
# ---------------------------------------------------------------------------

def scenario_kaczmarz(A: np.ndarray, b: np.ndarray, consistent: bool, init_scale: float = 5.0) -> Scenario:
    """Random hyperplane projections for the system <a_j, x> = b_j."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape[0] != b.shape[0]:
        raise ValueError("matrix rows and right-hand side lengths differ")
    space = EuclideanSpace(A.shape[1])
    family = OperatorFamily.uniform(
        [HyperplaneProjection(space, row, float(rhs)) for row, rhs in zip(A, b)]
    )

    def initial(n: int, seed: int) -> Ensemble:
        gen = _init_rng(seed)
        return Ensemble(space, init_scale * gen.normal(size=(n, space.dim)))

    extras: dict = {"A": A, "b": b, "consistent": consistent}
    invariant = None
    if consistent:
        x_star, *_ = np.linalg.lstsq(A, b, rcond=None)
        extras["x_star"] = x_star

        def invariant(n: int, seed: int) -> Ensemble:
            return Ensemble(space, np.tile(x_star, (n, 1)))

    truth = GroundTruth(invariant_sampler=invariant, alpha=0.5, violation_bound=0.0, extras=extras)
    return Scenario("kaczmarz", space, family, initial, truth, params={"consistent": consistent})


def random_kaczmarz_instance(m: int, n: int, consistent: bool, seed: int, perturbation: float = 1.0):
    """Reproducible random system; inconsistent instances perturb the RHS."""
    gen = np.random.default_rng(np.random.SeedSequence((int(seed), 0x4B61)))
    A = gen.normal(size=(m, n))
    x_star = gen.normal(size=n)
    b = A @ x_star
    if not consistent:
        b = b + perturbation * gen.normal(size=m)
    return A, b, x_star


# ---------------------------------------------------------------------------
# stochastic gradient descent with linear noise
# ---------------------------------------------------------------------------

def scenario_sgd_linear_noise(
    f: SmoothTerm, noise_atoms: Sequence[np.ndarray], t: float, init_scale: float = 5.0
) -> Scenario:
    """Gradient steps on f_i(x) = f(x) + <zeta_i, x> over uniform noise atoms.

    For strongly monotone gradients (tau < 0) steps up to |tau|/L^2 keep the
    family nonexpansive in expectation; larger steps are allowed but noted,
    to enable violation studies.
    """
    atoms = [np.asarray(z, dtype=float).reshape(-1) for z in noise_atoms]
    if not atoms:
        raise ValueError("need at least one noise atom")
    dim = atoms[0].shape[0]
    space = EuclideanSpace(dim)
    notes = ""
    if f.tau < 0 and t > abs(f.tau) / f.lipschitz**2 + 1e-15:
        notes = (
            f"step {t} exceeds the nonexpansiveness window (0, {abs(f.tau) / f.lipschitz**2:.6g}]"
        )
        warnings.warn(notes, stacklevel=2)
    family = OperatorFamily.uniform(
        [GradientStep(space, with_linear_term(f, z), t) for z in atoms]
    )

    def initial(n: int, seed: int) -> Ensemble:
        gen = _init_rng(seed)
        return Ensemble(space, init_scale * gen.normal(size=(n, dim)))

    invariant = None
    extras: dict = {"step": t, "lipschitz": f.lipschitz, "tau_f": f.tau}
    if f.quadratic is not None:
        Q, q = f.quadratic
        M = np.eye(dim) - t * Q
        rho = float(np.max(np.abs(np.linalg.eigvals(M))))
        extras["step_contraction"] = rho
        if rho < 1.0:
            depth = max(8, int(math.ceil(math.log(1e-16) / math.log(rho))))

            def invariant(n: int, seed: int) -> Ensemble:
                gen = _init_rng(seed)
                idx = gen.integers(0, len(atoms), size=(n, depth))
                pts = np.zeros((n, dim))
                zmat = np.stack(atoms)
                power = np.eye(dim)
                for j in range(depth):
                    pts += (-t) * (zmat[idx[:, j]] + q) @ power.T
                    power = power @ M.T
                return Ensemble(space, pts)

    truth = GroundTruth(
        invariant_sampler=invariant,
        alpha=2.0 / 3.0,
        violation_bound=fb_violation_bound(t, f.lipschitz, f.tau, 0.0),
        extras=extras,
    )
    return Scenario("sgd_linear_noise", space, family, initial, truth, params={"t": t}, notes=notes)


# ---------------------------------------------------------------------------
# phase retrieval at desk scale
# ---------------------------------------------------------------------------

def scenario_phase_retrieval(
    n: int = 64, n_masks: int = 4, seed: int = 0, relax: float = 0.5, init_noise: float = 0.1
) -> Scenario:
    """Random-mask DFT magnitude feasibility solved by stochastic Douglas-Rachford.

    A real, supported ground-truth signal rho* generates one magnitude set
    per unit-modulus random mask; the qualitative constraint set (realness +
    support) enters through a relaxed projection, which is the resolvent of
    the scaled squared distance (relax/(2(1-relax))) * dist^2.  All
    constraint sets contain rho*, so its orbit under global phase is the
    consistent solution set.
    """
    if n > 256:
        raise ValueError("phase retrieval instances are capped at n = 256 (desk scale)")
    if not 0.0 < relax < 1.0:
        raise ValueError(f"relaxation must lie in (0, 1), got {relax}")
    gen = np.random.default_rng(np.random.SeedSequence((int(seed), 0x9E7A)))
    space = EuclideanSpace(n, complex_coords=True)
    support = np.zeros(n, dtype=bool)
    support[: max(1, n // 2)] = True
    rho_star = np.where(support, gen.uniform(0.2, 1.0, size=n), 0.0).astype(np.complex128)
    masks = np.exp(2j * np.pi * gen.random(size=(n_masks, n)))
    f_res = RelaxedProjection(space, SupportRealityProjection(space, support), relax)
    ops = []
    magnitudes = []
    for mask in masks:
        mags = np.abs(np.fft.fft(mask * rho_star, norm="ortho"))
        magnitudes.append(mags)
        g_res = MagnitudeProjection(space, mags, mask)
        ops.append(DouglasRachford(space, f_res, g_res))
    family = OperatorFamily.uniform(ops)

    def initial(n_particles: int, init_seed: int) -> Ensemble:
        g = _init_rng(init_seed)
        noise = g.normal(size=(n_particles, n)) + 1j * g.normal(size=(n_particles, n))
        return Ensemble(space, rho_star[None, :] + init_noise * noise)

    truth = GroundTruth(
        alpha=0.5,
        extras={
            "rho_star": rho_star,
            "support": support,
            "masks": masks,
            "magnitudes": np.stack(magnitudes),
            "relax": relax,
            "tau_f": 0.0,
        },
    )
    return Scenario(
        "phase_retrieval",
        space,
        family,
        initial,
        truth,
        params={"n": n, "n_masks": n_masks, "instance_seed": seed, "relax": relax},
    )


def phase_error(rho: np.ndarray, rho_star: np.ndarray) -> float:
    """Distance to rho* modulo the global phase ambiguity of magnitude sets."""
    rho = np.asarray(rho, dtype=np.complex128).reshape(-1)
    rho_star = np.asarray(rho_star, dtype=np.complex128).reshape(-1)
    inner = abs(np.sum(rho * rho_star.conj()))
    sq = np.sum(np.abs(rho) ** 2) + np.sum(np.abs(rho_star) ** 2) - 2.0 * inner
    return float(np.sqrt(max(sq, 0.0)))


# ---------------------------------------------------------------------------
# Frechet means on a spider
# ---------------------------------------------------------------------------

def scenario_spider_frechet(
    anchors: Sequence[SpiderPoint], lam: float, legs: Optional[int] = None
) -> Scenario:
    """Randomized proximal splitting for the Frechet mean of spider anchors.

    The proximal parameter stays fixed (no diminishing schedule), so the
    invariant measure is a stationary cloud around the mean whose spread
    shrinks with lam, not a point mass at the mean.
    """
    anchors = [a if isinstance(a, SpiderPoint) else SpiderPoint(*a) for a in anchors]
    if not anchors:
        raise ValueError("need at least one anchor")
    if lam <= 0:
        raise ValueError(f"prox parameter must be > 0, got {lam}")
    needed = max((a.leg for a in anchors), default=0) + 1
    space = SpiderSpace(max(2, needed if legs is None else legs))
    family = OperatorFamily.uniform([SpiderProx(space, a, lam) for a in anchors])
    rmax = max(a.radius for a in anchors)

    def initial(n: int, seed: int) -> Ensemble:
        gen = _init_rng(seed)
        legs_draw = gen.integers(0, space.legs, size=n)
        radii = gen.uniform(0.0, max(rmax, 1.0), size=n)
        return Ensemble(space, np.stack([legs_draw.astype(float), radii], axis=1))

    mean = spider_frechet_mean(space, space.pack(anchors))
    truth = GroundTruth(
        alpha=0.5,
        violation_bound=0.0,
        extras={"anchors": anchors, "frechet_mean": mean, "lam": lam},
    )
    return Scenario("spider_frechet", space, family, initial, truth, params={"lam": lam})


def spider_diminishing_comparison(
    anchors: Sequence[SpiderPoint], lam0: float, x0: SpiderPoint, steps: int, seed: int, legs: Optional[int] = None
) -> list:
    """Contrast run with the classical decaying schedule lam_k = lam0/(k+1).

    The engine proper keeps proximal parameters fixed per family; this
    comparison path rebuilds the prox at every step, trading the stationary
    cloud of the fixed-lam chain for a drift toward the Frechet mean itself.
    """
    anchors = [a if isinstance(a, SpiderPoint) else SpiderPoint(*a) for a in anchors]
    needed = max(a.leg for a in anchors) + 1
    space = SpiderSpace(max(2, needed if legs is None else legs))
    gen = np.random.default_rng(np.random.SeedSequence((int(seed), 0xD1)))
    idx = gen.integers(0, len(anchors), size=steps)
    x = space.validate_point(x0)
    path = [x]
    for k in range(steps):
        op = SpiderProx(space, anchors[int(idx[k])], lam0 / (k + 1.0))
        x = op(x)
        path.append(x)
    return path


def _spider_objective(space: SpiderSpace, candidate_row: np.ndarray, points: np.ndarray, weights: np.ndarray) -> float:
    cand = np.repeat(candidate_row.reshape(1, 2), len(points), axis=0)
    return float(np.sum(weights * space.pair_dist(points, cand) ** 2))


def spider_frechet_mean(space: SpiderSpace, points: np.ndarray, weights: Optional[np.ndarray] = None) -> SpiderPoint:
    """Exact Frechet mean of weighted spider points by the per-leg closed form.

    On a fixed leg the objective is quadratic in the radius with
    unconstrained minimizer (sum_same r - sum_other r) / total, clamped at
    the origin; the mean is the best leg's candidate.
    """
    pts = space.pack(points)
    w = np.full(len(pts), 1.0 / len(pts)) if weights is None else np.asarray(weights, dtype=float)
    w = w / w.sum()
    best = SpiderPoint(0, 0.0)
    best_val = np.inf
    for leg in range(space.legs):
        same = pts[:, 0] == leg
        rho = float(np.sum(w[same] * pts[same, 1]) - np.sum(w[~same] * pts[~same, 1]))
        rho = max(rho, 0.0)
        val = _spider_objective(space, np.array([float(leg), rho]), pts, w)
        if val < best_val - 1e-15:
            best_val = val
            best = SpiderPoint(leg, rho)
    return best


def spider_frechet_mean_grid(
    space: SpiderSpace, points: np.ndarray, resolution: float = 1e-3
) -> SpiderPoint:
    """Brute-force oracle: scan a radius grid on every leg."""
    pts = space.pack(points)
    w = np.full(len(pts), 1.0 / len(pts))
    rmax = float(pts[:, 1].max(initial=0.0)) + resolution
    radii = np.arange(0.0, rmax + resolution, resolution)
    best = SpiderPoint(0, 0.0)
    best_val = np.inf
    for leg in range(space.legs):
        for rho in radii:
            val = _spider_objective(space, np.array([float(leg), float(rho)]), pts, w)
            if val < best_val - 1e-15:
                best_val = val
                best = SpiderPoint(leg, float(rho))
    return best


# ---------------------------------------------------------------------------
# Douglas-Rachford on two parallel lines (inconsistent, convex)
# ---------------------------------------------------------------------------

def scenario_dr_parallel_lines(gap: float = 2.0, init_scale: float = 1.0) -> Scenario:
    """Stochastic DR over two parallel lines in the plane with nonempty gap.

    Both line indicators are convex, so every composed map is firmly
    nonexpansive (violation 0); the feasibility problem is inconsistent and
    the mixed-order compositions are translations by the gap vector, making
    the chain a lazy random walk transverse to the lines.
    """
    if gap <= 0:
        raise ValueError("gap must be > 0")
    space = EuclideanSpace(2)
    normal = np.array([0.0, 1.0])
    lines = [HyperplaneProjection(space, normal, 0.0), HyperplaneProjection(space, normal, gap)]
    ops = [DouglasRachford(space, lines[i_f], lines[i_g]) for i_f in (0, 1) for i_g in (0, 1)]
    family = OperatorFamily.uniform(ops)

    def initial(n: int, seed: int) -> Ensemble:
        gen = _init_rng(seed)
        return Ensemble(space, init_scale * gen.normal(size=(n, 2)))

    truth = GroundTruth(alpha=0.5, violation_bound=dr_violation_bound(0.0, 0.0), extras={"gap": gap})
    return Scenario("dr_parallel_lines", space, family, initial, truth, params={"gap": gap})


# ---------------------------------------------------------------------------
# long-run references and Monte-Carlo floors
# ---------------------------------------------------------------------------

def long_run_reference(scenario: Scenario, n: int, steps: int, seed: int) -> Ensemble:
    """Burn-in ensemble used as the invariant-measure stand-in."""
    init = scenario.initial(n, derive_seed(seed, STREAM_BURNIN))
    if steps == 0:
        return init
    cfg = ChainConfig(
        family=scenario.family,
        initial=init,
        iterations=steps,
        seed=derive_seed(seed, STREAM_BURNIN + 1),
        record_every=max(1, steps),
    )
    return run_ensemble(cfg).final()


def monte_carlo_floor(scenario: Scenario, n: int, steps: int, seed: int, repeats: int = 3) -> float:
    """Two-independent-run agreement: the resolution limit of W2 estimates.

    A single agreement draw fluctuates by a factor of 2-3, so the floor is
    the median over ``repeats`` independent pairs.
    """
    draws = [
        wasserstein(long_run_reference(scenario, n, steps, a), long_run_reference(scenario, n, steps, b), p=2.0)[0]
        for a, b in floor_pair_seeds(seed, repeats)
    ]
    return float(np.median(draws))


def floor_pair_seeds(seed: int, repeats: int = 3) -> list:
    """Burn-in seeds of the ``repeats`` independent pairs behind
    :func:`monte_carlo_floor`, one ``(a, b)`` tuple per pair."""
    return [(derive_seed(seed, 11 + 2 * i), derive_seed(seed, 12 + 2 * i)) for i in range(repeats)]


# ---------------------------------------------------------------------------
# CLI-facing registry
# ---------------------------------------------------------------------------

def _build_two_point(params: dict) -> Scenario:
    return scenario_two_point()


def _build_contraction(params: dict) -> Scenario:
    return scenario_contraction(
        r=float(params.get("r", 0.5)), offset=float(params.get("offset", 50.0))
    )


def _build_kaczmarz(params: dict) -> Scenario:
    if "A" in params:
        A = np.asarray(params["A"], dtype=float)
        b = np.asarray(params["b"], dtype=float)
        consistent = bool(params.get("consistent", False))
    else:
        A, b, _ = random_kaczmarz_instance(
            m=int(params.get("m", 3)),
            n=int(params.get("n", 2)),
            consistent=bool(params.get("consistent", False)),
            seed=int(params.get("instance_seed", 0)),
            perturbation=float(params.get("perturbation", 1.0)),
        )
        consistent = bool(params.get("consistent", False))
    return scenario_kaczmarz(A, b, consistent, init_scale=float(params.get("init_scale", 5.0)))


def _build_sgd(params: dict) -> Scenario:
    dim = None
    if "Q" in params:
        Q = np.asarray(params["Q"], dtype=float)
        dim = Q.shape[0]
    else:
        dim = int(params.get("dim", 1))
        Q = np.eye(dim)
    q = np.asarray(params.get("q", np.zeros(dim)), dtype=float)
    atoms = params.get("atoms")
    if atoms is None:
        atoms = [np.ones(dim), -np.ones(dim)]
    f = quadratic_smooth_term(Q, q)
    return scenario_sgd_linear_noise(
        f, [np.asarray(a, dtype=float) for a in atoms], t=float(params.get("t", 0.5))
    )


def _build_phase_retrieval(params: dict) -> Scenario:
    return scenario_phase_retrieval(
        n=int(params.get("n", 64)),
        n_masks=int(params.get("n_masks", 4)),
        seed=int(params.get("instance_seed", 0)),
        relax=float(params.get("relax", 0.5)),
        init_noise=float(params.get("init_noise", 0.1)),
    )


def _build_spider(params: dict) -> Scenario:
    anchors = params.get("anchors")
    if anchors is None:
        anchors = [[0, 1.0], [1, 1.0], [2, 1.0]]
    return scenario_spider_frechet(
        [SpiderPoint(int(a[0]), float(a[1])) for a in anchors],
        lam=float(params.get("lam", 0.1)),
        legs=int(params["legs"]) if "legs" in params else None,
    )


def _build_dr_lines(params: dict) -> Scenario:
    return scenario_dr_parallel_lines(
        gap=float(params.get("gap", 2.0)), init_scale=float(params.get("init_scale", 1.0))
    )


class ScenarioBuilder(NamedTuple):
    """Registry entry: ``build(params)`` and the parameter keys it reads."""

    build: Callable[[dict], Scenario]
    params: Tuple[str, ...]


SCENARIO_BUILDERS = {
    "two_point": ScenarioBuilder(_build_two_point, ()),
    "contraction": ScenarioBuilder(_build_contraction, ("r", "offset")),
    "kaczmarz": ScenarioBuilder(
        _build_kaczmarz, ("A", "b", "consistent", "m", "n", "instance_seed", "perturbation", "init_scale")
    ),
    "sgd_linear_noise": ScenarioBuilder(_build_sgd, ("Q", "dim", "q", "atoms", "t")),
    "phase_retrieval": ScenarioBuilder(
        _build_phase_retrieval, ("n", "n_masks", "instance_seed", "relax", "init_noise")
    ),
    "spider_frechet": ScenarioBuilder(_build_spider, ("anchors", "lam", "legs")),
    "dr_parallel_lines": ScenarioBuilder(_build_dr_lines, ("gap", "init_scale")),
}


def unknown_params(name: str, params: dict) -> list:
    """Keys of ``params`` that scenario ``name`` does not read, sorted."""
    return sorted(set(params) - set(SCENARIO_BUILDERS[name].params))


def build_scenario(name: str, params: Optional[dict] = None) -> Scenario:
    if name not in SCENARIO_BUILDERS:
        known = ", ".join(sorted(SCENARIO_BUILDERS))
        raise ValueError(f"unknown scenario '{name}' (known: {known})")
    params = dict(params or {})
    unknown = unknown_params(name, params)
    if unknown:
        known = ", ".join(SCENARIO_BUILDERS[name].params) or "none"
        raise ValueError(f"scenario '{name}' has no parameter '{unknown[0]}' (known: {known})")
    return SCENARIO_BUILDERS[name].build(params)
