"""Executable catalog of chain scenarios with known ground truth where it exists.

Each scenario bundles a space, a weighted operator family, a seeded initial
ensemble builder, and whatever ground truth is available (invariant-measure
sampler, firmness constant alpha, expected rate, closed-form violation
bound).  Scenario construction is deterministic given its parameters and an
instance seed; the CLI addresses scenarios by name through
:func:`build_scenario`.
"""

from __future__ import annotations

import inspect
import math
import statistics
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import EuclideanSpace, SpiderPoint, SpiderSpace, Space, row_blocks
from .operators import (
    AffineMap,
    DouglasRachford,
    ForwardBackward,
    HyperplaneProjection,
    Identity,
    MagnitudeProjection,
    OperatorFamily,
    PointProjection,
    RelaxedProjection,
    SpiderProx,
    SupportRealityProjection,
    quadratic_smooth_term,
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
    "long_run_reference",
    "floor_source",
    "floor_sample",
    "monte_carlo_floor",
    "floor_seeds",
    "build_scenario",
    "ParamError",
    "SCENARIO_BUILDERS",
]

# rows an invariant sampler draws at once, so that its temporaries stay small
SAMPLER_ROWS = 1024


@dataclass(frozen=True)
class GroundTruth:
    """What is known about a scenario independently of any simulation.

    ``invariant_sampler(n, seed)``, where there is one, returns n i.i.d.
    draws of the invariant measure, and distinct seeds give independent
    ensembles: the Monte-Carlo floor compares a reference with draws under
    other seeds (see :func:`monte_carlo_floor`), so an ensemble that is the
    same for every seed would read as a floor of 0.
    """

    invariant_sampler: Optional[Callable[[int, int], Ensemble]] = None
    alpha: Optional[float] = None
    violation_bound: Optional[float] = None
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """A built scenario.  ``params``, which a run's manifest writes as
    ``scenario_params``, is set by :func:`build_scenario` to every
    parameter of the builder's signature, in order: the JSON value given,
    else the default (None where the builder derives the value)."""

    name: str
    space: Space
    family: OperatorFamily
    initial: Callable[[int, int], Ensemble]
    ground_truth: GroundTruth = field(default_factory=GroundTruth)
    params: dict = field(default_factory=dict)
    notes: str = ""


def _init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), STREAM_INIT)))


def _require_sizes(**sizes: int) -> None:
    """Raise a :class:`ParamError` naming the first size below 1."""
    for key, size in sizes.items():
        if size < 1:
            raise ParamError(key, f"must be >= 1, got {size}")


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
        return Ensemble(space, _init_rng(seed).choice([-1.0, 1.0], size=(n, 1)))

    truth = GroundTruth(
        invariant_sampler=invariant,
        alpha=0.5,
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
    truncates the series far below double precision.  It draws the signs in
    blocks of at most 1024 rows and 1024**2 signs: at r = 1/2 (depth 54) a
    block's signs and their indices take 0.9 MB, where one (N, depth) draw
    took 43 MB at N = 50,000, and at r = 0.999 a draw peaks at 16 MiB,
    where blocks of 1024 rows took 576 MiB.  The generator's stream does
    not depend on the split, so the signs are those of one (N, depth) draw.
    """
    if not 0.0 < r < 1.0:
        raise ParamError("r", f"contraction factor must lie in (0, 1), got {r}")
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

    powers = r ** np.arange(depth)
    rows = max(1, min(SAMPLER_ROWS, SAMPLER_ROWS**2 // depth))

    def invariant(n: int, seed: int) -> Ensemble:
        gen = _init_rng(seed)
        pts = np.empty((n, 1))
        for lo, hi in row_blocks(n, rows):
            pts[lo:hi, 0] = gen.choice([-1.0, 1.0], size=(hi - lo, depth)) @ powers
        return Ensemble(space, pts)

    truth = GroundTruth(
        invariant_sampler=invariant,
        alpha=(1.0 + r) / 2.0,
        violation_bound=0.0,
        extras={"r": r, "subregularity_constant": 1.0 / (1.0 - r)},
    )
    return Scenario("contraction", space, family, initial, truth)


# ---------------------------------------------------------------------------
# randomized Kaczmarz
# ---------------------------------------------------------------------------

def scenario_kaczmarz(A: Optional[np.ndarray] = None, b: Optional[np.ndarray] = None, consistent: bool = False,
                      m: int = 3, n: int = 2, instance_seed: int = 0, perturbation: float = 1.0,
                      init_scale: float = 5.0) -> Scenario:
    """Random hyperplane projections for the system <a_j, x> = b_j.

    The system is (A, b), or, when neither is given, the random m x n
    instance :func:`random_kaczmarz_instance` draws from ``instance_seed``
    (m, n and ``perturbation`` are read only then).
    """
    if (A is None) != (b is None):
        raise ParamError("b" if b is None else "A", "kaczmarz takes 'A' and 'b' together, or neither")
    if A is None:
        _require_sizes(m=m, n=n)
        A, b, _ = random_kaczmarz_instance(m, n, consistent, instance_seed, perturbation)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape[1] == 0:
        raise ParamError("A", f"must be a matrix with at least one column, got shape {A.shape}")
    if (zero := np.flatnonzero(~A.any(axis=1))).size:
        raise ParamError("A", f"row {zero[0]} is zero, and a hyperplane needs a nonzero normal")
    if len(b) != len(A):
        raise ParamError("b", f"must have length {len(A)}, the rows of A; got {len(b)}")
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
    return Scenario("kaczmarz", space, family, initial, truth)


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

def scenario_sgd_linear_noise(Q: Optional[np.ndarray] = None, dim: int = 1, q: Optional[np.ndarray] = None,
                              atoms: Optional[Sequence[np.ndarray]] = None, t: float = 0.5) -> Scenario:
    """Gradient steps on f_i(x) = x'Qx/2 + <q, x> + <zeta_i, x> over uniform
    noise atoms zeta_i: forward-backward splitting with g = 0, whose
    resolvent is the identity.

    Q is the dim x dim identity when not given (dim is read only then), q is
    zero, and the atoms are +-1 in every coordinate; q and every atom have
    Q's size.  For strongly monotone gradients (tau < 0) steps up to
    |tau|/L^2 keep the family nonexpansive in expectation; larger steps are
    allowed but noted, to enable violation studies.  The invariant sampler
    exists whenever the step I - tQ contracts.  Like contraction's, it draws
    its atom indices in blocks of 1024 rows: at the defaults it peaks at
    1.2 MiB for N = 50,000, where one (N, depth) draw took 21.7 MiB.  The
    values are those of one (N, depth) draw.
    """
    if t <= 0:
        raise ParamError("t", f"step must be > 0, got {t}")
    if Q is None:
        _require_sizes(dim=dim)
        Q = np.eye(dim)
    try:
        f = quadratic_smooth_term(Q, q)
    except ValueError as exc:  # Q is not a square symmetric matrix
        raise ParamError("Q", str(exc)) from exc
    dim = len(f.Q)
    if len(f.q) != dim:
        raise ParamError("q", f"must have length {dim}, the size of Q; got {len(f.q)}")
    if atoms is None:
        atoms = [np.ones(dim), -np.ones(dim)]
    atoms = [np.asarray(z, dtype=float).reshape(-1) for z in atoms]
    if not atoms:
        raise ParamError("atoms", "need at least one noise atom")
    for z in atoms:
        if len(z) != dim:
            raise ParamError("atoms", f"each atom must have length {dim}, the size of Q; got {len(z)}")
    space = EuclideanSpace(dim)
    notes = ""
    if f.tau < 0 and t > abs(f.tau) / f.lipschitz**2 + 1e-15:
        notes = (
            f"step {t} exceeds the nonexpansiveness window (0, {abs(f.tau) / f.lipschitz**2:.6g}]"
        )
        warnings.warn(notes, stacklevel=2)
    family = OperatorFamily.uniform(
        [ForwardBackward(space, Identity(space), replace(f, zeta=z), t) for z in atoms]
    )

    def initial(n: int, seed: int) -> Ensemble:
        gen = _init_rng(seed)
        return Ensemble(space, 5.0 * gen.normal(size=(n, dim)))

    invariant = None
    M = np.eye(dim) - t * f.Q
    rho = float(np.max(np.abs(np.linalg.eigvals(M))))
    extras: dict = {"step": t, "lipschitz": f.lipschitz, "tau_f": f.tau, "step_contraction": rho}
    if rho < 1.0:
        depth = max(8, int(math.ceil(math.log(1e-16) / math.log(max(rho, 1e-16)))))  # rho = 0: one term is exact

        zmat = np.stack(atoms)

        def invariant(n: int, seed: int) -> Ensemble:
            gen = _init_rng(seed)
            pts = np.zeros((n, dim))
            for lo, hi in row_blocks(n, SAMPLER_ROWS):
                idx = gen.integers(0, len(atoms), size=(hi - lo, depth))
                power = np.eye(dim)
                for j in range(depth):
                    pts[lo:hi] += (-t) * (zmat[idx[:, j]] + f.q) @ power.T
                    power = power @ M.T
            return Ensemble(space, pts)

    truth = GroundTruth(
        invariant_sampler=invariant,
        alpha=2.0 / 3.0,
        violation_bound=fb_violation_bound(t, f.lipschitz, f.tau, 0.0),
        extras=extras,
    )
    return Scenario("sgd_linear_noise", space, family, initial, truth, notes=notes)


# ---------------------------------------------------------------------------
# phase retrieval at desk scale
# ---------------------------------------------------------------------------

def scenario_phase_retrieval(
    n: int = 64, n_masks: int = 4, instance_seed: int = 0, relax: float = 0.5, init_noise: float = 0.1
) -> Scenario:
    """Random-mask DFT magnitude feasibility solved by stochastic Douglas-Rachford.

    A real, supported ground-truth signal rho* generates one magnitude set
    per unit-modulus random mask; the qualitative constraint set (realness +
    support) enters through a relaxed projection, which is the resolvent of
    the scaled squared distance (relax/(2(1-relax))) * dist^2.  All
    constraint sets contain rho*, so its orbit under global phase is the
    consistent solution set.
    """
    _require_sizes(n=n, n_masks=n_masks)
    if n > 256:
        raise ParamError("n", "phase retrieval instances are capped at n = 256 (desk scale)")
    if not 0.0 < relax < 1.0:
        raise ParamError("relax", f"relaxation must lie in (0, 1), got {relax}")
    gen = np.random.default_rng(np.random.SeedSequence((int(instance_seed), 0x9E7A)))
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
    return Scenario("phase_retrieval", space, family, initial, truth)


# ---------------------------------------------------------------------------
# Frechet means on a spider
# ---------------------------------------------------------------------------

def scenario_spider_frechet(
    anchors: Sequence[SpiderPoint] = ((0, 1.0), (1, 1.0), (2, 1.0)),
    lam: float = 0.1,
    legs: Optional[int] = None,
) -> Scenario:
    """Randomized proximal splitting for the Frechet mean of spider anchors.

    The proximal parameter stays fixed (no diminishing schedule), so the
    invariant measure is a stationary cloud around the mean whose spread
    shrinks with lam, not a point mass at the mean.
    """
    anchors = [a if isinstance(a, SpiderPoint) else SpiderPoint(*a) for a in anchors]
    if not anchors:
        raise ParamError("anchors", "need at least one anchor")
    if lam <= 0:
        raise ParamError("lam", f"prox parameter must be > 0, got {lam}")
    needed = max(2, max(a.leg for a in anchors) + 1)
    if legs is not None and legs < needed:
        raise ParamError("legs", f"must be at least {needed}: 2, and a leg for every anchor; got {legs}")
    space = SpiderSpace(needed if legs is None else legs)
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
    return Scenario("spider_frechet", space, family, initial, truth)


def spider_frechet_mean(space: SpiderSpace, points: np.ndarray) -> SpiderPoint:
    """Exact Frechet mean of equally weighted spider points by the per-leg
    closed form.

    On a fixed leg the objective is quadratic in the radius with
    unconstrained minimizer (sum_same r - sum_other r) / count, clamped at
    the origin; the mean is the best leg's candidate.
    """
    pts = space.pack(points)
    best = SpiderPoint(0, 0.0)
    best_val = np.inf
    for leg in range(space.legs):
        same = pts[:, 0] == leg
        rho = max(float(np.sum(pts[same, 1]) - np.sum(pts[~same, 1])) / len(pts), 0.0)
        cand = np.repeat(np.array([[float(leg), rho]]), len(pts), axis=0)
        val = float(np.mean(space.pair_dist(pts, cand) ** 2))
        if val < best_val - 1e-15:
            best_val = val
            best = SpiderPoint(leg, rho)
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
        raise ParamError("gap", "gap must be > 0")
    space = EuclideanSpace(2)
    normal = np.array([0.0, 1.0])
    lines = [HyperplaneProjection(space, normal, 0.0), HyperplaneProjection(space, normal, gap)]
    ops = [DouglasRachford(space, lines[i_f], lines[i_g]) for i_f in (0, 1) for i_g in (0, 1)]
    family = OperatorFamily.uniform(ops)

    def initial(n: int, seed: int) -> Ensemble:
        gen = _init_rng(seed)
        return Ensemble(space, init_scale * gen.normal(size=(n, 2)))

    truth = GroundTruth(alpha=0.5, violation_bound=dr_violation_bound(0.0, 0.0), extras={"gap": gap})
    return Scenario("dr_parallel_lines", space, family, initial, truth)


# ---------------------------------------------------------------------------
# long-run references and Monte-Carlo floors
# ---------------------------------------------------------------------------

def long_run_reference(scenario: Scenario, n: int, steps: int, seed: int) -> Ensemble:
    """Burn-in ensemble used as the invariant-measure stand-in."""
    cfg = ChainConfig(
        family=scenario.family,
        initial=scenario.initial(n, derive_seed(seed, STREAM_BURNIN)),
        iterations=steps,
        seed=derive_seed(seed, STREAM_BURNIN + 1),
        record_every=max(1, steps),
    )
    return run_ensemble(cfg).final()


def floor_source(scenario: Scenario) -> str:
    """Where :func:`floor_sample` takes its ensembles from: "invariant_sampler"
    when the scenario has one, else "burn_in"."""
    return "burn_in" if scenario.ground_truth.invariant_sampler is None else "invariant_sampler"


def floor_sample(scenario: Scenario, n: int, steps: int, seed: int) -> Ensemble:
    """One fresh N-sample of the invariant measure under ``seed``: a draw of
    the scenario's invariant sampler, or where it has none a burn-in of
    ``steps`` steps; ``steps`` is read only then."""
    if floor_source(scenario) == "burn_in":
        return long_run_reference(scenario, n, steps, seed)
    return scenario.ground_truth.invariant_sampler(n, seed)


def monte_carlo_floor(scenario: Scenario, n: int, steps: int, seed: int, repeats: int = 3) -> float:
    """The resolution limit of W2 estimates against a reference of N
    particles: the median of ``repeats`` floor draws, each the W2 from the
    reference to a fresh sample (:func:`floor_sample` under one of
    :func:`floor_seeds`), which estimates E[W2(sample, reference) |
    reference], the level a W2 series settles at once the chain is
    invariant.  The reference is itself a fresh sample, drawn under
    ``derive_seed(seed, 11)``.  A single draw fluctuates by a factor of
    2-3, hence the median.  A run measures its floor against its own
    reference instead (``cli.cmd_run``)."""
    reference = floor_sample(scenario, n, steps, derive_seed(seed, 11))
    return statistics.median([wasserstein(reference, floor_sample(scenario, n, steps, s), p=2.0)[0]
                              for s in floor_seeds(seed, repeats)])


def floor_seeds(seed: int, repeats: int = 3) -> list:
    """Seeds of the ``repeats`` fresh samples behind a floor, one per draw."""
    return [derive_seed(seed, 12 + i) for i in range(repeats)]


# ---------------------------------------------------------------------------
# CLI-facing registry
# ---------------------------------------------------------------------------

def _boolean(value) -> bool:
    """A JSON boolean; any other value is a TypeError (``bool("false")`` is True)."""
    if not isinstance(value, bool):
        raise TypeError(f"expected a boolean, got {type(value).__name__}")
    return value


def _integer(value) -> int:
    """A JSON integer; a boolean or a float is a TypeError (``int(2.7)`` is 2)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def _number(value) -> float:
    """A finite JSON number, as a float; a string or a boolean is a
    TypeError (``float("0.2")`` is 0.2), and a non-finite one a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {number!r}")
    return number


def _floats(value) -> np.ndarray:
    """A JSON number, or an array of them nested to any depth, as a float array."""
    return np.asarray([_floats(v) for v in value] if isinstance(value, list) else _number(value), dtype=float)


class ParamError(ValueError):
    """A scenario parameter that the scenario does not take, or whose value
    its converter or its builder rejects; ``args`` is ``(key, message)``."""

    def __str__(self) -> str:
        return f"parameter '{self.args[0]}': {self.args[1]}"


# the JSON converter of a builder parameter, by its annotation
CONVERTERS = {
    bool: _boolean,
    int: _integer,
    Optional[int]: _integer,
    float: _number,
    Optional[np.ndarray]: _floats,
    Optional[Sequence[np.ndarray]]: lambda atoms: [_floats(a) for a in atoms],
    Sequence[SpiderPoint]: lambda anchors: [SpiderPoint(_integer(leg), _number(radius)) for leg, radius in anchors],
}

# scenario <name> is built by scenario_<name>, whose signature declares the
# scenario's JSON keys, in order, their converters (by annotation, through
# CONVERTERS) and their defaults, and so what the manifest records
SCENARIO_BUILDERS = {
    build.__name__.removeprefix("scenario_"): build
    for build in (scenario_two_point, scenario_contraction, scenario_kaczmarz, scenario_sgd_linear_noise,
                  scenario_phase_retrieval, scenario_spider_frechet, scenario_dr_parallel_lines)
}


def build_scenario(name: str, params: Optional[dict] = None) -> Scenario:
    """Scenario ``name`` built from the JSON values ``params``, which its
    ``params`` record (see :class:`Scenario`).  A key the scenario does not
    take, or a value its converter rejects, is a :class:`ParamError` naming
    the key (the first unknown key, in sorted order, before any value is
    converted)."""
    if name not in SCENARIO_BUILDERS:
        known = ", ".join(sorted(SCENARIO_BUILDERS))
        raise ValueError(f"unknown scenario '{name}' (known: {known})")
    params = dict(params or {})
    build = SCENARIO_BUILDERS[name]
    signature = inspect.signature(build, eval_str=True).parameters
    converters = {key: CONVERTERS[param.annotation] for key, param in signature.items()}
    unknown = sorted(set(params) - set(converters))
    if unknown:
        known = ", ".join(converters) or "none"
        raise ParamError(unknown[0], f"not a parameter of '{name}' (known: {known})")
    converted = {}
    for key, value in params.items():
        try:
            converted[key] = converters[key](value)
        except (TypeError, ValueError, LookupError, OverflowError) as exc:
            raise ParamError(key, str(exc)) from exc
    record = {key: params.get(key, param.default) for key, param in signature.items()}
    return replace(build(**converted), params=record)
