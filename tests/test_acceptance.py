"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 1b compares one step of the two-point chain with
the exact invariant measure pi = (delta_-1 + delta_+1)/2 through the sampling
law of the two-point W2: with K of N particles at +1, a correct engine has
K ~ Binomial(N, 1/2) and W2 = 2*sqrt(|K/N - 1/2|) exactly.  The check asserts
that identity (rtol 1e-12) and |K - N/2| <= k*, where k* is the smallest
deviation with P(|Binomial(N, 1/2) - N/2| > k*) <= 1e-6 (scipy.stats.binom),
so a correct engine fails it with probability at most 1e-6 on any seed.
"""

import json
import time

import numpy as np
import pytest
from scipy.stats import binom

from conftest import brute_force_wasserstein, chain_path, point, spider_frechet_mean_grid
from oracles import (
    GaussianPairSampler,
    QuadraticProx,
    SoftThreshold,
    balanced_two_point,
    check_submonotone,
    distance,
    psi_six_distance,
    theta_linear,
)

from rfilab.analysis import build_rate_report, estimate_subregularity, rate_bound_from_theorem
from rfilab.cli import main as cli_main
from rfilab.geometry import EuclideanSpace, SpiderPoint, SpiderSpace
from rfilab.operators import (
    DouglasRachford,
    ForwardBackward,
    HyperplaneProjection,
    Identity,
    OperatorFamily,
    quadratic_smooth_term,
)
from rfilab.regularity import (
    BoxPairSampler,
    dr_violation_bound,
    estimate_violation,
    estimate_violation_in_expectation,
    fb_violation_bound,
    psi_array,
)
from rfilab.rfi import ChainConfig, run_ensemble
from rfilab.scenarios import (
    long_run_reference,
    monte_carlo_floor,
    random_kaczmarz_instance,
    scenario_contraction,
    scenario_dr_parallel_lines,
    scenario_kaczmarz,
    scenario_phase_retrieval,
    scenario_spider_frechet,
    scenario_two_point,
    spider_frechet_mean,
)
from rfilab.transport import Ensemble, markov_transport_discrepancy, wasserstein

SEED = 20260808
C1B_FALSE_FAILURE = 1e-6  # P(C1b fails | correct engine), any seed


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: two-point reproduction
# ---------------------------------------------------------------------------

def test_c01a_two_point_support_and_fraction():
    started = time.perf_counter()
    n, k = 4000, 5
    sc = scenario_two_point()
    traj = run_ensemble(ChainConfig(sc.family, sc.initial(n, 1), k, seed=SEED))
    support_ok = all(
        set(np.unique(ens.points)) <= {-1.0, 1.0} for ens in traj.ensembles[1:]
    )
    tol = 4 * (0.5 / np.sqrt(n))
    fractions = [float((ens.points[:, 0] > 0).mean()) for ens in traj.ensembles[1:]]
    fraction_ok = all(abs(f - 0.5) <= tol for f in fractions)
    elapsed = time.perf_counter() - started
    _report(
        "C1a two-point support/fraction",
        support_ok and fraction_ok and elapsed < 1.0,
        f"support exact={support_ok}, |frac-0.5| max={max(abs(f - 0.5) for f in fractions):.4f} "
        f"<= {tol:.4f}, elapsed={elapsed:.2f}s",
    )


def _binomial_deviation_bound(n: int, false_failure: float) -> tuple[float, float]:
    """Smallest k* with P(|Binomial(n, 1/2) - n/2| > k*) <= false_failure.

    Returns ``(k*, P(|K - n/2| > k*))``.  The law is symmetric about n/2, so
    the two-sided tail at deviation d is twice P(K > n/2 + d).
    """
    devs = np.unique(np.abs(np.arange(n + 1) - n / 2))
    tails = 2.0 * binom.sf(n / 2 + devs, n, 0.5)
    i = int(np.argmax(tails <= false_failure))
    return float(devs[i]), float(tails[i])


def _two_point_w2_check(family: OperatorFamily, n: int, seed: int):
    """C1b's check: one step of ``family`` from the two-point scenario's
    initial ensemble, against the exact invariant ensemble of the two-point
    scenario (n/2 points at -1, n/2 at +1).

    Returns ``(exact_ok, sampling_ok, detail, elapsed)``.  ``exact_ok``: the
    library's W2 equals the closed form 2*sqrt(|p_hat - 1/2|) to rtol 1e-12.
    ``sampling_ok``: the count K at +1 satisfies |K - n/2| <= k*, the
    Binomial(n, 1/2) deviation exceeded with probability <= C1B_FALSE_FAILURE;
    equivalently W2 <= 2*sqrt(k*/n).  ``elapsed`` covers the step and the W2.
    """
    sc = scenario_two_point()
    k_star, tail = _binomial_deviation_bound(n, C1B_FALSE_FAILURE)
    started = time.perf_counter()
    traj = run_ensemble(ChainConfig(family, sc.initial(n, 1), 1, seed=seed))
    pi_exact = balanced_two_point(sc.space, n)
    value, _ = wasserstein(traj.ensembles[1], pi_exact)
    k_plus = int((traj.ensembles[1].points[:, 0] > 0).sum())
    elapsed = time.perf_counter() - started
    p_hat = k_plus / n
    closed_form = 2.0 * np.sqrt(abs(p_hat - 0.5))
    exact_ok = bool(np.isclose(value, closed_form, rtol=1e-12, atol=0.0))
    sampling_ok = abs(k_plus - n / 2) <= k_star
    detail = (
        f"W2={value:.4f} vs 2*sqrt(|p-1/2|)={closed_form:.4f} with p={p_hat:.5f} (K={k_plus} of {n}); "
        f"|K-N/2|={abs(k_plus - n / 2):g} {'<=' if sampling_ok else '>'} k*={k_star:g} "
        f"(W2 bound {2.0 * np.sqrt(k_star / n):.4f}), "
        f"false-failure rate {tail:.2e} <= {C1B_FALSE_FAILURE:g}"
    )
    return exact_ok, sampling_ok, detail, elapsed


def test_c01b_two_point_w2_tolerance():
    # After one step a correct engine's ensemble is an i.i.d. sample of pi,
    # so K ~ Binomial(N, 1/2) and W2 = 2*sqrt(|K/N - 1/2|) exactly.  The check
    # asserts that identity and the Binomial deviation bound k* (k* = 155 at
    # N = 4000, i.e. W2 <= 0.394), which a correct engine exceeds with
    # probability <= 1e-6 on any seed.  No fixed bound far below the
    # N^(-1/4) scale can do this: W2 <= 0.032 would need K in
    # {1999, 2000, 2001}, which a correct engine hits with probability 3.8%.
    exact_ok, sampling_ok, detail, elapsed = _two_point_w2_check(scenario_two_point().family, 4000, SEED)
    _report(
        "C1b two-point W2 vs exact ensemble",
        exact_ok and sampling_ok and elapsed < 1.0,
        f"{detail}, elapsed={elapsed:.2f}s",
    )


def test_c01b_check_rejects_biased_two_point_family():
    """C1b's check rejects an engine whose one-step law is not pi.

    The family jumps to -1 with weight 0.4 and to +1 with weight 0.6, so the
    stepped ensemble has the right support but the wrong weights (W2 near
    2*sqrt(0.1) ~ 0.63, against the bound 0.394 at N = 4000).  Support leaks
    off {-1, +1} are C1a's job, not this check's: here the closed form still
    holds and the rejection must come from the Binomial bound.
    """
    ops = scenario_two_point().family.operators
    biased = OperatorFamily(ops, [0.4, 0.6])
    exact_ok, sampling_ok, detail, _ = _two_point_w2_check(biased, 4000, SEED)
    print(f"[acceptance] C1b rejects (0.4, 0.6) family: {detail}")
    assert exact_ok and not sampling_ok, detail


def test_c01b_two_point_sampler_draws_iid():
    # the floor compares two sampler draws, so the sampler must draw i.i.d.
    # points of pi: the count K at +1 of one draw satisfies C1b's Binomial
    # bound (false failure <= 1e-6), and a second seed gives a different
    # ensemble (the balanced ensemble is the same for every seed)
    n = 4000
    sc = scenario_two_point()
    k_star, tail = _binomial_deviation_bound(n, C1B_FALSE_FAILURE)
    draw, other = (sc.ground_truth.invariant_sampler(n, seed).points for seed in (SEED, SEED + 1))
    k_plus = int((draw[:, 0] > 0).sum())
    support_ok = set(np.unique(draw)) <= {-1.0, 1.0}
    sampling_ok = abs(k_plus - n / 2) <= k_star
    distinct = not np.array_equal(draw, other)
    _report(
        "C1b two-point sampler is i.i.d.",
        support_ok and sampling_ok and distinct,
        f"K={k_plus} of {n}, |K-N/2|={abs(k_plus - n / 2):g} <= k*={k_star:g} (false-failure rate {tail:.2e}); "
        f"support exact={support_ok}, seeds differ={distinct}",
    )


# ---------------------------------------------------------------------------
# criterion 2: contraction rate and firmness in expectation
# ---------------------------------------------------------------------------

def test_c02_contraction_rate_and_violation():
    """The fitted R-rate depends on the floor through the fit window.  With
    the statistic built as here on 200 other bases in place of SEED
    (``tests/floor_check_rates.py``), no seed falls outside [0.4, 0.6]:
    0/200 under the floor against a reference (R-rate 0.474-0.516) and
    under the earlier two-sample floor (0.474-0.523); the false-failure rate
    is at most 0.018 (95% Clopper-Pearson upper end)."""
    started = time.perf_counter()
    r, n, k = 0.5, 2000, 40
    sc = scenario_contraction(r)
    ref = sc.ground_truth.invariant_sampler(n, 2)
    traj = run_ensemble(ChainConfig(sc.family, sc.initial(n, 3), k, seed=SEED + 2))
    dists = [wasserstein(ens, ref)[0] for ens in traj.ensembles]
    floor = monte_carlo_floor(sc, n, k, seed=SEED + 3)
    report = build_rate_report(traj.steps, dists, burn_in_fraction=0.0, floor=floor)
    rate = report.r_linear.rate
    rep = estimate_violation_in_expectation(
        sc.family, (1 + r) / 2, BoxPairSampler(sc.space, -5, 5, seed=SEED + 4), 10_000
    ).in_expectation
    elapsed = time.perf_counter() - started
    _report(
        "C2 contraction rate + violation",
        0.4 <= rate <= 0.6 and rep.epsilon_hat <= 1e-8 and elapsed < 10.0,
        f"fitted R-rate={rate:.4f} in [0.4,0.6], eps_hat={rep.epsilon_hat:.2e} <= 1e-8 "
        f"at alpha={(1 + r) / 2}, elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: psi identity and nonnegativity
# ---------------------------------------------------------------------------

def test_c03_psi_identity_and_nonnegativity():
    started = time.perf_counter()
    gen = np.random.default_rng(SEED + 5)
    n = 100_000
    e3 = EuclideanSpace(3)
    X, X0, FX, FX0 = (gen.normal(size=(n, 3)) * 3 for _ in range(4))
    six = psi_six_distance(e3, X, X0, FX, FX0)
    disp = psi_array(e3, X, X0, FX, FX0)
    rel = np.abs(six - disp) / np.maximum(np.maximum(np.abs(six), np.abs(disp)), 1.0)
    identity_ok = float(rel.max()) <= 1e-10

    spider = SpiderSpace(4)
    legs = gen.integers(0, 4, size=(2, n)).astype(float)
    radii = gen.uniform(0, 4, size=(2, n))
    A = spider.pack(np.stack([legs[0], radii[0]], axis=1))
    B = spider.pack(np.stack([legs[1], radii[1]], axis=1))
    sc = scenario_spider_frechet([SpiderPoint(0, 1.0), SpiderPoint(1, 2.0), SpiderPoint(3, 0.5)], lam=0.7)
    worst = np.inf
    for op in sc.family.operators:
        vals = psi_array(spider, A, B, op.apply(A), op.apply(B))
        worst = min(worst, float(vals.min()))
    nonneg_ok = worst >= -1e-10
    elapsed = time.perf_counter() - started
    _report(
        "C3 psi identity + nonnegativity",
        identity_ok and nonneg_ok and elapsed < 5.0,
        f"max rel gap={rel.max():.2e} <= 1e-10, spider min psi={worst:.2e} >= -1e-10, "
        f"elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: assignment solver vs brute force
# ---------------------------------------------------------------------------

def test_c04_ot_oracle_equivalence():
    started = time.perf_counter()
    gen = np.random.default_rng(SEED + 6)
    worst = 0.0
    for trial in range(200):
        n = int(gen.integers(2, 9))
        p = float(gen.choice([1.0, 2.0]))
        if trial % 2 == 0:
            dim = int(gen.integers(1, 4))
            space = EuclideanSpace(dim)
            A = Ensemble(space, gen.normal(size=(n, dim)) * 2)
            B = Ensemble(space, gen.normal(size=(n, dim)) * 2)
        else:
            space = SpiderSpace(3)
            A = Ensemble(space, np.stack([gen.integers(0, 3, n).astype(float), gen.uniform(0, 2, n)], axis=1))
            B = Ensemble(space, np.stack([gen.integers(0, 3, n).astype(float), gen.uniform(0, 2, n)], axis=1))
        got, _ = wasserstein(A, B, p)
        oracle = brute_force_wasserstein(space, A.points, B.points, p)
        worst = max(worst, abs(got**p - oracle**p))
    elapsed = time.perf_counter() - started
    _report(
        "C4 assignment vs brute force",
        worst <= 1e-12 and elapsed < 5.0,
        f"200 instances (both spaces, N in 2..8), worst cost gap={worst:.2e}, elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: forward-backward violation bound
# ---------------------------------------------------------------------------

def test_c05_fb_violation_bound():
    started = time.perf_counter()
    gen = np.random.default_rng(SEED + 7)
    worst_excess = -np.inf
    for trial in range(20):
        dim = int(gen.integers(1, 4))
        M = gen.normal(size=(dim, dim))
        Q = (M + M.T) / 2  # possibly indefinite: tau_f may be positive
        f = quadratic_smooth_term(Q)
        t = float(gen.uniform(0.05, 0.6) / f.lipschitz)
        space = EuclideanSpace(dim)
        for g_res in (Identity(space), SoftThreshold(space, float(gen.uniform(0.1, 1.0)))):
            op = ForwardBackward(space, g_res, f, t)
            rep = estimate_violation(
                op, 2.0 / 3.0, BoxPairSampler(space, -5, 5, seed=SEED + 8 + trial), 10_000
            )
            bound = fb_violation_bound(t, f.lipschitz, f.tau, 0.0)
            worst_excess = max(worst_excess, rep.epsilon_hat - bound)
    elapsed = time.perf_counter() - started
    _report(
        "C5 FB empirical <= closed-form bound",
        worst_excess <= 1e-6 and elapsed < 20.0,
        f"20 quadratics x (zero, soft-threshold), worst eps_hat - bound = {worst_excess:.2e} "
        f"<= 1e-6, elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: Douglas-Rachford convexity and parallel-lines invariance
# ---------------------------------------------------------------------------

def test_c06_dr_convexity_and_invariance():
    """W2(pi P, pi) / floor on ``dr_parallel_lines``, over 200 other bases
    (``tests/floor_check_rates.py``): 0/200 above 3 under the floor against
    a reference (median 0.45, max 0.83) and under the earlier two-sample
    floor (median 0.45, max 0.66); the false-failure rate is at most 0.018
    (95% Clopper-Pearson upper end).  The scenario has no invariant
    measure, so the margin says nothing about invariance."""
    started = time.perf_counter()
    gen = np.random.default_rng(SEED + 9)
    space = EuclideanSpace(2)
    convex_ops = []
    for _ in range(4):
        a = gen.normal(size=2)
        b = gen.normal(size=2)
        convex_ops.append(
            DouglasRachford(space, HyperplaneProjection(space, a, float(gen.normal())),
                            HyperplaneProjection(space, b, float(gen.normal())))
        )
    M = gen.normal(size=(2, 2))
    convex_ops.append(
        DouglasRachford(space, QuadraticProx(space, M @ M.T, np.zeros(2), 1.0),
                        SoftThreshold(space, 0.5))
    )
    worst_eps = 0.0
    for op in convex_ops:
        rep = estimate_violation(op, 0.5, BoxPairSampler(space, -5, 5, seed=SEED + 10), 5000)
        worst_eps = max(worst_eps, rep.epsilon_hat)

    sc = scenario_dr_parallel_lines(gap=2.0)
    fam_rep = estimate_violation_in_expectation(
        sc.family, 0.5, BoxPairSampler(sc.space, -4, 4, seed=SEED + 11), 5000
    ).in_expectation
    worst_eps = max(worst_eps, fam_rep.epsilon_hat)

    n, k = 400, 60
    pi = long_run_reference(sc, n, k, seed=SEED + 12)
    stepped = run_ensemble(ChainConfig(sc.family, pi, 1, seed=SEED + 13)).final()
    floor = monte_carlo_floor(sc, n, k, seed=SEED + 14)
    self_dist, _ = wasserstein(stepped, pi)
    elapsed = time.perf_counter() - started
    _report(
        "C6 DR convex violation + invariance",
        worst_eps <= 1e-8 and self_dist <= 3 * floor and elapsed < 20.0,
        f"worst convex eps_hat={worst_eps:.2e} <= 1e-8; parallel lines "
        f"W2(pi P, pi)={self_dist:.4f} <= 3x floor={3 * floor:.4f}, elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: Markov transport discrepancy separates invariance
# ---------------------------------------------------------------------------

def test_c07_psi_separates_invariant_measures():
    """psi(pi) / floor (fails above 3) and psi(far) / floor (fails at or
    under 10), over other bases in place of SEED
    (``tests/floor_check_rates.py``), under the floor against a reference
    and, in brackets, the earlier two-sample floor:

    * two_point, 200 bases: 1/200 fail [1/200], false-failure rate at most
      0.028 (95% Clopper-Pearson upper end); psi(pi) / floor median 1.00,
      q99 2.60, max 6.56 [1.00, 2.96, 3.46]; psi(far) / floor min 14.2
      [14.4].  A floor from N = 2000 points at +-1 can be small, which
      gives the ratio a heavy tail;
    * contraction, 200 bases: 0/200 [0/200], at most 0.018; max 1.73 [1.75];
    * kaczmarz, 100 bases: 0/100 [0/100], at most 0.036; max 2.09 [2.35].
    """
    started = time.perf_counter()
    cases = [
        ("two_point", scenario_two_point(), 5.0),
        ("contraction", scenario_contraction(0.5), None),  # initial is already distant
        (
            "kaczmarz",
            scenario_kaczmarz(*random_kaczmarz_instance(3, 2, False, seed=6)[:2], consistent=False),
            100.0,
        ),
    ]
    details = []
    ok = True
    for name, sc, shift in cases:
        n, k = 2000, 120
        pi = long_run_reference(sc, n, k, seed=SEED + 15)
        cand = long_run_reference(sc, n, k, seed=SEED + 16)
        floor = monte_carlo_floor(sc, n, k, seed=SEED + 17)
        psi_pi = markov_transport_discrepancy(sc.family, pi, cand)
        init = sc.initial(n, SEED + 18)
        if shift is not None:
            init = Ensemble(sc.space, init.points + shift)
        psi_far = markov_transport_discrepancy(sc.family, init, cand)
        ok = ok and psi_pi <= 3 * floor and psi_far > 10 * floor
        details.append(f"{name}: psi(pi)={psi_pi:.3f}<={3 * floor:.3f}, psi(far)={psi_far:.2f}>{10 * floor:.2f}")
    elapsed = time.perf_counter() - started
    _report("C7 Psi separates invariance", ok and elapsed < 30.0, "; ".join(details) + f", elapsed={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: linear rate formula consistency
# ---------------------------------------------------------------------------

def test_c08_rate_formula_consistency():
    started = time.perf_counter()
    gen = np.random.default_rng(SEED + 19)
    worst = 0.0
    for _ in range(1000):
        alpha = float(gen.uniform(0.05, 0.95))
        eps = float(gen.uniform(0.0, 0.5))
        tau = (1 - alpha) / alpha
        lo = np.sqrt(tau / (1 + eps))
        hi = np.sqrt(tau / eps) if eps > 0 else 10 * lo
        r = float(gen.uniform(lo, min(hi * 0.999, 10 * lo)))
        c = rate_bound_from_theorem(alpha, eps, r)
        worst = max(worst, abs(c**2 - theta_linear(eps, tau, r)))
    algebra_ok = worst <= 1e-12

    # inequality direction on the contraction run
    r, n = 0.5, 2000
    sc = scenario_contraction(r)
    ref = sc.ground_truth.invariant_sampler(n, 20)
    traj = run_ensemble(ChainConfig(sc.family, sc.initial(n, 21), 10, seed=SEED + 20))
    dists = np.array([wasserstein(ens, ref)[0] for ens in traj.ensembles])
    psis = np.array([markov_transport_discrepancy(sc.family, ens, ref) for ens in traj.ensembles])
    fit = estimate_subregularity(psis[psis > 0], dists[psis > 0])
    alpha = (1 + r) / 2
    predicted = rate_bound_from_theorem(alpha, 0.0, fit.r_hat)
    empirical = build_rate_report(traj.steps, dists, burn_in_fraction=0.0).r_linear.rate
    direction_ok = empirical <= predicted + 0.1
    elapsed = time.perf_counter() - started
    _report(
        "C8 rate formula consistency",
        algebra_ok and direction_ok and elapsed < 30.0,
        f"max |c^2 - gamma|={worst:.1e} <= 1e-12 over 1000 draws; empirical rate "
        f"{empirical:.3f} <= predicted {predicted:.3f} + 0.1, elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 9: spider Frechet mean
# ---------------------------------------------------------------------------

def test_c09_spider_frechet_mean():
    started = time.perf_counter()
    anchors = [SpiderPoint(0, 1.0), SpiderPoint(1, 1.0), SpiderPoint(2, 1.0)]
    sc = scenario_spider_frechet(anchors, lam=0.02)
    traj = run_ensemble(
        ChainConfig(sc.family, sc.initial(1000, 22), 2000, seed=SEED + 21, record_every=2000)
    )
    mean_point = spider_frechet_mean(sc.space, traj.final().points)
    oracle = spider_frechet_mean_grid(sc.space, sc.space.pack(anchors), resolution=1e-3)
    gap = distance(sc.space, mean_point, oracle)
    elapsed = time.perf_counter() - started
    _report(
        "C9 spider Frechet mean",
        gap <= 0.05 and elapsed < 30.0,
        f"ensemble mean {mean_point} vs grid oracle {oracle}, distance={gap:.4f} <= 0.05, "
        f"elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 10: byte-identical CSV output
# ---------------------------------------------------------------------------

def test_c10_determinism(tmp_path):
    started = time.perf_counter()
    cfg = {
        "scenario": {"name": "two_point"},
        "ensemble_size": 500,
        "iterations": 5,
        "seed": int(SEED),
        "diagnostics": {"wasserstein": True, "psi": True},
    }
    cfg_path = tmp_path / "cfg.json"
    outs = []
    for name, workers in (("a", None), ("b", None), ("c", 3), ("d", 7)):
        cfg_path.write_text(json.dumps({**cfg, "workers": workers} if workers else cfg))
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
        outs.append(tmp_path / name)
    csvs = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*.csv"))
    identical = True
    for rel in csvs:
        base = (outs[0] / rel).read_bytes()
        identical = identical and all((o / rel).read_bytes() == base for o in outs[1:])
    elapsed = time.perf_counter() - started
    _report(
        "C10 determinism",
        identical and len(csvs) >= 3,
        f"{len(csvs)} CSV files byte-identical across reruns and workers in {{1,3,7}}, "
        f"elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# phase retrieval property block (no quantitative reproduction claimed)
# ---------------------------------------------------------------------------

def test_c11_phase_retrieval_properties():
    started = time.perf_counter()
    sc = scenario_phase_retrieval(n=64, n_masks=4, instance_seed=SEED % 997)
    rho = sc.ground_truth.extras["rho_star"]
    scale = max(1.0, float(np.linalg.norm(rho)))

    fixed_ok = all(np.linalg.norm(op(rho) - rho) <= 1e-12 * scale for op in sc.family.operators)

    path = chain_path(sc.family, point(sc.initial(1, 23), 0), 500, seed=SEED + 22)
    bounded_ok = max(float(np.linalg.norm(x)) for x in path) <= 10.0 * scale

    sampler = GaussianPairSampler(sc.space, rho, scale=0.1, seed=SEED + 23)
    worst_excess = -np.inf
    for op in sc.family.operators:
        tau_hat = check_submonotone(op.g_resolvent, sampler, 2000)
        rep = estimate_violation(op, 0.5, sampler, 2000)
        worst_excess = max(worst_excess, rep.epsilon_hat - dr_violation_bound(0.0, max(tau_hat, 0.0)))
    bound_ok = worst_excess <= 1e-4
    elapsed = time.perf_counter() - started
    _report(
        "C11 phase retrieval properties",
        fixed_ok and bounded_ok and bound_ok,
        f"fixed points exact={fixed_ok}, chains bounded={bounded_ok}, "
        f"worst eps_hat - dr_bound(0, tau_hat) = {worst_excess:.2e} <= 1e-4, elapsed={elapsed:.1f}s",
    )
