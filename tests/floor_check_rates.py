"""False-failure rates of the acceptance checks that read the Monte-Carlo floor.

C2, C6 and C7 in ``test_acceptance.py`` compare a statistic with
``monte_carlo_floor``.  This script builds each statistic as its test does,
with the test's seed offsets added to other bases than ``SEED``, and counts
how often a correct program fails each bound, under two floors:

* ``pairs``: the median over 3 pairs of fresh samples of the W2 between the
  two samples of a pair (:func:`pair_floor`, the floor before it was
  measured against a reference);
* ``reference``: ``scenarios.monte_carlo_floor``, the median W2 from one
  fresh reference to 3 fresh samples.

Each count comes with the upper end of its two-sided 95% Clopper-Pearson
interval.  Run from the repository root:

    PYTHONPATH=src python tests/floor_check_rates.py --seeds 200 --kaczmarz-seeds 100

The file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
from scipy.stats import beta

from rfilab.analysis import build_rate_report
from rfilab.rfi import ChainConfig, derive_seed, run_ensemble
from rfilab.scenarios import (
    long_run_reference,
    monte_carlo_floor,
    random_kaczmarz_instance,
    scenario_contraction,
    scenario_dr_parallel_lines,
    scenario_kaczmarz,
    scenario_two_point,
)
from rfilab.transport import Ensemble, markov_transport_discrepancy, wasserstein

SEED = 20260808  # test_acceptance.SEED: the bases below stand in for it
FLOORS = ("pairs", "reference")


def pair_floor(scenario, n: int, steps: int, seed: int, repeats: int = 3) -> float:
    """The floor as W2 between two fresh samples, median over ``repeats``
    pairs, pair i drawn under ``derive_seed(seed, 11 + 2i)`` and
    ``derive_seed(seed, 12 + 2i)``."""
    sampler = scenario.ground_truth.invariant_sampler

    def sample(s):
        return long_run_reference(scenario, n, steps, s) if sampler is None else sampler(n, s)

    return float(np.median([
        wasserstein(sample(derive_seed(seed, 11 + 2 * i)), sample(derive_seed(seed, 12 + 2 * i)))[0]
        for i in range(repeats)
    ]))


def floors(scenario, n: int, steps: int, seed: int) -> dict:
    return {"pairs": pair_floor(scenario, n, steps, seed), "reference": monte_carlo_floor(scenario, n, steps, seed)}


def c2(base: int) -> dict:
    """C2's fitted R-rate of the contraction series; it fails outside [0.4, 0.6]."""
    r, n, k = 0.5, 2000, 40
    sc = scenario_contraction(r)
    ref = sc.ground_truth.invariant_sampler(n, 2)
    traj = run_ensemble(ChainConfig(sc.family, sc.initial(n, 3), k, seed=base + 2))
    dists = [wasserstein(ens, ref)[0] for ens in traj.ensembles]
    out = {}
    for name, floor in floors(sc, n, k, base + 3).items():
        rate = build_rate_report(traj.steps, dists, burn_in_fraction=0.0, floor=floor).r_linear.rate
        out[name] = {"statistic": rate, "fails": not 0.4 <= rate <= 0.6}
    return out


def c6(base: int) -> dict:
    """C6's W2(pi P, pi) / floor on dr_parallel_lines; it fails above 3."""
    sc = scenario_dr_parallel_lines(gap=2.0)
    n, k = 400, 60
    pi = long_run_reference(sc, n, k, seed=base + 12)
    stepped = run_ensemble(ChainConfig(sc.family, pi, 1, seed=base + 13)).final()
    self_dist = wasserstein(stepped, pi)[0]
    out = {}
    for name, floor in floors(sc, n, k, base + 14).items():
        out[name] = {"statistic": self_dist / floor, "fails": self_dist > 3 * floor}
    return out


C7_CASES = {
    "two_point": (scenario_two_point, 5.0),
    "contraction": (lambda: scenario_contraction(0.5), None),
    "kaczmarz": (lambda: scenario_kaczmarz(*random_kaczmarz_instance(3, 2, False, seed=6)[:2], consistent=False),
                 100.0),
}


def c7(case: str, base: int) -> dict:
    """C7's psi(pi) / floor (fails above 3) and psi(far) / floor (fails at
    or below 10) for one case."""
    factory, shift = C7_CASES[case]
    sc = factory()
    n, k = 2000, 120
    pi = long_run_reference(sc, n, k, seed=base + 15)
    cand = long_run_reference(sc, n, k, seed=base + 16)
    psi_pi = markov_transport_discrepancy(sc.family, pi, cand)
    init = sc.initial(n, base + 18)
    if shift is not None:
        init = Ensemble(sc.space, init.points + shift)
    psi_far = markov_transport_discrepancy(sc.family, init, cand)
    out = {}
    for name, floor in floors(sc, n, k, base + 17).items():
        out[name] = {"statistic": psi_pi / floor, "far_ratio": psi_far / floor,
                     "fails": psi_pi > 3 * floor or psi_far <= 10 * floor}
    return out


def clopper_pearson_upper(failures: int, trials: int) -> float:
    """Upper end of the two-sided 95% Clopper-Pearson interval."""
    return 1.0 if failures == trials else float(beta.ppf(0.975, failures + 1, trials - failures))


def summarize(rows: list) -> dict:
    out = {}
    for name in FLOORS:
        stats = np.array([row[name]["statistic"] for row in rows])
        failures = sum(row[name]["fails"] for row in rows)
        summary = {"seeds": len(rows), "failures": failures,
                   "cp95_upper": clopper_pearson_upper(failures, len(rows)),
                   "median": float(np.median(stats)), "q99": float(np.quantile(stats, 0.99)),
                   "min": float(stats.min()), "max": float(stats.max())}
        if "far_ratio" in rows[0][name]:
            summary["far_ratio_min"] = min(row[name]["far_ratio"] for row in rows)
        out[name] = summary
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=200, help="bases per check (C7 kaczmarz: --kaczmarz-seeds)")
    parser.add_argument("--kaczmarz-seeds", type=int, default=100)
    parser.add_argument("--first-base", type=int, default=1_000_000,
                        help="base s stands in for SEED; bases are first-base + 20 i, so no two share a seed")
    args = parser.parse_args(argv)
    checks = {"C2": c2, "C6": c6, **{f"C7 {case}": (lambda b, c=case: c7(c, b)) for case in C7_CASES}}
    results = {}
    for label, check in checks.items():
        count = args.kaczmarz_seeds if label == "C7 kaczmarz" else args.seeds
        started = time.perf_counter()
        own = check(SEED)
        rows = [check(args.first_base + 20 * i) for i in range(count)]
        results[label] = {"at_SEED": {name: own[name]["fails"] for name in FLOORS}, **summarize(rows)}
        for name in FLOORS:
            s = results[label][name]
            print(f"{label:16s} {name:9s} fails {s['failures']:3d}/{s['seeds']} (CP95 upper {s['cp95_upper']:.4f})  "
                  f"statistic median {s['median']:.4g} q99 {s['q99']:.4g} min {s['min']:.4g} max {s['max']:.4g}"
                  + (f" far/floor min {s['far_ratio_min']:.4g}" if "far_ratio_min" in s else "")
                  + f"  fails at SEED: {results[label]['at_SEED'][name]}", flush=True)
        print(f"{label}: {time.perf_counter() - started:.0f} s", file=sys.stderr, flush=True)
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
