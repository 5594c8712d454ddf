"""Workload catalogue: each workload is one `rfilab run` config, made from a seed.

The scenario instance (matrix, masks, signal) is fixed per workload; the
seed selects the config seed, i.e. the initial ensemble, every chain draw,
the burn-in reference and the Monte-Carlo floor.  Kaczmarz instances alone
move assignment time by up to 1.8x (instance seeds 0-3, N = 1000), so a
seed-dependent instance would make the cross-seed spread measure the
instance rather than the code.
"""

from __future__ import annotations

from dataclasses import dataclass

# every diagnostic on: W2, Psi, regularity sampling, floor + rate fits
ALL_DIAGNOSTICS = {"wasserstein": True, "psi": True, "regularity": True, "rates": True}
BURN_IN_FACTOR = 10
WORKERS = 2  # the program's thread pool size, equal to nproc on the reference machine


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: dict
    ensemble_size: int
    iterations: int
    record_every: int

    def config(self, seed: int) -> dict:
        return {
            "scenario": self.scenario,
            "ensemble_size": self.ensemble_size,
            "iterations": self.iterations,
            "seed": seed,
            "record_every": self.record_every,
            "workers": WORKERS,
            "diagnostics": dict(ALL_DIAGNOSTICS),
            "reference": {"mode": "burn_in", "factor": BURN_IN_FACTOR},
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ot_kaczmarz",
            scenario={"name": "kaczmarz", "params": {"m": 3, "n": 2, "consistent": False, "instance_seed": 0}},
            ensemble_size=1000,
            iterations=5,
            record_every=1,
        ),
        Workload(
            name="chain_contraction",
            scenario={"name": "contraction", "params": {"r": 0.5}},
            ensemble_size=50000,
            iterations=10,
            record_every=10,
        ),
        Workload(
            name="mixed_phase",
            scenario={"name": "phase_retrieval", "params": {"n": 64, "instance_seed": 0}},
            ensemble_size=500,
            iterations=10,
            record_every=1,
        ),
    )
}
