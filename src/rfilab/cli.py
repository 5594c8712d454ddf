"""Batch experiment runner.

Subcommands:

* ``run``          -- simulate a configured scenario, write series + ensembles
* ``regularity``   -- estimate violation constants for a configured scenario
* ``rate``         -- fit rates / subregularity on an existing results directory
* ``wasserstein``  -- standalone W_p between two ensemble CSV files

Configs are JSON documents validated against :data:`CONFIG_SCHEMA` before any
computation.  All CSV outputs are byte-deterministic for a fixed config, and
reruns reproduce files exactly.  ``run`` splits its independent work into
jobs (the burn-in reference, the floor's burn-ins and W2 draws, one W2 + Psi
job per recorded step) and runs them on ``workers`` forked processes, capped
at the usable CPUs, while this process runs the chain, writes the files and
estimates regularity.  The worker count changes no output byte: every job is
a pure function of its arguments.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__, transport
from .analysis import build_rate_report, estimate_subregularity, rate_bound_from_theorem
from .geometry import SpiderSpace
from .regularity import (
    BoxPairSampler,
    SpiderPairSampler,
    estimate_violation,
    estimate_violation_in_expectation,
)
from .rfi import ChainConfig, derive_seed, run_ensemble
# monte_carlo_floor is not called here, but perfbench/spans.py wraps cli.monte_carlo_floor
from .scenarios import (  # noqa: F401
    SCENARIO_BUILDERS,
    build_scenario,
    floor_pair_seeds,
    long_run_reference,
    monte_carlo_floor,
    unknown_params,
)
from .transport import Ensemble, markov_transport_discrepancy, wasserstein

__all__ = ["main", "CONFIG_SCHEMA", "validate_config", "validate_report", "cmd_run", "cmd_regularity", "cmd_rate"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

# Published config schema: key -> (type, required, default, constraint note).
CONFIG_SCHEMA = {
    "scenario": (dict, True, None, "object with 'name' (str) and optional 'params' (object)"),
    "ensemble_size": (int, True, None, ">= 1"),
    "iterations": (int, True, None, ">= 0"),
    "seed": (int, True, None, ">= 0"),
    "record_every": (int, False, 1, ">= 1"),
    "workers": (int, False, 1, ">= 1; worker processes, capped at usable CPUs; changes no output byte"),
    "common_noise": (bool, False, False, "all particles share one index draw"),
    "diagnostics": (dict, False, {}, "booleans: wasserstein, psi, regularity, rates"),
    "reference": (dict, False, {"mode": "burn_in", "factor": 10}, "mode: burn_in | ground_truth | file; factor; path"),
    "regularity_pairs": (int, False, 2000, ">= 1, pair count for violation estimates"),
    "output_dir": (str, False, None, "results directory (--out overrides)"),
}

DIAGNOSTIC_DEFAULTS = {"wasserstein": True, "psi": True, "regularity": False, "rates": False}
REFERENCE_KEYS = ("mode", "factor", "path")
SCENARIO_KEYS = ("name", "params")

REPORT_SCHEMA_ID = "rfilab.report.v1"
REPORT_KEYS = {"schema", "scenario", "alpha", "regularity", "bound", "rates", "subregularity", "predicted_rate", "floor"}


class ConfigError(ValueError):
    """Invalid configuration; reported with the offending key path."""


def validate_config(raw: dict) -> dict:
    """Normalize & validate a config mapping; raises ConfigError with a path."""
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    cfg = {}
    for key, (typ, required, default, note) in CONFIG_SCHEMA.items():
        if key not in raw:
            if required:
                raise ConfigError(f"config.{key}: missing required key ({note})")
            cfg[key] = json.loads(json.dumps(default)) if isinstance(default, dict) else default
            continue
        val = raw[key]
        if typ is int and isinstance(val, bool):
            raise ConfigError(f"config.{key}: expected integer, got boolean")
        if not isinstance(val, typ):
            raise ConfigError(f"config.{key}: expected {typ.__name__} ({note})")
        cfg[key] = val
    for key in raw:
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"config.{key}: unknown key")
    scenario = cfg["scenario"]
    for key in scenario:
        if key not in SCENARIO_KEYS:
            raise ConfigError(f"config.scenario.{key}: unknown key (known: {', '.join(SCENARIO_KEYS)})")
    name = scenario.get("name")
    if not isinstance(name, str) or name not in SCENARIO_BUILDERS:
        known = ", ".join(sorted(SCENARIO_BUILDERS))
        raise ConfigError(f"config.scenario.name: must be one of {known}")
    params = scenario.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config.scenario.params: must be an object")
    for key in unknown_params(name, params):
        known = ", ".join(SCENARIO_BUILDERS[name].params) or "none"
        raise ConfigError(f"config.scenario.params.{key}: not a parameter of '{name}' (known: {known})")
    if cfg["seed"] < 0:
        raise ConfigError("config.seed: must be >= 0")
    if cfg["ensemble_size"] < 1:
        raise ConfigError("config.ensemble_size: must be >= 1")
    if cfg["iterations"] < 0:
        raise ConfigError("config.iterations: must be >= 0")
    if cfg["record_every"] < 1:
        raise ConfigError("config.record_every: must be >= 1")
    if cfg["workers"] < 1:
        raise ConfigError("config.workers: must be >= 1")
    if cfg["regularity_pairs"] < 1:
        raise ConfigError("config.regularity_pairs: must be >= 1")
    diags = dict(DIAGNOSTIC_DEFAULTS)
    for key, val in cfg["diagnostics"].items():
        if key not in DIAGNOSTIC_DEFAULTS:
            raise ConfigError(f"config.diagnostics.{key}: unknown diagnostic")
        if not isinstance(val, bool):
            raise ConfigError(f"config.diagnostics.{key}: must be a boolean")
        diags[key] = val
    cfg["diagnostics"] = diags
    ref = cfg["reference"]
    for key in ref:
        if key not in REFERENCE_KEYS:
            raise ConfigError(f"config.reference.{key}: unknown key (known: {', '.join(REFERENCE_KEYS)})")
    mode = ref.get("mode", "burn_in")
    if mode not in ("burn_in", "ground_truth", "file"):
        raise ConfigError("config.reference.mode: must be burn_in, ground_truth or file")
    if mode == "file" and not isinstance(ref.get("path"), str):
        raise ConfigError("config.reference.path: required for mode 'file'")
    if mode != "file" and "path" in ref:
        raise ConfigError(f"config.reference.path: only read with mode 'file' (mode is '{mode}')")
    factor = ref.get("factor", 10)
    if isinstance(factor, bool) or not isinstance(factor, int) or factor < 1:
        raise ConfigError("config.reference.factor: must be an integer >= 1")
    cfg["reference"] = {"mode": mode, **ref, "factor": factor}
    return cfg


def load_config(path, overrides: Optional[dict] = None) -> dict:
    """Read and validate a config file; non-None ``overrides`` (command-line
    values) replace top-level keys before validation."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc
    if isinstance(raw, dict) and overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return validate_config(raw)


def validate_report(report: dict) -> None:
    if report.get("schema") != REPORT_SCHEMA_ID:
        raise ValueError(f"report schema must be {REPORT_SCHEMA_ID}")
    missing = REPORT_KEYS - set(report)
    if missing:
        raise ValueError(f"report missing keys: {sorted(missing)}")


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _float_repr(x: Optional[float]) -> str:
    return "" if x is None else repr(float(x))


def _default_sampler(scenario, reference: Ensemble, seed: int):
    """Pair-sampling region derived from the data: the reference ensemble's
    bounding box (or radius) inflated by half its width."""
    space = scenario.space
    pair_seed = derive_seed(seed, 0x5A)
    if isinstance(space, SpiderSpace):
        rmax = float(reference.points[:, 1].max(initial=0.0))
        return SpiderPairSampler(space, max_radius=1.5 * max(rmax, 1.0), seed=pair_seed)
    pts = reference.points
    coords = np.concatenate([pts.real.ravel(), pts.imag.ravel()]) if space.complex_coords else pts.ravel()
    lo, hi = float(coords.min()), float(coords.max())
    pad = 0.5 * max(hi - lo, 1.0)
    return BoxPairSampler(space, low=lo - pad, high=hi + pad, seed=pair_seed)


def _regularity_block(scenario, sampler, n_pairs: int) -> dict:
    alpha = scenario.ground_truth.alpha if scenario.ground_truth.alpha is not None else 0.5
    per_op = [
        estimate_violation(op, alpha, sampler, n_pairs).to_dict() for op in scenario.family.operators
    ]
    in_exp = estimate_violation_in_expectation(scenario.family, alpha, sampler, n_pairs).to_dict()
    return {"alpha": alpha, "per_operator": per_op, "in_expectation": in_exp}


def _write_report(out_dir: Path, report: dict) -> None:
    validate_report(report)
    with (out_dir / "report.json").open("w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _empty_report(scenario=None) -> dict:
    """Every report key, None unless the scenario fills it in."""
    report = {**dict.fromkeys(REPORT_KEYS), "schema": REPORT_SCHEMA_ID}
    if scenario is not None:
        truth = scenario.ground_truth
        report.update(scenario=scenario.name, alpha=truth.alpha, bound=truth.violation_bound)
    return report


def _scenario_spec(cfg: dict) -> tuple:
    """``(name, params)``: what a job needs to rebuild the scenario, whose
    closures cannot be pickled."""
    return cfg["scenario"]["name"], cfg["scenario"].get("params", {})


def _read_reference(path: str, n: int) -> Ensemble:
    try:
        ens = Ensemble.from_csv(path)
    except OSError as exc:
        raise ConfigError(f"config.reference.path: cannot read {path} ({exc})") from exc
    if len(ens) != n:
        raise ConfigError(
            f"config.reference.path: reference has {len(ens)} particles but "
            f"ensemble_size is {n} (equal sizes required)"
        )
    return ens


def _reference_ensemble(scenario, cfg: dict, pool: "_Pool"):
    """Job making the reference of the W2-to-invariant series, with its
    provenance.  A burn-in runs on the pool; a file or a ground-truth sample
    is made here and now, so a config error stops the run before any job."""
    ref_cfg = cfg["reference"]
    n = cfg["ensemble_size"]
    if ref_cfg["mode"] == "file":
        return pool.here(_read_reference, ref_cfg["path"], n), {"mode": "file", "path": ref_cfg["path"]}
    if ref_cfg["mode"] == "ground_truth":
        sampler = scenario.ground_truth.invariant_sampler
        if sampler is None:
            raise ConfigError(
                f"config.reference.mode: scenario '{scenario.name}' has no ground-truth invariant sampler"
            )
        ref_seed = derive_seed(cfg["seed"], 0x6D)
        return pool.here(sampler, n, ref_seed), {"mode": "ground_truth", "seed": ref_seed}
    steps = ref_cfg["factor"] * max(cfg["iterations"], 1)
    ref_seed = derive_seed(cfg["seed"], 0x6E)
    job, = pool.submit((_burn_in, _scenario_spec(cfg), n, steps, ref_seed))
    return job, {"mode": "burn_in", "steps": steps, "seed": ref_seed}


# ---------------------------------------------------------------------------
# jobs, and the pool that runs them
# ---------------------------------------------------------------------------

LAYERS = ("reference", "chain", "w2_psi", "floor", "regularity", "io")

# what the jobs of one lane keep: the scenario, the shared reference and
# floor burn-ins waiting for their draw
_LANE: dict = {}


def _lane_scenario(spec: tuple):
    if _LANE.get("spec") != spec:
        _LANE.update(spec=spec, scenario=build_scenario(*spec))
    return _LANE["scenario"]


def _burn_in(spec: tuple, n: int, steps: int, seed: int) -> Ensemble:
    return long_run_reference(_lane_scenario(spec), n, steps, seed)


def _share_reference(spec: tuple, reference: Ensemble) -> None:
    _lane_scenario(spec)
    _LANE["reference"] = reference


def _series_point(ens: Ensemble, want_w2: bool, want_psi: bool) -> tuple:
    """(W2, Psi) of one recorded ensemble against the shared reference;
    Psi reuses the W2 coupling: one optimal assignment per step."""
    reference = _LANE["reference"]
    w2 = psi = coupling = None
    if want_w2:
        w2, coupling = wasserstein(ens, reference, p=2.0)
    if want_psi:
        psi = markov_transport_discrepancy(_LANE["scenario"].family, ens, [reference], couplings=[coupling])
    return w2, psi


def _floor_burn_in(spec: tuple, n: int, steps: int, seed: int) -> None:
    """One burn-in of the floor, kept on this lane for the draw that follows."""
    _LANE.setdefault("floor", {})[seed] = _burn_in(spec, n, steps, seed)


def _floor_draw(seed_a: int, seed_b: int) -> float:
    """W2 between the two floor burn-ins made on this lane before it."""
    floor = _LANE["floor"]
    return wasserstein(floor.pop(seed_a), floor.pop(seed_b), p=2.0)[0]


def _job(fn, args) -> tuple:
    """Run one job in this process: its value, seconds and exact-OT solves."""
    before = dict(transport.SOLVES)
    start = time.perf_counter()
    value = fn(*args)
    seconds = time.perf_counter() - start
    return value, seconds, {path: transport.SOLVES[path] - count for path, count in before.items()}


def _done(fn, *args) -> Future:
    future = Future()
    future.set_result(fn(*args))
    return future


class _InProcess:
    """The one lane of a pool of size 1: this process, which runs each job
    when it is submitted."""

    submit = staticmethod(_done)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        _LANE.clear()


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _peak_rss_mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


class _Pool:
    """Runs jobs on ``size`` lanes and tallies where the time went.

    Job i goes to lane i % size in submission order, so which process runs
    a job never depends on timing.  A lane is one forked process, a
    single-worker ProcessPoolExecutor: one executor shared by all lanes
    would hand each job to whichever worker is idle first.  Fork, stated
    explicitly, lets a lane start without importing numpy and scipy again.
    Each lane answers a first empty job before the next lane is forked, so
    no fork happens while an earlier lane's helper threads are mid-call.
    At size 1 the lane is this process and no child starts.
    """

    def __init__(self, size: int):
        self.size = size
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.solves = dict.fromkeys(transport.SOLVES, 0)
        self._submitted = 0
        self._lanes = [_InProcess()] if size == 1 else []
        fork = multiprocessing.get_context("fork")
        while len(self._lanes) < size:
            self._lanes.append(ProcessPoolExecutor(1, mp_context=fork))
            self._lanes[-1].submit(int).result()

    def submit(self, *calls) -> list:
        """Queue ``calls``, each a tuple ``(fn, *args)``, in order on the
        next lane in turn; one future per call."""
        lane = self._lanes[self._submitted % self.size]
        self._submitted += 1
        return [lane.submit(_job, fn, args) for fn, *args in calls]

    def share(self, fn, *args) -> list:
        """Run ``fn(*args)`` once on every lane, before the jobs submitted
        later; one future per lane."""
        return [lane.submit(_job, fn, args) for lane in self._lanes]

    @staticmethod
    def here(fn, *args) -> Future:
        """Run ``fn(*args)`` now, in this process, as a job of no lane."""
        return _done(_job, fn, args)

    def take(self, layer: str, job: Future):
        """The value of ``job``; its seconds and solves count to ``layer``."""
        value, seconds, solves = job.result()
        self.seconds[layer] += seconds
        for path, count in solves.items():
            self.solves[path] += count
        return value

    @contextmanager
    def timed(self, layer: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[layer] += time.perf_counter() - start

    def timings(self) -> dict:
        """The manifest's ``timings``: seconds per layer (job seconds summed
        over lanes), exact-OT solves, lanes, and peak RSS of this process and
        of its largest reaped child (read after the pool has shut down)."""
        return {
            "seconds": dict(self.seconds),
            "assignment_solves": self.solves["assignment"],
            "sorted_solves": self.solves["sorted"],
            "workers_used": self.size,
            "peak_rss_mib": {
                "main": _peak_rss_mib(resource.RUSAGE_SELF),
                "children": _peak_rss_mib(resource.RUSAGE_CHILDREN),
            },
        }

    def __enter__(self) -> "_Pool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for lane in self._lanes:
            lane.shutdown(wait=True, cancel_futures=exc_type is not None)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(config_path, out_dir, workers: Optional[int] = None, seed: Optional[int] = None,
            record_every: Optional[int] = None) -> int:
    started = time.perf_counter()
    cfg = load_config(config_path, {"workers": workers, "seed": seed, "record_every": record_every})
    out = Path(out_dir or cfg.get("output_dir") or "results")
    out.mkdir(parents=True, exist_ok=True)

    spec = _scenario_spec(cfg)
    scenario = build_scenario(*spec)
    n = cfg["ensemble_size"]
    chain = ChainConfig(
        family=scenario.family,
        initial=scenario.initial(n, derive_seed(cfg["seed"], 0x11)),
        iterations=cfg["iterations"],
        seed=cfg["seed"],
        record_every=cfg["record_every"],
        common_noise=cfg["common_noise"],
    )
    diags = cfg["diagnostics"]
    series = diags["wasserstein"] or diags["psi"]
    floor = diags["rates"] and diags["wasserstein"]
    floor_pairs = floor_pair_seeds(cfg["seed"]) if floor else []
    # one pool submission each: the reference burn-in, a floor pair (two
    # burn-ins and their W2, on one lane) and a recorded step's W2 + Psi
    submissions = (cfg["reference"]["mode"] == "burn_in") + len(floor_pairs) + series * len(chain.recorded_steps())
    with _Pool(max(1, min(cfg["workers"], usable_cpus(), submissions))) as pool:
        reference_job, ref_provenance = _reference_ensemble(scenario, cfg, pool)
        floor_steps = ref_provenance.get("steps", 10 * max(cfg["iterations"], 1))
        # a floor pair stays on one lane, so no burn-in travels for its W2
        floor_jobs = [
            pool.submit((_floor_burn_in, spec, n, floor_steps, a), (_floor_burn_in, spec, n, floor_steps, b),
                        (_floor_draw, a, b))
            for a, b in floor_pairs
        ]

        # regularity first: its temporary arrays are freed before the chain's ensembles exist
        reference = pool.take("reference", reference_job)
        report = _empty_report(scenario)
        if diags["regularity"]:
            with pool.timed("regularity"):
                sampler = _default_sampler(scenario, reference, cfg["seed"])
                report["regularity"] = _regularity_block(scenario, sampler, cfg["regularity_pairs"])
        with pool.timed("chain"):
            trajectory = run_ensemble(chain)
        if series:
            shares = pool.share(_share_reference, spec, reference)
            series_jobs = [pool.submit((_series_point, ens, diags["wasserstein"], diags["psi"]))[0]
                           for ens in trajectory.ensembles]
        ens_dir = out / "ensembles"
        ens_dir.mkdir(exist_ok=True)
        with pool.timed("io"):
            for step, ens in zip(trajectory.steps, trajectory.ensembles):
                ens.to_csv(ens_dir / f"step_{step:06d}.csv")
            reference.to_csv(out / "reference.csv")
        values = [(None, None)] * len(trajectory.steps)
        if series:
            for job in shares:  # read, so that a failed share raises here
                pool.take("w2_psi", job)
            values = [pool.take("w2_psi", job) for job in series_jobs]
        with pool.timed("io"):
            with (out / "series.csv").open("w", newline="", encoding="utf-8") as fh:
                fh.write("k,W2_to_reference,psi_hat\n")
                for step, (w2, psi) in zip(trajectory.steps, values):
                    fh.write(f"{step},{_float_repr(w2)},{_float_repr(psi)}\n")
        if floor:
            draws = [[pool.take("floor", job) for job in jobs][-1] for jobs in floor_jobs]
            report["floor"] = float(np.median(draws))

    if floor:
        w2_series = [w2 for w2, _ in values]
        rate_report = build_rate_report(trajectory.steps, w2_series, floor=report["floor"])
        report["rates"] = rate_report.to_dict()
        if diags["psi"]:
            psi = np.asarray([p for _, p in values], dtype=float)
            dist = np.asarray(w2_series, dtype=float)
            usable = psi > 0
            if np.any(usable):
                report["subregularity"] = estimate_subregularity(psi[usable], dist[usable]).to_dict()
        report["predicted_rate"] = _predicted_rate(report)
    with pool.timed("io"):
        _write_report(out, report)

    manifest = {
        "config": cfg,
        "config_path": str(config_path),
        "scenario_params": {k: _jsonable(v) for k, v in scenario.params.items()},
        "reference": ref_provenance,
        "recorded_steps": trajectory.steps,
        "versions": {"rfilab": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "seed": cfg["seed"],
        "wall_time_s": time.perf_counter() - started,
        "timings": pool.timings(),
        "notes": scenario.notes,
    }
    with (out / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _predicted_rate(report: dict) -> Optional[float]:
    """Predicted linear rate from (alpha, violation, subregularity constant)."""
    alpha = report.get("alpha")
    sub = report.get("subregularity")
    reg = report.get("regularity")
    eps = 0.0
    if reg is not None:
        eps = float(reg["in_expectation"]["epsilon_hat"])
    elif report.get("bound") is not None:
        eps = float(report["bound"])
    if alpha is None or sub is None:
        return None
    try:
        return rate_bound_from_theorem(float(alpha), eps, float(sub["r_hat"]))
    except ValueError:
        return None


def cmd_regularity(config_path, out_dir, seed: Optional[int] = None) -> int:
    cfg = load_config(config_path, {"seed": seed})
    out = Path(out_dir or cfg.get("output_dir") or "results")
    out.mkdir(parents=True, exist_ok=True)
    scenario = build_scenario(*_scenario_spec(cfg))
    with _Pool(1) as pool:
        reference = pool.take("reference", _reference_ensemble(scenario, cfg, pool)[0])
    sampler = _default_sampler(scenario, reference, cfg["seed"])
    report = _empty_report(scenario)
    report["regularity"] = _regularity_block(scenario, sampler, cfg["regularity_pairs"])
    _write_report(out, report)
    print(
        f"scenario={scenario.name} alpha={report['regularity']['alpha']} "
        f"epsilon_hat={report['regularity']['in_expectation']['epsilon_hat']:.6g} "
        f"bound={report['bound']}"
    )
    return EXIT_OK


def cmd_rate(results_dir) -> int:
    out = Path(results_dir)
    series_path = out / "series.csv"
    if not series_path.exists():
        raise ConfigError(f"{series_path}: missing series (run `rfilab run` first)")
    steps = []
    w2 = []
    psi = []
    with series_path.open("r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != ["k", "W2_to_reference", "psi_hat"]:
            raise ConfigError(f"{series_path}: unexpected header {header}")
        for line in fh:
            k, w, p = line.rstrip("\n").split(",")
            steps.append(int(k))
            w2.append(float(w) if w else np.nan)
            psi.append(float(p) if p else np.nan)
    if all(np.isnan(w2)):
        raise ConfigError(f"{series_path}: no Wasserstein series recorded (enable diagnostics.wasserstein)")

    report_path = out / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8")) if report_path.exists() else _empty_report()
    rate_report = build_rate_report(steps, w2, floor=report.get("floor"))
    report["rates"] = rate_report.to_dict()
    psi_arr = np.asarray(psi)
    w2_arr = np.asarray(w2)
    usable = np.isfinite(psi_arr) & (psi_arr > 0) & np.isfinite(w2_arr)
    if np.any(usable):
        report["subregularity"] = estimate_subregularity(psi_arr[usable], w2_arr[usable]).to_dict()
    report["predicted_rate"] = _predicted_rate(report)
    _write_report(out, report)

    with (out / "rates_series.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write("k,W2_to_pi,psi_hat,ratio\n")
        prev = None
        for k, w, p in zip(steps, w2, psi):
            ratio = None
            if prev is not None and np.isfinite(prev) and prev > 0 and np.isfinite(w):
                ratio = w / prev
            fh.write(
                f"{k},{_float_repr(None if np.isnan(w) else w)},"
                f"{_float_repr(None if np.isnan(p) else p)},{_float_repr(ratio)}\n"
            )
            prev = w

    if rate_report.converged_within_floor:
        print("series converged within the Monte-Carlo floor; no rate fitted")
    elif rate_report.q_fit is not None:
        line = (
            f"q_rate={rate_report.q_fit.rate:.6g} (geo {rate_report.q_fit.geometric_mean:.6g}) "
            f"r_rate={rate_report.r_fit.rate:.6g} beta={rate_report.r_fit.beta:.6g}"
        )
        if report["predicted_rate"] is not None:
            line += f" predicted_c={report['predicted_rate']:.6g}"
        print(line)
    else:
        print("series too short or degenerate; no rate fitted")
    return EXIT_OK


def cmd_wasserstein(path_a, path_b, p: float) -> int:
    a = Ensemble.from_csv(path_a)
    b = Ensemble.from_csv(path_b)
    value, _ = wasserstein(a, b, p=p)
    print(repr(value))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfilab",
        description="Simulate random function iterations and measure their "
        "convergence to invariant measures in the Wasserstein-2 metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a configured scenario")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes (>= 1), capped at usable CPUs; changes no output byte")
    run.add_argument("--record-every", type=int, default=None)

    reg = sub.add_parser("regularity", help="estimate violation constants")
    reg.add_argument("--config", required=True)
    reg.add_argument("--out", default=None)
    reg.add_argument("--seed", type=int, default=None)

    rate = sub.add_parser("rate", help="fit rates on an existing results directory")
    rate.add_argument("results_dir")

    wass = sub.add_parser("wasserstein", help="W_p between two ensemble CSV files")
    wass.add_argument("ensemble_a")
    wass.add_argument("ensemble_b")
    wass.add_argument("--p", type=float, default=2.0)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out, workers=args.workers, seed=args.seed,
                           record_every=args.record_every)
        if args.command == "regularity":
            return cmd_regularity(args.config, args.out, seed=args.seed)
        if args.command == "rate":
            return cmd_rate(args.results_dir)
        if args.command == "wasserstein":
            return cmd_wasserstein(args.ensemble_a, args.ensemble_b, args.p)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure: report and signal exit 1
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
