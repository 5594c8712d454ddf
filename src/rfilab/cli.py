"""Batch experiment runner.

Subcommands:

* ``run``          -- simulate a configured scenario, write series + ensembles
* ``regularity``   -- estimate violation constants for a configured scenario
* ``rate``         -- fit rates / subregularity on an existing results directory
* ``wasserstein``  -- standalone W_p between two ensemble CSV files

Configs are JSON documents validated against :data:`CONFIG_SCHEMA` (which
states each integer key's lower bound) before any computation; the scenario
parameters' keys and values are checked once, by ``build_scenario``, and a
parameter it rejects is a config error too.  ``run`` and ``rate`` fit rates
with one function, ``_fit_rates``.  All CSV outputs are byte-deterministic
for a fixed config, and reruns reproduce files exactly.  ``run`` splits its
independent work into jobs (the burn-in reference; one per floor pair,
which draws two ensembles from the scenario's invariant sampler, or burns
in two where it has none, and takes their W2; one that estimates the
regularity block, submitted once the reference is taken, so that it
overlaps the chain; one that writes the reference; and one per recorded
step, which writes that step's ensemble file and then computes its W2 +
Psi) and runs them on a pool of ``workers`` forked processes, capped at the
usable CPUs, each with one BLAS thread.  Each job is pickled in the thread
that submits it, as a check, so a job that cannot be sent fails the run at
once.  This process runs the chain and writes the series, report and
manifest.  The worker count changes no output byte: every job is a pure
function of its arguments.  scipy's assignment solver is loaded only by a
command that solves an assignment, as the compiled ``_lsap`` extension
(the public import is the fallback), so no command imports scipy.optimize.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import multiprocessing
import os
import pickle
import resource
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__, transport
from .analysis import build_rate_report, estimate_subregularity, rate_bound_from_theorem
from .geometry import SpiderSpace
# estimate_violation is not called here, but perfbench/spans.py wraps cli.estimate_violation
from .regularity import (  # noqa: F401
    BoxPairSampler,
    SpiderPairSampler,
    estimate_violation,
    estimate_violation_in_expectation,
)
from .rfi import ChainConfig, derive_seed, run_ensemble
# monte_carlo_floor is not called here, but perfbench/spans.py wraps cli.monte_carlo_floor
from .scenarios import (  # noqa: F401
    SCENARIO_BUILDERS,
    ParamError,
    build_scenario,
    floor_draw,
    floor_pair_seeds,
    floor_source,
    long_run_reference,
    monte_carlo_floor,
)
from .transport import Ensemble, markov_transport_discrepancy, wasserstein

__all__ = ["main", "CONFIG_SCHEMA", "validate_config", "validate_report", "cmd_run", "cmd_regularity", "cmd_rate"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

REFERENCE_DEFAULTS = {"mode": "burn_in", "factor": 10}

# Published config schema: key -> (type, required, default, constraint note);
# an integer key's note opens with its lower bound, ">= n", which is checked.
CONFIG_SCHEMA = {
    "scenario": (dict, True, None, "object with 'name' (str) and optional 'params' (object)"),
    "ensemble_size": (int, True, None, ">= 1"),
    "iterations": (int, True, None, ">= 0"),
    "seed": (int, True, None, ">= 0"),
    "record_every": (int, False, 1, ">= 1"),
    "workers": (int, False, 1, ">= 1; worker processes, capped at usable CPUs; changes no output byte"),
    "common_noise": (bool, False, False, "all particles share one index draw"),
    "diagnostics": (dict, False, {}, "booleans: wasserstein, psi, regularity, rates"),
    "reference": (dict, False, REFERENCE_DEFAULTS, "mode: burn_in | ground_truth | file; factor; path"),
    "regularity_pairs": (int, False, 2000, ">= 1; pair count for violation estimates"),
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
        if typ is int and val < (low := int(note.split(";")[0].removeprefix(">= "))):
            raise ConfigError(f"config.{key}: must be >= {low}")
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
    if not isinstance(scenario.get("params", {}), dict):
        raise ConfigError("config.scenario.params: must be an object")
    diags = dict(DIAGNOSTIC_DEFAULTS)
    for key, val in cfg["diagnostics"].items():
        if key not in DIAGNOSTIC_DEFAULTS:
            raise ConfigError(f"config.diagnostics.{key}: unknown diagnostic")
        if not isinstance(val, bool):
            raise ConfigError(f"config.diagnostics.{key}: must be a boolean")
        diags[key] = val
    if diags["rates"] and not diags["wasserstein"]:
        raise ConfigError("config.diagnostics.rates: needs diagnostics.wasserstein (rates are fitted to the W2 series)")
    cfg["diagnostics"] = diags
    for key in cfg["reference"]:
        if key not in REFERENCE_KEYS:
            raise ConfigError(f"config.reference.{key}: unknown key (known: {', '.join(REFERENCE_KEYS)})")
    ref = cfg["reference"] = {**REFERENCE_DEFAULTS, **cfg["reference"]}
    mode = ref["mode"]
    if mode not in ("burn_in", "ground_truth", "file"):
        raise ConfigError("config.reference.mode: must be burn_in, ground_truth or file")
    if mode == "file" and not isinstance(ref.get("path"), str):
        raise ConfigError("config.reference.path: required for mode 'file'")
    if mode != "file" and "path" in ref:
        raise ConfigError(f"config.reference.path: only read with mode 'file' (mode is '{mode}')")
    factor = ref["factor"]
    if isinstance(factor, bool) or not isinstance(factor, int) or factor < 1:
        raise ConfigError("config.reference.factor: must be an integer >= 1")
    return cfg


def load_config(path, overrides: Optional[dict] = None) -> dict:
    """Read and validate a config file; non-None ``overrides`` (command-line
    values) replace top-level keys before validation."""
    raw = _read_json(Path(path), "config")
    if isinstance(raw, dict) and overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return validate_config(raw)


def _read_json(path: Path, what: str):
    """The JSON document at ``path``; one that cannot be read or parsed is a
    ConfigError naming the path, and the line and column of a parse error."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read {what} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc


def validate_report(report: dict) -> None:
    if not isinstance(report, dict) or report.get("schema") != REPORT_SCHEMA_ID:
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


def _regularity_block(spec: tuple, reference: Ensemble, seed: int, n_pairs: int) -> dict:
    """The report's ``regularity`` block: the violation estimates of each
    operator and of the family, at the scenario's alpha (0.5 when it states
    none), from one draw of ``n_pairs`` pairs in the region
    :func:`_default_sampler` derives from the reference."""
    scenario = build_scenario(*spec)
    alpha = scenario.ground_truth.alpha if scenario.ground_truth.alpha is not None else 0.5
    sampler = _default_sampler(scenario, reference, seed)
    return asdict(estimate_violation_in_expectation(scenario.family, alpha, sampler, n_pairs))


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


def _configured_scenario(spec: tuple):
    """``build_scenario(*spec)``; parameters it rejects are a ConfigError,
    naming the key when the rejection is a ParamError."""
    try:
        return build_scenario(*spec)
    except ParamError as exc:
        key, message = exc.args
        raise ConfigError(f"config.scenario.params.{key}: {message}") from exc
    except ValueError as exc:
        raise ConfigError(f"config.scenario.params: {exc}") from exc


def _read_ensemble(path, key: str, space=None) -> Ensemble:
    """``Ensemble.from_csv(path, space)``; a file that cannot be read, or
    that holds no ensemble of ``space``, is a ConfigError naming ``key`` and
    the path."""
    try:
        return Ensemble.from_csv(path, space)
    except (OSError, ValueError, csv.Error) as exc:
        raise ConfigError(f"{key}: cannot read {path} ({exc})") from exc


def _read_reference(path: str, n: int, space) -> Ensemble:
    ens = _read_ensemble(path, "config.reference.path", space)
    if len(ens) != n:
        raise ConfigError(
            f"config.reference.path: reference has {len(ens)} particles but "
            f"ensemble_size is {n} (equal sizes required)"
        )
    return ens


def _burn_in_steps(cfg: dict) -> int:
    """Steps of every burn-in: the reference's in mode burn_in, and in any
    mode the floor's, where the scenario has no invariant sampler."""
    return cfg["reference"]["factor"] * max(cfg["iterations"], 1)


def _reference_ensemble(scenario, cfg: dict, pool: "_Pool"):
    """Job making the reference of the W2-to-invariant series, with its
    provenance.  A burn-in runs on the pool; a file or a ground-truth sample
    is made here and now, so a config error stops the run before any job."""
    ref_cfg = cfg["reference"]
    n = cfg["ensemble_size"]
    if ref_cfg["mode"] == "file":
        reference = pool.here(("reference", _read_reference, ref_cfg["path"], n, scenario.space))
        return reference, {"mode": "file", "path": ref_cfg["path"]}
    if ref_cfg["mode"] == "ground_truth":
        sampler = scenario.ground_truth.invariant_sampler
        if sampler is None:
            raise ConfigError(
                f"config.reference.mode: scenario '{scenario.name}' has no ground-truth invariant sampler"
            )
        ref_seed = derive_seed(cfg["seed"], 0x6D)
        return pool.here(("reference", sampler, n, ref_seed)), {"mode": "ground_truth", "seed": ref_seed}
    steps = _burn_in_steps(cfg)
    ref_seed = derive_seed(cfg["seed"], 0x6E)
    job = pool.submit(("reference", _burn_in, _scenario_spec(cfg), n, steps, ref_seed))
    return job, {"mode": "burn_in", "steps": steps, "seed": ref_seed}


# ---------------------------------------------------------------------------
# jobs, and the pool that runs them
# ---------------------------------------------------------------------------

LAYERS = ("reference", "chain", "w2_psi", "floor", "regularity", "io")


def _one_blas_thread() -> None:
    """Pool initializer: the OpenBLAS that numpy bundles runs one thread in
    this worker, so that the workers do not oversubscribe the CPUs.  Without
    that library or its symbol the worker goes on as it is."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def _burn_in(spec: tuple, n: int, steps: int, seed: int) -> Ensemble:
    return long_run_reference(build_scenario(*spec), n, steps, seed)


def _series_point(spec: tuple, ens: Ensemble, reference: Ensemble, want_w2: bool, want_psi: bool) -> tuple:
    """(W2, Psi) of one recorded ensemble against the reference; Psi reuses
    the W2 coupling: one optimal assignment per step."""
    w2 = psi = coupling = None
    if want_w2:
        w2, coupling = wasserstein(ens, reference, p=2.0)
    if want_psi:
        psi = markov_transport_discrepancy(build_scenario(*spec).family, ens, reference, coupling)
    return w2, psi


def _floor_pair(spec: tuple, n: int, steps: int, seed_a: int, seed_b: int) -> float:
    return floor_draw(build_scenario(*spec), n, steps, seed_a, seed_b)


def _write_ensemble(ens: Ensemble, path: Path) -> None:
    """A step job's first stage, and the reference write's one stage; a job
    names module-level functions, which pickle by name, and this one finds
    ``to_csv`` in the worker."""
    ens.to_csv(path)


def _job(*stages) -> tuple:
    """Run one job in this process: each stage ``(layer, fn, *args)`` in
    turn.  Returns the last stage's value, the seconds of each layer and the
    exact-OT solves."""
    before = dict(transport.SOLVES)
    seconds = {}
    value = None
    for layer, fn, *args in stages:
        start = time.perf_counter()
        value = fn(*args)
        seconds[layer] = seconds.get(layer, 0.0) + time.perf_counter() - start
    return value, seconds, {path: transport.SOLVES[path] - count for path, count in before.items()}


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _peak_rss_mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


class _Pool:
    """Runs jobs on ``size`` processes and tallies where the time went.

    Every job takes all its inputs as arguments and keeps no state in the
    process that runs it, so which process that is changes no output byte.
    A job is a sequence of stages ``(layer, fn, *args)``, each timed to its
    layer.  Above size 1 the processes belong to one ProcessPoolExecutor.
    Fork, stated explicitly, lets them start without importing numpy again
    (or loading scipy's compiled ``_lsap`` solver again, if this process
    has loaded it), and a fork executor starts all of them at the first
    submission, before its own helper threads exist (cpython#90622).  Each
    job is pickled in the thread that submits it, as a check, so a job that
    cannot be pickled raises there; when the executor's feeder thread is the
    first to fail on a job, the shutdown can wait for ever.  At size 1 the
    jobs run in this process and no child starts.
    """

    def __init__(self, size: int):
        self.size = size
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.solves = dict.fromkeys(transport.SOLVES, 0)
        fork = multiprocessing.get_context("fork")
        self._executor = (None if size == 1
                          else ProcessPoolExecutor(size, mp_context=fork, initializer=_one_blas_thread))

    def submit(self, *stages) -> Future:
        """Queue the job made of ``stages``.  The pickling check keeps no
        bytes: arrays go out of band, so it copies no ensemble, and the
        executor gets the stages themselves (bytes handed to it would stay
        in this process until the job ends)."""
        if self._executor is None:
            return self.here(*stages)
        pickle.dumps(stages, protocol=5, buffer_callback=[].append)
        return self._executor.submit(_job, *stages)

    @staticmethod
    def here(*stages) -> Future:
        """Run the job made of ``stages`` now, in this process."""
        future = Future()
        future.set_result(_job(*stages))
        return future

    def take(self, job: Future):
        """The value of ``job``; its seconds and solves count to the tally."""
        value, seconds, solves = job.result()
        for layer, spent in seconds.items():
            self.seconds[layer] += spent
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
        over processes), exact-OT solves, pool size, and peak RSS of this
        process and of its largest child (read after the pool has shut down)."""
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
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=exc_type is not None)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(config_path, out_dir, workers: Optional[int] = None, seed: Optional[int] = None,
            record_every: Optional[int] = None) -> int:
    started = time.perf_counter()
    cfg = load_config(config_path, {"workers": workers, "seed": seed, "record_every": record_every})
    out = Path(out_dir or cfg.get("output_dir") or "results")

    spec = _scenario_spec(cfg)
    scenario = _configured_scenario(spec)
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
    floor_pairs = floor_pair_seeds(cfg["seed"]) if diags["rates"] else []
    if series and not transport.sorted_path(scenario.space):
        transport.assignment_solver()  # once here, before the pool forks, not in every worker
    # one job each: the reference burn-in, a floor pair (two sampler draws
    # or burn-ins, and their W2), the regularity block, the reference write
    # and a recorded step (its file, then its W2 + Psi)
    submissions = ((cfg["reference"]["mode"] == "burn_in") + len(floor_pairs) + diags["regularity"] + 1
                   + len(chain.recorded_steps()))
    with _Pool(max(1, min(cfg["workers"], usable_cpus(), submissions))) as pool:
        reference_job, ref_provenance = _reference_ensemble(scenario, cfg, pool)
        out.mkdir(parents=True, exist_ok=True)  # only now: a bad scenario or reference leaves none behind
        floor_jobs = [pool.submit(("floor", _floor_pair, spec, n, _burn_in_steps(cfg), a, b)) for a, b in floor_pairs]

        reference = pool.take(reference_job)
        if diags["regularity"]:
            regularity_job = pool.submit(
                ("regularity", _regularity_block, spec, reference, cfg["seed"], cfg["regularity_pairs"]))
        with pool.timed("chain"):
            trajectory = run_ensemble(chain)
        ens_dir = out / "ensembles"
        ens_dir.mkdir(exist_ok=True)
        step_jobs = []
        for step, ens in zip(trajectory.steps, trajectory.ensembles):
            stages = [("io", _write_ensemble, ens, ens_dir / f"step_{step:06d}.csv")]
            if series:
                stages.append(("w2_psi", _series_point, spec, ens, reference, diags["wasserstein"], diags["psi"]))
            step_jobs.append(pool.submit(*stages))
        reference_write = pool.submit(("io", _write_ensemble, reference, out / "reference.csv"))
        values = [pool.take(job) for job in step_jobs]
        pool.take(reference_write)
        report = _empty_report(scenario)
        if diags["regularity"]:
            report["regularity"] = pool.take(regularity_job)
        if not series:
            values = [(None, None)] * len(values)
        with pool.timed("io"):
            with (out / "series.csv").open("w", newline="", encoding="utf-8") as fh:
                fh.write("k,W2_to_reference,psi_hat\n")
                for step, (w2, psi) in zip(trajectory.steps, values):
                    fh.write(f"{step},{_float_repr(w2)},{_float_repr(psi)}\n")
        floor = None
        if diags["rates"]:
            draws = [pool.take(job) for job in floor_jobs]
            report["floor"] = float(np.median(draws))
            floor = {"source": floor_source(scenario), "pair_seeds": [list(pair) for pair in floor_pairs],
                     "draws": draws}
            if floor["source"] == "burn_in":
                floor["steps"] = _burn_in_steps(cfg)

    if diags["rates"]:
        _fit_rates(report, trajectory.steps, *zip(*values))
    with pool.timed("io"):
        _write_report(out, report)

    manifest = {
        "config": cfg,
        "config_path": str(config_path),
        "scenario_params": scenario.params,
        "reference": ref_provenance,
        "floor": floor,
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


def _fit_rates(report: dict, steps, w2, psi):
    """Fill in the report's rates, its subregularity fit over the steps with a
    finite W2 and a positive Psi, and its predicted rate; return the rates."""
    rate_report = build_rate_report(steps, w2, floor=report.get("floor"))
    report["rates"] = asdict(rate_report)
    psi = np.asarray(psi, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    usable = np.isfinite(psi) & (psi > 0) & np.isfinite(w2)
    if np.any(usable):
        report["subregularity"] = asdict(estimate_subregularity(psi[usable], w2[usable]))
    report["predicted_rate"] = _predicted_rate(report)
    return rate_report


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
    spec = _scenario_spec(cfg)
    scenario = _configured_scenario(spec)
    with _Pool(1) as pool:
        reference = pool.take(_reference_ensemble(scenario, cfg, pool)[0])
    out.mkdir(parents=True, exist_ok=True)
    report = _empty_report(scenario)
    report["regularity"] = _regularity_block(spec, reference, cfg["seed"], cfg["regularity_pairs"])
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
    with series_path.open("rb") as fh:
        header = fh.readline().decode("utf-8", errors="replace").strip().split(",")
        if header != ["k", "W2_to_reference", "psi_hat"]:
            raise ConfigError(f"{series_path}: unexpected header {header}")
        for lineno, line in enumerate(fh, start=2):
            try:
                k, w, p = line.decode("utf-8").rstrip("\r\n").split(",")
                steps.append(int(k))
                w2.append(float(w) if w else np.nan)
                psi.append(float(p) if p else np.nan)
            except ValueError as exc:
                raise ConfigError(f"{series_path}:{lineno}: expected an integer step and two numbers ({exc})") from exc
    if all(np.isnan(w2)):
        raise ConfigError(f"{series_path}: no Wasserstein series recorded (enable diagnostics.wasserstein)")

    report_path = out / "report.json"
    report = _read_json(report_path, "report") if report_path.exists() else _empty_report()
    try:
        validate_report(report)
    except ValueError as exc:
        raise ConfigError(f"{report_path}: {exc}") from exc
    rate_report = _fit_rates(report, steps, w2, psi)
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
    elif rate_report.q_linear is not None:
        line = (
            f"q_rate={rate_report.q_linear.rate:.6g} (geo {rate_report.q_linear.geometric_mean:.6g}) "
            f"r_rate={rate_report.r_linear.rate:.6g} beta={rate_report.r_linear.beta:.6g}"
        )
        if report["predicted_rate"] is not None:
            line += f" predicted_c={report['predicted_rate']:.6g}"
        print(line)
    else:
        print("series too short or degenerate; no rate fitted")
    return EXIT_OK


def cmd_wasserstein(path_a, path_b, p: float) -> int:
    if not (np.isfinite(p) and p >= 1.0):
        raise ConfigError(f"--p: must be a finite number >= 1, got {p}")
    a = _read_ensemble(path_a, "ensemble_a")
    b = _read_ensemble(path_b, "ensemble_b")
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
