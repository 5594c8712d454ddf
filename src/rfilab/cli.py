"""Batch experiment runner.

Subcommands:

* ``run``          -- simulate a configured scenario, write series + ensembles
* ``regularity``   -- estimate violation constants for a configured scenario
* ``rate``         -- fit rates / subregularity on an existing results directory
* ``wasserstein``  -- standalone W_p between two ensemble CSV files

Configs are JSON documents checked before any computation against
:data:`CONFIG_SCHEMA`, which states every key at every level once, with its
type, its default and, for an integer or a string, its lower bound; only
the rules that tie keys together are written out in ``validate_config``.
The scenario parameters' keys and values are checked once, by
``build_scenario``, against the signature of the scenario's builder, and a
parameter it rejects is a config error too.
``run`` and ``rate`` fit rates with one function, ``_fit_rates``.  All CSV
outputs are byte-deterministic for a fixed config, and reruns reproduce
files exactly.  ``run`` splits its independent work into jobs, each one
function timed to one layer, and runs them on a pool of ``workers`` forked
processes, capped at the usable CPUs, each with one BLAS thread.  Ensembles
pass between jobs only through a scratch directory that the run makes and
removes: the job that makes an ensemble saves it there as ``.npy`` and
returns its path, and each job that needs it loads it, so this process
holds none.  The jobs are submitted in a fixed order: the chain, which
saves every recorded step, the reference burn-in (a reference file is read
here, before any job) and one job per floor sample (a draw of the
scenario's invariant sampler or, where it has none, a burn-in); then, once
the chain is back, one job per recorded step that writes its ensemble file;
none of these uses the reference.  Then, once the reference is back, the
reference write, in seed order each floor draw (the W2 from the reference
to one sample, once that sample is back), the regularity block and, with a
series diagnostic on, one W2 + Psi job per recorded step.  The results are
taken in the same order, and then the series, report and manifest are
written.  Each job is pickled in the thread that submits it, as a check, so
a job that cannot be sent fails the run at once.  The worker count changes
no output byte: every job is a pure function of its arguments and of the
files they name.  No command imports the scipy package: its assignment
solver is loaded only by a command that solves an assignment, as the
compiled ``_lsap`` extension read from its file, and the manifest's scipy
version is read from scipy/version.py alike (each falls back to the public
import).  Only a run on more than one worker process loads the pool
machinery, multiprocessing and concurrent.futures.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import os
import pickle
import resource
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

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
from .rfi import ChainConfig, derive_seed, recorded_steps, run_ensemble
# monte_carlo_floor is not called here, but perfbench/spans.py wraps cli.monte_carlo_floor
from .scenarios import (  # noqa: F401
    SCENARIO_BUILDERS,
    ParamError,
    build_scenario,
    floor_sample,
    floor_seeds,
    floor_source,
    long_run_reference,
    monte_carlo_floor,
)
from .transport import Ensemble, markov_transport_discrepancy, wasserstein

if TYPE_CHECKING:  # imported by a pool that starts processes, and only there
    from concurrent.futures import Future

__all__ = ["main", "CONFIG_SCHEMA", "validate_config", "validate_report", "cmd_run", "cmd_regularity", "cmd_rate"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

REQUIRED, ABSENT = object(), object()


class Key(NamedTuple):
    """A config key: its JSON type (a block's: the schema of its keys), its
    default (REQUIRED, or ABSENT: left out unless given), the least value of
    an integer or length of a string, and what it means."""

    type: object
    default: object = REQUIRED
    low: Optional[int] = None
    note: str = ""


# Published config schema: every key at every level
CONFIG_SCHEMA = {
    "scenario": Key({"name": Key(str, note="a scenario name"), "params": Key(dict, ABSENT)},
                    note="object with 'name' (str) and optional 'params' (object)"),
    "ensemble_size": Key(int, low=1, note="particles per ensemble"),
    "iterations": Key(int, low=0, note="steps of the chain"),
    "seed": Key(int, low=0, note="the seed every random stream derives from"),
    "record_every": Key(int, 1, 1, "steps between recorded ensembles"),
    "workers": Key(int, 1, 1, "worker processes, capped at usable CPUs; changes no output byte"),
    "diagnostics": Key({"wasserstein": Key(bool, True), "psi": Key(bool, True),
                        "regularity": Key(bool, False), "rates": Key(bool, False)}, {}),
    "reference": Key({"mode": Key(str, "burn_in"), "factor": Key(int, 10, 1, "burn-in steps per iteration"),
                      "path": Key(str, ABSENT)}, {}),
    "regularity_pairs": Key(int, 2000, 1, "pairs drawn for the violation estimates"),
}

REPORT_SCHEMA_ID = "rfilab.report.v1"
REPORT_KEYS = {"schema", "scenario", "alpha", "regularity", "bound", "rates", "subregularity", "predicted_rate", "floor"}


class ConfigError(ValueError):
    """Invalid configuration; reported with the offending key path."""


def _checked(raw, schema: dict, path: str) -> dict:
    """The block ``raw`` at key path ``path`` checked against ``schema``, with
    the defaults of the keys it leaves out; a key that is given is checked,
    a default is not."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object, got {type(raw).__name__}")
    for key in raw:
        if key not in schema:
            raise ConfigError(f"{path}.{key}: unknown key (known: {', '.join(schema)})")
    cfg = {}
    for key, (typ, default, low, note) in schema.items():
        where, val = f"{path}.{key}", raw.get(key, default)
        if val is REQUIRED:
            raise ConfigError(f"{where}: missing required key ({note})")
        if val is ABSENT:
            continue
        if isinstance(typ, dict):
            val = _checked(val, typ, where)
        elif key in raw and type(val) is not typ:
            raise ConfigError(f"{where}: expected {typ.__name__}, got {type(val).__name__}")
        elif key in raw and low is not None and (len(val) if typ is str else val) < low:
            raise ConfigError(f"{where}: must be >= {low} ({note}), got {val!r}")
        cfg[key] = val
    return cfg


def validate_config(raw: dict) -> dict:
    """Normalize & validate a config mapping against :data:`CONFIG_SCHEMA` and
    the rules that tie keys together; raises ConfigError with a path."""
    cfg = _checked(raw, CONFIG_SCHEMA, "config")
    if cfg["scenario"]["name"] not in SCENARIO_BUILDERS:
        raise ConfigError(f"config.scenario.name: must be one of {', '.join(sorted(SCENARIO_BUILDERS))}")
    ref = cfg["reference"]
    if ref["mode"] not in ("burn_in", "ground_truth", "file"):
        raise ConfigError("config.reference.mode: must be burn_in, ground_truth or file")
    if (ref["mode"] == "file") != ("path" in ref):
        raise ConfigError(f"config.reference.path: given if and only if mode is 'file' (mode is '{ref['mode']}')")
    if cfg["diagnostics"]["rates"] and not cfg["diagnostics"]["wasserstein"]:
        raise ConfigError("config.diagnostics.rates: needs diagnostics.wasserstein (rates are fitted to the W2 series)")
    return cfg


def load_config(path) -> dict:
    """Read and validate a config file."""
    return validate_config(_read_json(Path(path), "config"))


def _read_json(path: Path, what: str):
    """The JSON document at ``path``; one that cannot be read or parsed is a
    ConfigError naming the path, and the line and column of a parse error."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read {what} ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_report(report: dict) -> None:
    """Check a report's schema id, its keys and the values that ``rate``
    reads from it; raises ValueError naming the key."""
    if not isinstance(report, dict) or report.get("schema") != REPORT_SCHEMA_ID:
        raise ValueError(f"report schema must be {REPORT_SCHEMA_ID}")
    missing = REPORT_KEYS - set(report)
    if missing:
        raise ValueError(f"report missing keys: {sorted(missing)}")
    for key in ("alpha", "bound", "floor"):
        if report[key] is not None and not _is_number(report[key]):
            raise ValueError(f"{key}: expected a number or null, got {report[key]!r}")
    for key, path in (("regularity", ("in_expectation", "epsilon_hat")), ("subregularity", ("r_hat",))):
        value = report[key]
        for step in path:
            value = value.get(step) if isinstance(value, dict) else None
        if report[key] is not None and not _is_number(value):
            raise ValueError(f"{key}: expected null or an object with a number at {'.'.join(path)}")


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _results_dir(out_dir: Optional[str]) -> Path:
    """``--out`` (not empty), else ``results``."""
    if out_dir == "":
        raise ConfigError("--out: must name a directory, got an empty string")
    return Path(out_dir or "results")


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
    coords = space.real_view(reference.points)
    lo, hi = float(coords.min()), float(coords.max())
    pad = 0.5 * max(hi - lo, 1.0)
    return BoxPairSampler(space, low=lo - pad, high=hi + pad, seed=pair_seed)


def _regularity_block(spec: tuple, reference: Path, seed: int, n_pairs: int) -> dict:
    """The report's ``regularity`` block: the violation estimates of each
    operator and of the family, at the scenario's alpha (0.5 when it states
    none), from one draw of ``n_pairs`` pairs in the region
    :func:`_default_sampler` derives from the reference saved at
    ``reference``, which is let go before the pairs are drawn."""
    scenario = build_scenario(*spec)
    alpha = scenario.ground_truth.alpha if scenario.ground_truth.alpha is not None else 0.5
    sampler = _default_sampler(scenario, _load(scenario.space, reference), seed)
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


def _reference_ensemble(scenario, cfg: dict, path: Path) -> tuple:
    """The job that saves the reference of the W2-to-invariant series at
    ``path``, as ``(layer, fn, *args)``, and the reference's provenance.  A
    ground-truth reference of a scenario with no invariant sampler is a
    ConfigError here, before any job."""
    ref_cfg = cfg["reference"]
    spec, n = _scenario_spec(cfg), cfg["ensemble_size"]
    if ref_cfg["mode"] == "file":
        job = ("reference", _file_reference, ref_cfg["path"], n, scenario.space, path)
        return job, {"mode": "file", "path": ref_cfg["path"]}
    if ref_cfg["mode"] == "ground_truth":
        if scenario.ground_truth.invariant_sampler is None:
            raise ConfigError(
                f"config.reference.mode: scenario '{scenario.name}' has no ground-truth invariant sampler"
            )
        ref_seed = derive_seed(cfg["seed"], 0x6D)
        job = ("reference", _sample, spec, n, _burn_in_steps(cfg), ref_seed, path)
        return job, {"mode": "ground_truth", "seed": ref_seed}
    steps = _burn_in_steps(cfg)
    ref_seed = derive_seed(cfg["seed"], 0x6E)
    job = ("reference", _burn_in, spec, n, steps, ref_seed, path)
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


def _save(ens: Ensemble, path: Path) -> Path:
    """Save ``ens`` at ``path`` for the jobs that :func:`_load` it, and
    return the path."""
    np.save(path, ens.points, allow_pickle=False)
    return path


def _load(space, path: Path) -> Ensemble:
    return Ensemble(space, np.load(path, allow_pickle=False))


def _chain(spec: tuple, n: int, iterations: int, seed: int, record_every: int, paths: list) -> list:
    """The job that runs the chain from the scenario's initial ensemble and
    saves its recorded steps, in order, at ``paths``."""
    scenario = build_scenario(*spec)
    chain = ChainConfig(
        family=scenario.family,
        initial=scenario.initial(n, derive_seed(seed, 0x11)),
        iterations=iterations,
        seed=seed,
        record_every=record_every,
    )
    return [_save(ens, path) for ens, path in zip(run_ensemble(chain).ensembles, paths)]


def _burn_in(spec: tuple, n: int, steps: int, seed: int, path: Path) -> Path:
    return _save(long_run_reference(build_scenario(*spec), n, steps, seed), path)


def _sample(spec: tuple, n: int, steps: int, seed: int, path: Path) -> Path:
    """The job that saves :func:`floor_sample`: a floor sample, or a
    ground-truth reference."""
    return _save(floor_sample(build_scenario(*spec), n, steps, seed), path)


def _file_reference(source: str, n: int, space, path: Path) -> Path:
    return _save(_read_reference(source, n, space), path)


def _series_point(spec: tuple, space, ens: Path, reference: Path, want_w2: bool, want_psi: bool) -> tuple:
    """(W2, Psi) of one recorded ensemble against the reference; Psi reuses
    the W2 coupling: one optimal assignment per step."""
    ens, reference = _load(space, ens), _load(space, reference)
    w2 = psi = coupling = None
    if want_w2:
        w2, coupling = wasserstein(ens, reference, p=2.0)
    if want_psi:
        psi = markov_transport_discrepancy(build_scenario(*spec).family, ens, reference, coupling)
    return w2, psi


def _floor_solve(space, reference: Path, sample: Path) -> float:
    """One floor draw, the W2 from the reference to a :func:`floor_sample`,
    which a run splits in two jobs: the sample does not need the reference,
    and is drawn while it burns in."""
    return wasserstein(_load(space, reference), _load(space, sample), p=2.0)[0]


def _write_ensemble(space, ens: Path, path: Path) -> None:
    """The job that writes a step's ensemble file or the reference; a job
    names a module-level function, which pickles by name, and this one finds
    ``to_csv`` in the worker."""
    _load(space, ens).to_csv(path)


def _job(layer: str, fn, *args) -> tuple:
    """Run one job in this process: ``fn(*args)``, timed to ``layer``.
    Returns its value, its layer, its seconds and its exact-OT solves."""
    before = dict(transport.SOLVES)
    start = time.perf_counter()
    value = fn(*args)
    seconds = time.perf_counter() - start
    return value, layer, seconds, {path: transport.SOLVES[path] - count for path, count in before.items()}


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _peak_rss_mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


class _Done(NamedTuple):
    """A job run in this process, read as a finished future is."""

    value: tuple

    def result(self) -> tuple:
        return self.value


class _Pool:
    """Runs jobs on ``size`` processes and tallies where the time went.

    Every job takes all its inputs as arguments and keeps no state in the
    process that runs it, so which process that is changes no output byte.
    A job is ``(layer, fn, *args)``: one function, timed to one layer.
    Above size 1 the processes belong to one ProcessPoolExecutor.
    Fork, stated explicitly, lets them start without importing numpy again
    (or loading scipy's compiled ``_lsap`` solver again, if this process
    has loaded it), and a fork executor starts all of them at the first
    submission, before its own helper threads exist (cpython#90622).  Each
    job is pickled in the thread that submits it, as a check, so a job that
    cannot be pickled raises there; when the executor's feeder thread is the
    first to fail on a job, the shutdown can wait for ever.  At size 1 the
    jobs run in this process, no child starts, and neither multiprocessing
    nor concurrent.futures is imported.
    """

    def __init__(self, size: int):
        self.size = size
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.solves = dict.fromkeys(transport.SOLVES, 0)
        self._executor = None
        if size > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            fork = multiprocessing.get_context("fork")
            self._executor = ProcessPoolExecutor(size, mp_context=fork, initializer=_one_blas_thread)

    def submit(self, layer: str, fn, *args) -> Future | _Done:
        """Queue the job ``fn(*args)``, timed to ``layer``.  The pickling
        check keeps no bytes: the executor gets the job itself."""
        if self._executor is None:
            return self.here(layer, fn, *args)
        pickle.dumps((fn, args))
        return self._executor.submit(_job, layer, fn, *args)

    @staticmethod
    def here(layer: str, fn, *args) -> _Done:
        """Run the job ``fn(*args)`` now, in this process."""
        return _Done(_job(layer, fn, *args))

    def take(self, job: Future | _Done):
        """The value of ``job``; its seconds and solves count to the tally."""
        value, layer, seconds, solves = job.result()
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

def cmd_run(config_path, out_dir) -> int:
    started = time.perf_counter()
    cfg = load_config(config_path)
    out = _results_dir(out_dir)

    spec = _scenario_spec(cfg)
    scenario = _configured_scenario(spec)
    space, n = scenario.space, cfg["ensemble_size"]
    steps = recorded_steps(cfg["iterations"], cfg["record_every"])
    diags = cfg["diagnostics"]
    series = diags["wasserstein"] or diags["psi"]
    seeds = floor_seeds(cfg["seed"]) if diags["rates"] else []
    if series and not transport.sorted_path(space):
        transport.assignment_solver()  # once here, before the pool forks, not in every worker
    with tempfile.TemporaryDirectory(prefix="rfilab-") as tmp, _Pool(min(cfg["workers"], usable_cpus())) as pool:
        scratch = Path(tmp)
        make_reference, ref_provenance = _reference_ensemble(scenario, cfg, scratch / "reference.npy")
        # a file is read here and now, so that a bad one stops the run before any job
        reference_job = pool.here(*make_reference) if cfg["reference"]["mode"] == "file" else None
        out.mkdir(parents=True, exist_ok=True)  # only now: a bad scenario or reference leaves none behind
        chain_job = pool.submit("chain", _chain, spec, n, cfg["iterations"], cfg["seed"], cfg["record_every"],
                                [scratch / f"step_{step:06d}.npy" for step in steps])
        reference_job = reference_job or pool.submit(*make_reference)
        samples = [pool.submit("floor", _sample, spec, n, _burn_in_steps(cfg), seed, scratch / f"sample_{i}.npy")
                   for i, seed in enumerate(seeds)]
        # the chain, the floor samples and the step files do not use the
        # reference: they run while it burns in
        step_files = pool.take(chain_job)
        ens_dir = out / "ensembles"
        ens_dir.mkdir(exist_ok=True)
        writes = [pool.submit("io", _write_ensemble, space, ens, ens_dir / f"step_{step:06d}.csv")
                  for step, ens in zip(steps, step_files)]
        reference = pool.take(reference_job)
        writes.append(pool.submit("io", _write_ensemble, space, reference, out / "reference.csv"))
        solves = [pool.submit("floor", _floor_solve, space, reference, pool.take(job)) for job in samples]
        if diags["regularity"]:
            regularity_job = pool.submit(
                "regularity", _regularity_block, spec, reference, cfg["seed"], cfg["regularity_pairs"])
        points = [pool.submit("w2_psi", _series_point, spec, space, ens, reference, diags["wasserstein"],
                              diags["psi"]) for ens in step_files if series]
        # the results are taken in the order of submission
        for job in writes:
            pool.take(job)
        draws = [pool.take(job) for job in solves]
        report = _empty_report(scenario)
        if diags["regularity"]:
            report["regularity"] = pool.take(regularity_job)
        values = [pool.take(job) for job in points] or [(None, None)] * len(steps)
        with pool.timed("io"):
            with (out / "series.csv").open("w", newline="", encoding="utf-8") as fh:
                fh.write("k,W2_to_reference,psi_hat\n")
                for step, (w2, psi) in zip(steps, values):
                    fh.write(f"{step},{_float_repr(w2)},{_float_repr(psi)}\n")
        floor = None
        if diags["rates"]:
            report["floor"] = statistics.median(draws)
            floor = {"source": floor_source(scenario), "seeds": seeds, "draws": draws}
            if floor["source"] == "burn_in":
                floor["steps"] = _burn_in_steps(cfg)

    if diags["rates"]:
        _fit_rates(report, steps, *zip(*values))
    with pool.timed("io"):
        _write_report(out, report)

    manifest = {
        "config": cfg,
        "config_path": str(config_path),
        "scenario_params": scenario.params,
        "reference": ref_provenance,
        "floor": floor,
        "recorded_steps": steps,
        "versions": {"rfilab": __version__, "numpy": np.__version__, "scipy": transport.scipy_version()},
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
    """Predicted linear rate from (alpha, violation, subregularity constant);
    None when one of them is missing.  The violation is the regularity
    block's estimate, else the scenario's closed-form bound."""
    alpha = report.get("alpha")
    sub = report.get("subregularity")
    reg = report.get("regularity")
    if reg is not None:
        eps = float(reg["in_expectation"]["epsilon_hat"])
    elif report.get("bound") is not None:
        eps = float(report["bound"])
    else:
        return None
    if alpha is None or sub is None:
        return None
    try:
        return rate_bound_from_theorem(float(alpha), eps, float(sub["r_hat"]))
    except ValueError:
        return None


def cmd_regularity(config_path, out_dir) -> int:
    cfg = load_config(config_path)
    out = _results_dir(out_dir)
    spec = _scenario_spec(cfg)
    scenario = _configured_scenario(spec)
    with tempfile.TemporaryDirectory(prefix="rfilab-") as tmp:
        (_, make, *args), _ = _reference_ensemble(scenario, cfg, Path(tmp) / "reference.npy")
        reference = make(*args)
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
            if len(steps) > 1 and steps[-1] <= steps[-2]:
                raise ConfigError(f"{series_path}:{lineno}: step {steps[-1]} does not follow step {steps[-2]}")
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
        prev_k = prev_w = None
        for k, w, p in zip(steps, w2, psi):
            # the ratio per step: a ratio of entries g steps apart is taken to the power 1/g
            ratio = None
            if prev_w is not None and np.isfinite(prev_w) and prev_w > 0 and np.isfinite(w):
                ratio = (w / prev_w) ** (1.0 / (k - prev_k))
            fh.write(
                f"{k},{_float_repr(None if np.isnan(w) else w)},"
                f"{_float_repr(None if np.isnan(p) else p)},{_float_repr(ratio)}\n"
            )
            prev_k, prev_w = k, w

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


def _shape(ens: Ensemble) -> str:
    space = ens.space
    if isinstance(space, SpiderSpace):
        return f"{len(ens)} particles on a {space.legs}-leg spider"
    return f"{len(ens)} particles in {'C' if space.complex_coords else 'R'}^{space.dim}"


def cmd_wasserstein(path_a, path_b, p: float) -> int:
    if not (np.isfinite(p) and p >= 1.0):
        raise ConfigError(f"--p: must be a finite number >= 1, got {p}")
    a = _read_ensemble(path_a, "ensemble_a")
    b = _read_ensemble(path_b, "ensemble_b")
    if isinstance(a.space, SpiderSpace) and isinstance(b.space, SpiderSpace):
        # each file's leg count is inferred from its own particles; a leg that
        # holds none changes no spider distance, so both take the larger count
        legs = SpiderSpace(max(a.space.legs, b.space.legs))
        a, b = Ensemble(legs, a.points), Ensemble(legs, b.points)
    if a.space != b.space or len(a) != len(b):
        raise ConfigError(
            f"ensemble_b: {_shape(b)} against ensemble_a's {_shape(a)} "
            "(W_p needs two ensembles of one size in one space)"
        )
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

    reg = sub.add_parser("regularity", help="estimate violation constants")
    reg.add_argument("--config", required=True)
    reg.add_argument("--out", default=None)

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
            return cmd_run(args.config, args.out)
        if args.command == "regularity":
            return cmd_regularity(args.config, args.out)
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
