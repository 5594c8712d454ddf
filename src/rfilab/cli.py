"""Batch experiment runner.

Subcommands:

* ``run``          -- simulate a configured scenario, write series + ensembles
* ``regularity``   -- estimate violation constants for a configured scenario
* ``rate``         -- fit rates / subregularity on an existing results directory
* ``wasserstein``  -- standalone W_p between two ensemble CSV files

Configs are JSON documents validated against :data:`CONFIG_SCHEMA` before any
computation.  All CSV outputs are byte-deterministic for a fixed config: the
worker count never changes results, and reruns reproduce files exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .analysis import build_rate_report, estimate_subregularity, rate_bound_from_theorem
from .geometry import SpiderSpace
from .regularity import (
    BoxPairSampler,
    SpiderPairSampler,
    estimate_violation,
    estimate_violation_in_expectation,
)
from .rfi import ChainConfig, derive_seed, run_ensemble
from .scenarios import SCENARIO_BUILDERS, build_scenario, long_run_reference, monte_carlo_floor
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
    "seed": (int, True, None, "64-bit integer"),
    "record_every": (int, False, 1, ">= 1"),
    "workers": (int, False, 1, ">= 1 (never affects results)"),
    "common_noise": (bool, False, False, "all particles share one index draw"),
    "diagnostics": (dict, False, {}, "booleans: wasserstein, psi, regularity, rates"),
    "reference": (dict, False, {"mode": "burn_in", "factor": 10}, "mode: burn_in | ground_truth | file"),
    "regularity_pairs": (int, False, 2000, ">= 1, pair count for violation estimates"),
    "output_dir": (str, False, None, "results directory (--out overrides)"),
}

DIAGNOSTIC_DEFAULTS = {"wasserstein": True, "psi": True, "regularity": False, "rates": False}

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
    name = scenario.get("name")
    if not isinstance(name, str) or name not in SCENARIO_BUILDERS:
        known = ", ".join(sorted(SCENARIO_BUILDERS))
        raise ConfigError(f"config.scenario.name: must be one of {known}")
    if not isinstance(scenario.get("params", {}), dict):
        raise ConfigError("config.scenario.params: must be an object")
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
    mode = ref.get("mode", "burn_in")
    if mode not in ("burn_in", "ground_truth", "file"):
        raise ConfigError("config.reference.mode: must be burn_in, ground_truth or file")
    if mode == "file" and not isinstance(ref.get("path"), str):
        raise ConfigError("config.reference.path: required for mode 'file'")
    ref.setdefault("factor", 10)
    if not isinstance(ref["factor"], int) or ref["factor"] < 1:
        raise ConfigError("config.reference.factor: must be an integer >= 1")
    cfg["reference"] = {"mode": mode, **{k: v for k, v in ref.items() if k != "mode"}}
    return cfg


def load_config(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc})") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc
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


def _reference_ensemble(scenario, cfg: dict, workers: int):
    """Reference for the W2-to-invariant series, with provenance."""
    ref_cfg = cfg["reference"]
    n = cfg["ensemble_size"]
    if ref_cfg["mode"] == "file":
        try:
            ens = Ensemble.from_csv(ref_cfg["path"])
        except OSError as exc:
            raise ConfigError(f"config.reference.path: cannot read {ref_cfg['path']} ({exc})") from exc
        if len(ens) != n:
            raise ConfigError(
                f"config.reference.path: reference has {len(ens)} particles but "
                f"ensemble_size is {n} (equal sizes required)"
            )
        return ens, {"mode": "file", "path": ref_cfg["path"]}
    if ref_cfg["mode"] == "ground_truth":
        sampler = scenario.ground_truth.invariant_sampler
        if sampler is None:
            raise ConfigError(
                f"config.reference.mode: scenario '{scenario.name}' has no ground-truth invariant sampler"
            )
        ref_seed = derive_seed(cfg["seed"], 0x6D)
        return sampler(n, ref_seed), {"mode": "ground_truth", "seed": ref_seed}
    steps = ref_cfg["factor"] * max(cfg["iterations"], 1)
    ref_seed = derive_seed(cfg["seed"], 0x6E)
    ens = long_run_reference(scenario, n, steps, ref_seed, workers=workers)
    return ens, {"mode": "burn_in", "steps": steps, "seed": ref_seed}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(config_path, out_dir, workers: Optional[int] = None, seed: Optional[int] = None,
            record_every: Optional[int] = None) -> int:
    started = time.perf_counter()
    cfg = load_config(config_path)
    if workers is not None:
        cfg["workers"] = workers
    if seed is not None:
        cfg["seed"] = seed
    if record_every is not None:
        cfg["record_every"] = record_every
    out = Path(out_dir or cfg.get("output_dir") or "results")
    out.mkdir(parents=True, exist_ok=True)

    scenario = build_scenario(cfg["scenario"]["name"], cfg["scenario"].get("params", {}))
    initial = scenario.initial(cfg["ensemble_size"], derive_seed(cfg["seed"], 0x11))
    reference, ref_provenance = _reference_ensemble(scenario, cfg, cfg["workers"])

    chain = ChainConfig(
        family=scenario.family,
        initial=initial,
        iterations=cfg["iterations"],
        seed=cfg["seed"],
        record_every=cfg["record_every"],
        common_noise=cfg["common_noise"],
        workers=cfg["workers"],
    )
    trajectory = run_ensemble(chain)

    diags = cfg["diagnostics"]
    w2_series = []
    psi_series = []
    for ens in trajectory.ensembles:
        if diags["wasserstein"]:
            value, _ = wasserstein(ens, reference, p=2.0)
            w2_series.append(value)
        else:
            w2_series.append(None)
        if diags["psi"]:
            psi_series.append(markov_transport_discrepancy(scenario.family, ens, [reference]))
        else:
            psi_series.append(None)

    ens_dir = out / "ensembles"
    ens_dir.mkdir(exist_ok=True)
    for step, ens in zip(trajectory.steps, trajectory.ensembles):
        ens.to_csv(ens_dir / f"step_{step:06d}.csv")
    reference.to_csv(out / "reference.csv")

    with (out / "series.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write("k,W2_to_reference,psi_hat\n")
        for step, w2, psi in zip(trajectory.steps, w2_series, psi_series):
            fh.write(f"{step},{_float_repr(w2)},{_float_repr(psi)}\n")

    report = _empty_report(scenario)
    if diags["regularity"]:
        sampler = _default_sampler(scenario, reference, cfg["seed"])
        report["regularity"] = _regularity_block(scenario, sampler, cfg["regularity_pairs"])
    if diags["rates"] and diags["wasserstein"]:
        floor = monte_carlo_floor(
            scenario, cfg["ensemble_size"], ref_provenance.get("steps", 10 * max(cfg["iterations"], 1)),
            cfg["seed"], workers=cfg["workers"],
        )
        report["floor"] = floor
        rate_report = build_rate_report(trajectory.steps, [v for v in w2_series], floor=floor)
        report["rates"] = rate_report.to_dict()
        if diags["psi"]:
            psi = np.asarray(psi_series, dtype=float)
            dist = np.asarray(w2_series, dtype=float)
            usable = psi > 0
            if np.any(usable):
                report["subregularity"] = estimate_subregularity(psi[usable], dist[usable]).to_dict()
        report["predicted_rate"] = _predicted_rate(report)
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
    cfg = load_config(config_path)
    if seed is not None:
        cfg["seed"] = seed
    out = Path(out_dir or cfg.get("output_dir") or "results")
    out.mkdir(parents=True, exist_ok=True)
    scenario = build_scenario(cfg["scenario"]["name"], cfg["scenario"].get("params", {}))
    reference, _ = _reference_ensemble(scenario, cfg, cfg["workers"])
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
    run.add_argument("--workers", type=int, default=None, help="parallel workers (never affects results)")
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
