import copy
import functools
import json
import multiprocessing
import os
import pickle
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import rfilab.cli
import rfilab.scenarios
from rfilab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    load_config,
    main,
    validate_config,
    validate_report,
)


def write_config(tmp_path, **overrides):
    cfg = {
        "scenario": {"name": "contraction", "params": {"r": 0.5, "offset": 5.0}},
        "ensemble_size": 200,
        "iterations": 10,
        "seed": 7,
        "diagnostics": {"wasserstein": True, "psi": True, "regularity": True, "rates": True},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_validate_config_defaults():
    cfg = validate_config(
        {"scenario": {"name": "two_point"}, "ensemble_size": 10, "iterations": 1, "seed": 0}
    )
    assert cfg["record_every"] == 1
    assert cfg["diagnostics"]["wasserstein"] is True
    assert cfg["diagnostics"]["regularity"] is False
    assert cfg["reference"]["mode"] == "burn_in"


@pytest.mark.parametrize(
    "patch, fragment",
    [
        ({"scenario": {"name": "bogus"}}, "scenario.name"),
        ({"ensemble_size": 0}, "ensemble_size"),
        ({"iterations": -1}, "iterations"),
        ({"record_every": 0}, "record_every"),
        ({"diagnostics": {"nope": True}}, "diagnostics.nope"),
        ({"reference": {"mode": "psychic"}}, "reference.mode"),
        ({"surplus_key": 1}, "surplus_key"),
        ({"seed": -1}, "seed"),
        ({"workers": 0}, "workers"),
        ({"reference": {"factor": True}}, "reference.factor"),
        ({"reference": {"foo": 3}}, "reference.foo"),
        ({"reference": {"mode": "burn_in", "path": "ref.csv"}}, "reference.path"),
        ({"scenario": {"name": "two_point", "parms": {}}}, "scenario.parms"),
        ({"diagnostics": {"wasserstein": False, "rates": True}}, "diagnostics.rates"),
        ({"reference": {"mode": "file", "path": 3}}, "reference.path: expected str, got int"),
    ],
)
def test_validate_config_rejects(patch, fragment):
    base = {"scenario": {"name": "two_point"}, "ensemble_size": 10, "iterations": 1, "seed": 0}
    base.update(patch)
    with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
        validate_config(base)


INTEGER_KEYS = {("ensemble_size",): 1, ("iterations",): 0, ("seed",): 0, ("record_every",): 1, ("workers",): 1,
                ("regularity_pairs",): 1, ("reference", "factor"): 1}
NOT_AN_OBJECT = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
                 | st.lists(st.integers(), max_size=2))
KEY_NAMES = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)


def _some(draw, block: dict, key: str, values) -> None:
    """Give ``block[key]`` a drawn value, or leave the key out."""
    if draw(st.booleans()):
        block[key] = draw(values)


@st.composite
def valid_configs(draw):
    """Configs that the checker accepts, each optional key given or left out."""
    scenario = {"name": draw(st.sampled_from(sorted(rfilab.scenarios.SCENARIO_BUILDERS)))}
    _some(draw, scenario, "params", st.dictionaries(KEY_NAMES, st.integers() | st.text(max_size=3), max_size=2))
    cfg = {"scenario": scenario}
    for (key, *sub), low in INTEGER_KEYS.items():
        if key in ("ensemble_size", "iterations", "seed"):
            cfg[key] = draw(st.integers(low, 2**40))
        elif not sub:
            _some(draw, cfg, key, st.integers(low, 2**40))
    if draw(st.booleans()):
        diags = cfg["diagnostics"] = {}
        for key in ("wasserstein", "psi", "regularity", "rates"):
            _some(draw, diags, key, st.booleans())
        if diags.get("rates") and diags.get("wasserstein") is False:
            diags["rates"] = False
    if draw(st.booleans()):
        ref = cfg["reference"] = {}
        _some(draw, ref, "mode", st.sampled_from(["burn_in", "ground_truth", "file"]))
        _some(draw, ref, "factor", st.integers(1, 2**40))
        if ref.get("mode") == "file":
            ref["path"] = draw(st.text(max_size=8))
    return cfg


def _block(cfg: dict, path: tuple) -> dict:
    """The block at ``path``, made an empty object where it is left out."""
    for key in path:
        cfg = cfg.setdefault(key, {})
    return cfg


@st.composite
def one_fault_configs(draw):
    """``(config, key path)``: a valid config with one fault planted at the
    key path."""
    cfg = draw(valid_configs())
    fault = draw(st.sampled_from(["missing", "unknown", "non-integer", "below", "non-object", "non-string",
                                  "non-boolean", "rule"]))
    if fault == "missing":
        *block, key = path = draw(st.sampled_from([("scenario",), ("ensemble_size",), ("iterations",), ("seed",),
                                                   ("scenario", "name"), ("reference", "path")]))
        if path == ("reference", "path"):
            _block(cfg, ("reference",))["mode"] = "file"
        _block(cfg, block).pop(key, None)
    elif fault == "unknown":
        block = draw(st.sampled_from([(), ("scenario",), ("diagnostics",), ("reference",)]))
        known = {(): oracles.CONFIG_SCHEMA, ("scenario",): oracles.SCENARIO_KEYS,
                 ("diagnostics",): oracles.DIAGNOSTIC_DEFAULTS, ("reference",): oracles.REFERENCE_KEYS}[block]
        key = draw(KEY_NAMES.filter(lambda k: k not in known))
        _block(cfg, block)[key] = 1
        path = (*block, key)
    elif fault in ("non-integer", "below"):
        path = draw(st.sampled_from(sorted(INTEGER_KEYS)))
        low = INTEGER_KEYS[path]
        values = st.booleans() | st.floats() if fault == "non-integer" else st.integers(max_value=low - 1)
        _block(cfg, path[:-1])[path[-1]] = draw(values)
    elif fault == "non-object":
        path = draw(st.sampled_from([(), ("scenario",), ("scenario", "params"), ("diagnostics",), ("reference",)]))
        if not path:
            return draw(NOT_AN_OBJECT), ()
        _block(cfg, path[:-1])[path[-1]] = draw(NOT_AN_OBJECT)
    elif fault == "non-string":
        path = draw(st.sampled_from([("scenario", "name"), ("reference", "mode"), ("reference", "path")]))
        if path == ("reference", "path"):
            _block(cfg, ("reference",))["mode"] = "file"
        _block(cfg, path[:-1])[path[-1]] = draw(NOT_AN_OBJECT.filter(lambda v: not isinstance(v, str)))
    elif fault == "non-boolean":
        path = ("diagnostics", draw(st.sampled_from(["wasserstein", "psi", "regularity", "rates"])))
        _block(cfg, path[:1])[path[1]] = draw(NOT_AN_OBJECT.filter(lambda v: not isinstance(v, bool)))
    else:
        path = draw(st.sampled_from([("scenario", "name"), ("reference", "mode"), ("reference", "path"),
                                     ("diagnostics", "rates")]))
        if path == ("scenario", "name"):
            cfg["scenario"]["name"] = draw(st.text(max_size=8).filter(
                lambda name: name not in rfilab.scenarios.SCENARIO_BUILDERS))
        elif path == ("reference", "mode"):
            _block(cfg, ("reference",)).update(mode=draw(st.sampled_from(["", "File", "burn-in", "psychic"])))
            cfg["reference"].pop("path", None)
        elif path == ("reference", "path"):
            ref = _block(cfg, ("reference",))
            ref.update(mode=draw(st.sampled_from(["burn_in", "ground_truth"])), path="ref.csv")
        else:
            _block(cfg, ("diagnostics",)).update(wasserstein=False, rates=True)
    return cfg, path


def _key_path(check, cfg):
    """The key path that ``check`` names on rejecting ``cfg``."""
    with pytest.raises(ConfigError) as caught:
        check(copy.deepcopy(cfg))
    return str(caught.value).split(":", 1)[0]


@settings(max_examples=300, deadline=None)
@given(cfg=valid_configs())
def test_validate_config_accepts_and_normalizes_like_the_oracle(cfg):
    assert validate_config(copy.deepcopy(cfg)) == oracles.validate_config(copy.deepcopy(cfg))


@settings(max_examples=600, deadline=None)
@given(case=one_fault_configs())
def test_validate_config_names_the_oracles_key_path_for_one_fault(case):
    cfg, path = case
    assert _key_path(validate_config, cfg) == _key_path(oracles.validate_config, cfg) == ".".join(("config", *path))


def test_load_config_json_error_is_line_anchored(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "scenario": {,}\n}')
    with pytest.raises(ConfigError, match=r"bad\.json:2:"):
        load_config(path)


def test_invalid_config_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["run", "regularity"])
def test_non_utf8_config_exits_2_naming_the_path(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"scenario": {"name": "two_\xffpoint"}}')
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {path}: cannot read config (")
    assert not out.exists()


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "overrides, argv, fragment",
    [
        ({"seed": -1}, [], "config.seed"),
        ({"reference": {"factor": True}}, [], "config.reference.factor"),
        ({"reference": {"foo": 3}}, [], "config.reference.foo"),
        ({}, ["--seed", "1"], "unrecognized arguments: --seed 1"),
        ({}, ["--workers", "2"], "unrecognized arguments: --workers 2"),
        ({}, ["--record-every", "1"], "unrecognized arguments: --record-every 1"),
        ({"reference": {"mode": "ground_truth", "path": "ref.csv"}}, [], "config.reference.path"),
        ({"scenario": {"name": "contraction", "params": {"R": 0.9}}}, [], "config.scenario.params.R"),
        ({"scenario": {"name": "kaczmarz", "params": {"b": [1.0]}}}, [],
         "config.scenario.params.A: kaczmarz takes 'A' and 'b' together"),
        ({"scenario": {"name": "kaczmarz", "params": {"m": 0}}}, [],
         "config.scenario.params.m: must be >= 1, got 0"),
        ({"scenario": {"name": "kaczmarz", "params": {"consistent": "false"}}}, [],
         "config.scenario.params.consistent: expected a boolean, got str"),
        ({"scenario": {"name": "kaczmarz", "params": {"consistent": 0}}}, [],
         "config.scenario.params.consistent: expected a boolean, got int"),
        ({"scenario": {"name": "contraction", "params": {"r": [1]}}}, [], "config.scenario.params.r: "),
        ({"scenario": {"name": "kaczmarz", "params": {"m": "x"}}}, [], "config.scenario.params.m: "),
        ({"scenario": {"name": "spider_frechet", "params": {"anchors": [[1]]}}}, [],
         "config.scenario.params.anchors: "),
        ({"scenario": {"name": "kaczmarz", "params": {"m": True}}}, [],
         "config.scenario.params.m: expected an integer, got bool"),
        ({"scenario": {"name": "kaczmarz", "params": {"m": 2.7}}}, [],
         "config.scenario.params.m: expected an integer, got float"),
        ({"scenario": {"name": "kaczmarz", "params": {"instance_seed": 1.9}}}, [],
         "config.scenario.params.instance_seed: expected an integer, got float"),
        ({"scenario": {"name": "spider_frechet", "params": {"legs": 3.9}}}, [],
         "config.scenario.params.legs: expected an integer, got float"),
        ({"scenario": {"name": "spider_frechet", "params": {"lam": "0.2"}}}, [],
         "config.scenario.params.lam: expected a number, got str"),
        ({"scenario": {"name": "contraction", "params": {"offset": True}}}, [],
         "config.scenario.params.offset: expected a number, got bool"),
        ({"scenario": {"name": "contraction", "params": {"offset": float("inf")}}}, [],
         "config.scenario.params.offset: expected a finite number, got inf"),
        ({"scenario": {"name": "phase_retrieval", "params": {"relax": float("nan")}}}, [],
         "config.scenario.params.relax: expected a finite number, got nan"),
        ({"scenario": {"name": "kaczmarz", "params": {"A": [["1", "0"], ["0", "1"]], "b": [1.0, 2.0]}}}, [],
         "config.scenario.params.A: expected a number, got str"),
        ({"scenario": {"name": "spider_frechet", "params": {"anchors": [[1.7, 2.0]]}}}, [],
         "config.scenario.params.anchors: expected an integer, got float"),
        ({"scenario": {"name": "spider_frechet", "params": {"legs": 1}}}, [],
         "config.scenario.params.legs: must be at least 3: 2, and a leg for every anchor; got 1"),
        ({"scenario": {"name": "spider_frechet", "params": {"legs": -3, "anchors": [[0, 1.0]]}}}, [],
         "config.scenario.params.legs: must be at least 2: 2, and a leg for every anchor; got -3"),
        ({"scenario": {"name": "contraction", "params": {"r": 2.0}}}, [],
         "config.scenario.params.r: contraction factor must lie in (0, 1), got 2.0"),
        ({"scenario": {"name": "phase_retrieval", "params": {"n": 257}}}, [],
         "config.scenario.params.n: phase retrieval instances are capped at n = 256 (desk scale)"),
        ({"scenario": {"name": "phase_retrieval", "params": {"relax": 1.0}}}, [],
         "config.scenario.params.relax: relaxation must lie in (0, 1), got 1.0"),
        ({"scenario": {"name": "spider_frechet", "params": {"lam": 0}}}, [],
         "config.scenario.params.lam: prox parameter must be > 0, got 0.0"),
        ({"scenario": {"name": "dr_parallel_lines", "params": {"gap": -1.0}}}, [],
         "config.scenario.params.gap: gap must be > 0"),
        ({"scenario": {"name": "sgd_linear_noise", "params": {"t": -1.0}}}, [],
         "config.scenario.params.t: step must be > 0, got -1.0"),
        ({"scenario": {"name": "sgd_linear_noise", "params": {"q": [1, 2]}}}, [],
         "config.scenario.params.q: must have length 1, the size of Q; got 2"),
        ({"scenario": {"name": "sgd_linear_noise", "params": {"atoms": [[1, 2], [3]]}}}, [],
         "config.scenario.params.atoms: each atom must have length 1, the size of Q; got 2"),
        ({"scenario": {"name": "sgd_linear_noise", "params": {"dim": 2, "atoms": [[1], [3]]}}}, [],
         "config.scenario.params.atoms: each atom must have length 2, the size of Q; got 1"),
        ({"scenario": {"name": "kaczmarz", "params": {"m": -1}}}, [], "config.scenario.params.m: must be >= 1, got -1"),
        ({"scenario": {"name": "kaczmarz", "params": {"n": 0}}}, [], "config.scenario.params.n: must be >= 1, got 0"),
        ({"scenario": {"name": "phase_retrieval", "params": {"n_masks": -1}}}, [],
         "config.scenario.params.n_masks: must be >= 1, got -1"),
        ({"scenario": {"name": "phase_retrieval", "params": {"n": 0}}}, [],
         "config.scenario.params.n: must be >= 1, got 0"),
        ({"scenario": {"name": "sgd_linear_noise", "params": {"dim": 0}}}, [],
         "config.scenario.params.dim: must be >= 1, got 0"),
        ({"scenario": {"name": "sgd_linear_noise", "params": {"Q": [[1, 2], [3, 4]]}}}, [],
         "config.scenario.params.Q: Q must be symmetric"),
        ({"scenario": {"name": "sgd_linear_noise", "params": {"Q": [1, 2]}}}, [],
         "config.scenario.params.Q: Q must be a square matrix"),
        ({"scenario": {"name": "kaczmarz", "params": {"A": [[]], "b": [1]}}}, [],
         "config.scenario.params.A: must be a matrix with at least one column, got shape (1, 0)"),
        ({"scenario": {"name": "kaczmarz", "params": {"A": [[0, 0]], "b": [1]}}}, [],
         "config.scenario.params.A: row 0 is zero, and a hyperplane needs a nonzero normal"),
        ({"scenario": {"name": "kaczmarz", "params": {"A": [1, 2], "b": [1, 2]}}}, [],
         "config.scenario.params.A: must be a matrix with at least one column, got shape (2,)"),
        ({"scenario": {"name": "kaczmarz", "params": {"A": [[1, 0], [0, 1]], "b": [1]}}}, [],
         "config.scenario.params.b: must have length 2, the rows of A; got 1"),
        ({"scenario": {"name": "sgd_linear_noise", "params": {"t": 0}}}, [],
         "config.scenario.params.t: step must be > 0, got 0.0"),
        ({"scenario": {"name": "kaczmarz", "params": {"A": [[1, 0]]}}}, [],
         "config.scenario.params.b: kaczmarz takes 'A' and 'b' together, or neither"),
        ({"scenario": {"name": "spider_frechet", "params": {"anchors": []}}}, [],
         "config.scenario.params.anchors: need at least one anchor"),
        ({"common_noise": False}, [], "config.common_noise: unknown key"),
        ({"output_dir": "r"}, [], "config.output_dir: unknown key"),
        ({}, ["--out", ""], "--out: must name a directory"),
    ],
)
def test_run_invalid_value_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, overrides, argv, fragment):
    # a flag that argparse refuses exits 2 by SystemExit, before main's handler
    monkeypatch.chdir(tmp_path)  # the default results directory would be made here
    cfg = write_config(tmp_path, diagnostics={}, **overrides)
    out = tmp_path / "o"
    assert _exit_code(["run", "--config", str(cfg), "--out", str(out), *argv]) == EXIT_CONFIG
    assert fragment in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "results").exists() and not (tmp_path / "r").exists()


def test_regularity_refuses_the_seed_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, diagnostics={})
    out = tmp_path / "o"
    assert _exit_code(["regularity", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == EXIT_CONFIG
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not out.exists()


SCENARIOS = ("two_point", "contraction", "kaczmarz", "sgd_linear_noise", "phase_retrieval", "spider_frechet",
             "dr_parallel_lines")


@pytest.mark.parametrize("name", SCENARIOS)
def test_run_unknown_scenario_param_exits_2_naming_it(tmp_path, capsys, name):
    from rfilab.scenarios import SCENARIO_BUILDERS

    assert sorted(SCENARIO_BUILDERS) == sorted(SCENARIOS)
    cfg = write_config(tmp_path, scenario={"name": name, "params": {"no_such_key": 1}}, diagnostics={})
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "config.scenario.params.no_such_key" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_all_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "manifest.json").exists()
    assert (out / "series.csv").exists()
    assert (out / "report.json").exists()
    assert (out / "ensembles" / "step_000000.csv").exists()
    assert (out / "ensembles" / "step_000010.csv").exists()
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "k,W2_to_reference,psi_hat"
    assert len(series) == 12  # header + steps 0..10
    report = json.loads((out / "report.json").read_text())
    validate_report(report)
    assert report["regularity"]["in_expectation"]["epsilon_hat"] <= 1e-8
    assert report["rates"] is not None
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["reference"]["mode"] == "burn_in"
    assert "numpy" in manifest["versions"]


def test_run_k0_outputs_initial_only(tmp_path):
    cfg = write_config(tmp_path, iterations=0, diagnostics={})
    out = tmp_path / "k0"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    series = (out / "series.csv").read_text().splitlines()
    assert len(series) == 2 and series[1].startswith("0,")


def _result_files(out):
    names = ["series.csv", "reference.csv", "report.json"]
    names += [f"ensembles/{p.name}" for p in sorted((out / "ensembles").glob("step_*.csv"))]
    return {name: (out / name).read_bytes() for name in names}


def test_run_determinism_across_reruns_and_workers(tmp_path, monkeypatch):
    # every result file, the floor and the regularity block in report.json
    # included, is the same whether the jobs run in this process or on 2 or
    # 4 worker processes; contraction takes the sorted W2 path, kaczmarz the
    # assignment path, phase_retrieval hands the regularity job a complex
    # reference, from which the worker builds a complex box sampler, and
    # spider_frechet hands every job packed (leg, radius) rows
    monkeypatch.setattr(rfilab.cli, "usable_cpus", lambda: 4)
    for scenario, size in (({"name": "contraction", "params": {"r": 0.5, "offset": 5.0}}, 200),
                           ({"name": "kaczmarz", "params": {"m": 3, "n": 2, "instance_seed": 0}}, 200),
                           ({"name": "phase_retrieval", "params": {"n": 8, "n_masks": 2}}, 40),
                           ({"name": "spider_frechet"}, 200)):
        outs = {}
        for name, workers in (("a", None), ("b", None), ("c", 2), ("d", 4)):
            out = tmp_path / f"{scenario['name']}-{name}"
            extra = {"workers": workers} if workers else {}
            cfg = write_config(tmp_path, scenario=scenario, ensemble_size=size, **extra)
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            used = json.loads((out / "manifest.json").read_text())["timings"]["workers_used"]
            assert used == (workers or 1)
            outs[name] = _result_files(out)
        assert len(outs["a"]) == 14  # series, reference, report, 11 ensembles
        assert json.loads(outs["a"]["report.json"])["floor"] > 0
        for name in "bcd":
            assert outs[name] == outs["a"], (scenario["name"], name)


def test_run_solves_one_assignment_per_recorded_step(tmp_path, monkeypatch):
    # W2 and Psi share one optimal coupling per recorded step; the floor adds
    # one solve per draw (3 draws).  In process the solves are
    # counted at the solver; on worker processes, from the manifest.
    import rfilab.transport

    solves = []
    original = rfilab.transport.linear_sum_assignment

    def counted(cost):
        solves.append(cost.shape)
        return original(cost)

    monkeypatch.setattr(rfilab.transport, "linear_sum_assignment", counted)
    monkeypatch.setattr(rfilab.cli, "usable_cpus", lambda: 2)
    for workers in (1, 2):
        cfg = write_config(
            tmp_path,
            scenario={"name": "kaczmarz", "params": {"m": 3, "n": 2, "consistent": False, "instance_seed": 0}},
            ensemble_size=30,
            iterations=4,
            workers=workers,
        )
        out = tmp_path / f"kz{workers}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        recorded = len(manifest["recorded_steps"])
        assert recorded == 5
        assert manifest["timings"]["workers_used"] == workers
        assert manifest["timings"]["assignment_solves"] == recorded + 3
        assert manifest["timings"]["sorted_solves"] == 0
        if workers == 1:
            assert len(solves) == recorded + 3
    assert len(solves) == recorded + 3  # none made in this process at 2 workers


def test_run_manifest_timings(tmp_path, monkeypatch):
    # at 2 workers the step jobs write the ensemble files, and their write
    # seconds still count to io
    monkeypatch.setattr(rfilab.cli, "usable_cpus", lambda: 2)
    for workers in (1, 2):
        cfg = write_config(tmp_path, workers=workers)
        out = tmp_path / f"t{workers}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        timings = json.loads((out / "manifest.json").read_text())["timings"]
        assert set(timings["seconds"]) == {"reference", "chain", "w2_psi", "floor", "regularity", "io"}
        assert all(seconds >= 0.0 for seconds in timings["seconds"].values())
        assert timings["seconds"]["reference"] > 0.0 and timings["seconds"]["io"] > 0.0
        # contraction lives on the line: 11 recorded steps + 3 floor draws, all sorted
        assert (timings["sorted_solves"], timings["assignment_solves"]) == (14, 0)
        assert timings["workers_used"] == workers
        assert timings["peak_rss_mib"]["main"] > 0.0


def test_run_io_seconds_count_every_step_write(tmp_path, monkeypatch):
    # each step file's write counts to io, and not to w2_psi, in whichever
    # process it runs
    import rfilab.transport

    original = rfilab.transport.Ensemble.to_csv

    def slow(ens, path):
        if Path(path).name.startswith("step_"):
            time.sleep(0.05)
        original(ens, path)

    monkeypatch.setattr(rfilab.transport.Ensemble, "to_csv", slow)
    monkeypatch.setattr(rfilab.cli, "usable_cpus", lambda: 2)
    for workers in (1, 2):
        cfg = write_config(tmp_path, diagnostics={"wasserstein": True, "psi": False}, workers=workers)
        out = tmp_path / f"io{workers}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        seconds = json.loads((out / "manifest.json").read_text())["timings"]["seconds"]
        assert seconds["io"] >= 11 * 0.05, workers
        assert seconds["w2_psi"] < 11 * 0.05, workers


def test_run_submits_the_step_writes_then_the_floor_solves_then_the_series(tmp_path, monkeypatch):
    # floor samples that take 0.3 s each are still being drawn when the
    # step files are queued.  The jobs are submitted in one order at 1 and 2
    # workers: the chain first, every step write and then the reference
    # write before the first floor solve, and every floor solve before the
    # first W2 + Psi job; the slow samples change no output byte.
    original_submit, original_sample = rfilab.cli._Pool.submit, rfilab.cli.floor_sample
    submitted = []

    def logged(pool, layer, fn, *args):
        submitted.append(fn)
        return original_submit(pool, layer, fn, *args)

    def slow(*args):
        time.sleep(0.3)
        return original_sample(*args)

    monkeypatch.setattr(rfilab.cli._Pool, "submit", logged)
    monkeypatch.setattr(rfilab.cli, "floor_sample", slow)
    monkeypatch.setattr(rfilab.cli, "usable_cpus", lambda: 2)
    outs = []
    for workers in (1, 2):
        submitted.clear()
        cfg = write_config(tmp_path, workers=workers)
        out = tmp_path / str(workers)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        outs.append((_result_files(out), json.loads((out / "manifest.json").read_text())["floor"]))
        at = {fn: [i for i, f in enumerate(submitted) if f is fn]
              for fn in (rfilab.cli._write_ensemble, rfilab.cli._floor_solve, rfilab.cli._series_point)}
        writes, solves, points = at.values()
        assert (len(writes), len(solves), len(points)) == (12, 3, 11)  # 11 step files and reference.csv
        assert submitted[0] is rfilab.cli._chain
        assert max(writes) < min(solves) and max(solves) < min(points), at
    assert outs[0] == outs[1]


def test_run_pool_is_capped_at_usable_cpus(tmp_path, monkeypatch):
    monkeypatch.setattr(rfilab.cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = write_config(tmp_path, diagnostics={"wasserstein": True, "psi": True}, workers=64)
    out = tmp_path / "w64"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["workers"] == 64
    assert 1 <= manifest["timings"]["workers_used"] <= 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "module, name, reference",
    [
        ("cli", "run_ensemble", "burn_in"),
        ("cli", "long_run_reference", "burn_in"),
        ("cli", "floor_sample", "ground_truth"),
        ("cli", "markov_transport_discrepancy", "burn_in"),
        ("transport.Ensemble", "to_csv", "burn_in"),
    ],
    ids=["chain", "reference_burn_in", "floor_sample", "w2_psi_step", "step_write"],
)
def test_run_worker_failure_exits_like_in_process(tmp_path, monkeypatch, capsys, module, name, reference):
    # each job kind in turn fails (the chain, which this process takes
    # first; a ground-truth reference and the floor samples at their draw; a
    # step job at writing its file, while the reference write's own job
    # writes reference.csv); the patch is made before the pool forks.
    # Neither a failed run nor a run that succeeds leaves a child alive or
    # its scratch directory behind
    owner = functools.reduce(getattr, module.split("."), rfilab)
    original = getattr(owner, name)

    def failing(*args, **kwargs):
        if name == "to_csv" and not Path(args[1]).name.startswith("step_"):
            return original(*args, **kwargs)
        raise RuntimeError(f"{name} failed")

    def assert_nothing_left():
        assert multiprocessing.active_children() == []
        assert list(tmp_path.glob("rfilab-*")) == []

    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    assert tempfile.gettempdir() == str(tmp_path)
    monkeypatch.setattr(owner, name, failing)
    monkeypatch.setattr(rfilab.cli, "usable_cpus", lambda: 2)
    errors = []
    for workers in (1, 2):
        cfg = write_config(tmp_path, reference={"mode": reference}, workers=workers)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / str(workers))])
        errors.append((code, capsys.readouterr().err))
        assert_nothing_left()
    assert errors[0] == errors[1] == (EXIT_RUNTIME, f"failure: RuntimeError: {name} failed\n")
    monkeypatch.setattr(owner, name, original)
    for workers in (1, 2):
        cfg = write_config(tmp_path, reference={"mode": reference}, workers=workers)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / f"ok{workers}")])
        assert code == EXIT_OK
        assert_nothing_left()


# the step leaves the nonexpansiveness window on purpose, and numpy warns as
# the chain overflows
@pytest.mark.filterwarnings("ignore")
def test_a_diverging_chain_names_its_step(tmp_path, capsys, monkeypatch):
    # sgd with step t = 100 overflows within 200 steps; recorded step 200 is
    # the first one checked, so the message names it, in this process and in
    # a worker alike.  The run exits 1 and writes no file
    monkeypatch.setattr(rfilab.cli, "usable_cpus", lambda: 2)
    for workers in (1, 2):
        cfg = write_config(tmp_path, scenario={"name": "sgd_linear_noise", "params": {"t": 100.0}},
                           ensemble_size=50, iterations=400, record_every=100, workers=workers)
        out = tmp_path / str(workers)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == ("failure: ValueError: the chain diverged at or before step 200: "
                                           "non-finite coordinates in euclidean points\n")
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("scenario, size", [
    ({"name": "kaczmarz", "params": {"m": 80, "n": 64, "instance_seed": 0}}, 1024),
    ({"name": "phase_retrieval", "params": {"n": 64, "instance_seed": 0}}, 600),
], ids=["kaczmarz_R64", "phase_retrieval_C64"])
def test_run_jobs_pickle_no_ensemble(tmp_path, monkeypatch, scenario, size):
    # each ensemble here is at least 0.5 MiB, and at 2 workers every job
    # cmd_run submits pickles in band to at most 64 KiB: the chain, the
    # reference, the floor samples and solves, the step and reference
    # writes, the regularity block and the W2 + Psi jobs name their
    # ensembles by path
    original_submit = rfilab.cli._Pool.submit
    sizes = {}

    def measured(pool, layer, fn, *args):
        sizes.setdefault(fn.__name__, []).append(len(pickle.dumps((rfilab.cli._job, layer, fn, args))))
        return original_submit(pool, layer, fn, *args)

    monkeypatch.setattr(rfilab.cli._Pool, "submit", measured)
    monkeypatch.setattr(rfilab.cli, "usable_cpus", lambda: 2)
    cfg = write_config(tmp_path, scenario=scenario, ensemble_size=size, iterations=2, workers=2)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert max(max(found) for found in sizes.values()) <= 64 * 1024, sizes
    counts = {fn: len(found) for fn, found in sizes.items()}
    assert counts == {"_chain": 1, "_burn_in": 1, "_sample": 3, "_write_ensemble": 4, "_floor_solve": 3,
                      "_regularity_block": 1, "_series_point": 3}


def test_regularity_block_holds_the_pairs_and_one_row_block(tmp_path):
    # on the mixed_phase benchmark config (phase retrieval in C^64, 2000
    # pairs) the block's traced peak is at most 1.6 times the bytes of its
    # two pair arrays: the pairs are filled in place, the reference is let
    # go before they are drawn, and the operators run on blocks of rows
    spec = ("phase_retrieval", {"n": 64, "instance_seed": 0})
    reference = rfilab.cli._burn_in(spec, 500, 100, 950, tmp_path / "reference.npy")
    pair_bytes = 2 * 2000 * 64 * 16
    tracemalloc.start()
    try:
        block = rfilab.cli._regularity_block(spec, reference, 950, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block["in_expectation"]["n_pairs"] == 2000
    assert peak <= 1.6 * pair_bytes, peak / pair_bytes


def test_run_unpicklable_job_exits_1_at_once(tmp_path):
    # a step job that names a local function cannot be pickled: at workers 2
    # the run fails where it submits that job, and the pool shuts down.  When
    # the executor's feeder thread pickled jobs, about 4 in 10 such runs
    # waited in the shutdown for ever, so six runs show that hang with
    # probability >= 0.95
    cfg = write_config(tmp_path, diagnostics={"wasserstein": True, "psi": False}, workers=2)
    src = Path(rfilab.cli.__file__).resolve().parents[1]
    for rep in range(6):
        script = f"""
import json, multiprocessing, rfilab.cli

def local_writer():
    def write(ens, path):
        ens.to_csv(path)
    return write

rfilab.cli._write_ensemble = local_writer()
rfilab.cli.usable_cpus = lambda: 2
code = rfilab.cli.main(["run", "--config", {str(cfg)!r}, "--out", {str(tmp_path / str(rep))!r}])
print(json.dumps([code, len(multiprocessing.active_children())]))
"""
        proc = subprocess.Popen([sys.executable, "-B", "-c", script], env={"PYTHONPATH": str(src)},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the run and its workers
            proc.communicate()
            pytest.fail(f"run {rep} did not finish in 60 s")
        assert proc.returncode == 0, stderr
        assert json.loads(stdout) == [EXIT_RUNTIME, 0]
        assert stderr.startswith("failure: ") and "pickle" in stderr, stderr


def test_pool_of_one_runs_each_job_as_it_is_submitted():
    # at size 1 no child starts and no job is pickled: submit runs the job,
    # so one that raises raises there
    def fail():
        raise RuntimeError("job failed")

    with rfilab.cli._Pool(1) as pool:
        assert pool.take(pool.submit("io", len, "abc")) == 3
        with pytest.raises(RuntimeError, match="job failed"):
            pool.submit("io", fail)
    assert multiprocessing.active_children() == []


def _write_reference_files(directory):
    """Reference CSVs of 200 particles, in the wrong space for the run that
    reads them: R^2 points for contraction (R^1), spider_frechet (a spider)
    and phase_retrieval with n = 1 (C^1); a 5-leg spider for the 3-leg
    spider_frechet and for kaczmarz (R^2); and C^1 points for kaczmarz."""
    from rfilab.geometry import EuclideanSpace, SpiderSpace
    from rfilab.transport import Ensemble

    # points whose x0 would pass for a leg of the 3-leg spider
    Ensemble(EuclideanSpace(2), [[float(i % 3), i + 1.0] for i in range(200)]).to_csv(directory / "r2.csv")
    Ensemble(SpiderSpace(5), [[i % 5, 1.0] for i in range(200)]).to_csv(directory / "legs5.csv")
    Ensemble(EuclideanSpace(1, complex_coords=True), [[i + 1.0j] for i in range(200)]).to_csv(directory / "c1.csv")


@pytest.mark.parametrize("command", ["run", "regularity"])
@pytest.mark.parametrize(
    "overrides, code",
    [
        ({"scenario": {"name": "contraction", "params": {"r": 2.0}}}, EXIT_CONFIG),
        ({"reference": {"mode": "file", "path": "no_such_reference.csv"}}, EXIT_CONFIG),
        ({"scenario": {"name": "dr_parallel_lines"}, "reference": {"mode": "ground_truth"}}, EXIT_CONFIG),
        ({"reference": {"mode": "file", "path": "r2.csv"}}, EXIT_CONFIG),
        ({"reference": {"mode": "file", "path": "r2.csv"}, "diagnostics": {"wasserstein": False, "psi": False}},
         EXIT_CONFIG),
        ({"scenario": {"name": "spider_frechet"}, "reference": {"mode": "file", "path": "legs5.csv"}}, EXIT_CONFIG),
        ({"scenario": {"name": "kaczmarz", "params": {"m": 0}}}, EXIT_CONFIG),
        ({"scenario": {"name": "phase_retrieval", "params": {"n_masks": 0}}}, EXIT_CONFIG),
        ({"scenario": {"name": "kaczmarz", "params": {"A": [[1.0, 0.0], [0.0, 1.0]]}}}, EXIT_CONFIG),
        ({"scenario": {"name": "kaczmarz"}, "reference": {"mode": "file", "path": "legs5.csv"}}, EXIT_CONFIG),
        ({"scenario": {"name": "kaczmarz"}, "reference": {"mode": "file", "path": "c1.csv"}}, EXIT_CONFIG),
        ({"scenario": {"name": "spider_frechet"}, "reference": {"mode": "file", "path": "r2.csv"}}, EXIT_CONFIG),
        ({"scenario": {"name": "phase_retrieval", "params": {"n": 1}}, "reference": {"mode": "file", "path": "r2.csv"}},
         EXIT_CONFIG),
    ],
    ids=["bad_param_value", "missing_reference_file", "no_ground_truth_sampler", "reference_wrong_dimension",
         "reference_wrong_dimension_no_series", "reference_spider_legs", "kaczmarz_no_rows",
         "phase_retrieval_no_masks", "kaczmarz_A_without_b", "reference_spider_header_in_r2",
         "reference_complex_header_in_r2", "reference_r2_header_on_spider", "reference_r2_header_in_c1"],
)
def test_failed_command_leaves_no_results_directory(tmp_path, monkeypatch, capsys, command, overrides, code):
    monkeypatch.chdir(tmp_path)
    _write_reference_files(tmp_path)
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    assert not out.exists()
    if overrides.get("reference", {}).get("mode") == "file":
        err = capsys.readouterr().err
        assert err.startswith("error: config.reference.path: "), err


def test_run_ground_truth_reference(tmp_path):
    cfg = write_config(
        tmp_path,
        reference={"mode": "ground_truth"},
        diagnostics={"wasserstein": True, "psi": False},
    )
    out = tmp_path / "gt"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["reference"]["mode"] == "ground_truth"


def test_reference_factor_sets_the_floor_burn_in(tmp_path):
    # in mode file the floor is measured against the file's ensemble;
    # without an invariant sampler the floor's samples are burn-ins of
    # factor * max(iterations, 1) steps in every reference mode, mode file
    # included; with one, the factor does not move the floor
    from rfilab.geometry import EuclideanSpace
    from rfilab.transport import Ensemble

    Ensemble(EuclideanSpace(2), [[0.0, float(i)] for i in range(200)]).to_csv(tmp_path / "ref.csv")
    file_reference = Ensemble.from_csv(tmp_path / "ref.csv")
    kaczmarz = {"name": "kaczmarz", "params": {"m": 3, "n": 2, "instance_seed": 0}}
    diagnostics = {"wasserstein": True, "psi": False, "rates": True}
    cfg = write_config(tmp_path, scenario=kaczmarz, diagnostics=diagnostics,
                       reference={"mode": "file", "path": str(tmp_path / "ref.csv"), "factor": 3})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    scenario = rfilab.scenarios.build_scenario("kaczmarz", kaczmarz["params"])
    draws = [rfilab.scenarios.floor_draw(scenario, 200, 3 * 10, file_reference, seed)
             for seed in rfilab.scenarios.floor_seeds(7)]
    assert manifest["floor"]["draws"] == draws
    assert manifest["floor"]["steps"] == 3 * 10
    assert report["floor"] == statistics.median(draws)
    assert report["floor"] != rfilab.scenarios.monte_carlo_floor(scenario, 200, 3 * 10, 7)

    floors = []
    for factor in (3, 10):
        cfg = write_config(tmp_path, reference={"mode": "ground_truth", "factor": factor}, diagnostics=diagnostics)
        out = tmp_path / f"contraction{factor}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        floors.append(json.loads((out / "report.json").read_text())["floor"])
    assert floors[0] == floors[1] > 0


@pytest.mark.parametrize("scenario, source, reference", [
    ({"name": "contraction", "params": {"r": 0.5, "offset": 5.0}}, "invariant_sampler", "burn_in"),
    ({"name": "spider_frechet"}, "burn_in", "burn_in"),
    ({"name": "contraction", "params": {"r": 0.5, "offset": 5.0}}, "invariant_sampler", "ground_truth"),
], ids=["contraction", "spider_frechet", "contraction_ground_truth"])
def test_manifest_records_where_the_floor_came_from(tmp_path, monkeypatch, scenario, source, reference):
    # the manifest's floor block names the source, one seed per draw and
    # every draw, whose median is the report's floor; burn-in steps only
    # where the floor burns in.  Each draw is the W2 from the run's own
    # reference, in reference.csv, to that seed's sample.  Apart from the
    # worker count, timings, config path and wall time, the manifests at 1
    # and 2 workers are the same.
    from rfilab.transport import Ensemble

    monkeypatch.setattr(rfilab.cli, "usable_cpus", lambda: 2)
    built = rfilab.scenarios.build_scenario(scenario["name"], scenario.get("params", {}))
    manifests = []
    for workers in (1, 2):
        cfg = write_config(tmp_path, scenario=scenario, reference={"mode": reference},
                           diagnostics={"wasserstein": True, "psi": False, "rates": True}, workers=workers)
        out = tmp_path / str(workers)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        floor = manifest["floor"]
        assert manifest["reference"]["mode"] == reference
        assert floor["source"] == source
        assert floor["seeds"] == rfilab.scenarios.floor_seeds(7)
        assert len(floor["draws"]) == 3
        assert statistics.median(floor["draws"]) == json.loads((out / "report.json").read_text())["floor"]
        assert floor.get("steps") == (10 * 10 if source == "burn_in" else None)
        run_reference = Ensemble.from_csv(out / "reference.csv", built.space)
        assert floor["draws"] == [rfilab.scenarios.floor_draw(built, 200, 10 * 10, run_reference, seed)
                                  for seed in floor["seeds"]]
        assert manifest["config"].pop("workers") == workers
        manifests.append({k: v for k, v in manifest.items() if k not in ("timings", "config_path", "wall_time_s")})
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("scenario", [
    {"name": "contraction", "params": {"r": 0.5, "offset": 5.0}},
    {"name": "kaczmarz", "params": {"m": 3, "n": 2, "consistent": False, "instance_seed": 0}},
], ids=["contraction", "kaczmarz"])
def test_manifest_config_alone_reproduces_the_run(tmp_path, scenario):
    # the config that the manifest echoes states the whole experiment: run
    # from it alone into another directory, every output is the same.
    # contraction takes the sorted W2 path, kaczmarz the assignment path
    cfg = write_config(tmp_path, scenario=scenario, ensemble_size=100, iterations=4)
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", "--config", str(cfg), "--out", str(first)]) == EXIT_OK
    echoed = tmp_path / "echoed.json"
    echoed.write_text(json.dumps(json.loads((first / "manifest.json").read_text())["config"]))
    assert main(["run", "--config", str(echoed), "--out", str(second)]) == EXIT_OK
    files = sorted(path.relative_to(first) for path in first.rglob("*") if path.is_file())
    assert files == sorted(path.relative_to(second) for path in second.rglob("*") if path.is_file())
    for name in files:
        if name.name == "manifest.json":
            a, b = ({k: v for k, v in json.loads((out / name).read_text()).items()
                     if k not in ("timings", "wall_time_s", "config_path")} for out in (first, second))
            assert a == b
        else:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_run_file_reference(tmp_path):
    from rfilab.geometry import EuclideanSpace
    from rfilab.transport import Ensemble

    ref = Ensemble(EuclideanSpace(1), [[-1.0]] * 100 + [[1.0]] * 100)
    ref.to_csv(tmp_path / "ref.csv")
    cfg = write_config(
        tmp_path,
        scenario={"name": "two_point"},
        ensemble_size=200,
        reference={"mode": "file", "path": str(tmp_path / "ref.csv")},
        diagnostics={"wasserstein": True},
    )
    out = tmp_path / "fileref"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["reference"]["mode"] == "file"
    # size mismatch is a config error, not a runtime crash
    bad = write_config(
        tmp_path,
        scenario={"name": "two_point"},
        ensemble_size=37,
        reference={"mode": "file", "path": str(tmp_path / "ref.csv")},
    )
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "bad")]) == EXIT_CONFIG


def test_run_seed_changes_results(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for seed, out in ((7, out1), (99, out2)):
        cfg = write_config(tmp_path, diagnostics={}, seed=seed)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    a = (out1 / "ensembles" / "step_000010.csv").read_bytes()
    b = (out2 / "ensembles" / "step_000010.csv").read_bytes()
    assert a != b


# ---------------------------------------------------------------------------
# regularity / rate / wasserstein subcommands
# ---------------------------------------------------------------------------

def test_cmd_regularity(tmp_path, capsys):
    cfg = write_config(tmp_path, scenario={"name": "two_point"}, iterations=2)
    out = tmp_path / "reg"
    assert main(["regularity", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    validate_report(report)
    assert report["regularity"]["alpha"] == 0.5
    assert report["regularity"]["in_expectation"]["epsilon_hat"] <= 1e-8
    assert len(report["regularity"]["per_operator"]) == 2
    assert "epsilon_hat" in capsys.readouterr().out


def test_cmd_regularity_writes_the_block_of_run(tmp_path, monkeypatch):
    # both commands take the block from one job function: run on a worker,
    # regularity in this process, from the same reference and seed
    monkeypatch.setattr(rfilab.cli, "usable_cpus", lambda: 2)
    cfg = write_config(tmp_path, scenario={"name": "kaczmarz", "params": {"m": 4, "n": 2}}, ensemble_size=50,
                       iterations=3, diagnostics={"regularity": True}, seed=5, workers=2)
    run, reg = tmp_path / "run", tmp_path / "reg"
    assert main(["run", "--config", str(cfg), "--out", str(run)]) == EXIT_OK
    assert main(["regularity", "--config", str(cfg), "--out", str(reg)]) == EXIT_OK
    blocks = [json.loads((out / "report.json").read_text())["regularity"] for out in (run, reg)]
    assert len(blocks[0]["per_operator"]) == 4
    assert blocks[0] == blocks[1]


def test_cmd_rate_appends_fits(tmp_path, capsys):
    cfg = write_config(tmp_path, iterations=12)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert main(["rate", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "q_rate" in printed or "floor" in printed
    report = json.loads((out / "report.json").read_text())
    validate_report(report)
    assert report["rates"] is not None
    assert (out / "rates_series.csv").read_text().splitlines()[0] == "k,W2_to_pi,psi_hat,ratio"


def test_cmd_rate_on_one_step_is_not_converged(tmp_path, capsys):
    # K = 0 records one W2, far above the floor: too short to fit, and no
    # evidence of convergence
    cfg = write_config(tmp_path, scenario={"name": "contraction", "params": {"r": 0.5}}, iterations=0,
                       diagnostics={"regularity": False, "rates": True})
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    for command in (None, ["rate", str(out)]):
        if command is not None:
            assert main(command) == EXIT_OK
            assert capsys.readouterr().out == "series too short or degenerate; no rate fitted\n"
        report = json.loads((out / "report.json").read_text())
        (_, w2), = report["rates"]["series"]
        assert w2 > 3 * report["floor"] > 0
        assert report["rates"]["converged_within_floor"] is False
        assert report["rates"]["q_linear"] is None


def test_cmd_rate_missing_series(tmp_path):
    assert main(["rate", str(tmp_path)]) == EXIT_CONFIG


def _report_with(**values) -> str:
    """A report.json of every key, with ``values`` over the scenario's
    alpha and bound and a null floor."""
    report = {**dict.fromkeys(rfilab.cli.REPORT_KEYS), "schema": rfilab.cli.REPORT_SCHEMA_ID, "scenario": "kaczmarz",
              "alpha": 0.5, "bound": 0.0}
    return json.dumps({**report, **values})


@pytest.mark.parametrize(
    "name, content, fragment",
    [
        ("series.csv", "k,W2_to_reference,psi_hat\n0,1.0,\n1,0.5\n", "series.csv:3: "),
        ("series.csv", "k,W2_to_reference,psi_hat\n0,abc,\n", "series.csv:2: "),
        ("report.json", "{not json", "report.json:1:2: invalid JSON"),
        ("report.json", "[]", "report.json: report schema must be rfilab.report.v1"),
        ("series.csv", b"k,W2_to_reference,psi_hat\n0,1.0,\n1,0.\xff5,\n", "series.csv:3: "),
        ("series.csv", b"k,W2_to_\xffreference,psi_hat\n0,1.0,\n", "series.csv: unexpected header"),
        ("report.json", b'{"schema": "\xff"}', "report.json: cannot read report ("),
        ("report.json", _report_with(floor="x"), "report.json: floor: expected a number or null, got 'x'"),
        ("report.json", _report_with(bound=[1]), "report.json: bound: expected a number or null, got [1]"),
        ("report.json", _report_with(regularity={"oops": 1}),
         "report.json: regularity: expected null or an object with a number at in_expectation.epsilon_hat"),
        ("report.json", _report_with(alpha="x"), "report.json: alpha: expected a number or null, got 'x'"),
        ("report.json", _report_with(subregularity={"oops": 1}),
         "report.json: subregularity: expected null or an object with a number at r_hat"),
    ],
    ids=["series_short_row", "series_non_numeric", "report_invalid_json", "report_not_a_report",
         "series_non_utf8_row", "series_non_utf8_header", "report_non_utf8", "report_floor_string",
         "report_bound_list", "report_regularity_without_epsilon", "report_alpha_string",
         "report_subregularity_without_r_hat"],
)
def test_cmd_rate_malformed_input_exits_2(tmp_path, capsys, name, content, fragment):
    (tmp_path / "series.csv").write_text("k,W2_to_reference,psi_hat\n0,1.0,\n1,0.5,\n")
    (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    assert main(["rate", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err, err


def test_cmd_wasserstein(tmp_path, capsys):
    from rfilab.geometry import EuclideanSpace
    from rfilab.transport import Ensemble

    a = Ensemble(EuclideanSpace(1), [[0.0], [1.0]])
    b = Ensemble(EuclideanSpace(1), [[2.0], [3.0]])
    a.to_csv(tmp_path / "a.csv")
    b.to_csv(tmp_path / "b.csv")
    assert main(["wasserstein", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == EXIT_OK
    assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0, abs=1e-12)


def test_cmd_wasserstein_reads_spiders_on_the_larger_leg_count(tmp_path, capsys):
    # each file's leg count comes from its own particles (2 and 3 legs here);
    # a leg with no particle changes no spider distance
    import numpy as np
    from conftest import brute_force_wasserstein
    from rfilab.geometry import SpiderSpace

    (tmp_path / "a.csv").write_text("leg,radius\n0,1.0\n1,2.0\n")
    (tmp_path / "b.csv").write_text("leg,radius\n0,1.0\n2,2.0\n")
    expected = brute_force_wasserstein(SpiderSpace(3), np.array([[0, 1.0], [1, 2.0]]), np.array([[0, 1.0], [2, 2.0]]))
    assert expected == pytest.approx(8.0**0.5, rel=1e-15)  # 0 on leg 0, then 2 + 2 across legs 1 and 2
    for first, second in (("a", "b"), ("b", "a")):
        assert main(["wasserstein", str(tmp_path / f"{first}.csv"), str(tmp_path / f"{second}.csv")]) == EXIT_OK
        assert float(capsys.readouterr().out) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["--p", "0.5"], "--p: must be a finite number >= 1"),
        (["--p", "nan"], "--p: must be a finite number >= 1"),
        (["--p", "inf"], "--p: must be a finite number >= 1"),
        (["missing.csv"], "missing.csv"),
        (["x0\n0.0\n1.0\n2.0\n"], "ensemble_b: 3 particles in R^1 against ensemble_a's 2 particles in R^1 ("),
        (["x0,x1\n0.0,0.0\n1.0,1.0\n"], "ensemble_b: 2 particles in R^2 against ensemble_a's 2 particles in R^1 ("),
        (["leg,radius\n0,1.0\n1,2.0\n"],
         "ensemble_b: 2 particles on a 2-leg spider against ensemble_a's 2 particles in R^1 ("),
        (["x0_re,x0_im\n0.0,0.0\n1.0,1.0\n"], "ensemble_b: 2 particles in C^1 against ensemble_a's 2 particles in R^1 ("),
        (["x0\n1.0\nabc\n"], "b.csv (line 3, column 1: could not convert string 'abc' to float64)\n"),
        (["x0\n1.0\n2.0,3.0\n"], "b.csv (line 3: the number of columns changed from 1 to 2)\n"),
        (["x0,x1\n1.0,2.0\n3.0,4.0\n5.0,x\n"], "b.csv (line 4, column 2: could not convert string 'x' to float64)\n"),
        (["x0_re,foo\n0.0,0.0\n1.0,1.0\n"], "b.csv (expected the header x0_re,x0_im, got x0_re,foo)\n"),
        (["a,b\n0.0,1.0\n1.0,0.0\n"], "b.csv (expected the header x0,x1, got a,b)\n"),
        (["x0_re,x0_im,x1\n0.0,1.0,2.0\n1.0,0.0,3.0\n"], "b.csv (expected the header x0_re,x0_im, got x0_re,x0_im,x1)\n"),
    ],
    ids=["p_below_1", "p_nan", "p_inf", "missing_file", "sizes_differ", "r1_against_r2", "r1_against_spider",
         "r1_against_c1", "bad_value_line", "ragged_row_line", "bad_value_line_column", "complex_header_foo",
         "unnamed_header", "complex_header_then_real_column"],
)
def test_cmd_wasserstein_invalid_input_exits_2(tmp_path, capsys, argv, fragment):
    # a positional argument is ensemble_b: a file name, or the text written to b.csv
    from rfilab.geometry import EuclideanSpace
    from rfilab.transport import Ensemble

    Ensemble(EuclideanSpace(1), [[0.0], [1.0]]).to_csv(tmp_path / "a.csv")
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "a.csv")]
    if not argv[0].startswith("--"):
        b = argv.pop()
        if "\n" in b:
            (tmp_path / "b.csv").write_text(b)
            b = "b.csv"
        paths[1] = str(tmp_path / b)
    assert main(["wasserstein", *paths, *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err, err


MALFORMED_CSV = {
    "non_numeric": "x0\n1.0\nabc\n",
    "header_only": "x0\n",
    "empty": "",
    "ragged": "x0\n1.0\n2.0,3.0\n",
    "non_numeric_on_line_4": "x0\n1.0\n2.0\nabc\n",
    "ragged_on_line_4": "x0,x1\n1.0,2.0\n3.0,4.0\n5.0\n",
    "blank_line": "x0\n1.0\n\n2.0\n",
    "comment": "x0\n1.0#c\n",
    "trailing_comma": "x0\n1.0,\n",
    "fewer_columns_than_header": "x0,x1\n1.0\n2.0\n",
    "quoted_field": 'x0\n"1.0"\n',
    "digit_separator": "x0\n1_0\n",
}
# the line of the file that each fault in a row is reported on
MALFORMED_ROW_LINE = {"non_numeric": 3, "ragged": 3, "non_numeric_on_line_4": 4, "ragged_on_line_4": 4}


@pytest.mark.parametrize("command", ["wasserstein", "run"])
@pytest.mark.parametrize("name", list(MALFORMED_CSV))
def test_malformed_ensemble_csv_exits_2_naming_the_file(tmp_path, capsys, command, name):
    from rfilab.geometry import EuclideanSpace
    from rfilab.transport import Ensemble

    bad = tmp_path / "bad.csv"
    bad.write_text(MALFORMED_CSV[name])
    if command == "wasserstein":
        Ensemble(EuclideanSpace(1), [[0.0], [1.0]]).to_csv(tmp_path / "a.csv")
        argv, key = ["wasserstein", str(tmp_path / "a.csv"), str(bad)], "ensemble_b"
    else:
        cfg = write_config(tmp_path, reference={"mode": "file", "path": str(bad)})
        argv, key = ["run", "--config", str(cfg), "--out", str(tmp_path / "o")], "config.reference.path"
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: cannot read {bad} (")
    # a fault in a row names its line in the file, and no numpy option
    assert "usecols" not in err and " at row " not in err
    if name in MALFORMED_ROW_LINE:
        assert f"(line {MALFORMED_ROW_LINE[name]}" in err, err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# predicted rate
# ---------------------------------------------------------------------------

def _regularity(epsilon_hat):
    return {"in_expectation": {"epsilon_hat": epsilon_hat}}


@pytest.mark.parametrize(
    "report, epsilon",
    [
        ({"alpha": None, "subregularity": {"r_hat": 1.2}, "regularity": None, "bound": 0.0}, None),
        ({"alpha": 0.5, "subregularity": None, "regularity": None, "bound": 0.0}, None),
        ({"alpha": 0.5, "subregularity": {"r_hat": 1.2}, "regularity": _regularity(0.1), "bound": 0.3}, 0.1),
        ({"alpha": 0.5, "subregularity": {"r_hat": 1.2}, "regularity": None, "bound": 0.3}, 0.3),
        ({"alpha": 0.5, "subregularity": {"r_hat": 0.5}, "regularity": None, "bound": 0.0}, None),
        ({"alpha": 0.5, "subregularity": {"r_hat": 1.2}, "regularity": None, "bound": None}, None),
        ({"alpha": 0.5, "subregularity": {"r_hat": 1.2}, "regularity": None, "bound": 0.0}, 0.0),
    ],
    ids=["no_alpha", "no_subregularity", "regularity_wins", "bound_fallback", "r_hat_outside_window", "admissible",
         "bound_zero"],
)
def test_predicted_rate(report, epsilon):
    from rfilab.analysis import rate_bound_from_theorem
    from rfilab.cli import _predicted_rate

    want = None if epsilon is None else rate_bound_from_theorem(0.5, epsilon, 1.2)
    assert _predicted_rate(report) == want


# ---------------------------------------------------------------------------
# what a command loads
# ---------------------------------------------------------------------------

# the packages a command should load only where it needs them
_WATCHED = ("scipy", "scipy.optimize", "scipy.linalg", "multiprocessing", "concurrent.futures")
_LOADED = f"import sys; print('=>', json.dumps([m for m in {_WATCHED!r} if m in sys.modules]))"


def _fresh_python(script: str) -> list:
    """Run ``script`` in a new interpreter that imports rfilab from this
    checkout; the JSON value of each stdout line that opens with ``=>``."""
    src = Path(rfilab.cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-B", "-c", script], env={"PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [json.loads(line[2:]) for line in done.stdout.splitlines() if line.startswith("=>")]


def test_scipy_solver_loads_only_for_assignment(tmp_path):
    # importing the CLI, a contraction run on one worker (sorted W2), a rate
    # fit and a regularity estimate load neither the scipy package nor the
    # pool machinery; the solver's name is there to patch before any solve
    cfg = write_config(tmp_path, workers=1)
    out = tmp_path / "o"
    script = f"""
import json, rfilab.cli, rfilab.transport
{_LOADED}
print("=>", json.dumps(callable(rfilab.transport.linear_sum_assignment)))
assert rfilab.cli.main(["run", "--config", {str(cfg)!r}, "--out", {str(out)!r}]) == 0
{_LOADED}
assert rfilab.cli.main(["rate", {str(out)!r}]) == 0
{_LOADED}
assert rfilab.cli.main(["regularity", "--config", {str(cfg)!r}, "--out", {str(tmp_path / "r")!r}]) == 0
{_LOADED}
"""
    lines = _fresh_python(script)
    assert lines == [[], True, [], [], []]


def test_only_a_pooled_run_loads_the_pool_machinery(tmp_path):
    # on two workers the run forks a pool, and only then are multiprocessing
    # and concurrent.futures imported; still no scipy
    cfg = write_config(tmp_path, workers=2)
    out = tmp_path / "o"
    script = f"""
import json, rfilab.cli
rfilab.cli.usable_cpus = lambda: 2
assert rfilab.cli.main(["run", "--config", {str(cfg)!r}, "--out", {str(out)!r}]) == 0
{_LOADED}
"""
    assert _fresh_python(script) == [["multiprocessing", "concurrent.futures"]]
    assert json.loads((out / "manifest.json").read_text())["timings"]["workers_used"] == 2


def test_run_with_rates_loads_no_numpy_ma(tmp_path):
    # the floor is the median of 3 floats: np.median's first call imports
    # numpy.ma for its NaN check (9 ms and 2 MiB of peak RSS in a fresh
    # interpreter, 2 vCPUs), and statistics.median returns the same float.
    # At workers 1 the floor draws, the regularity block and the rate fits
    # all run in this process
    cfg = write_config(tmp_path, workers=1)
    out = tmp_path / "o"
    script = f"""
import json, sys, rfilab.cli
assert rfilab.cli.main(["run", "--config", {str(cfg)!r}, "--out", {str(out)!r}]) == 0
print("=>", json.dumps("numpy.ma" in sys.modules))
"""
    assert _fresh_python(script) == [False]
    assert json.loads((out / "report.json").read_text())["floor"] > 0.0


def test_assignment_run_imports_no_scipy_optimize(tmp_path):
    # kaczmarz in R^2 solves assignments; the solver is the compiled _lsap
    # module and the version is scipy/version.py, each loaded from its file
    # without scipy/__init__.py or scipy/optimize/__init__.py; the version
    # is the one a later `import scipy` gives
    cfg = write_config(tmp_path, workers=1, scenario={"name": "kaczmarz", "params": {"m": 3, "n": 2}},
                       ensemble_size=30, iterations=4)
    out = tmp_path / "o"
    script = f"""
import json, rfilab.cli
assert rfilab.cli.main(["run", "--config", {str(cfg)!r}, "--out", {str(out)!r}]) == 0
{_LOADED}
import scipy
print("=>", json.dumps(scipy.__version__))
"""
    loaded, version = _fresh_python(script)
    assert loaded == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["timings"]["assignment_solves"] > 0
    assert manifest["versions"]["scipy"] == version


def test_wasserstein_imports_no_scipy_optimize_and_a_later_import_agrees(tmp_path):
    # `rfilab wasserstein` on two R^2 files loads neither scipy nor the pool
    # machinery; importing scipy.optimize afterwards still works and solves
    # to the same permutation
    import numpy as np

    from rfilab.geometry import EuclideanSpace
    from rfilab.transport import Ensemble

    rng = np.random.default_rng(5)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    Ensemble(EuclideanSpace(2), rng.normal(size=(40, 2))).to_csv(a)
    Ensemble(EuclideanSpace(2), rng.normal(size=(40, 2))).to_csv(b)
    script = f"""
import json, numpy as np, rfilab.cli, rfilab.transport
assert rfilab.cli.main(["wasserstein", {str(a)!r}, {str(b)!r}]) == 0
{_LOADED}
import scipy.optimize
print("=>", json.dumps([m in sys.modules for m in ("scipy", "scipy.optimize", "scipy.linalg")]))
cost = np.random.default_rng(6).random((50, 50))
ours, public = rfilab.transport.linear_sum_assignment(cost), scipy.optimize.linear_sum_assignment(cost)
print("=>", json.dumps([np.array_equal(x, y) for x, y in zip(ours, public)]))
"""
    assert _fresh_python(script) == [[], [True, True, True], [True, True]]


def test_worker_blas_runs_one_thread():
    # the pool initializer sets the thread count of numpy's bundled OpenBLAS
    script = """
import ctypes, json, numpy as np
from pathlib import Path
from rfilab.cli import _one_blas_thread
libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*.so*"))
if libs:
    _one_blas_thread()
    get_threads = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    print("=>", json.dumps(get_threads()))
"""
    lines = _fresh_python(script)
    if not lines:
        pytest.skip("this numpy bundles no OpenBLAS")
    assert lines == [1]
