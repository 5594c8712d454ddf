import json
import multiprocessing

import pytest

import rfilab.cli
from rfilab.cli import (
    EXIT_CONFIG,
    EXIT_OK,
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
    ],
)
def test_validate_config_rejects(patch, fragment):
    base = {"scenario": {"name": "two_point"}, "ensemble_size": 10, "iterations": 1, "seed": 0}
    base.update(patch)
    with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
        validate_config(base)


def test_load_config_json_error_is_line_anchored(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "scenario": {,}\n}')
    with pytest.raises(ConfigError, match=r"bad\.json:2:"):
        load_config(path)


def test_invalid_config_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "overrides, argv, fragment",
    [
        ({"seed": -1}, [], "config.seed"),
        ({"reference": {"factor": True}}, [], "config.reference.factor"),
        ({"reference": {"foo": 3}}, [], "config.reference.foo"),
        ({}, ["--seed", "-1"], "config.seed"),
        ({}, ["--workers", "0"], "config.workers"),
        ({}, ["--record-every", "0"], "config.record_every"),
        ({"reference": {"mode": "ground_truth", "path": "ref.csv"}}, [], "config.reference.path"),
        ({"scenario": {"name": "contraction", "params": {"R": 0.9}}}, [], "config.scenario.params.R"),
    ],
)
def test_run_invalid_value_exits_2_naming_the_key(tmp_path, capsys, overrides, argv, fragment):
    cfg = write_config(tmp_path, diagnostics={}, **overrides)
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out), *argv]) == EXIT_CONFIG
    assert fragment in capsys.readouterr().err
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
    # every result file, the floor in report.json included, is the same
    # whether the jobs run in this process or on 2 or 4 worker processes;
    # contraction takes the sorted W2 path, kaczmarz the assignment path
    monkeypatch.setattr(rfilab.cli, "usable_cpus", lambda: 4)
    for scenario in ({"name": "contraction", "params": {"r": 0.5, "offset": 5.0}},
                     {"name": "kaczmarz", "params": {"m": 3, "n": 2, "instance_seed": 0}}):
        cfg = write_config(tmp_path, scenario=scenario)
        outs = {}
        for name, workers in (("a", None), ("b", None), ("c", 2), ("d", 4)):
            out = tmp_path / f"{scenario['name']}-{name}"
            argv = ["run", "--config", str(cfg), "--out", str(out)]
            if workers:
                argv += ["--workers", str(workers)]
            assert main(argv) == EXIT_OK
            used = json.loads((out / "manifest.json").read_text())["timings"]["workers_used"]
            assert used == (workers or 1)
            outs[name] = _result_files(out)
        assert len(outs["a"]) == 14  # series, reference, report, 11 ensembles
        assert json.loads(outs["a"]["report.json"])["floor"] > 0
        for name in "bcd":
            assert outs[name] == outs["a"], (scenario["name"], name)


def test_run_solves_one_assignment_per_recorded_step(tmp_path, monkeypatch):
    # W2 and Psi share one optimal coupling per recorded step; the floor adds
    # one solve per pair of burn-ins (3 pairs).  In process the solves are
    # counted at the solver; on worker processes, from the manifest.
    import rfilab.transport

    solves = []
    original = rfilab.transport.linear_sum_assignment

    def counted(cost):
        solves.append(cost.shape)
        return original(cost)

    monkeypatch.setattr(rfilab.transport, "linear_sum_assignment", counted)
    monkeypatch.setattr(rfilab.cli, "usable_cpus", lambda: 2)
    cfg = write_config(
        tmp_path,
        scenario={"name": "kaczmarz", "params": {"m": 3, "n": 2, "consistent": False, "instance_seed": 0}},
        ensemble_size=30,
        iterations=4,
    )
    for workers in (1, 2):
        out = tmp_path / f"kz{workers}"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--workers", str(workers)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        recorded = len(manifest["recorded_steps"])
        assert recorded == 5
        assert manifest["timings"]["workers_used"] == workers
        assert manifest["timings"]["assignment_solves"] == recorded + 3
        assert manifest["timings"]["sorted_solves"] == 0
        if workers == 1:
            assert len(solves) == recorded + 3
    assert len(solves) == recorded + 3  # none made in this process at 2 workers


def test_run_manifest_timings(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "t"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    timings = json.loads((out / "manifest.json").read_text())["timings"]
    assert set(timings["seconds"]) == {"reference", "chain", "w2_psi", "floor", "regularity", "io"}
    assert all(seconds >= 0.0 for seconds in timings["seconds"].values())
    assert timings["seconds"]["reference"] > 0.0 and timings["seconds"]["io"] > 0.0
    # contraction lives on the line: 11 recorded steps + 3 floor pairs, all sorted
    assert (timings["sorted_solves"], timings["assignment_solves"]) == (14, 0)
    assert timings["workers_used"] == 1
    assert timings["peak_rss_mib"]["main"] > 0.0


def test_run_pool_is_capped_at_usable_cpus(tmp_path, monkeypatch):
    monkeypatch.setattr(rfilab.cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = write_config(tmp_path, diagnostics={"wasserstein": True, "psi": True})
    out = tmp_path / "w64"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--workers", "64"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["workers"] == 64
    assert 1 <= manifest["timings"]["workers_used"] <= 2
    assert multiprocessing.active_children() == []


def test_run_worker_failure_exits_like_in_process(tmp_path, monkeypatch, capsys):
    def failing_burn_in(scenario, n, steps, seed):
        raise RuntimeError(f"burn-in of {n} particles failed")

    monkeypatch.setattr(rfilab.cli, "long_run_reference", failing_burn_in)
    monkeypatch.setattr(rfilab.cli, "usable_cpus", lambda: 2)
    cfg = write_config(tmp_path)
    errors = []
    for workers in ("1", "2"):
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / workers), "--workers", workers])
        errors.append((code, capsys.readouterr().err))
        assert multiprocessing.active_children() == []
    assert errors[0] == errors[1] == (1, "failure: RuntimeError: burn-in of 200 particles failed\n")


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


def test_run_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path, diagnostics={})
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "99"]) == EXIT_OK
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


def test_cmd_rate_missing_series(tmp_path):
    assert main(["rate", str(tmp_path)]) == EXIT_CONFIG


def test_cmd_wasserstein(tmp_path, capsys):
    from rfilab.geometry import EuclideanSpace
    from rfilab.transport import Ensemble

    a = Ensemble(EuclideanSpace(1), [[0.0], [1.0]])
    b = Ensemble(EuclideanSpace(1), [[2.0], [3.0]])
    a.to_csv(tmp_path / "a.csv")
    b.to_csv(tmp_path / "b.csv")
    assert main(["wasserstein", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == EXIT_OK
    assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0, abs=1e-12)
