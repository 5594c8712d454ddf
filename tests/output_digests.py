"""Digests of every output of the standard command matrix, for checking that a
change to the code keeps each output byte.

The matrix: the 7 scenarios at their default parameters, with ``kaczmarz``
both consistent and inconsistent (8 configs), at seed 7, N = 200, every
diagnostic on, K in {0, 1, 6} iterations and 1 and 2 workers.  Each cell
runs ``rfilab run``, then ``rfilab rate`` on its results, then
``rfilab wasserstein`` between its reference and last-step ensembles, each
command in a fresh interpreter on the given source tree.  One more cell per
config, ``<config>/K6/w1-reference_file``, runs the K = 6 config at 1 worker
with ``reference.mode: file``, reading the ``reference.csv`` that the
``<config>/K6/w1`` cell wrote; its path, which the manifest records, is
relative to the working directory of every command.  A config whose
scenario has an invariant sampler has one more cell,
``<config>/K6/w1-reference_ground_truth``: the same run with
``reference.mode: ground_truth``.  One config more runs at N = 1000, the
size from which an assignment solve is warm-started: inconsistent
``kaczmarz`` at K = 6 and 1 and 2 workers, its cells named
``kaczmarz-consistent=False-N1000/K6/w<workers>``.

One line is printed per command and per output file, ``<sha256>  <name>``:
the files ``run`` writes, then the two that ``rate`` writes.  A command's
digest covers its stdout and its exit code.  A manifest is hashed without
``timings``, ``config_path`` and ``wall_time_s``, which differ from run to
run.  The last line is the digest of all lines above it.  The ``w1`` and
``w2`` cells of a config must agree in every output, the manifest compared
without ``config.workers``: where they do not, the script names those
cells on stderr and exits 1.  Compare two trees by diffing the output of

    python tests/output_digests.py --src <tree>/src

on each; with ``--keep DIR`` every output stays in DIR, so that the values
behind a changed digest can be compared.  The file is not a test module:
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, params, whether the scenario has an invariant sampler)
SCENARIOS = [
    ("two_point", {}, True),
    ("contraction", {}, True),
    ("kaczmarz", {"consistent": True}, True),
    ("kaczmarz", {"consistent": False}, False),
    ("sgd_linear_noise", {}, True),
    ("phase_retrieval", {}, False),
    ("spider_frechet", {}, False),
    ("dr_parallel_lines", {}, False),
]
ITERATIONS = (0, 1, 6)
ENSEMBLE_SIZE = 200
# (name, params, N, K) of the one config at the warm-started size
LARGE = ("kaczmarz", {"consistent": False}, 1000, 6)
WORKERS = (1, 2)
RUN_TO_RUN = ("timings", "config_path", "wall_time_s")  # manifest keys left out of its digest
RATE_WRITES = ("report.json", "rates_series.csv")  # the files `rate` writes, over `run`'s report


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _command(src: Path, work: Path, args: list) -> str:
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "rfilab.cli", *args], capture_output=True, env=env, cwd=work)
    return _sha(proc.stdout + b"\nexit %d\n" % proc.returncode)


def _file_digest(path: Path, any_workers: bool = False) -> str:
    """The digest of the file at ``path``; a manifest's leaves out the keys
    of ``RUN_TO_RUN`` and, with ``any_workers``, ``config.workers``."""
    if not path.exists():
        return "missing"
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text(encoding="utf-8"))
        for key in RUN_TO_RUN:
            manifest.pop(key, None)
        if any_workers:
            manifest["config"].pop("workers", None)
        return _sha(json.dumps(manifest, sort_keys=True).encode())
    return _sha(path.read_bytes())


def _cell(src: Path, work: Path, config: dict, cell: str, workers: int):
    """Yield ``(digest, name)`` for `run`, its files, `rate` and `wasserstein`
    of ``config`` at ``workers``, with results in ``work / cell``."""
    config_path = work / f"{cell.replace('/', '-')}.json"
    config_path.write_text(json.dumps({**config, "workers": workers}))
    out = work / cell
    yield _command(src, work, ["run", "--config", str(config_path), "--out", str(out)]), f"{cell}/run"
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        yield _file_digest(path), f"{cell}/{path.relative_to(out).as_posix()}"
    yield _command(src, work, ["rate", str(out)]), f"{cell}/rate"
    for written in RATE_WRITES:
        yield _file_digest(out / written), f"{cell}/rate/{written}"
    last = out / "ensembles" / f"step_{config['iterations']:06d}.csv"
    yield _command(src, work, ["wasserstein", str(out / "reference.csv"), str(last)]), f"{cell}/wasserstein"


def _config(name: str, params: dict, size: int, iterations: int) -> dict:
    return {
        "scenario": {"name": name, "params": params},
        "ensemble_size": size,
        "iterations": iterations,
        "seed": 7,
        "diagnostics": {"wasserstein": True, "psi": True, "regularity": True, "rates": True},
    }


def _worker_cells(src: Path, work: Path, config: dict, cells: str, differing: list):
    """Yield ``(digest, name)`` for ``config`` at each worker count, with
    results in ``work / cells / w<workers>``, and append ``cells`` to
    ``differing`` where an output depends on the worker count."""
    outputs = {}  # output -> its digest at each worker count
    for workers in WORKERS:
        cell = f"{cells}/w{workers}"
        for digest, output in _cell(src, work, config, cell, workers):
            yield digest, output
            output = output.removeprefix(cell)
            if output == "/manifest.json":
                digest = _file_digest(work / cell / "manifest.json", any_workers=True)
            outputs.setdefault(output, []).append(digest)
    if any(seen != [seen[0]] * len(WORKERS) for seen in outputs.values()):
        differing.append(f"{cells}/w{{{','.join(map(str, WORKERS))}}}")


def digests(src: Path, work: Path, differing: list):
    """Yield ``(digest, name)`` for every command and output of the matrix,
    and append to ``differing`` each config whose outputs depend on the
    worker count."""
    for name, params, sampler in SCENARIOS:
        label = "-".join([name, *(f"{key}={value}" for key, value in params.items())])
        for iterations in ITERATIONS:
            config = _config(name, params, ENSEMBLE_SIZE, iterations)
            yield from _worker_cells(src, work, config, f"{label}/K{iterations}", differing)
        burn_in = f"{label}/K{ITERATIONS[-1]}/w1"
        config["reference"] = {"mode": "file", "path": f"{burn_in}/reference.csv"}
        yield from _cell(src, work, config, f"{burn_in}-reference_file", 1)
        if sampler:
            config["reference"] = {"mode": "ground_truth"}
            yield from _cell(src, work, config, f"{burn_in}-reference_ground_truth", 1)
    name, params, size, iterations = LARGE
    label = "-".join([name, *(f"{key}={value}" for key, value in params.items()), f"N{size}"])
    yield from _worker_cells(src, work, _config(name, params, size, iterations), f"{label}/K{iterations}", differing)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="the source tree to run (default: this checkout's src/)")
    parser.add_argument("--keep", type=Path, default=None,
                        help="an empty or new directory to leave every output in (default: a temporary one)")
    args = parser.parse_args(argv)
    combined = hashlib.sha256()
    differing = []
    with contextlib.ExitStack() as stack:
        if args.keep is None:
            work = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="rfilab-digests-")))
        else:
            work = args.keep.resolve()
            work.mkdir(parents=True, exist_ok=True)
        for digest, name in digests(args.src.resolve(), work, differing):
            line = f"{digest}  {name}\n"
            combined.update(line.encode())
            sys.stdout.write(line)
            sys.stdout.flush()
    print(f"{combined.hexdigest()}  combined")
    if differing:
        print(f"outputs differ between worker counts: {' '.join(differing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
