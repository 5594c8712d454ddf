"""rfilab benchmark: `rfilab run` end to end, or traced layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload ot_kaczmarz --seed 1 --seconds 40 --trace 0

With ``--trace 0`` every command runs as a fresh child process, as a user
runs it, and the end-to-end metrics of BENCHMARK.json are reported:
``setup_s`` (fresh import + config + scenario + initial ensemble),
``run_s`` (one `rfilab run`), ``wasserstein_s`` (`rfilab wasserstein` on the
run's first and last ensemble files) and ``peak_rss_mb`` (the run child's
own peak RSS).  With ``--trace 1`` `rfilab run` runs in this process, in
turn plain and with spans around every layer, and the per-layer metrics are
reported.  Commands run one at a time.  Every run's outputs are checked
(see checks.py); a command that exits non-zero or fails a check counts as
failed.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from env import environment
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_RUN_REPS = 3
MIN_TRACED_REPS = 2
HARD_LIMIT_S = 170.0  # every invocation must end within 180 s


class Tally:
    """Commands attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def command(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what, detail)
        return ok

    def fail(self, what: str, detail) -> None:
        """Mark a command already counted as failed."""
        self.failed += 1
        self.errors.append(f"{what}: {detail}")

    def check(self, what: str, check, *args) -> bool:
        """Run an output check of a command already counted."""
        try:
            check(*args)
            return True
        except (checks.CheckFailed, OSError, ValueError) as exc:
            self.fail(what, exc)
            return False


class Child:
    """Outcome of one command: wall time, exit code, its own peak RSS and the
    launcher's high-water RSS (MiB), its stdout and last stderr line."""

    def __init__(self, wall, rc, peak_mb, launcher_mb, stdout, stderr_tail):
        self.wall, self.rc, self.peak_mb, self.launcher_mb = wall, rc, peak_mb, launcher_mb
        self.stdout, self.stderr_tail = stdout, stderr_tail


def child(argv, log_stem: Path, deadline: float) -> Child:
    """Run one command to completion through launch.py.

    Peak RSS is the command's own wait4 rusage, not RUSAGE_CHILDREN (the
    maximum over every child so far); launch.py keeps this process's RSS
    out of it.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    start = time.perf_counter()
    launcher = subprocess.Popen([sys.executable, str(HERE / "launch.py"), str(out_path), str(err_path), "--", *argv],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        report, launcher_err = launcher.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the launcher leads its own process group, so this also ends the command
        with contextlib.suppress(ProcessLookupError):
            os.killpg(launcher.pid, signal.SIGKILL)
        launcher.communicate()
        return Child(time.perf_counter() - start, -signal.SIGKILL, 0.0, 0.0, "", "killed at the deadline")
    if launcher.returncode != 0:
        return Child(time.perf_counter() - start, launcher.returncode, 0.0, 0.0, "",
                     "launch.py: " + "".join(launcher_err.strip().splitlines()[-1:]))
    outcome = json.loads(report)
    stderr_tail = "".join(err_path.read_text(errors="replace").strip().splitlines()[-1:])
    return Child(outcome["wall_s"], outcome["exit_code"], outcome["peak_rss_kib"] / 1024.0,
                 outcome["launcher_hwm_kib"] / 1024.0, out_path.read_text(errors="replace"), stderr_tail)


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def repeat(step, deadline: float, hard_deadline: float, min_reps: int, done) -> None:
    """Call ``step()`` until ``done()`` reports ``min_reps`` good repetitions
    and another would overrun ``deadline``; stop early near ``hard_deadline``."""
    took = []
    while done() < min_reps or time.monotonic() + statistics.median(took) <= deadline:
        if time.monotonic() > hard_deadline - 2 * max(took, default=0.0):
            break
        start = time.monotonic()
        if not step():
            break
        took.append(time.monotonic() - start)


def end_to_end(config_path: Path, work: Path, seconds: float, hard_deadline: float, tally: Tally) -> dict:
    from rfilab.cli import validate_report

    deadline = time.monotonic() + seconds
    py = sys.executable
    verify = checks.Verifier(validate_report)
    setup, digests, run_s, rss, wass_s = [], set(), [], [], []

    def step() -> bool:
        # one setup probe per repetition, so that every metric samples the
        # whole measuring window, not one stretch of it
        probe = child([py, str(HERE / "probe_setup.py"), str(config_path)], work / "setup", hard_deadline)
        setup.append(probe.wall)
        if tally.command(probe.rc == 0, "setup probe", f"exit {probe.rc} {probe.stderr_tail}"):
            digests.add(probe.stdout.strip())
            if len(digests) > 1:
                tally.fail("setup probe", "initial ensemble differs between repetitions")
        out = work / f"run{len(run_s)}"
        run = child([py, "-m", "rfilab.cli", "run", "--config", str(config_path), "--out", str(out)], out, hard_deadline)
        run_s.append(run.wall)
        rss.append(run.peak_mb)
        if tally.command(run.rc == 0, "rfilab run", f"exit {run.rc} {run.stderr_tail}") \
                and tally.check("rfilab run peak RSS", checks.own_peak, run.peak_mb, run.launcher_mb) \
                and tally.check("rfilab run output", verify.run, out):
            first, final = out / "ensembles" / "step_000000.csv", checks.final_step_file(out)
            wass = child([py, "-m", "rfilab.cli", "wasserstein", str(first), str(final)],
                         work / f"wass{len(run_s)}", hard_deadline)
            wass_s.append(wass.wall)
            if tally.command(wass.rc == 0, "rfilab wasserstein", f"exit {wass.rc} {wass.stderr_tail}"):
                tally.check("rfilab wasserstein output", verify.wasserstein, out, wass.stdout)
        shutil.rmtree(out, ignore_errors=True)
        return not tally.failed

    repeat(step, deadline, hard_deadline, MIN_RUN_REPS, lambda: len(wass_s))
    return {
        "run_s": summary(run_s),
        "setup_s": summary(setup),
        "wasserstein_s": summary(wass_s) if wass_s else None,
        "peak_rss_mb": summary(rss),
    }


def layers(config_path: Path, work: Path, seconds: float, hard_deadline: float, tally: Tally, spans_path: Path) -> dict:
    from rfilab import cli

    deadline = time.monotonic() + seconds
    verify = checks.Verifier(cli.validate_report)
    runs, overhead, per_rep = itertools.count(), [], []

    def one_run(tracer):
        """One in-process `rfilab run`; its wall time, or None if it failed."""
        out = work / f"inproc{next(runs)}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                (spans.installed(tracer) if tracer else contextlib.nullcontext()):
            main = tracer.wrap("cli.run", cli.main) if tracer else cli.main
            start = time.perf_counter()
            rc = main(["run", "--config", str(config_path), "--out", str(out)])
            wall = time.perf_counter() - start
            ok = tally.command(rc == 0, "rfilab run (in process)", f"exit {rc} {stderr.getvalue().strip()[-200:]}") \
                and tally.check("rfilab run output", verify.run, out)
            if ok and tracer:
                first, final = out / "ensembles" / "step_000000.csv", checks.final_step_file(out)
                rc_w = tracer.wrap("cli.wasserstein", cli.main)(["wasserstein", str(first), str(final)])
        if ok and tracer:
            ok = tally.command(rc_w == 0, "rfilab wasserstein (in process)", f"exit {rc_w}") \
                and tally.check("rfilab wasserstein output", verify.wasserstein, out, stdout.getvalue())
            if ok:
                steps = len(json.loads((out / "manifest.json").read_text(encoding="utf-8"))["recorded_steps"])
                per_rep.append(spans.layer_metrics(tracer.spans, steps))
                tracer.dump(spans_path)
        shutil.rmtree(out, ignore_errors=True)
        return wall if ok else None

    def step() -> bool:
        # one plain and one traced run back to back, so that their difference
        # cancels slow drift of the host; alternate which side runs first
        first_traced = len(per_rep) % 2 == 1
        walls = {traced: one_run(spans.Tracer() if traced else None) for traced in (first_traced, not first_traced)}
        if None not in walls.values():
            overhead.append(walls[True] - walls[False])
        return not tally.failed

    # the first run in a process pays one-time costs that neither side should carry
    one_run(None)
    repeat(step, deadline, hard_deadline, MIN_TRACED_REPS, lambda: len(per_rep))
    metrics = {}
    for name in per_rep[0] if per_rep else ():
        values = [m[name] for m in per_rep]
        if name in spans.COUNTS and len(set(values)) > 1:
            tally.fail("trace counts", f"{name} differs between repetitions: {values}")
        metrics[name] = statistics.median(values)
    if overhead:
        metrics["trace.overhead_s"] = statistics.median(overhead)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "rfilab" / "cli.py").is_file():
        print(f"error: rfilab sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    hard_deadline = time.monotonic() + HARD_LIMIT_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(WORKLOADS[args.workload].config(args.seed), indent=2) + "\n", encoding="utf-8")
    tally = Tally()
    try:
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
            values = layers(config_path, work, args.seconds, hard_deadline, tally, spans_path)
            wanted = spec["per_layer"]
        else:
            measured = end_to_end(config_path, work, args.seconds, hard_deadline, tally)
            values = {name: s["median"] for name, s in measured.items() if s is not None}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env " + json.dumps(environment(ROOT), sort_keys=True))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload} (seed {args.seed}): {why.get(args.workload, '')}")
    units = {m["name"]: m["unit"] for m in wanted}
    missing = [name for name in units if name not in values]
    if missing:
        tally.command(False, "metrics", f"not measured: {missing}")
    for name in values:
        line = f"  {name:<38} {values[name]:.6g} {units.get(name, '')}"
        if not args.trace and measured[name] is not None:
            s = measured[name]
            line += f"  (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        print(line)
    print(f"  {'fail_ratio':<38} {tally.failed / max(tally.attempted, 1):.6g} 1  "
          f"({tally.failed} of {tally.attempted} commands)")
    for error in tally.errors:
        print(f"  FAILED {error}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
