"""Run every workload over the baseline seeds and summarise the spread.

Usage (from the repository root):

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

For each workload of BENCHMARK.json this runs `perfbench/run.py --trace 0`
for each of SEEDS with the file's run_seconds, and prints, for every
end-to-end metric, the median and quartiles over seeds and the spread
(q3 - q1) / median next to the metric's bound.  It then makes one traced run
per workload (the first seed) and prints the per-layer medians and the share
of `trace.run_s` taken by the main layers.  ``--out`` writes everything,
with the environment block, as JSON; `perfbench/baseline.json` was written
by this command.  Exits 1 if any run is incorrect or has failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = tuple(range(201, 211))
TRACED_SEEDS = SEEDS[:1]
# layer times reported as a share of the traced run's wall time
SHARES = ("transport.assignment_s", "transport.w2_s", "rfi.chain_s", "scenarios.floor_s",
          "scenarios.reference_s", "io.write_s", "operators.apply_s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    for line in proc.stdout.splitlines():
        if line.startswith("  FAILED"):
            print(f"    {workload} seed {seed}:{line}", flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from env import environment
    from run import summary

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {"environment": environment(ROOT), "run_seconds": seconds, "seeds": list(SEEDS),
              "traced_seeds": list(TRACED_SEEDS), "workloads": {}}
    print("env " + json.dumps(result["environment"], sort_keys=True), flush=True)
    ok = True
    for workload in names:
        started = time.monotonic()
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        traced = [run_once(workload, seed, seconds, 1) for seed in TRACED_SEEDS]
        bad = [r for r in runs + traced if not r["correct"] or r["failed"]]
        ok = ok and not bad
        attempted = sum(r["attempted"] for r in runs + traced)
        failed = sum(r["failed"] for r in runs + traced)
        entry = {"end_to_end": {}, "per_layer": {}, "attempted": attempted, "failed": failed,
                 "fail_ratio": failed / attempted}
        print(f"{workload}: {len(runs)} runs + {len(traced)} traced in {time.monotonic() - started:.0f} s, "
              f"fail_ratio {entry['fail_ratio']:.3g} ({failed} of {attempted} commands)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = {**summary(values), "values": values}
            stats["spread"] = (stats["q3"] - stats["q1"]) / stats["median"]
            entry["end_to_end"][name] = stats
            print(f"  {name:<14} median {stats['median']:.6g} {units[name]}  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}"
                  f"  spread {stats['spread']:.3f}  (bound {bound}; bound/3 {bound / 3:.3f})")
            print("    " + " ".join(f"{v:.4g}" for v in stats["values"]))
        for name in (m["name"] for m in spec["per_layer"]):
            value = statistics.median(r["metrics"][name]["value"] for r in traced)
            entry["per_layer"][name] = value
            print(f"  {name:<38} {value:.6g} {units[name]}")
        base = entry["per_layer"]["trace.run_s"]
        entry["share_of_trace_run_s"] = {name: entry["per_layer"][name] / base for name in SHARES}
        print("  share of trace.run_s: " + ", ".join(
            f"{name} {share:.1%}" for name, share in entry["share_of_trace_run_s"].items()))
        result["workloads"][workload] = entry
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
