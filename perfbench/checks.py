"""Output checks for one `rfilab run` results directory.

The W2 values are recomputed here from the written CSV files with a cost
matrix built from plain coordinate differences, independently of rfilab's
own `space.cross_dist` (which expands |a-b|^2 and loses precision far from
the origin).  On the real line the sorted matching is the exact optimum,
so no N x N matrix is built there.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

# Relative agreement required between rfilab's W2 and the recomputed one.
# Both are exact optima of the same assignment problem; they can differ only
# through rounding in the cost matrices (~1e-14 relative at these scales).
W2_RTOL = 1e-9
_ROW_BLOCK = 64


class CheckFailed(Exception):
    pass


def read_points(path) -> np.ndarray:
    """Rows of an ensemble CSV as real coordinates; complex coordinates are
    stored as (re, im) column pairs, whose Euclidean norm is the same."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def w2(a: np.ndarray, b: np.ndarray) -> float:
    """Exact W2 between equal-size Euclidean ensembles (rows of coordinates)."""
    if a.shape != b.shape:
        raise CheckFailed(f"ensemble shapes differ: {a.shape} vs {b.shape}")
    if a.shape[1] == 1:
        d = np.sort(a[:, 0]) - np.sort(b[:, 0])
        return float(np.sqrt(np.mean(d * d)))
    cost = np.empty((len(a), len(b)))
    for lo in range(0, len(a), _ROW_BLOCK):
        diff = a[lo:lo + _ROW_BLOCK, None, :] - b[None, :, :]
        cost[lo:lo + _ROW_BLOCK] = np.sum(diff * diff, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def agree(name: str, got: float, want: float) -> None:
    if not abs(got - want) <= W2_RTOL * max(abs(want), 1e-300) + 1e-15:
        raise CheckFailed(f"{name}: rfilab gives {got!r}, recomputed {want!r} (rtol {W2_RTOL})")


def own_peak(peak_mb: float, launcher_mb: float) -> None:
    """A command's wait4 peak RSS can include the launcher's (see launch.py);
    it is the command's own only if it lies above the launcher's."""
    if not peak_mb > launcher_mb:
        raise CheckFailed(f"peak RSS {peak_mb:.1f} MiB is not above the launcher's {launcher_mb:.1f} MiB")


def final_step_file(out: Path) -> Path:
    steps = sorted((out / "ensembles").glob("step_*.csv"))
    if not steps:
        raise CheckFailed(f"no ensemble files under {out / 'ensembles'}")
    return steps[-1]


def check_run(out: Path, validate_report, recompute: bool = True) -> str:
    """Check one results directory; return a sha256 over its series, first
    and final ensemble and reference files.  Repetitions of one config must
    give the same digest, so only the first needs ``recompute`` (W2 re-solve)."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    try:
        validate_report(report)
    except ValueError as exc:
        raise CheckFailed(f"report.json: {exc}") from exc
    series = (out / "series.csv").read_bytes()
    last = series.decode("utf-8").strip().splitlines()[-1].split(",")
    final = final_step_file(out)
    if int(last[0]) != int(final.stem.split("_")[1]):
        raise CheckFailed(f"series.csv ends at step {last[0]}, last ensemble file is {final.name}")
    if recompute:
        agree("series.csv final W2_to_reference", float(last[1]),
              w2(read_points(final), read_points(out / "reference.csv")))
    digest = hashlib.sha256(series)
    for path in (out / "ensembles" / "step_000000.csv", final, out / "reference.csv"):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_wasserstein_output(out: Path, printed: str) -> None:
    """`rfilab wasserstein step_000000.csv <final>.csv` printed ``printed``."""
    try:
        value = float(printed.strip())
    except ValueError as exc:
        raise CheckFailed(f"rfilab wasserstein printed {printed!r}") from exc
    first = out / "ensembles" / "step_000000.csv"
    agree("rfilab wasserstein", value, w2(read_points(first), read_points(final_step_file(out))))


class Verifier:
    """Checks the repetitions of one config: the first in full, every later
    one for byte-identity with it."""

    def __init__(self, validate_report):
        self.validate_report = validate_report
        self.digest = None
        self.printed = None

    def run(self, out: Path) -> None:
        digest = check_run(out, self.validate_report, recompute=self.digest is None)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("series.csv, ensembles or reference differ between repetitions")

    def wasserstein(self, out: Path, printed: str) -> None:
        if self.printed is None:
            check_wasserstein_output(out, printed)
            self.printed = printed.strip()
        elif printed.strip() != self.printed:
            raise CheckFailed(f"rfilab wasserstein printed {printed.strip()!r}, first repetition {self.printed!r}")
