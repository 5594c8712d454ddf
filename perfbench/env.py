"""Environment block reported next to benchmark numbers."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy


def git_commit(root: Path):
    """HEAD of the repository at ``root``; None if ``root`` is not one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def _cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = (index / "size").read_text().strip()
    return caches


def environment(root: Path) -> dict:
    """Core count, CPU model and cache sizes, versions, git commit and source size."""
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "src_lines": src_lines(root),
    }
    try:
        env["cpu_model"] = _cpu_model()
        env["caches"] = _caches()
    except OSError as exc:
        env["cpu_model"] = f"unavailable ({exc})"
    return env
