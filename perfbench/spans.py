"""Spans around calls into rfilab's layers, recorded from outside the library.

A :class:`Tracer` wraps the module and class attributes that rfilab's own
callers look up (``cli.wasserstein``, ``transport.linear_sum_assignment``,
``Ensemble.to_csv``, ...).  Each call becomes a span with a name, start,
end and parent id; spans stay in memory until :meth:`Tracer.dump`.
:func:`layer_metrics` turns one traced ``rfilab run`` (plus one
``rfilab wasserstein``) into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, Optional


class Tracer:
    """In-memory span recorder, safe for calls made from worker threads.

    A span opened in a thread with no open span of its own (the chain's
    thread-pool workers) takes as parent the innermost open span of the
    thread that created the tracer, which is the call that started the pool.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording one span per call; ``attrs(args, kwargs)``
        runs after the call and adds counts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._main_ident and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
                        "thread": threading.get_ident()}
                if attrs is not None:
                    span.update(attrs(args, kwargs))
                self.spans.append(span)

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sorted(self.spans, key=lambda s: s["start"]), fh)


# -- span attributes ---------------------------------------------------------

def _chain_attrs(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return {"particle_steps": len(cfg.initial) * cfg.iterations}


def _assignment_attrs(args, kwargs):
    cost = args[0] if args else kwargs["cost_matrix"]
    return {"cost_bytes": int(cost.shape[0]) * int(cost.shape[1]) * 8}


def _pairs_attrs(args, kwargs):
    return {"pairs": int(args[3] if len(args) > 3 else kwargs["n_pairs"])}


def _file_attrs(args, kwargs):
    return {"bytes": os.path.getsize(args[1])}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap rfilab's layer entry points for the duration of the block."""
    from rfilab import cli, geometry, operators, scenarios, transport

    originals = []

    def patch(owner, attr, name, attrs=None, kind=None):
        original = owner.__dict__[attr]
        if kind is classmethod:
            wrapped = classmethod(tracer.wrap(name, original.__func__, attrs))
        else:
            wrapped = tracer.wrap(name, original, attrs)
        originals.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    try:
        patch(cli, "validate_config", "cli.validate")
        patch(cli, "validate_report", "cli.validate")
        for owner in (cli, scenarios):
            patch(owner, "run_ensemble", "rfi.chain", _chain_attrs)
            patch(owner, "long_run_reference", "scenarios.reference")
            patch(owner, "wasserstein", "transport.wasserstein")
        patch(cli, "build_scenario", "scenarios.build")
        patch(cli, "monte_carlo_floor", "scenarios.floor")
        patch(cli, "markov_transport_discrepancy", "transport.psi")
        patch(cli, "estimate_violation", "regularity", _pairs_attrs)
        patch(cli, "estimate_violation_in_expectation", "regularity", _pairs_attrs)
        for attr in ("build_rate_report", "estimate_subregularity", "rate_bound_from_theorem"):
            patch(cli, attr, "analysis")
        patch(transport, "wasserstein", "transport.wasserstein")
        patch(transport, "linear_sum_assignment", "transport.assignment", _assignment_attrs)
        patch(transport.Ensemble, "to_csv", "io.write", _file_attrs)
        patch(transport.Ensemble, "from_csv", "io.read", _file_attrs, kind=classmethod)
        for space in (geometry.EuclideanSpace, geometry.SpiderSpace):
            patch(space, "cross_dist", "geometry.cross_dist")
        patch(operators.OperatorFamily, "apply_index", "operators.apply")
        for op_class in _subclasses(operators.Operator):
            if "apply" in op_class.__dict__:
                patch(op_class, "apply", "operators.apply")
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


# -- per-layer metrics ---------------------------------------------------------

# metrics that are counts of work, which must repeat exactly between runs
COUNTS = frozenset({
    "transport.assignment_solves", "transport.solves_per_recorded_step", "transport.w2_calls",
    "transport.psi_calls", "transport.sorted_solves", "transport.cost_matrix_bytes",
    "geometry.cross_dist_calls", "rfi.chain_calls", "rfi.particle_steps", "scenarios.floor_solves",
    "operators.apply_calls", "io.write_bytes", "io.files_written", "io.read_bytes", "regularity.pairs",
})


def self_time(span: dict, children: list) -> float:
    """Duration minus the part of it covered by child spans (children may
    overlap when they ran on different threads)."""
    covered = 0.0
    cursor = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        lo = max(child["start"], cursor)
        hi = min(child["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span["end"] - span["start"]) - covered


def layer_metrics(spans: list, recorded_steps: int) -> dict:
    """Per-layer metrics of one traced `rfilab run` (root span ``cli.run``)
    and one `rfilab wasserstein` (root span ``cli.wasserstein``); see
    perfbench/README.md for the definition of each metric."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def ancestors(s) -> list:
        names = []
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            names.append(s["name"])
        return names

    lineage = {s["id"]: ancestors(s) for s in spans}

    def named(name, root="cli.run"):
        return [s for s in spans if s["name"] == name and lineage[s["id"]][-1:] == [root]]

    def outermost(name):
        return [s for s in named(name) if name not in lineage[s["id"]]]

    def under(s, name):
        return name in lineage[s["id"]]

    def total(ss):
        return sum(s["end"] - s["start"] for s in ss)

    assignment = named("transport.assignment")
    w2 = named("transport.wasserstein")
    psi = named("transport.psi")
    cross = named("geometry.cross_dist")
    chain = named("rfi.chain")
    writes = named("io.write")
    reads = named("io.read", root="cli.wasserstein")
    regularity = outermost("regularity")
    chain_s = total(chain)
    particle_steps = sum(s["particle_steps"] for s in chain)
    series_solves = [s for s in assignment
                     if not (under(s, "scenarios.floor") or under(s, "scenarios.reference"))]
    return {
        "transport.assignment_s": total(assignment),
        "transport.assignment_solves": len(assignment),
        "transport.solves_per_recorded_step": len(series_solves) / recorded_steps,
        "transport.w2_s": total(w2),
        "transport.w2_calls": len(w2),
        "transport.psi_s": sum(self_time(s, children.get(s["id"], [])) for s in psi),
        "transport.psi_calls": len(psi),
        "transport.sorted_solves": sum(
            1 for s in w2 if not any(c["name"] == "transport.assignment" for c in children.get(s["id"], []))
        ),
        "transport.cost_matrix_bytes": sum(s["cost_bytes"] for s in assignment),
        "geometry.cross_dist_s": total(cross),
        "geometry.cross_dist_calls": len(cross),
        "rfi.chain_s": chain_s,
        "rfi.chain_calls": len(chain),
        "rfi.particle_steps": particle_steps,
        "rfi.particle_steps_per_s": particle_steps / chain_s if chain_s > 0 else 0.0,
        "scenarios.reference_s": total(s for s in named("scenarios.reference") if not under(s, "scenarios.floor")),
        "scenarios.floor_s": total(named("scenarios.floor")),
        "scenarios.floor_solves": sum(1 for s in w2 if under(s, "scenarios.floor")),
        "scenarios.build_s": total(named("scenarios.build")),
        "operators.apply_s": total(outermost("operators.apply")),
        "operators.apply_calls": len(named("operators.apply")),
        "io.write_s": total(writes),
        "io.write_bytes": sum(s["bytes"] for s in writes),
        "io.files_written": len(writes),
        "io.read_s": total(reads),
        "io.read_bytes": sum(s["bytes"] for s in reads),
        "regularity.s": total(regularity),
        "regularity.pairs": sum(s["pairs"] for s in regularity),
        "analysis.s": total(outermost("analysis")),
        "cli.validate_s": total(named("cli.validate")),
        "trace.run_s": total(s for s in spans if s["name"] == "cli.run"),
    }
