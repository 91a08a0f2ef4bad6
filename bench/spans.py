"""Outside-in spans around chemoflow's layers.

chemoflow's modules import names directly (``from .assembly import
assemble_convection``), so a layer is wrapped where it is called: the name is
replaced in the calling module's namespace, not in the defining one.  Every
wrapped call appends one span ``[name, start, end, parent]`` to an in-memory
list; nothing is written until the run ends.  Self time and the per-layer
metrics are derived from the spans afterwards.

Two instrumentation levels share this machinery:

* ``coarse`` wraps only the time loop and the verification functions, plus a
  hook on every step attempt.  It gives ``solve_s``, ``verify_s``, the step
  counts and the final states, at a cost of a few hundred wrapped calls per
  run, and is on in every run.  Verification calls are also kept with their
  arguments, so that they can be replayed to time them again.
* ``full`` adds every layer below; it is used only by the traced repeat.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# spans whose time is the verification work (ledger, estimate checks, reports)
VERIFY_SPANS = (
    "energy.ledger",
    "energy.checks",
    "energy.translate_decay",
    "energy.uniform_scan",
    "energy.export_ledger",
    "timestepping.interpolant_gap",
)


class Recorder:
    """Spans and counters of one workload repeat."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []
        self.bytes = Counter()
        self.step_attempts = 0
        self.failed_attempts = 0
        self.inner_iterations = 0
        self.outer_iterations = 0
        self.trajectories = []  # (final State, steps, all steps converged) per time loop
        self.verify_calls = []  # (function, args, kwargs, file it writes or None) per verification call

    def wrap(self, fn, name):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1

        return traced

    def total(self, name) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


class TracedLU:
    """SuperLU factor whose ``solve`` is a span; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _after(fn, hook):
    def observed(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(args, result)
        return result

    return observed


def _kept(rec, fn, written):
    def call(*args, **kwargs):
        rec.verify_calls.append((fn, args, kwargs, None if written is None else args[written]))
        return fn(*args, **kwargs)

    return call


def _traced_splu(rec, splu, factor_name, solve_name):
    factor = rec.wrap(splu, factor_name)

    def traced(*args, **kwargs):
        lu = factor(*args, **kwargs)
        return TracedLU(lu, rec.wrap(lu.solve, solve_name))

    return traced


def patches(rec: Recorder, full: bool):
    """(owner, attribute, replacement) triples for one instrumentation level.

    A name the program no longer has is skipped, and its layer reads zero.
    """
    from chemoflow import cli, fluid, step_solver, timestepping

    def on_trajectory(args, traj):
        converged = all(d.converged for ds in traj.diagnostics[1:] for d in ds)
        rec.trajectories.append((traj.states[-1], traj.grid.N, converged))

    def on_attempt(args, result):
        d = result.diagnostics
        rec.step_attempts += 1
        rec.failed_attempts += not d.converged
        rec.inner_iterations += d.inner_iterations
        rec.outer_iterations += d.outer_iterations

    def file_bytes(key, arg):
        def hook(args, result):
            rec.bytes[key] += os.path.getsize(args[arg])

        return hook

    # (owner, attribute, span name, hook after the call); a span name of None
    # only hooks, a (factor, solve) pair traces an LU factory
    coarse = [
        (cli, "run_time_loop", "timestepping.run", on_trajectory),
        (cli, "build_ledger", "energy.ledger", None),
        (cli, "export_ledger", "energy.export_ledger", None),
        (cli, "time_translate_decay", "energy.translate_decay", None),
        (cli, "uniform_bound_scan", "energy.uniform_scan", None),
        (cli, "interpolant_step_gap", "timestepping.interpolant_gap", None),
        (cli, "check_step_inequality", "energy.checks", None),
        (cli, "check_oxygen_solve_bound", "energy.checks", None),
        (cli, "check_cell_solve_bound", "energy.checks", None),
        (cli, "kinetic_identity_residual", "energy.checks", None),
        (timestepping, "outer_step", "timestepping.outer_step" if full else None, on_attempt),
    ]
    layers = [
        (timestepping, "write_checkpoint", "timestepping.checkpoint_write",
         file_bytes("timestepping.checkpoint_write", 0)),
        (timestepping, "read_checkpoint", "timestepping.checkpoint_read",
         file_bytes("timestepping.checkpoint_read", 0)),
        (cli, "export_fields", "fields_io.export", file_bytes("fields_io.export", 1)),
        (cli, "load_trajectory", "timestepping.load_trajectory", None),
        (cli, "load_config", "config.load", None),
        (cli, "build_initial_state", "config.initial_state", None),
        (cli, "build_disc_mesh", "geometry.mesh", None),
        (cli, "build_trace_map", "geometry.mesh", None),
        (cli, "build_operators", "assembly.operators", None),
        (step_solver, "picard_inner", "step_solver.picard_inner", None),
        (step_solver, "step_residual", "step_solver.step_residual", None),
        (step_solver, "assemble_convection", "assembly.conv_p1", None),
        (step_solver, "assemble_convection_velocity", "assembly.conv_p2.step_residual", None),
        (step_solver, "assemble_chemotaxis_rhs", "assembly.chemotaxis_rhs", None),
        (step_solver, "build_saddle_system", "fluid.build_saddle", None),
        (step_solver, "solve_saddle", "fluid.direct_solve", None),
        (step_solver, "splu", ("step_solver.lu_factor", "step_solver.lu_solve"), None),
        (fluid, "assemble_convection_velocity", "assembly.conv_p2.build_saddle", None),
        (fluid, "solve_saddle", "fluid.direct_solve", None),
        (fluid, "splu", ("fluid.lu_factor", "fluid.lu_solve"), None),
        (getattr(fluid, "SaddleCache", None), "solve", "fluid.cache_solve", None),
    ]
    out = []
    for owner, attr, name, hook in coarse + (layers if full else []):
        fn = getattr(owner, attr, None)
        if fn is None:
            continue
        if name in VERIFY_SPANS:
            fn = rec.wrap(_kept(rec, fn, 1 if attr == "export_ledger" else None), name)
        elif isinstance(name, tuple):
            fn = _traced_splu(rec, fn, *name)
        elif name is not None:
            fn = rec.wrap(fn, name)
        out.append((owner, attr, fn if hook is None else _after(fn, hook)))
    return out


@contextmanager
def installed(triples):
    """Swap the replacements in for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in triples]
    try:
        for owner, attr, new in triples:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def layer_unit(name: str) -> str:
    if name.endswith((".calls", "_iters", ".steps", ".retries", ".fallbacks", ".spans")):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_solve", "_per_outer")):
        return "ratio"
    return "s"


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer calls, seconds and self seconds derived from the spans."""
    calls = Counter()
    total = defaultdict(float)
    child = defaultdict(float)
    by_parent = Counter()
    spans = rec.spans
    for name, start, end, parent in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
            by_parent[(name, spans[parent][0])] += 1
    self_s = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        self_s[name] += end - start - child[i]

    m = {}

    def add(name, *kinds):
        for kind in kinds:
            if kind == "calls":
                m[f"{name}.calls"] = calls[name]
            elif kind == "s":
                m[f"{name}.s"] = total[name]
            elif kind == "self_s":
                m[f"{name}.self_s"] = self_s[name]
            elif kind == "bytes":
                m[f"{name}.bytes"] = rec.bytes[name]

    for name in ("assembly.conv_p1", "assembly.conv_p2.build_saddle", "assembly.conv_p2.step_residual",
                 "assembly.chemotaxis_rhs", "step_solver.lu_factor", "step_solver.lu_solve",
                 "fluid.direct_solve", "fluid.lu_factor", "fluid.lu_solve", "energy.ledger"):
        add(name, "calls", "s")
    p2 = ("assembly.conv_p2.build_saddle", "assembly.conv_p2.step_residual")
    m["assembly.conv_p2.calls"] = sum(calls[n] for n in p2)
    m["assembly.conv_p2.s"] = sum(total[n] for n in p2)
    m["assembly.operators_s"] = total["assembly.operators"]
    for name in ("step_solver.picard_inner", "step_solver.step_residual", "fluid.build_saddle",
                 "fluid.cache_solve", "timestepping.outer_step", "cli.main"):
        add(name, "calls", "s", "self_s")
    m["timestepping.run.self_s"] = self_s["timestepping.run"]
    for name in ("timestepping.checkpoint_write", "timestepping.checkpoint_read", "fields_io.export"):
        add(name, "calls", "s", "bytes")

    m["step_solver.inner_iters"] = rec.inner_iterations
    m["step_solver.outer_iters"] = rec.outer_iterations
    m["step_solver.inner_per_outer"] = rec.inner_iterations / max(rec.outer_iterations, 1)

    cache_solves = calls["fluid.cache_solve"]
    defect = by_parent[("fluid.lu_solve", "fluid.cache_solve")]
    fallbacks = by_parent[("fluid.direct_solve", "fluid.cache_solve")]
    m["fluid.defect_iters"] = defect
    m["fluid.defect_per_solve"] = defect / max(cache_solves, 1)
    m["fluid.fallbacks"] = fallbacks
    m["fluid.fallback_ratio"] = fallbacks / max(cache_solves, 1)

    m["timestepping.steps"] = sum(steps for _, steps, _ in rec.trajectories)
    m["timestepping.retries"] = rec.failed_attempts

    m["energy.checks_s"] = total["energy.checks"]
    m["energy.translate_decay_s"] = total["energy.translate_decay"]
    m["energy.uniform_scan_s"] = total["energy.uniform_scan"]
    m["energy.export_ledger_s"] = total["energy.export_ledger"]
    m["config.load_s"] = total["config.load"]
    m["config.initial_state_s"] = total["config.initial_state"]
    m["geometry.mesh_s"] = total["geometry.mesh"]
    m["trace.spans"] = len(spans)
    return m
