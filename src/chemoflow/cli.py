"""Command-line surface: run | converge | energy | validate | mesh-info.

Exit codes: 0 success, 1 configuration or validation failure, 2 usage error,
3 solver failure, 4 I/O failure, 5 verification failure, 130 interrupted
(Ctrl-C), 143 terminated (SIGTERM).
"""

from __future__ import annotations

import argparse
import ctypes
import os
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from .assembly import build_operators
from .config import ConfigError, build_initial_state, load_config
from .energy import (
    build_ledger,
    check_cell_solve_bound,
    check_oxygen_solve_bound,
    check_step_inequality,
    export_ledger,
    interpolant_step_gap,
    kinetic_identity_residual,
    time_translate_decay,
    uniform_bound_scan,
)
from .fields_io import FieldsIOError, export_fields, snapshot_name
from .fluid import LinearSolveError
from .geometry import MeshError, build_disc_mesh, save_mesh
from .timestepping import StepFailure, TimeGrid, load_trajectory, run as run_time_loop

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 3
EXIT_IO = 4
EXIT_VERIFY = 5
EXIT_INTERRUPTED = 130
EXIT_TERMINATED = 143


class Terminated(BaseException):
    """SIGTERM during a command; like KeyboardInterrupt, no ``except Exception`` catches it."""


def _terminate(signum, frame):
    raise Terminated


def _setup(cfg):
    """The configured mesh and its operators; a mesh that cannot be built is a config error."""
    try:
        mesh = build_disc_mesh(**cfg.mesh)
    except MeshError as exc:
        raise ConfigError([("mesh", str(exc))]) from exc
    return mesh, build_operators(mesh)


def _out_dir(cfg, override) -> Path:
    base = Path(override) if override else Path(cfg.output["directory"])
    base.mkdir(parents=True, exist_ok=True)
    return base


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.set)
    mesh, ops = _setup(cfg)
    out_dir = _out_dir(cfg, args.output)
    (out_dir / "config_used.json").write_text(cfg.to_json())
    save_mesh(mesh, out_dir / "mesh.txt")
    checkpoint_dir = out_dir / "checkpoints" if cfg.output["checkpoints"] else None
    traj = run_time_loop(ops, cfg.params, cfg.grid, build_initial_state(cfg, ops), options=cfg.options,
                         checkpoint_dir=checkpoint_dir)
    stride = cfg.output["snapshot_stride"]
    if stride > 0:
        for m in range(0, cfg.grid.N + 1, stride):
            export_fields(traj.states[m], out_dir / snapshot_name(m))
    rows = ["step,level,iteration,residual"]
    rows += [row for m, ds in enumerate(traj.diagnostics) for d in ds for row in d.csv_rows(m)]
    (out_dir / "diagnostics.csv").write_text("\n".join(rows) + "\n")
    ledger = build_ledger(traj, ops, cfg.params)
    export_ledger(ledger, out_dir / "ledger.csv")
    converged_steps = sum(
        1 for ds in traj.diagnostics[1:] if ds and all(d.converged for d in ds)
    )
    print(f"run complete: {cfg.grid.N} steps (all converged: {converged_steps == cfg.grid.N})")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def cmd_converge(args) -> int:
    cfg = load_config(args.config, args.set)
    if args.levels < 3:
        print(f"converge needs at least 3 refinement levels, got {args.levels}", file=sys.stderr)
        return EXIT_CONFIG
    mesh, ops = _setup(cfg)
    out_dir = _out_dir(cfg, args.output)
    T = cfg.grid.T
    levels = [cfg.grid.N * 2**j for j in range(args.levels)]
    state0 = build_initial_state(cfg, ops)

    trajectories = []
    ledgers = []
    for N in levels:
        traj = run_time_loop(ops, cfg.params, TimeGrid(T=T, N=N), state0, options=cfg.options)
        trajectories.append(traj)
        led = build_ledger(traj, ops, cfg.params)
        ledgers.append(led)
        export_ledger(led, out_dir / f"ledger_N{N}.csv")

    lines = []
    report = uniform_bound_scan(ledgers)
    lines.extend(report.lines())

    lines.append("")
    lines.append("interpolant-vs-step gap (exact L2-in-time):")
    ks = np.array([T / N for N in levels])
    gaps = [interpolant_step_gap(led) for led in ledgers]
    for f in ("c", "n", "u"):
        vals = np.array([g[f] for g in gaps])
        slope = float(np.polyfit(np.log(ks), np.log(vals), 1)[0]) if np.all(vals > 0) else float("nan")
        lines.append(f"  {f}: gaps {' '.join(f'{v:.6g}' for v in vals)}  slope {slope:.4f}")

    lines.append("")
    lines.append("self-convergence at final time (consecutive level differences):")
    diffs = []
    for a, b in zip(trajectories[:-1], trajectories[1:]):
        sa, sb = a.states[-1], b.states[-1]
        d = np.sqrt(
            ops.scalar_norm_sq(sa.c - sb.c)
            + ops.scalar_norm_sq(sa.n - sb.n)
            + ops.velocity_norm_sq(sa.u - sb.u)
        )
        diffs.append(d)
        lines.append(f"  N={a.grid.N} vs N={b.grid.N}: {d:.6g}")
    for d1, d2 in zip(diffs[:-1], diffs[1:]):
        lines.append(f"  ratio {d1 / d2:.4f}")

    text = "\n".join(lines) + "\n"
    (out_dir / "convergence_report.txt").write_text(text)
    print(text, end="")
    return EXIT_OK if report.uniform else EXIT_VERIFY


def cmd_energy(args) -> int:
    cfg = load_config(args.config, args.set)
    mesh, ops = _setup(cfg)
    traj = load_trajectory(args.checkpoints, ops, cfg.grid, cfg.params)
    out_dir = _out_dir(cfg, args.output)
    ledger = build_ledger(traj, ops, cfg.params)
    export_ledger(ledger, out_dir / "ledger.csv")

    params = cfg.params
    combined = check_step_inequality(ledger, params, 0.5 * params.beta / params.g1)
    oxygen = check_oxygen_solve_bound(ledger, params)
    cell = check_cell_solve_bound(ledger, params)
    kin = kinetic_identity_residual(ledger, params)
    lines = [
        f"energy analysis of {args.checkpoints} (N={ledger.N}, k={ledger.k:g})",
        f"  worst combined-step slack: {combined.slack.min():.6g}",
        f"  worst oxygen-solve slack:  {oxygen.slack.min():.6g}",
        f"  worst cell-solve slack:    {cell.slack.min():.6g}",
        f"  max kinetic identity residual: {kin.max():.3e}",
        f"  cell mass drift: {np.max(np.abs(ledger['mass_n'] - ledger['mass_n'][0])):.3e}",
        f"  min cell density over run: {ledger['min_n'].min():.6g}",
    ]
    shifts = [cfg.grid.T / 4, cfg.grid.T / 8, cfg.grid.T / 16, cfg.grid.T / 32]
    decay = time_translate_decay(traj, ops, shifts)
    lines.extend(decay.lines())
    text = "\n".join(lines) + "\n"
    (out_dir / "energy_report.txt").write_text(text)
    print(text, end="")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config, args.set)
    except ConfigError as exc:
        for key, msg in exc.problems:
            print(f"ERROR   {key}: {msg}")
        return EXIT_CONFIG
    for line in cfg.report.lines():
        print(line)
    print("configuration valid")
    return EXIT_OK


def cmd_mesh_info(args) -> int:
    cfg = load_config(args.config, args.set)
    mesh, ops = _setup(cfg)
    print(f"vertices:        {mesh.n_vertices}")
    print(f"triangles:       {mesh.n_triangles}")
    print(f"boundary nodes:  {mesh.n_boundary}")
    print(f"h_max:           {mesh.h_max:.6g}")
    print(f"area:            {mesh.area:.6g}")
    print(f"perimeter:       {mesh.perimeter:.6g}")
    print(f"inradius:        {mesh.inradius:.6g}")
    print(f"velocity dofs:   {ops.vspace.n_velocity}")
    print(f"pressure dofs:   {mesh.n_vertices}")
    print(f"mesh hash:       {mesh.data_hash()}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemoflow",
        description="Finite-element solver for chemotaxis-fluid dynamics with a "
        "dynamic oxygen boundary condition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (dotted path), repeatable")

    p_run = sub.add_parser("run", help="execute one trajectory, write ledger and snapshots")
    common(p_run)
    p_run.add_argument("--output", default=None, help="output directory (defaults to config)")
    p_run.set_defaults(fn=cmd_run)

    p_conv = sub.add_parser("converge", help="time-refinement ladder with bound and gap reports")
    common(p_conv)
    p_conv.add_argument("--levels", type=int, default=4, help="number of refinement levels (>= 3)")
    p_conv.add_argument("--output", default=None)
    p_conv.set_defaults(fn=cmd_converge)

    p_en = sub.add_parser("energy", help="re-analyze stored checkpoints")
    common(p_en)
    p_en.add_argument("--checkpoints", required=True, help="directory of step checkpoints")
    p_en.add_argument("--output", default=None)
    p_en.set_defaults(fn=cmd_energy)

    p_val = sub.add_parser("validate", help="validate a configuration and print all findings")
    common(p_val)
    p_val.set_defaults(fn=cmd_validate)

    p_mi = sub.add_parser("mesh-info", help="print mesh statistics")
    common(p_mi)
    p_mi.set_defaults(fn=cmd_mesh_info)
    return parser


def _release_heap() -> None:
    """Return freed heap pages to the operating system.

    glibc raises its mmap threshold as a run frees large arrays and then
    keeps the pages it frees, so commands run repeatedly in one process
    would climb in resident memory.  ``main`` releases them before and after
    each command, so a command's peak is its own working set plus what the
    caller holds.  Skipped where the C library has no ``malloc_trim``.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def _pin_blas_threads() -> None:
    """Run numpy's and scipy's OpenBLAS on one thread unless the user set a thread count.

    Waking BLAS threads for the solver's small vector operations doubles the
    CPU time for the same wall time.  Each loaded copy is found in the memory
    map; a library or symbol that is missing is skipped.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "libscipy_openblas" in line})
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
            if hasattr(lib, name):
                getattr(lib, name)(ctypes.c_int(1))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _pin_blas_threads()
    _release_heap()
    # SIGTERM ends the command typed; only the main thread can set handlers, and the caller's returns after
    handles_term = threading.current_thread() is threading.main_thread()
    if handles_term:
        previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for key, msg in exc.problems:
            print(f"ERROR   {key}: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except (StepFailure, LinearSolveError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (FieldsIOError, OSError) as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt:
        print(f"interrupted: {args.command}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Terminated:
        print(f"terminated: {args.command}", file=sys.stderr)
        return EXIT_TERMINATED
    finally:
        if handles_term:
            signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)
        _release_heap()


if __name__ == "__main__":
    sys.exit(main())
