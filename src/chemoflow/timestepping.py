"""Uniform implicit-Euler time loop and the piecewise reconstructions in time.

A trajectory is the sequence of states produced by the per-step solver on a
uniform grid; the loop hands each step the ``State`` it holds as is and
stamps the new one with the grid's exact time.  Two reconstructions come
with it: the piecewise-linear
interpolant (continuous in time) and the right-continuous piecewise-constant
step function.  Both agree with the states at grid nodes; the exact L2-in-time
gap between them shrinks linearly with the step size, which the refinement
study verifies from the ledger's increment norms (``energy.interpolant_step_gap``).

A step that fails to converge is retried with the step halved, recursively up
to a configured depth; the substeps are merged back so the stored grid stays
uniform.  Retries are logged because the scheme itself fixes no fallback.

Each step's checkpoint binds it to its problem and names, per block, the
step whose first system the grid step size's carried start factor was
factorised from (0: none yet), so a resume rebuilds that factor from the
states it reads and continues bit for bit.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .assembly import OperatorSet
from .fluid import LinearSolveError, project_divergence_free
from .step_solver import SolverOptions, State, StepBase, outer_step

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"CFCK"
CHECKPOINT_VERSION = 4
# magic, u32 version, 64-byte mesh hash, u64 N, u64 m, f64 T, f64 t, u64 nv, u64 n_velocity,
# 64-byte trajectory data hash, u64 factor source of the oxygen, cell and fluid blocks;
# the fields follow, then a u32 CRC-32 of every byte before it
CHECKPOINT_HEADER = struct.Struct("<4sI64sQQddQQ64s3Q")


class StepFailure(Exception):
    """A step did not converge after all retries, or produced non-finite data."""

    def __init__(self, message, step=None, time=None, residual=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.residual = residual


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with N steps; k = T/N, t_m = m T / N."""

    T: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")

    @property
    def k(self) -> float:
        return self.T / self.N

    def time(self, m: int) -> float:
        # the endpoint is T by definition, immune to rounding in (m T)/N
        return self.T if m == self.N else (m * self.T) / self.N

    def times(self) -> np.ndarray:
        out = (np.arange(self.N + 1) * self.T) / self.N
        out[-1] = self.T
        return out


@dataclass(frozen=True)
class Trajectory:
    grid: TimeGrid
    states: tuple
    # per step: its converged attempts' FixedPointDiagnostics, a retried step's two
    # halves under its one number; the failed attempt appears only in the log warning
    diagnostics: tuple
    data_hash: str

    def __post_init__(self):
        if len(self.states) != self.grid.N + 1:
            raise ValueError("trajectory must hold N+1 states")


def initial_state(ops: OperatorSet, c0, n0, u0) -> State:
    """Package initial fields; velocities are projected solenoidal unless
    they vanish on the boundary with ``||B u0|| <= 1e-10 ||u0||`` already."""
    state = State(c=np.asarray(c0, dtype=float), n=np.asarray(n0, dtype=float), u=np.asarray(u0, dtype=float),
                  p=np.zeros(ops.mesh.n_vertices), t=0.0)
    state.validate(ops)
    u0 = state.u
    solenoidal = np.array_equal(ops.vspace.zero_boundary(u0), u0) and (
        np.linalg.norm(ops.B @ u0) <= 1e-10 * np.linalg.norm(u0)
    )
    return replace(state, u=ops.vspace.zero_boundary(u0) if solenoidal else project_divergence_free(u0, ops))


def trajectory_data_hash(ops: OperatorSet, params, state0: State, T: float) -> str:
    """Identifies (mesh, coefficients, initial data, horizon) independent of N."""
    h = hashlib.sha256()
    h.update(ops.mesh.data_hash().encode())
    h.update(repr(params).encode())
    h.update(struct.pack("<d", T))
    for f in (state0.c, state0.n, state0.u):
        h.update(np.ascontiguousarray(f).tobytes())
    return h.hexdigest()


def _advance(base: StepBase, state: State, t_next: float, depth: int, step: int):
    """One step of size ``base.k`` ending at t_next, halving on failure up to depth.

    The attempt starts from ``base``, the ``StepBase`` of its step size, and
    carries its first-system factors on in it.  A retry makes one
    ``base.halved()`` for its two halves, dropped with them, so the grid
    step size's base carries only factors of first systems at checkpointed
    states.  A failed linear solve is a failed attempt, like a stalled fixed
    point.  The new state's time is ``t_next`` exactly, the grid's own time of the step.
    """
    try:
        result = outer_step(base, state, step=step)
    except LinearSolveError as exc:
        result, residual, reason = None, None, str(exc)
    else:
        residual = result.diagnostics.final_residual
        reason = f"residual {residual:.3e}"
    if result is None or not result.diagnostics.converged:
        if depth <= 0:
            raise StepFailure(f"step {step} at t={t_next:g} failed to converge ({reason}) after exhausting retries",
                              step=step, time=t_next, residual=residual)
        logger.warning("step %d at t=%g did not converge with k=%g (%s); retrying with k/2 (local rescue, the "
                       "uniform grid is unchanged)", step, t_next, base.k, reason)
        half = base.halved()
        mid_state, d1 = _advance(half, state, t_next - half.k, depth - 1, step)
        end_state, d2 = _advance(half, mid_state, t_next, depth - 1, step)
        return end_state, d1 + d2
    new = State(c=result.c, n=result.n, u=result.u, p=result.p, t=t_next)
    bad = new.first_nonfinite_field()
    if bad is not None:
        raise StepFailure(f"non-finite values in field '{bad}' at step {step}, t={t_next:g}", step=step, time=t_next)
    return new, [result.diagnostics]


def run(
    ops: OperatorSet,
    params,
    grid: TimeGrid,
    state0: State,
    options: SolverOptions = SolverOptions(),
    checkpoint_dir=None,
    resume: bool = False,
) -> Trajectory:
    """March the coupled system over the uniform grid.

    A failed step is retried with halved steps down to ``options.retry_depth``
    levels.  Optionally writes one checkpoint file per step and resumes from
    the last complete checkpoint found in ``checkpoint_dir``, with the grid
    step size's start factors rebuilt from the sources that checkpoint names;
    ``resume`` without a ``checkpoint_dir`` is a ``ValueError``.
    """
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True needs the checkpoint_dir to resume from")
    bad = state0.first_nonfinite_field()
    if bad is not None:
        raise StepFailure(f"non-finite values in initial field '{bad}'", step=0)
    data_hash = trajectory_data_hash(ops, params, state0, grid.T)
    mesh_hash = ops.mesh.data_hash()

    states = [state0]
    diagnostics: list[tuple] = [()]
    start, sources = 0, (0, 0, 0)
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
        if resume:
            for m in range(grid.N, 0, -1):
                if (checkpoint_dir / checkpoint_name(m)).exists():
                    read = _read_checkpoints(checkpoint_dir, ops, params, grid, m, data_hash)
                    states = [checkpoint.state for checkpoint in read]
                    sources = read[-1].sources
                    diagnostics = [()] * (m + 1)
                    start = m
                    break
        write_checkpoint(checkpoint_dir / checkpoint_name(0), mesh_hash, grid, 0, states[0], data_hash)

    base = StepBase(ops, params, grid.k, options, sources, states)
    state = states[-1]
    for m in range(start + 1, grid.N + 1):
        state, diags = _advance(base, state, grid.time(m), options.retry_depth, m)
        states.append(state)
        diagnostics.append(tuple(diags))
        if checkpoint_dir is not None:
            write_checkpoint(checkpoint_dir / checkpoint_name(m), mesh_hash, grid, m, state, data_hash, base.sources)
    return Trajectory(
        grid=grid, states=tuple(states), diagnostics=tuple(diagnostics), data_hash=data_hash
    )


def _locate(grid: TimeGrid, t: float) -> tuple[int, float | None]:
    """Step ``idx`` and weight ``theta`` with g(t) = (1 - theta) g[idx - 1] + theta g[idx].

    ``theta`` is None when t is the grid node ``idx``, which is then read as is.
    """
    if t < 0 or t > grid.T:
        raise ValueError(f"time {t} outside [0, {grid.T}]")
    times = grid.times()
    idx = min(int(np.searchsorted(times, t, side="left")), grid.N)
    if times[idx] == t:
        return idx, None
    return idx, (t - times[idx - 1]) / (times[idx] - times[idx - 1])


def interpolate_state(traj: Trajectory, t: float) -> State:
    """Piecewise-linear-in-time evaluation; exact states at grid nodes."""
    idx, theta = _locate(traj.grid, t)
    if theta is None:
        return traj.states[idx]
    a, b = traj.states[idx - 1], traj.states[idx]
    w0, w1 = 1.0 - theta, theta
    return State(
        c=w0 * a.c + w1 * b.c,
        n=w0 * a.n + w1 * b.n,
        u=w0 * a.u + w1 * b.u,
        p=w0 * a.p + w1 * b.p,
        t=t,
    )


def sample_state(traj: Trajectory, t: float) -> State:
    """Right-continuous piecewise-constant selection; the value at 0 is the
    initial state, on (t_{m-1}, t_m] it is states[m]."""
    idx, _ = _locate(traj.grid, t)
    return traj.states[idx]


def checkpoint_name(m: int) -> str:
    return f"step_{m:06d}.ckpt"


class Checkpoint(NamedTuple):
    """One checkpoint file: its step, state, trajectory data hash and the factor source of each block."""

    m: int
    state: State
    data_hash: str
    sources: tuple


def write_checkpoint(path, mesh_hash: str, grid: TimeGrid, m: int, state: State, data_hash: str,
                     sources=(0, 0, 0)) -> None:
    """Binary checkpoint: the ``CHECKPOINT_HEADER``, c, n, u, p as little-endian f64, then a u32 CRC-32.

    ``sources`` names, per block, the step whose first system the grid step
    size's start factor came from (0: none yet).  The file
    is written as ``<name>.tmp`` beside ``path`` and renamed onto it, so an
    interrupted write never leaves a checkpoint that a resume or
    ``load_trajectory`` would read.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            header = CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, mesh_hash.encode(), grid.N, m,
                                            grid.T, state.t, state.c.size, state.u.size, data_hash.encode(), *sources)
            f.write(header)
            crc = zlib.crc32(header)
            for arr in (state.c, state.n, state.u, state.p):
                chunk = np.ascontiguousarray(arr, dtype="<f8").tobytes()
                f.write(chunk)
                crc = zlib.crc32(chunk, crc)
            f.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_checkpoint(path, mesh_hash: str, grid: TimeGrid) -> Checkpoint:
    """Read one checkpoint, refusing version, mesh, length, checksum, grid or factor-source mismatches."""
    with open(path, "rb") as f:
        data = f.read()
    size = len(data)
    if size < CHECKPOINT_HEADER.size:
        raise StepFailure(f"{path}: checkpoint is {size} bytes, shorter than its header")
    magic, version, stored_hash, N, m, T, t, nv, nvel, data_hash, *sources = CHECKPOINT_HEADER.unpack_from(data)
    if magic != CHECKPOINT_MAGIC:
        raise StepFailure(f"{path}: not a checkpoint file")
    if version != CHECKPOINT_VERSION:
        raise StepFailure(f"{path}: checkpoint version {version} not supported, only {CHECKPOINT_VERSION}")
    if stored_hash != mesh_hash.encode():
        raise StepFailure(f"{path}: checkpoint belongs to a different mesh")
    expected = CHECKPOINT_HEADER.size + 8 * (3 * nv + nvel) + 4
    if size != expected:
        raise StepFailure(f"{path}: checkpoint is {size} bytes, its header implies {expected}")
    if zlib.crc32(data[:-4]) != int.from_bytes(data[-4:], "little"):
        raise StepFailure(f"{path}: checkpoint checksum does not match its contents")
    if N != grid.N or T != grid.T:
        raise StepFailure(f"{path}: checkpoint grid (T={T}, N={N}) does not match")
    if max(sources) > m:
        raise StepFailure(f"{path}: checkpoint of step {m} names factor sources {tuple(sources)}")
    values = np.frombuffer(data, "<f8", 3 * nv + nvel, CHECKPOINT_HEADER.size)
    fields = [field.copy() for field in np.split(values, np.cumsum([nv, nv, nvel]))]
    return Checkpoint(m, State(*fields, t=t), data_hash.decode("ascii", "replace"), tuple(sources))


def _read_checkpoints(checkpoint_dir: Path, ops: OperatorSet, params, grid: TimeGrid, last: int,
                      data_hash=None) -> list:
    """The checkpoints of steps ``0..last``.

    Each must be stored under its own step and time and bind the problem
    ``data_hash``, by default the one of the coefficients ``params`` with
    step 0's state; any other is a ``StepFailure``.
    """
    read = []
    mesh_hash = ops.mesh.data_hash()
    for m in range(last + 1):
        path = checkpoint_dir / checkpoint_name(m)
        if not path.exists():
            raise StepFailure(f"missing checkpoint for step {m} in {checkpoint_dir}", step=m)
        checkpoint = read_checkpoint(path, mesh_hash, grid)
        if checkpoint.m != m or checkpoint.state.t != grid.time(m):
            raise StepFailure(f"{path}: checkpoint holds step {checkpoint.m} at t={checkpoint.state.t:.17g}, "
                              f"not step {m}", step=m)
        if data_hash is None:
            data_hash = trajectory_data_hash(ops, params, checkpoint.state, grid.T)
        if checkpoint.data_hash != data_hash:
            raise StepFailure(f"{path}: checkpoint belongs to a different problem (coefficients, initial data "
                              f"or horizon)", step=m)
        read.append(checkpoint)
    return read


def load_trajectory(checkpoint_dir, ops: OperatorSet, grid: TimeGrid, params) -> Trajectory:
    """Rebuild a trajectory from a complete run of checkpoints of the problem of ``params``."""
    read = _read_checkpoints(Path(checkpoint_dir), ops, params, grid, grid.N)
    return Trajectory(
        grid=grid,
        states=tuple(checkpoint.state for checkpoint in read),
        diagnostics=tuple(() for _ in read),
        data_hash=read[0].data_hash,
    )
