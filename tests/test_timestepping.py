import gc
import re
import struct
import zlib

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from chemoflow import fluid, timestepping
from chemoflow.fluid import project_divergence_free, steady_stokes_velocity
from chemoflow.energy import build_ledger, interpolant_step_gap
from chemoflow.model import ModelParams
from chemoflow.step_solver import SolverOptions
from chemoflow.timestepping import (
    StepFailure,
    TimeGrid,
    Trajectory,
    checkpoint_name,
    initial_state,
    interpolate_state,
    load_trajectory,
    read_checkpoint,
    run,
    sample_state,
)

PARAMS = ModelParams()


def steady_initial(ops):
    nv = ops.mesh.n_vertices
    return initial_state(ops, np.ones(nv), np.zeros(nv), np.zeros(ops.vspace.n_velocity))


def bump_initial(ops):
    x, y = ops.mesh.vertices.T
    n0 = 0.8 * np.exp(-((x**2 + (y - 0.3) ** 2)) / 0.125)
    return initial_state(ops, np.ones_like(n0), n0, np.zeros(ops.vspace.n_velocity))


@pytest.fixture(scope="module")
def short_run(coarse_ops):
    grid = TimeGrid(T=0.25, N=8)
    return run(coarse_ops, PARAMS, grid, bump_initial(coarse_ops)), grid


def counted_projections(monkeypatch):
    calls = []

    def counted(u, ops):
        calls.append(u)
        return project_divergence_free(u, ops)

    monkeypatch.setattr(timestepping, "project_divergence_free", counted)
    return calls


def test_initial_state_keeps_a_solenoidal_velocity(coarse_ops, monkeypatch):
    ops = coarse_ops
    x, y = ops.mesh.vertices.T
    n0 = np.exp(-((x**2 + (y - 0.3) ** 2)) / 0.125)
    u0 = steady_stokes_velocity(ops, PARAMS, n0)
    calls = counted_projections(monkeypatch)
    state = initial_state(ops, np.ones_like(n0), n0, u0)
    assert calls == []
    assert np.array_equal(state.u, u0)


def test_initial_state_projects_a_velocity_that_is_not_solenoidal(coarse_ops, monkeypatch):
    ops = coarse_ops
    nv = ops.mesh.n_vertices
    rng = np.random.default_rng(3)
    divergent = ops.vspace.zero_boundary(rng.standard_normal(ops.vspace.n_velocity))
    ones = np.ones(ops.vspace.n_velocity)
    on_boundary = project_divergence_free(divergent, ops) + ones - ops.vspace.zero_boundary(ones)
    calls = counted_projections(monkeypatch)
    for u0 in (divergent, on_boundary):
        state = initial_state(ops, np.ones(nv), np.zeros(nv), u0)
        assert np.array_equal(ops.vspace.zero_boundary(state.u), state.u)
        assert np.linalg.norm(ops.B @ state.u) <= 1e-10 * np.linalg.norm(state.u)
    assert len(calls) == 2


def test_grid_endpoint_exact():
    grid = TimeGrid(T=0.7, N=3)
    assert grid.time(3) == 0.7
    assert grid.times()[-1] == 0.7
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, N=0)


def test_steady_state_reproduced(coarse_ops):
    grid = TimeGrid(T=1.0, N=16)
    traj = run(coarse_ops, PARAMS, grid, steady_initial(coarse_ops))
    for state in traj.states:
        assert np.max(np.abs(state.c - 1.0)) < 1e-12
        assert np.max(np.abs(state.n)) < 1e-12
        assert np.max(np.abs(state.u)) < 1e-12


def test_mass_behaviour_on_short_run(coarse_ops, short_run):
    traj, grid = short_run
    ops = coarse_ops
    loop = ops.mesh.boundary_loop
    ones = np.ones(ops.mesh.n_vertices)
    mass_n = [ones @ (ops.M_vol @ s.n) for s in traj.states]
    assert all(abs(m - mass_n[0]) <= 1e-8 * abs(mass_n[0]) for m in mass_n)
    combined = [
        ones @ (ops.M_vol @ s.c)
        + (PARAMS.alpha / PARAMS.b) * (np.ones(ops.mesh.n_boundary) @ (ops.M_bnd_global[loop][:, loop] @ s.c[loop]))
        for s in traj.states
    ]
    min_n = min(s.n.min() for s in traj.states)
    if min_n >= 0:
        assert all(b < a for a, b in zip(combined[:-1], combined[1:]))


def test_interpolant_nodes_bit_identical(short_run):
    traj, grid = short_run
    for m in range(grid.N + 1):
        s = interpolate_state(traj, grid.time(m))
        assert s is traj.states[m]
        s2 = sample_state(traj, grid.time(m))
        assert s2 is traj.states[m]


def test_interpolant_midpoint_mean(short_run):
    traj, grid = short_run
    t = 0.5 * (grid.time(3) + grid.time(4))
    s = interpolate_state(traj, t)
    mean = 0.5 * (traj.states[3].c + traj.states[4].c)
    assert np.allclose(s.c, mean, rtol=1e-14, atol=1e-16)


def test_step_function_right_continuous(short_run):
    traj, grid = short_run
    t_inside = 0.5 * (grid.time(2) + grid.time(3))
    s = sample_state(traj, t_inside)
    assert s is traj.states[3]
    assert sample_state(traj, 0.0) is traj.states[0]
    with pytest.raises(ValueError):
        sample_state(traj, -0.01)
    with pytest.raises(ValueError):
        interpolate_state(traj, grid.T + 1e-9)


def test_constant_trajectory_interpolation(coarse_ops):
    grid = TimeGrid(T=0.5, N=4)
    traj = run(coarse_ops, PARAMS, grid, steady_initial(coarse_ops))
    s = interpolate_state(traj, 0.33 * grid.T)
    assert np.allclose(s.c, 1.0, atol=1e-12)
    gaps = interpolant_step_gap(build_ledger(traj, coarse_ops, PARAMS))
    assert all(abs(v) < 1e-12 for v in gaps.values())


def test_single_step_gap_closed_form(coarse_ops):
    ops = coarse_ops
    grid = TimeGrid(T=0.05, N=1)
    traj = run(ops, PARAMS, grid, bump_initial(ops))
    gaps = interpolant_step_gap(build_ledger(traj, ops, PARAMS))
    d2 = ops.scalar_norm_sq(traj.states[1].c - traj.states[0].c)
    expected = np.sqrt(grid.k * d2 / 3.0)
    assert abs(gaps["c"] - expected) <= 1e-12 * expected


def test_run_deterministic(coarse_ops):
    grid = TimeGrid(T=0.2, N=4)
    a = run(coarse_ops, PARAMS, grid, bump_initial(coarse_ops))
    b = run(coarse_ops, PARAMS, grid, bump_initial(coarse_ops))
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.c, sb.c)
        assert np.array_equal(sa.n, sb.n)
        assert np.array_equal(sa.u, sb.u)
        assert np.array_equal(sa.p, sb.p)


def test_nan_initial_data_aborts(coarse_ops):
    nv = coarse_ops.mesh.n_vertices
    c0 = np.ones(nv)
    c0[3] = np.nan
    state0 = initial_state(coarse_ops, c0, np.zeros(nv), np.zeros(coarse_ops.vspace.n_velocity))
    with pytest.raises(StepFailure, match="'c'"):
        run(coarse_ops, PARAMS, TimeGrid(T=0.1, N=2), state0)


def test_failure_after_retries_names_step(coarse_ops):
    # one inner iteration cannot converge; retry depth 1 then abort
    opts = SolverOptions(max_inner=1, max_outer=1, retry_depth=1)
    with pytest.raises(StepFailure) as exc:
        run(
            coarse_ops,
            PARAMS,
            TimeGrid(T=1.0, N=2),
            bump_initial(coarse_ops),
            options=opts,
        )
    assert exc.value.step == 1


def failing_factorisation(monkeypatch):
    attempts = []

    def singular(matrix, **kw):
        attempts.append(matrix.shape)
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(fluid, "splu", singular)
    return attempts


def test_linear_solve_failure_is_retried_then_names_step(coarse_ops, monkeypatch):
    attempts = failing_factorisation(monkeypatch)
    # the oxygen base factor is the first factorisation of each step size
    with pytest.raises(StepFailure, match="oxygen factorisation failed") as exc:
        run(coarse_ops, PARAMS, TimeGrid(T=1.0, N=2), steady_initial(coarse_ops), SolverOptions(retry_depth=2))
    # k = 0.5 fails, then its first half, then the first quarter, which ends at 0.125
    assert exc.value.step == 1 and exc.value.time == 0.125
    assert len(attempts) == 3


def test_retry_rescues_with_halved_step(coarse_ops, caplog, monkeypatch):
    # starve the inner loop so the k=4 step fails but the k=2 halves succeed
    import logging

    ops = coarse_ops
    grid = TimeGrid(T=4.0, N=1)
    params = ModelParams(grad_sigma=(0.0, 0.0))  # one outer pass per attempt
    opts = SolverOptions(max_inner=8, max_outer=1, inner_tol=1e-10, outer_tol=1e-9, retry_depth=2)
    made = []

    def counted(matrix, **kw):
        made.append(matrix.shape)
        return splu(matrix, **kw)

    monkeypatch.setattr(fluid, "splu", counted)
    with caplog.at_level(logging.WARNING):
        traj = run(ops, params, grid, bump_initial(ops), options=opts)
    assert any("retrying with k/2" in r.message for r in caplog.records)
    assert len(traj.states) == grid.N + 1
    assert traj.states[1].t == grid.time(1)  # merged back onto the uniform grid
    assert len(traj.diagnostics[1]) > 1  # substep diagnostics kept
    # one oxygen, cell and Stokes base factor per step size, shared by both
    # k=2 halves
    scalar = [shape for shape in made if shape[0] == ops.mesh.n_vertices]
    assert len(made) - len(scalar) == 2 and len(scalar) == 4


def stokes_initial(ops, params):
    x, y = ops.mesh.vertices.T
    n0 = 0.8 * np.exp(-((x**2 + (y - 0.3) ** 2)) / 0.125)
    return initial_state(ops, np.ones_like(n0), n0, steady_stokes_velocity(ops, params, n0))


def check_roundtrip_and_resume(ops, params, state0, directory):
    grid = TimeGrid(T=0.2, N=4)
    full = run(ops, params, grid, state0, checkpoint_dir=directory)
    loaded = load_trajectory(directory, ops, grid, params)
    for sa, sb in zip(full.states, loaded.states):
        assert np.array_equal(sa.c, sb.c)
        assert np.array_equal(sa.u, sb.u)
    assert loaded.data_hash == full.data_hash

    # drop the last two checkpoints and resume
    for m in (3, 4):
        (directory / f"step_{m:06d}.ckpt").unlink()
    resumed = run(ops, params, grid, state0, checkpoint_dir=directory, resume=True)
    for sa, sb in zip(full.states, resumed.states):
        for name in ("c", "n", "u", "p"):
            assert np.array_equal(getattr(sa, name), getattr(sb, name))


def test_checkpoint_roundtrip_and_resume(coarse_ops, tmp_path):
    check_roundtrip_and_resume(coarse_ops, PARAMS, bump_initial(coarse_ops), tmp_path / "a")


def test_interrupted_checkpoint_write_leaves_no_checkpoint(coarse_ops, tmp_path, monkeypatch):
    # the write of step 3 fails on its last field, p: the partial file never
    # becomes a checkpoint, and a resume restarts from step 2
    ops, grid, directory = coarse_ops, TimeGrid(T=0.2, N=4), tmp_path / "a"
    state0 = bump_initial(ops)
    full = run(ops, PARAMS, grid, state0)
    fields = []

    class Unwritable:
        def tobytes(self):
            raise OSError("no space left on device")

    class NumpyFailingOnStep3P:
        def __getattr__(self, name):
            return getattr(np, name)

        def ascontiguousarray(self, arr, dtype=None):
            if fields:  # armed once step 2 is written; fields c, n, u, p follow
                fields.append(arr)
                if len(fields) == 5:
                    return Unwritable()
            return np.ascontiguousarray(arr, dtype=dtype)

    write = timestepping.write_checkpoint

    def arming_write(path, mesh_hash, grid, m, *rest):
        write(path, mesh_hash, grid, m, *rest)
        if m == 2:
            fields.append(None)

    monkeypatch.setattr(timestepping, "write_checkpoint", arming_write)
    monkeypatch.setattr(timestepping, "np", NumpyFailingOnStep3P())
    with pytest.raises(OSError, match="no space"):
        run(ops, PARAMS, grid, state0, checkpoint_dir=directory)
    monkeypatch.undo()
    assert fields[-1] is not None and fields[-1].shape == state0.p.shape
    assert sorted(path.name for path in directory.iterdir()) == [f"step_{m:06d}.ckpt" for m in range(3)]

    computed = []
    outer = timestepping.outer_step

    def recorded(*args, step, **kwargs):
        computed.append(step)
        return outer(*args, step=step, **kwargs)

    monkeypatch.setattr(timestepping, "outer_step", recorded)
    resumed = run(ops, PARAMS, grid, state0, checkpoint_dir=directory, resume=True)
    assert computed == [3, 4]
    for sa, sb in zip(full.states, resumed.states):
        for name in ("c", "n", "u", "p"):
            assert np.array_equal(getattr(sa, name), getattr(sb, name))


def test_resume_with_an_earlier_checkpoint_missing_names_the_step(coarse_ops, tmp_path):
    # the last checkpoint is there but step 1's is not: the resume refuses
    ops, grid, directory = coarse_ops, TimeGrid(T=0.15, N=3), tmp_path / "a"
    state0 = bump_initial(ops)
    run(ops, PARAMS, grid, state0, checkpoint_dir=directory)
    (directory / "step_000001.ckpt").unlink()
    with pytest.raises(StepFailure, match="missing checkpoint for step 1 in") as exc:
        run(ops, PARAMS, grid, state0, checkpoint_dir=directory, resume=True)
    assert exc.value.step == 1


def test_resume_without_a_checkpoint_directory_is_refused(coarse_ops, monkeypatch):
    # nothing to resume from: refused before any step, not a run from step 0
    ops = coarse_ops
    monkeypatch.setattr(timestepping, "outer_step", None)  # a step taken would raise TypeError
    with pytest.raises(ValueError, match="checkpoint_dir"):
        run(ops, PARAMS, TimeGrid(T=0.1, N=2), bump_initial(ops), resume=True)


@pytest.mark.parametrize("header", ["step", "time"])
def test_checkpoint_under_another_steps_name_is_refused(coarse_ops, tmp_path, header):
    # step 2's checkpoint copied over step 3's, or step 3's with another
    # time stamp: loading and resuming both refuse it by its path
    ops, grid, directory = coarse_ops, TimeGrid(T=0.2, N=4), tmp_path / "a"
    state0 = bump_initial(ops)
    run(ops, PARAMS, grid, state0, checkpoint_dir=directory)
    path = directory / "step_000003.ckpt"
    if header == "step":
        path.write_bytes((directory / "step_000002.ckpt").read_bytes())
    else:
        data = bytearray(path.read_bytes())
        data[96:104] = struct.pack("<d", grid.time(2))  # the header's f64 t
        data[-4:] = struct.pack("<I", zlib.crc32(data[:-4]))  # resealed, so the time check is what refuses it
        path.write_bytes(bytes(data))
    message = f"{path}: checkpoint holds step {3 if header == 'time' else 2} at t="
    with pytest.raises(StepFailure, match=re.escape(message)) as exc:
        load_trajectory(directory, ops, grid, PARAMS)
    assert exc.value.step == 3
    (directory / "step_000004.ckpt").unlink()
    with pytest.raises(StepFailure, match=re.escape(message)):
        run(ops, PARAMS, grid, state0, checkpoint_dir=directory, resume=True)


def test_checkpoint_resume_with_fluid_fallbacks_within_steps(medium_ops, tmp_path, monkeypatch):
    # a Stokes start at low viscosity: the fluid falls back to a fresh factor
    # inside steps and keeps it for the step's later outer iterations
    ops = medium_ops
    params = ModelParams(xi=0.01)
    state0 = stokes_initial(ops, params)
    saddle_factorisations = []

    def counted(matrix, **kw):
        if matrix.shape[0] > ops.mesh.n_vertices:
            saddle_factorisations.append(matrix.shape)
        return splu(matrix, **kw)

    monkeypatch.setattr(fluid, "splu", counted)
    check_roundtrip_and_resume(ops, params, state0, tmp_path / "a")
    assert len(saddle_factorisations) > 2  # the base and fallbacks, in both runs


def test_resume_around_a_halved_retry_is_bit_identical(coarse_ops, tmp_path, monkeypatch):
    # the full-size attempt of step 2 is made to fail, so two k/2 halves
    # rescue it and step 3 starts where neither step size's last system is
    # at its velocity; runs interrupted before and after step 2 and resumed
    # reproduce the uninterrupted run bit for bit
    ops, grid = coarse_ops, TimeGrid(T=0.2, N=4)
    state0 = bump_initial(ops)
    after_step1 = run(ops, PARAMS, TimeGrid(T=grid.k, N=1), state0).states[1]
    outer = timestepping.outer_step

    def failing_step2(inputs, params, ops, options, **kwargs):
        result = outer(inputs, params, ops, options, **kwargs)
        if inputs.dt == grid.k and np.array_equal(inputs.c_prev, after_step1.c):
            result.diagnostics.converged = False
        return result

    monkeypatch.setattr(timestepping, "outer_step", failing_step2)
    directory = tmp_path / "a"
    full = run(ops, PARAMS, grid, state0, checkpoint_dir=directory)
    assert [len(d) for d in full.diagnostics[1:]] == [1, 2, 1, 1]
    for last in (1, 2):
        for m in range(last + 1, grid.N + 1):
            (directory / f"step_{m:06d}.ckpt").unlink()
        resumed = run(ops, PARAMS, grid, state0, checkpoint_dir=directory, resume=True)
        for sa, sb in zip(full.states, resumed.states):
            for name in ("c", "n", "u", "p"):
                assert np.array_equal(getattr(sa, name), getattr(sb, name)), (last, sa.t, name)


def test_resume_of_carried_factors_around_a_halved_retry_is_bit_identical(medium_ops, tmp_path, monkeypatch):
    # a Stokes start at low viscosity: the grid step size's blocks give up
    # their start factors and carry first-system factors, which the
    # checkpoints name; the full-size attempt of step 2 is made to fail, so
    # two k/2 halves, whose base carries nothing, rescue it.  Runs
    # interrupted before and after step 2 rebuild the carried factors on
    # resume and reproduce the uninterrupted run bit for bit
    ops, grid = medium_ops, TimeGrid(T=0.15, N=3)
    params = ModelParams(xi=0.01)
    state0 = stokes_initial(ops, params)
    after_step1 = run(ops, params, TimeGrid(T=grid.k, N=1), state0).states[1]
    outer = timestepping.outer_step

    def failing_step2(inputs, params, ops, options, **kwargs):
        result = outer(inputs, params, ops, options, **kwargs)
        if inputs.dt == grid.k and np.array_equal(inputs.c_prev, after_step1.c):
            result.diagnostics.converged = False
        return result

    monkeypatch.setattr(timestepping, "outer_step", failing_step2)
    directory = tmp_path / "a"
    full = run(ops, params, grid, state0, checkpoint_dir=directory)
    assert [len(d) for d in full.diagnostics[1:]] == [1, 2, 1]
    paths = [directory / checkpoint_name(m) for m in range(grid.N + 1)]
    sources = [read_checkpoint(path, ops.mesh.data_hash(), grid).sources for path in paths]
    # every block of every grid step gave its start factor up, step 2's in its failed attempt
    assert sources == [(m, m, m) for m in range(grid.N + 1)]
    for last in (1, 2):
        for path in paths[last + 1 :]:
            path.unlink()
        resumed = run(ops, params, grid, state0, checkpoint_dir=directory, resume=True)
        for sa, sb in zip(full.states, resumed.states):
            for name in ("c", "n", "u", "p"):
                assert np.array_equal(getattr(sa, name), getattr(sb, name)), (last, sa.t, name)
        assert [read_checkpoint(path, ops.mesh.data_hash(), grid).sources for path in paths] == sources


def test_held_factors_are_freed_with_the_run(coarse_ops):
    # reference counting alone must free every held factor when the run
    # returns, or the factors of earlier in-process runs stay resident
    def held():
        return sum(isinstance(o, fluid.KeptFactor) for o in gc.get_objects())

    gc.collect()
    before = held()
    gc.disable()
    try:
        run(coarse_ops, PARAMS, TimeGrid(T=0.1, N=2), bump_initial(coarse_ops))
        assert held() == before
    finally:
        gc.enable()


def test_checkpoint_rejects_other_mesh(coarse_ops, medium_ops, tmp_path):
    grid = TimeGrid(T=0.1, N=1)
    run(coarse_ops, PARAMS, grid, steady_initial(coarse_ops), checkpoint_dir=tmp_path)
    with pytest.raises(StepFailure, match="different mesh"):
        load_trajectory(tmp_path, medium_ops, grid, PARAMS)


def test_checkpoint_rejects_other_version(coarse_ops, tmp_path):
    from chemoflow.timestepping import read_checkpoint

    grid = TimeGrid(T=0.1, N=1)
    run(coarse_ops, PARAMS, grid, steady_initial(coarse_ops), checkpoint_dir=tmp_path)
    path = tmp_path / "step_000000.ckpt"
    data = bytearray(path.read_bytes())
    data[4] = 99  # bump the version field
    path.write_bytes(bytes(data))
    with pytest.raises(StepFailure, match="version"):
        read_checkpoint(path, coarse_ops.mesh.data_hash(), grid)
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(StepFailure, match="not a checkpoint"):
        read_checkpoint(path, coarse_ops.mesh.data_hash(), grid)
