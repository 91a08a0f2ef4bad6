import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemoflow.energy import (
    CSV_COLUMNS,
    build_ledger,
    check_cell_solve_bound,
    check_oxygen_solve_bound,
    check_step_inequality,
    discrete_gronwall,
    export_ledger,
    interpolant_step_gap,
    kinetic_identity_residual,
    time_translate_decay,
    uniform_bound_scan,
)
from chemoflow.assembly import build_operators
from chemoflow.geometry import build_disc_mesh
from chemoflow.model import ModelParams
from chemoflow.timestepping import State, TimeGrid, Trajectory, initial_state, interpolate_state, run
from conftest import BENCH_PARAMS, bench_initial

PARAMS = ModelParams()


def bump_initial(ops):
    x, y = ops.mesh.vertices.T
    n0 = 0.8 * np.exp(-((x**2 + (y - 0.3) ** 2)) / 0.125)
    return initial_state(ops, np.ones_like(n0), n0, np.zeros(ops.vspace.n_velocity))


def steady_initial(ops):
    nv = ops.mesh.n_vertices
    return initial_state(ops, np.ones(nv), np.zeros(nv), np.zeros(ops.vspace.n_velocity))


@pytest.fixture(scope="module")
def bump_ledger(coarse_ops):
    traj = run(coarse_ops, PARAMS, TimeGrid(T=0.25, N=8), bump_initial(coarse_ops))
    return build_ledger(traj, coarse_ops, PARAMS), traj


def test_steady_ledger_all_increments_zero(coarse_ops):
    traj = run(coarse_ops, PARAMS, TimeGrid(T=0.2, N=4), steady_initial(coarse_ops))
    led = build_ledger(traj, coarse_ops, PARAMS)
    for f in ("c", "ctau", "n", "u"):
        assert np.max(led[f"d{f}_sq"]) < 1e-24
        assert np.allclose(led[f"{f}_sq"], led[f"{f}_sq"][0], rtol=1e-12, atol=1e-20)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parallelogram_identity_random_vectors(seed):
    # 2 a.(a - b) = |a|^2 - |b|^2 + |a - b|^2 for the Euclidean inner product
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(40)
    b = rng.standard_normal(40)
    lhs = 2 * a @ (a - b)
    rhs = a @ a - b @ b + (a - b) @ (a - b)
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs), 1.0)


def test_ledger_identity_rows(bump_ledger):
    led, _ = bump_ledger
    for f in ("c", "ctau", "n", "u"):
        assert led.identity_residual(f) < 1e-12


def test_ledger_boundary_rows_on_a_non_monotone_loop():
    # a loop that starts mid-way round: restricting the vertex-indexed loop
    # operators to it reorders their entries, the one place where it does.
    # The disc is stretched to an ellipse so the edge lengths differ and a
    # loop operator indexed off by a rotation would show.
    mesh = build_disc_mesh(1.0, 0.35)
    mesh = dataclasses.replace(mesh, vertices=mesh.vertices * [1.5, 1.0], boundary_loop=np.roll(mesh.boundary_loop, 5))
    assert np.any(np.diff(mesh.boundary_loop) < 0)
    ops = build_operators(mesh)
    rng = np.random.default_rng(4)
    nv, nu = mesh.n_vertices, ops.vspace.n_velocity
    states = tuple(State(c=rng.random(nv), n=rng.random(nv), u=np.zeros(nu), p=np.zeros(nv), t=t) for t in (0.0, 1.0))
    traj = Trajectory(grid=TimeGrid(T=1.0, N=1), states=states, diagnostics=((), ()), data_hash="")
    led = build_ledger(traj, ops, PARAMS)
    # dense loop-indexed operators, edge j joining loop positions j and j+1
    h = mesh.boundary_edge_lengths()
    nb = mesh.n_boundary
    M, K = np.zeros((nb, nb)), np.zeros((nb, nb))
    for j in range(nb):
        ends = np.ix_([j, (j + 1) % nb], [j, (j + 1) % nb])
        M[ends] += h[j] / 6 * np.array([[2.0, 1.0], [1.0, 2.0]])
        K[ends] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h[j]
    for m, state in enumerate(states):
        ct = state.c[mesh.boundary_loop]
        assert abs(led["ctau_sq"][m] - ct @ M @ ct) <= 1e-14 * (ct @ M @ ct)
        assert abs(led["grad_ctau_sq"][m] - ct @ K @ ct) <= 1e-14 * (ct @ K @ ct)


def test_ledger_mass_rows(bump_ledger):
    led, _ = bump_ledger
    assert np.max(np.abs(led["mass_n"] - led["mass_n"][0])) <= 1e-8 * abs(led["mass_n"][0])
    # combined oxygen mass drops by exactly the consumed amount per step
    for m in range(1, led.N + 1):
        residual = led["mass_c_combined"][m] - led["mass_c_combined"][m - 1] + led.k * led["consumption"][m]
        assert abs(residual) <= 1e-8 * abs(led["mass_c_combined"][0])
    if led["min_n"].min() >= 0:
        assert np.all(np.diff(led["mass_c_combined"]) < 0)


def test_step_inequality_on_benchmark_run(bump_ledger):
    led, _ = bump_ledger
    rep = check_step_inequality(led, PARAMS, 0.5 * PARAMS.beta / PARAMS.g1)
    assert rep.lhs.shape == (led.N,)
    assert np.all(rep.passed), f"slack {rep.slack}"
    assert np.all(check_oxygen_solve_bound(led, PARAMS).passed)
    assert np.all(check_cell_solve_bound(led, PARAMS).passed)
    assert np.all(kinetic_identity_residual(led, PARAMS) < 1e-10)


def step_reference(led, m, params, delta):
    """Each estimate at the one step m, restated row by row from the ledger."""
    k, a, b, g1, beta, f1 = led.k, params.alpha, params.b, params.g1, params.beta, params.f1

    def diff(field):
        return led[f"{field}_sq"][m] - led[f"{field}_sq"][m - 1] + led[f"d{field}_sq"][m]

    combined = (
        diff("c")
        + (2 * k * a / b) * led["grad_ctau_sq"][m]
        + (a / b) * diff("ctau")
        + (4 * delta * a / g1) * diff("n")
        + (8 * k * delta / g1) * (a * beta - g1 * a * delta) * led["grad_n_sq"][m],
        k * f1 * (led["c_sq"][m] + led["n_sq"][m]),
    )
    dox = 0.5 * min(1.0, 1.0 / b)
    oxygen = (
        (a * k / b) * led["grad_ctau_sq"][m]
        + a * k * led["grad_c_sq"][m]
        + (1 - dox) * led["c_sq"][m]
        + a * (1 / b - dox) * led["ctau_sq"][m],
        (1 / (2 * dox)) * led["c_sq"][m - 1]
        + (a / (4 * dox * b * b)) * led["ctau_sq"][m - 1]
        + (k * k * f1**2 / (2 * dox)) * led["n_sq"][m],
    )
    cell = (
        (k * beta - k * g1 / 2) * led["grad_n_sq"][m] + (1 - 0.5) * led["n_sq"][m],
        (1 / (4 * 0.5)) * led["n_sq"][m - 1] + (k * g1 / 2) * led["grad_c_sq"][m],
    )
    lhs = diff("u") + 2 * k * params.xi * led["grad_u_sq"][m]
    rhs = 2 * k * led["force_dot_u"][m]
    kinetic = abs(lhs - rhs) / max(led["u_sq"][m], led["u_sq"][m - 1], abs(rhs), 1e-300)
    return combined, oxygen, cell, kinetic


def test_column_checks_equal_per_step_reference(bump_ledger):
    led, _ = bump_ledger
    delta = 0.5 * PARAMS.beta / PARAMS.g1
    reports = (
        check_step_inequality(led, PARAMS, delta),
        check_oxygen_solve_bound(led, PARAMS),
        check_cell_solve_bound(led, PARAMS),
    )
    kinetic = kinetic_identity_residual(led, PARAMS)
    for m in range(1, led.N + 1):
        *sides, kin = step_reference(led, m, PARAMS, delta)
        for rep, (lhs, rhs) in zip(reports, sides, strict=True):
            assert rep.lhs[m - 1] == lhs and rep.rhs[m - 1] == rhs, (rep.name, m)
        assert kinetic[m - 1] == kin, m


def test_ledger_gap_equals_pass_over_states(coarse_ops, bump_ledger):
    led, traj = bump_ledger
    acc = {"c": 0.0, "n": 0.0, "u": 0.0}
    for prev, cur in zip(traj.states[:-1], traj.states[1:]):
        acc["c"] += coarse_ops.scalar_norm_sq(cur.c - prev.c)
        acc["n"] += coarse_ops.scalar_norm_sq(cur.n - prev.n)
        acc["u"] += coarse_ops.velocity_norm_sq(cur.u - prev.u)
    direct = {f: float(np.sqrt(traj.grid.k * v / 3.0)) for f, v in acc.items()}
    assert interpolant_step_gap(led) == direct


def test_step_inequality_trivial_steady(coarse_ops):
    traj = run(coarse_ops, PARAMS, TimeGrid(T=0.2, N=4), steady_initial(coarse_ops))
    led = build_ledger(traj, coarse_ops, PARAMS)
    rep = check_step_inequality(led, PARAMS, delta=0.5)
    assert np.all(np.abs(rep.lhs) < 1e-12 * rep.rhs)  # zero up to solve round-off
    assert np.all(rep.rhs > 0) and np.all(rep.passed)


def test_step_inequality_rejects_bad_delta(bump_ledger):
    led, _ = bump_ledger
    with pytest.raises(ValueError):
        check_step_inequality(led, PARAMS, delta=PARAMS.beta / PARAMS.g1)


def test_gronwall_closed_form():
    # k = 1/2 and A constant 1: bounds are 2 e^{i-1}
    a = np.zeros(6)
    res = discrete_gronwall(a, np.ones(6), 0.5)
    expected = 2.0 * np.exp(np.arange(6))
    assert np.max(np.abs(res.bounds - expected) / expected) < 1e-15
    assert res.hypothesis_ok and res.bound_ok


def test_gronwall_zero_sequences():
    res = discrete_gronwall(np.zeros(4), np.zeros(4), 0.3)
    assert np.all(res.bounds == 0.0)
    assert res.hypothesis_ok and res.bound_ok


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30),
    st.floats(0.01, 0.9),
)
def test_gronwall_forward_recurrence_oracle(increments, k):
    # A built nondecreasing; a solved forward with a_i = A_i + k sum_{j<i} a_j
    A = np.cumsum(np.asarray(increments)) + 0.1
    a = np.zeros_like(A)
    total = 0.0
    for i in range(len(A)):
        a[i] = A[i] + k * total
        total += a[i]
    res = discrete_gronwall(a, A, k)
    assert res.hypothesis_ok
    assert res.bound_ok
    assert np.all(res.bounds - a >= -1e-12 * np.maximum(res.bounds, 1.0))


def test_gronwall_input_validation():
    with pytest.raises(ValueError):
        discrete_gronwall([1.0], [1.0], 1.5)
    with pytest.raises(ValueError):
        discrete_gronwall([1.0, 1.0], [2.0, 1.0], 0.5)  # decreasing A
    with pytest.raises(ValueError):
        discrete_gronwall([-1.0], [1.0], 0.5)


def make_ladder(ops, Ns, T=1.0):
    state0 = bench_initial(ops)
    ledgers = []
    for N in Ns:
        traj = run(ops, BENCH_PARAMS, TimeGrid(T=T, N=N), state0)
        ledgers.append(build_ledger(traj, ops, BENCH_PARAMS))
    return ledgers


def test_uniform_scan_needs_three(coarse_ops):
    ledgers = make_ladder(coarse_ops, [4, 8])
    with pytest.raises(ValueError):
        uniform_bound_scan(ledgers)


def test_uniform_scan_rejects_mismatched_data(coarse_ops):
    ledgers = make_ladder(coarse_ops, [2, 4, 8])
    other = run(coarse_ops, BENCH_PARAMS, TimeGrid(T=1.0, N=16), steady_initial(coarse_ops))
    ledgers[-1] = build_ledger(other, coarse_ops, BENCH_PARAMS)
    with pytest.raises(ValueError):
        uniform_bound_scan(ledgers)


def test_uniform_scan_zero_data_trivial(coarse_ops):
    nv = coarse_ops.mesh.n_vertices
    zero = initial_state(coarse_ops, np.zeros(nv), np.zeros(nv), np.zeros(coarse_ops.vspace.n_velocity))
    ledgers = []
    for N in (2, 4, 8):
        traj = run(coarse_ops, PARAMS, TimeGrid(T=0.25, N=N), zero)
        ledgers.append(build_ledger(traj, coarse_ops, PARAMS))
    report = uniform_bound_scan(ledgers)
    assert report.uniform
    assert np.all(report.spreads == 1.0)


def test_uniform_scan_on_short_ladder(coarse_ops):
    report = uniform_bound_scan(make_ladder(coarse_ops, [16, 32, 64]))
    assert report.uniform, "\n".join(report.lines())


def test_translate_decay_constant_traj(coarse_ops):
    traj = run(coarse_ops, PARAMS, TimeGrid(T=0.2, N=4), steady_initial(coarse_ops))
    rep = time_translate_decay(traj, coarse_ops, [0.1, 0.05])
    for f in ("c", "n", "u"):
        assert np.max(rep.values[f]) < 1e-20
        assert rep.monotone[f]


def test_translate_decay_small_shift_smaller(coarse_ops, bump_ledger):
    _, traj = bump_ledger
    T, k = traj.grid.T, traj.grid.k
    rep = time_translate_decay(traj, coarse_ops, [T - k, k])
    assert rep.values["c"][1] < rep.values["c"][0]


def test_translate_decay_shift_validation(coarse_ops, bump_ledger):
    _, traj = bump_ledger
    with pytest.raises(ValueError):
        time_translate_decay(traj, coarse_ops, [traj.grid.T])


def test_translate_decay_exactness_single_interval(coarse_ops):
    # two-step trajectory: hand-computable piecewise-quadratic integral
    traj = run(coarse_ops, PARAMS, TimeGrid(T=0.1, N=2), bump_initial(coarse_ops))
    a = traj.grid.k
    rep = time_translate_decay(traj, coarse_ops, [a])
    # g(s+k) - g(s) is piecewise linear with values d1 at s=0, d2 at s=k in
    # terms of the increments; integrate |.|^2 exactly with Simpson per piece
    d1 = traj.states[1].c - traj.states[0].c
    d2 = traj.states[2].c - traj.states[1].c
    M = coarse_ops.M_vol

    def nsq(v):
        return v @ (M @ v)

    # on [0, k]: D(s) = d1 + (s/k)(d2 - d1)
    f0, f1 = nsq(d1), nsq(d2)
    fm = nsq(0.5 * (d1 + d2))
    expected = a / 6.0 * (f0 + 4 * fm + f1)
    assert np.isclose(rep.values["c"][0], expected, rtol=1e-12)


def reference_translate_decay(traj, ops, shifts):
    """The direct algorithm: interpolate_state at every cut and midpoint, M d per field, Simpson's rule."""
    T, times = traj.grid.T, traj.grid.times()
    masses = {"c": ops.M_vol, "n": ops.M_vol, "u": ops.M_u}

    def norms(s, a):
        hi, lo = interpolate_state(traj, s + a), interpolate_state(traj, s)
        diffs = {f: getattr(hi, f) - getattr(lo, f) for f in masses}
        return np.array([diffs[f] @ (M @ diffs[f]) for f, M in masses.items()])

    values = []
    for a in shifts:
        cuts = np.unique(np.clip(np.concatenate([times, times - a]), 0.0, T - a))
        values.append(sum((s1 - s0) / 6.0 * (norms(s0, a) + 4.0 * norms(0.5 * (s0 + s1), a) + norms(s1, a))
                          for s0, s1 in zip(cuts[:-1], cuts[1:])))
    return {f: np.array(values)[:, i] for i, f in enumerate(masses)}


def bump_shifts(traj):
    # two shifts on the grid, two off it
    T, k = traj.grid.T, traj.grid.k
    return [T / 2, T / 4, 0.37 * T, k / 3]


def test_translate_decay_equals_direct_algorithm(coarse_ops, bump_ledger):
    _, traj = bump_ledger
    shifts = bump_shifts(traj)
    rep = time_translate_decay(traj, coarse_ops, shifts)
    ref = reference_translate_decay(traj, coarse_ops, shifts)
    order = np.argsort(shifts)[::-1]
    for f in ("c", "n", "u"):
        expected = ref[f][order]
        assert np.max(np.abs(rep.values[f] - expected)) <= 1e-12 * np.max(np.abs(expected)), f
        slack = 1e-12 * max(expected.max(), 1.0)
        assert rep.monotone[f] == bool(np.all(np.diff(expected) <= slack)), f


class CountingMatrix:
    """A sparse matrix that counts its products with vectors."""

    def __init__(self, matrix):
        self.matrix, self.calls = matrix, 0

    def __matmul__(self, x):
        self.calls += 1
        return self.matrix @ x


def test_translate_decay_forms_one_mass_product_per_state(coarse_ops, bump_ledger, monkeypatch):
    _, traj = bump_ledger
    M_vol, M_u = CountingMatrix(coarse_ops.M_vol), CountingMatrix(coarse_ops.M_u)
    monkeypatch.setattr(coarse_ops, "M_vol", M_vol)
    monkeypatch.setattr(coarse_ops, "M_u", M_u)
    time_translate_decay(traj, coarse_ops, bump_shifts(traj))
    N = traj.grid.N
    assert M_u.calls <= N + 1
    assert M_vol.calls <= 2 * (N + 1)


def test_ledger_csv_export(tmp_path, bump_ledger):
    led, _ = bump_ledger
    path = tmp_path / "ledger.csv"
    export_ledger(led, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == led.N + 2
    for m, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == m
        for name, cell in zip(CSV_COLUMNS[1:], cells[1:], strict=True):
            assert float(cell) == led[name][m], (name, m)
