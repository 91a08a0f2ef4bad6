"""Acceptance suite: every gate criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  The expensive fixtures (benchmark trajectory and the time
refinement ladder) are built once per session.
"""

import numpy as np
import pytest
from scipy.linalg import eigh

from chemoflow.assembly import (
    assemble_boundary_laplace_beltrami,
    assemble_boundary_mass,
    assemble_chemotaxis_rhs,
    assemble_convection,
    build_operators,
)
from chemoflow.energy import (
    build_ledger,
    check_cell_solve_bound,
    check_oxygen_solve_bound,
    check_step_inequality,
    discrete_gronwall,
    interpolant_step_gap,
    kinetic_identity_residual,
    time_translate_decay,
    uniform_bound_scan,
)
from chemoflow.geometry import build_disc_mesh
from chemoflow.step_solver import SolverOptions, StepInputs, outer_step, picard_inner, step_system
from chemoflow.timestepping import TimeGrid, initial_state, run

from conftest import BENCH_PARAMS, bench_initial

T_FINAL = 1.0
BENCH_N = 64
LADDER_NS = (16, 32, 64, 128)

# regression baselines from the first verified benchmark run
BASELINE_INNER_ITERS = 8
BASELINE_OUTER_ITERS = 6


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def bench_ops():
    mesh = build_disc_mesh(1.0, 0.05)
    return build_operators(mesh)


@pytest.fixture(scope="module")
def bench_state0(bench_ops):
    return bench_initial(bench_ops)


@pytest.fixture(scope="module")
def ladder(bench_ops, bench_state0):
    out = {}
    for N in LADDER_NS:
        out[N] = run(bench_ops, BENCH_PARAMS, TimeGrid(T=T_FINAL, N=N), bench_state0)
    return out


@pytest.fixture(scope="module")
def bench_traj(ladder):
    return ladder[BENCH_N]


@pytest.fixture(scope="module")
def bench_ledger(bench_traj, bench_ops):
    return build_ledger(bench_traj, bench_ops, BENCH_PARAMS)


@pytest.fixture(scope="module")
def ladder_ledgers(ladder, bench_ops):
    return [build_ledger(ladder[N], bench_ops, BENCH_PARAMS) for N in LADDER_NS]


def test_criterion_01_skew_convection_identity(bench_ops):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        u = bench_ops.vspace.zero_boundary(rng.standard_normal(bench_ops.vspace.n_velocity))
        c = rng.standard_normal(bench_ops.mesh.n_vertices)
        C, _ = assemble_convection(bench_ops, u)
        bound = 1e-12 * (c @ c) * np.max(np.abs(u))
        val = abs(c @ (C @ c))
        worst = max(worst, val / bound)
        if val > bound:
            break
    report("criterion-1 skew-convection identity", worst <= 1.0, f"worst ratio to bound {worst:.3e}")


def test_criterion_02_cell_mass_conservation(bench_ledger):
    drift = np.max(np.abs(bench_ledger["mass_n"] - bench_ledger["mass_n"][0]))
    rel = drift / abs(bench_ledger["mass_n"][0])
    report("criterion-2 cell-mass conservation", rel <= 1e-8, f"relative drift {rel:.3e}")


def test_criterion_03_combined_oxygen_mass(bench_ledger):
    led = bench_ledger
    scale = abs(led["mass_c_combined"][0])
    residuals = [
        abs(led["mass_c_combined"][m] - led["mass_c_combined"][m - 1] + led.k * led["consumption"][m]) / scale
        for m in range(1, led.N + 1)
    ]
    ok_identity = max(residuals) <= 1e-8
    ok_monotone = True
    if led["min_n"].min() >= 0.0:
        ok_monotone = bool(np.all(np.diff(led["mass_c_combined"]) < 0))
    report(
        "criterion-3 combined oxygen mass",
        ok_identity and ok_monotone,
        f"max identity residual {max(residuals):.3e}, min n {led['min_n'].min():.3e}, "
        f"monotone decrease {ok_monotone}",
    )


def test_criterion_04_per_step_energy_inequalities(bench_ledger):
    led = bench_ledger
    delta = 0.5 * BENCH_PARAMS.beta / BENCH_PARAMS.g1
    worst_slack = np.inf
    for rep in (
        check_step_inequality(led, BENCH_PARAMS, delta),
        check_oxygen_solve_bound(led, BENCH_PARAMS),
        check_cell_solve_bound(led, BENCH_PARAMS),
    ):
        failed = np.flatnonzero(~rep.passed) + 1
        assert failed.size == 0, f"{rep.name} failed at steps {failed}: slack {rep.slack[failed - 1]}"
        worst_slack = min(worst_slack, rep.slack.min())
    worst_kin = kinetic_identity_residual(led, BENCH_PARAMS).max()
    report(
        "criterion-4 per-step energy inequalities",
        worst_slack >= 0 and worst_kin <= 1e-10,
        f"min slack {worst_slack:.3e}, max kinetic residual {worst_kin:.3e}",
    )


def test_criterion_05_uniform_in_k_bounds(ladder_ledgers):
    rep = uniform_bound_scan(ladder_ledgers)
    report(
        "criterion-5 uniform-in-k bounds",
        rep.uniform,
        f"max spread {rep.spreads.max():.4f} over k={list(rep.ks)}",
    )


def test_criterion_06_interpolant_gap_order(ladder_ledgers, bench_ops, bench_state0):
    ks = np.array([T_FINAL / N for N in LADDER_NS])
    slopes = {}
    for field in ("c", "n", "u"):
        gaps = np.array([interpolant_step_gap(led)[field] for led in ladder_ledgers])
        slopes[field] = float(np.polyfit(np.log(ks), np.log(gaps), 1)[0])
    ok_slopes = all(0.9 <= s <= 1.1 for s in slopes.values())

    single = run(bench_ops, BENCH_PARAMS, TimeGrid(T=T_FINAL / BENCH_N, N=1), bench_state0)
    gap = interpolant_step_gap(build_ledger(single, bench_ops, BENCH_PARAMS))["c"]
    d2 = bench_ops.scalar_norm_sq(single.states[1].c - single.states[0].c)
    closed = np.sqrt(single.grid.k * d2 / 3.0)
    ok_closed = abs(gap - closed) <= 1e-12 * closed
    report(
        "criterion-6 interpolant gap order",
        ok_slopes and ok_closed,
        f"slopes {slopes}, closed-form mismatch {abs(gap - closed):.2e}",
    )


def test_criterion_07_time_translate_decay(bench_traj, bench_ops):
    shifts = [T_FINAL / 4, T_FINAL / 8, T_FINAL / 16, T_FINAL / 32]
    rep = time_translate_decay(bench_traj, bench_ops, shifts)
    ok = True
    ratios = {}
    for f in ("c", "n", "u"):
        ok = ok and rep.monotone[f]
        ratios[f] = rep.values[f][-1] / rep.values[f][0]
        ok = ok and ratios[f] <= 0.25
    report(
        "criterion-7 time-translate decay",
        ok,
        f"smallest/largest ratios {({f: round(r, 5) for f, r in ratios.items()})}",
    )


def test_criterion_08_step_size_regime(bench_ops, bench_state0):
    def inputs_for(k):
        return StepInputs(
            c_prev=bench_state0.c,
            n_prev=bench_state0.n,
            u_prev=bench_state0.u,
            dt=k,
        )

    c, n, small = picard_inner(
        inputs_for(0.01),
        step_system(bench_ops, BENCH_PARAMS, 0.01, bench_state0.u),
        BENCH_PARAMS,
        bench_ops,
        SolverOptions(inner_tol=1e-11),
    )
    result = outer_step(inputs_for(0.01), BENCH_PARAMS, bench_ops, SolverOptions())
    ok_small = (
        small.converged
        and small.inner_iterations <= BASELINE_INNER_ITERS
        and result.diagnostics.converged
        and result.diagnostics.outer_iterations <= BASELINE_OUTER_ITERS
    )
    _, _, big = picard_inner(
        inputs_for(10.0),
        step_system(bench_ops, BENCH_PARAMS, 10.0, bench_state0.u),
        BENCH_PARAMS,
        bench_ops,
        SolverOptions(inner_tol=1e-11, max_inner=200),
    )
    ok_big = (not big.converged) or big.inner_iterations >= 5 * small.inner_iterations
    report(
        "criterion-8 step-size regime",
        ok_small and ok_big,
        f"k=0.01: inner {small.inner_iterations} (baseline {BASELINE_INNER_ITERS}), outer "
        f"{result.diagnostics.outer_iterations}; k=10: converged={big.converged} "
        f"after {big.inner_iterations}",
    )


def test_criterion_09_boundary_spectrum():
    mesh = build_disc_mesh(1.0, 1.0 / 32.0, first_ring=8)
    assert mesh.n_boundary == 256
    loop = mesh.boundary_loop
    K = assemble_boundary_laplace_beltrami(mesh)[loop][:, loop].toarray()
    M = assemble_boundary_mass(mesh)[loop][:, loop].toarray()
    eig = eigh(K, M, eigvals_only=True)
    worst = 0.0
    for m in range(1, 6):
        for idx in (2 * m - 1, 2 * m):  # doubly degenerate modes
            worst = max(worst, abs(eig[idx] - m * m) / (m * m))
    report("criterion-9 boundary spectrum", worst <= 0.02, f"worst relative error {worst:.4f}")


def test_criterion_10_discrete_gronwall():
    res = discrete_gronwall(np.zeros(8), np.ones(8), 0.5)
    expected = 2.0 * np.exp(np.arange(8))
    err = np.max(np.abs(res.bounds - expected) / expected)
    rng = np.random.default_rng(7)
    ok_oracle = True
    for _ in range(20):
        A = np.cumsum(rng.random(12)) + rng.random()
        k = rng.uniform(0.05, 0.9)
        a = np.zeros_like(A)
        total = 0.0
        for i in range(len(A)):
            a[i] = A[i] + k * total
            total += a[i]
        r = discrete_gronwall(a, A, k)
        ok_oracle = ok_oracle and r.hypothesis_ok and r.bound_ok
    report(
        "criterion-10 discrete Gronwall",
        err <= 1e-15 and ok_oracle,
        f"closed-form error {err:.2e}, oracle sequences pass {ok_oracle}",
    )


def dense_newton_step(ops, params, inputs, tol=1e-12, max_iter=40):
    """Independent oracle: Newton with finite-difference Jacobian on the
    monolithic residual of one implicit step (mean-zero pressure via a
    multiplier)."""
    nv = ops.mesh.n_vertices
    idx = ops.vspace.interior_velocity
    n_u = idx.size
    k = inputs.dt
    a_ob = params.alpha / params.b
    f = params.consumption()
    g = params.sensitivity()
    w = ops.pressure_weights
    gs = np.asarray(params.grad_sigma, dtype=float)
    rhs_c = ops.M_vol @ inputs.c_prev + a_ob * (ops.M_bnd_global @ inputs.c_prev)
    rhs_n = ops.M_vol @ inputs.n_prev
    rhs_u = (ops.M_u @ inputs.u_prev)[idx]

    def residual(z):
        c = z[:nv]
        n = z[nv : 2 * nv]
        u = np.zeros(ops.vspace.n_velocity)
        u[idx] = z[2 * nv : 2 * nv + n_u]
        p = z[2 * nv + n_u : 3 * nv + n_u]
        lam = z[-1]
        Cs, Cu = assemble_convection(ops, u)
        r_c = (
            ops.M_vol @ c
            + a_ob * (ops.M_bnd_global @ c)
            + k * params.alpha * (ops.K_vol @ c)
            + k * a_ob * (ops.K_bnd_global @ c)
            + k * (Cs @ c)
            + k * (ops.M_vol @ (n * f(c)))
            - rhs_c
        )
        r_n = (
            ops.M_vol @ n
            + k * params.beta * (ops.K_vol @ n)
            + k * (Cs @ n)
            - k * assemble_chemotaxis_rhs(ops, n, c, g)
            - rhs_n
        )
        r_u = (
            (ops.M_u + k * params.xi * ops.K_u + k * Cu) @ u
            - k * (ops.B.T @ p)
            - k * ops.buoyancy_load(n, gs)
        )[idx] - rhs_u
        r_div = ops.B @ u + w * lam
        return np.concatenate([r_c, r_n, r_u, r_div, [w @ p]])

    z = np.concatenate([inputs.c_prev, inputs.n_prev, inputs.u_prev[idx], np.zeros(nv), [0.0]])
    scale = max(np.linalg.norm(residual(z)), 1e-300)
    for _ in range(max_iter):
        r = residual(z)
        if np.linalg.norm(r) <= tol * scale:
            break
        jac = np.empty((z.size, z.size))
        for j in range(z.size):
            h = 1e-7 * max(1.0, abs(z[j]))
            zp = z.copy()
            zp[j] += h
            zm = z.copy()
            zm[j] -= h
            jac[:, j] = (residual(zp) - residual(zm)) / (2 * h)
        z = z - np.linalg.solve(jac, r)
    c = z[:nv]
    n = z[nv : 2 * nv]
    u = np.zeros(ops.vspace.n_velocity)
    u[idx] = z[2 * nv : 2 * nv + n_u]
    p = z[2 * nv + n_u : 3 * nv + n_u]
    p = p - (w @ p) / w.sum()
    return c, n, u, p, np.linalg.norm(residual(z)) / scale


def test_criterion_11_oracle_equivalence(coarse_ops):
    ops = coarse_ops
    total_dofs = 3 * ops.mesh.n_vertices + ops.vspace.interior_velocity.size + 1
    assert total_dofs <= 500
    state0 = bench_initial(ops)
    inputs = StepInputs(
        c_prev=state0.c,
        n_prev=state0.n,
        u_prev=state0.u,
        dt=0.05,
    )
    opts = SolverOptions(inner_tol=1e-13, outer_tol=1e-12, linear_tol=1e-11)
    nested = outer_step(inputs, BENCH_PARAMS, ops, opts)
    assert nested.diagnostics.converged
    c, n, u, p, newton_res = dense_newton_step(ops, BENCH_PARAMS, inputs)
    p_nested = nested.p - (ops.pressure_weights @ nested.p) / ops.pressure_weights.sum()

    def rel(a, b):
        return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)

    errs = {
        "c": rel(nested.c, c),
        "n": rel(nested.n, n),
        "u": rel(nested.u, u),
        "p": rel(p_nested, p),
    }
    ok = all(e <= 1e-8 for e in errs.values()) and newton_res <= 1e-10
    report(
        "criterion-11 oracle equivalence",
        ok,
        f"field errors {({f: float(f'{e:.3e}') for f, e in errs.items()})}, "
        f"newton residual {newton_res:.2e}",
    )


def test_criterion_12_temporal_self_convergence(ladder, bench_ops):
    diffs = []
    for a, b in zip(LADDER_NS[:-1], LADDER_NS[1:]):
        sa, sb = ladder[a].states[-1], ladder[b].states[-1]
        diffs.append(
            np.sqrt(
                bench_ops.scalar_norm_sq(sa.c - sb.c)
                + bench_ops.scalar_norm_sq(sa.n - sb.n)
                + bench_ops.velocity_norm_sq(sa.u - sb.u)
            )
        )
    ratios = [d1 / d2 for d1, d2 in zip(diffs[:-1], diffs[1:])]
    ok = all(1.5 <= r <= 2.5 for r in ratios)
    report(
        "criterion-12 temporal self-convergence",
        ok,
        f"diff ratios {[round(r, 3) for r in ratios]} (target 2 within 25%)",
    )


def test_criterion_13_trivial_steady_state(bench_ops):
    nv = bench_ops.mesh.n_vertices
    state0 = initial_state(
        bench_ops, np.ones(nv), np.zeros(nv), np.zeros(bench_ops.vspace.n_velocity)
    )
    traj = run(bench_ops, BENCH_PARAMS, TimeGrid(T=T_FINAL, N=BENCH_N), state0)
    worst = 0.0
    for s in traj.states:
        worst = max(
            worst,
            np.max(np.abs(s.c - 1.0)),
            np.max(np.abs(s.n)),
            np.max(np.abs(s.u)),
        )
    report("criterion-13 trivial steady state", worst <= 1e-12, f"max deviation {worst:.2e}")
