from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from chemoflow import fluid, step_solver, timestepping
from chemoflow.assembly import assemble_convection, build_operators
from chemoflow.config import apply_overrides, build_initial_state, config_from_dict, load_config
from chemoflow.fluid import KeptFactor, LinearSolveError, project_divergence_free
from chemoflow.geometry import build_disc_mesh
from chemoflow.model import ModelParams, ResponseSpec
from chemoflow.step_solver import (
    BLOCKS,
    SolverOptions,
    State,
    StepBase,
    c_step_rhs,
    n_step_rhs,
    outer_step,
    picard_inner,
    step_residual,
    u_step_rhs,
)
from chemoflow.timestepping import TimeGrid, initial_state, run

PARAMS = ModelParams()
# zero sensitivity decouples the cell step from the oxygen gradient, so a
# cell density the test holds fixed stays fixed while the oxygen moves
NO_TAXIS = ModelParams(g_spec=ResponseSpec("constant", {"theta": 0.0}))


def make_state(ops, c=None, n=None, u=None):
    nv = ops.mesh.n_vertices
    c = np.zeros(nv) if c is None else np.asarray(c, dtype=float)
    n = np.zeros(nv) if n is None else np.asarray(n, dtype=float)
    u = np.zeros(ops.vspace.n_velocity) if u is None else np.asarray(u, dtype=float)
    return State(c=c, n=n, u=u, p=np.zeros(nv), t=0.0)


def test_constant_oxygen_is_steady(coarse_ops):
    ops = coarse_ops
    cbar = 2.5 * np.ones(ops.mesh.n_vertices)
    prev = make_state(ops, c=cbar)
    base = StepBase(ops, NO_TAXIS, 0.1)
    c, _, _ = picard_inner(base, prev, base.system(prev.u))
    assert np.max(np.abs(c - 2.5)) < 1e-12


def test_oxygen_eigenmode_decay(coarse_ops):
    # independent oracle: generalized eigenpair of the combined pencil
    ops = coarse_ops
    a_ob = NO_TAXIS.alpha / NO_TAXIS.b
    M_comb = (ops.M_vol + a_ob * ops.M_bnd_global).toarray()
    K_comb = (ops.K_vol + (1.0 / NO_TAXIS.b) * ops.K_bnd_global).toarray()
    eigvals, eigvecs = eigh(K_comb, M_comb)
    lam, v = eigvals[3], eigvecs[:, 3]
    k = 0.05
    prev = make_state(ops, c=v)
    base = StepBase(ops, NO_TAXIS, k)
    c, _, _ = picard_inner(base, prev, base.system(prev.u))
    expected = v / (1.0 + k * NO_TAXIS.alpha * lam)
    assert np.max(np.abs(c - expected)) < 1e-10 * np.max(np.abs(expected))


def test_oxygen_consistency_order(coarse_ops):
    ops = coarse_ops
    x, y = ops.mesh.vertices.T
    h = 1.0 + 0.3 * np.sin(np.pi * x) * np.cos(np.pi * y)
    errs = []
    ks = [1e-2, 1e-3, 1e-4]
    for k in ks:
        prev = make_state(ops, c=h)
        base = StepBase(ops, NO_TAXIS, k)
        c, _, _ = picard_inner(base, prev, base.system(prev.u))
        errs.append(np.sqrt(ops.scalar_norm_sq(c - h)))
    slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
    assert 0.9 <= slope <= 1.1


def test_cells_constant_steady(coarse_ops):
    ops = coarse_ops
    nbar = 1.3 * np.ones(ops.mesh.n_vertices)
    cconst = 2.0 * np.ones(ops.mesh.n_vertices)
    prev = make_state(ops, c=cconst, n=nbar)
    base = StepBase(ops, NO_TAXIS, 0.1)
    _, n, _ = picard_inner(base, prev, base.system(prev.u))
    assert np.max(np.abs(n - 1.3)) < 1e-12


def test_cells_heat_eigenmode(coarse_ops):
    ops = coarse_ops
    eigvals, eigvecs = eigh(ops.K_vol.toarray(), ops.M_vol.toarray())
    lam, v = eigvals[2], eigvecs[:, 2]
    k = 0.05
    prev = make_state(ops, n=v)
    base = StepBase(ops, NO_TAXIS, k)
    _, n, _ = picard_inner(base, prev, base.system(prev.u))
    expected = v / (1.0 + k * NO_TAXIS.beta * lam)
    assert np.max(np.abs(n - expected)) < 1e-10 * np.max(np.abs(expected))


def test_cell_mass_conserved(coarse_ops):
    ops = coarse_ops
    rng = np.random.default_rng(12)
    ones = np.ones(ops.mesh.n_vertices)
    base = StepBase(ops, PARAMS, 0.05)
    for _ in range(5):
        l = rng.random(ops.mesh.n_vertices)
        c = rng.random(ops.mesh.n_vertices)
        n_hat = rng.random(ops.mesh.n_vertices)
        u = project_divergence_free(
            ops.vspace.zero_boundary(rng.standard_normal(ops.vspace.n_velocity)), ops
        )
        prev = make_state(ops, c=c, n=l)
        # sensitivity left on: the chemotaxis flux must be mass-neutral too
        _, n, _ = picard_inner(base, prev, base.system(u), initial_guess=(c, n_hat))
        m_new = ones @ (ops.M_vol @ n)
        m_old = ones @ (ops.M_vol @ l)
        assert abs(m_new - m_old) <= 1e-10 * abs(m_old) + 1e-14


def test_picard_zero_data(coarse_ops):
    ops = coarse_ops
    prev = make_state(ops)
    base = StepBase(ops, PARAMS, 0.01)
    c, n, diag = picard_inner(base, prev, base.system(prev.u))
    assert diag.converged and diag.inner_iterations == 1
    assert np.max(np.abs(c)) == 0.0 and np.max(np.abs(n)) == 0.0


def test_picard_linear_regime_fixed_point_after_two_passes(coarse_ops):
    # with constant consumption and zero sensitivity the map is affine and
    # lower triangular: the second pass lands exactly on the fixed point,
    # which the third pass confirms at round-off level
    ops = coarse_ops
    params = ModelParams(
        f_spec=ResponseSpec("constant"),
        g_spec=ResponseSpec("constant", {"theta": 0.0}),
    )
    rng = np.random.default_rng(13)
    prev = make_state(ops, c=1 + rng.random(ops.mesh.n_vertices), n=rng.random(ops.mesh.n_vertices))
    base = StepBase(ops, params, 0.01, SolverOptions(inner_tol=1e-12))
    c, n, diag = picard_inner(base, prev, base.system(prev.u))
    assert diag.converged
    assert diag.inner_iterations <= 3
    assert diag.inner_history[-1] <= 1e-13


def test_picard_large_step_struggles(coarse_ops):
    ops = coarse_ops
    rng = np.random.default_rng(14)
    c0 = 1 + rng.random(ops.mesh.n_vertices)
    n0 = 2 * rng.random(ops.mesh.n_vertices)
    prev = make_state(ops, c=c0, n=n0)
    small = StepBase(ops, PARAMS, 0.01, SolverOptions(inner_tol=1e-11))
    _, _, diag_small = picard_inner(small, prev, small.system(prev.u))
    assert diag_small.converged
    big = StepBase(ops, PARAMS, 10.0, SolverOptions(inner_tol=1e-11, max_inner=200))
    _, _, diag_big = picard_inner(big, prev, big.system(prev.u))
    assert (not diag_big.converged) or (
        diag_big.inner_iterations >= 5 * diag_small.inner_iterations
    )


def test_picard_monotone_residuals_when_converged(coarse_ops):
    ops = coarse_ops
    rng = np.random.default_rng(15)
    prev = make_state(ops, c=1 + 0.2 * rng.random(ops.mesh.n_vertices), n=rng.random(ops.mesh.n_vertices))
    base = StepBase(ops, PARAMS, 0.01)
    _, _, diag = picard_inner(base, prev, base.system(prev.u))
    assert diag.converged
    hist = diag.inner_history
    assert all(hist[i + 1] <= hist[i] * (1 + 1e-9) for i in range(1, len(hist) - 1))


def test_outer_step_zero_forcing_reduces_to_inner(coarse_ops):
    ops = coarse_ops
    params = ModelParams(grad_sigma=(0.0, 0.0))
    rng = np.random.default_rng(16)
    prev = make_state(ops, c=1 + 0.1 * rng.random(ops.mesh.n_vertices), n=rng.random(ops.mesh.n_vertices))
    result = outer_step(StepBase(ops, params, 0.01), prev)
    assert result.diagnostics.converged
    assert result.diagnostics.outer_iterations == 1
    assert np.max(np.abs(result.u)) == 0.0
    # the inner loop alone, its factors those of the step's first system,
    # which an attempt with no start factor makes on its first solve
    base = StepBase(ops, params, 0.01)
    system = base.system(prev.u)
    factors = (KeptFactor("oxygen", first=system.oxygen), KeptFactor("cell-density", first=system.cells))
    c_ref, n_ref, _ = picard_inner(base, prev, system, factors=factors)
    assert np.array_equal(result.c, c_ref) and np.array_equal(result.n, n_ref)


def test_outer_step_velocity_decays_without_force(coarse_ops):
    ops = coarse_ops
    rng = np.random.default_rng(17)
    q = project_divergence_free(
        ops.vspace.zero_boundary(rng.standard_normal(ops.vspace.n_velocity)), ops
    )
    prev = make_state(ops, c=np.ones(ops.mesh.n_vertices), u=q)
    result = outer_step(StepBase(ops, PARAMS, 0.05), prev)
    assert result.diagnostics.converged
    assert np.sqrt(ops.velocity_norm_sq(result.u)) <= np.sqrt(ops.velocity_norm_sq(q))


def test_outer_step_converges_and_residual_small(coarse_ops):
    ops = coarse_ops
    x, y = ops.mesh.vertices.T
    n0 = 0.8 * np.exp(-((x) ** 2 + (y - 0.3) ** 2) / 0.125)
    prev = make_state(ops, c=np.ones_like(n0), n=n0)
    base = StepBase(ops, PARAMS, 0.01)
    result = outer_step(base, prev)
    d = result.diagnostics
    assert d.converged
    assert d.outer_iterations <= 10  # regression baseline
    assert d.final_residual <= 1e-9
    assert step_residual(base, prev, base.system(result.u), result.c, result.n, result.p) <= 1e-9


def full_pattern_step_residual(base, prev, system, c, n, p):
    """``step_residual`` with the momentum rows of the fluid matrix on every velocity dof, then cut to the interior."""
    ops, k = base.ops, base.k
    u = system.u
    A = ops.p2_pair.matrix(base.data[2] + k * assemble_convection(ops, u)[1].data)
    r_c = system.oxygen @ c - c_step_rhs(base, prev, c, n)
    r_n = system.cells @ n - n_step_rhs(base, prev, c, n)
    rhs_u = u_step_rhs(base, prev, n)
    idx = ops.vspace.interior_velocity
    M_u_prev = ops.M_u @ prev.u
    r_u = (A @ u - k * (ops.B.T @ p) - rhs_u)[idx]
    r_div = ops.B @ u
    num = np.sqrt(np.sum(r_c**2) + np.sum(r_n**2) + np.sum(r_u**2) + np.sum(r_div**2))
    scale = np.sqrt(
        np.sum((ops.M_vol @ prev.c) ** 2)
        + np.sum((ops.M_vol @ prev.n) ** 2)
        + np.sum(M_u_prev[idx] ** 2)
        + np.linalg.norm(rhs_u - M_u_prev) ** 2
    )
    return r_u, num / max(scale, 1e-300)


@pytest.mark.parametrize("xi, k", [(1.0, 1 / 16), (0.01, 1 / 16), (0.01, 0.2)])
def test_step_residual_equals_the_full_pattern_formula(medium_ops, xi, k):
    # a velocity that vanishes on the boundary, as every one the solver
    # makes does, meets only the interior columns: the pinned block's
    # momentum rows are the full-pattern ones bit for bit, convection on
    ops = medium_ops
    params = ModelParams(alpha=0.05, beta=0.05, xi=xi, g1=0.02)
    rng = np.random.default_rng(4)
    nv, nvel = ops.mesh.n_vertices, ops.vspace.n_velocity
    base = StepBase(ops, params, k)
    for _ in range(2):
        u_prev, u = (project_divergence_free(ops.vspace.zero_boundary(rng.standard_normal(nvel)), ops) for _ in "ab")
        prev = make_state(ops, c=1 + rng.random(nv), n=rng.random(nv), u=u_prev)
        c, n, p = 1 + rng.random(nv), rng.random(nv), rng.standard_normal(nv)
        system = base.system(u)
        r_u, expected = full_pattern_step_residual(base, prev, system, c, n, p)
        idx = ops.vspace.interior_velocity
        assert np.array_equal(system.fluid.momentum_residual(u[idx], p, u_step_rhs(base, prev, n)[idx]), r_u)
        assert step_residual(base, prev, system, c, n, p) == expected


def test_outer_step_deterministic(coarse_ops):
    ops = coarse_ops
    x, y = ops.mesh.vertices.T
    n0 = np.exp(-(x**2 + y**2) / 0.2)
    prev = make_state(ops, c=np.ones_like(n0), n=n0)
    a = outer_step(StepBase(ops, PARAMS, 0.02), prev)
    b = outer_step(StepBase(ops, PARAMS, 0.02), prev)
    for fa, fb in ((a.c, b.c), (a.n, b.n), (a.u, b.u), (a.p, b.p)):
        assert np.array_equal(fa, fb)


def test_inputs_validation(coarse_ops):
    # State.validate is the one shape check of the fields: both step entry
    # points and initial_state refuse a field that does not fit the mesh
    ops = coarse_ops
    nv = ops.mesh.n_vertices
    good = make_state(ops, c=np.ones(nv))
    good.validate(ops)
    base = StepBase(ops, PARAMS, 0.05)
    system = base.system(good.u)
    wrong = ((make_state(ops, c=np.ones(nv + 1)), "scalar fields"),
             (make_state(ops, n=np.ones(nv - 1)), "scalar fields"),
             (make_state(ops, u=np.zeros(ops.vspace.n_velocity + 2)), "velocity field"))
    for bad, match in wrong:
        with pytest.raises(ValueError, match=match):
            outer_step(base, bad, step=1)
        with pytest.raises(ValueError, match=match):
            picard_inner(base, bad, system)
        with pytest.raises(ValueError, match=match):
            initial_state(ops, bad.c, bad.n, bad.u)
    assert base.last is system and base.sources == [0, 0, 0]


@pytest.mark.parametrize("k", [-1.0, 0.0, -0.0, np.nan, np.inf, -np.inf])
def test_step_size_must_be_positive_and_finite(coarse_ops, k):
    # the base is the one holder of k, so it is checked once, there
    with pytest.raises(ValueError, match="step size k must be positive and finite"):
        StepBase(coarse_ops, PARAMS, k)


def test_bad_tolerances_rejected(coarse_ops):
    with pytest.raises(ValueError):
        StepBase(coarse_ops, PARAMS, 0.01, SolverOptions(inner_tol=-1.0))


# inner iterations of plain Picard on the benchmark data, from k = 1e-3 to 30;
# None: no convergence within 200
REGIME_INNER = (4, 4, 5, 5, 6, 8, 10, 15, 26, 144, None, 46)


def test_step_regime_scan_counts():
    # where plain Picard stops converging for the benchmark data: the first
    # step from the initial state, one picard_inner per step size
    config = Path(__file__).resolve().parents[1] / "configs" / "benchmark.json"
    cfg = load_config(config)
    mesh = build_disc_mesh(**cfg.mesh)
    ops = build_operators(mesh)
    state0 = build_initial_state(cfg, ops)
    counts = []
    for k in np.geomspace(1e-3, 30.0, 12):
        prev = make_state(ops, c=state0.c, n=state0.n, u=state0.u)
        base = StepBase(ops, cfg.params, k, replace(cfg.options, max_inner=200))
        _, _, diag = picard_inner(base, prev, base.system(state0.u))
        counts.append(diag.inner_iterations if diag.converged else None)
        assert diag.converged or diag.inner_iterations == 200
    assert tuple(counts) == REGIME_INNER


def test_outer_step_factorises_each_block_once(coarse_ops, monkeypatch):
    # several outer iterations, and every later one corrects around the
    # oxygen, cell and fluid factors the step already holds
    ops = coarse_ops
    x, y = ops.mesh.vertices.T
    prev = make_state(ops, c=1 + 0.5 * x, n=np.exp(-((x**2 + (y - 0.3) ** 2)) / 0.125))
    made = []

    def counted(matrix, **kw):
        made.append(matrix.shape)
        return splu(matrix, **kw)

    monkeypatch.setattr(fluid, "splu", counted)
    result = outer_step(StepBase(ops, PARAMS, 0.05), prev)
    assert result.diagnostics.converged and result.diagnostics.outer_iterations > 2
    scalar = [shape for shape in made if shape[0] == ops.mesh.n_vertices]
    assert len(scalar) == 2 and len(made) == 3  # the oxygen, cell and fluid first systems


def counted_convection(monkeypatch):
    """The velocity of every convection assembly from now on, in order."""
    velocities = []
    assemble = step_solver.assemble_convection

    def counted(ops, u):
        velocities.append(u)
        return assemble(ops, u)

    monkeypatch.setattr(step_solver, "assemble_convection", counted)
    return velocities


def test_one_convection_assembly_per_frozen_velocity(coarse_ops, monkeypatch):
    # the previous velocity, then each outer iterate's: the residual check
    # and the next outer iteration share the system built at a new velocity
    ops = coarse_ops
    x, y = ops.mesh.vertices.T
    prev = make_state(ops, c=1 + 0.5 * x, n=np.exp(-((x**2 + (y - 0.3) ** 2)) / 0.125))
    base = StepBase(ops, PARAMS, 0.05)
    velocities = counted_convection(monkeypatch)
    result = outer_step(base, prev)
    assert result.diagnostics.converged and result.diagnostics.outer_iterations > 2
    assert len(velocities) == result.diagnostics.outer_iterations + 1
    assert np.array_equal(velocities[0], prev.u) and velocities[-1] is result.u


def test_next_step_starts_from_the_system_the_last_one_ended_on(coarse_ops, monkeypatch):
    # a step that shares the base of the step before it starts from that
    # step's last system and its first-system factors: one convection
    # assembly fewer than with a base rebuilt from those factors' sources,
    # as a resume builds it, and the same bits
    ops = coarse_ops
    x, y = ops.mesh.vertices.T
    first = make_state(ops, c=1 + 0.5 * x, n=np.exp(-((x**2 + (y - 0.3) ** 2)) / 0.125))
    base = StepBase(ops, PARAMS, 0.05)
    previous = outer_step(base, first, step=1)
    assert base.last.u is previous.u and base.sources == [1, 1, 1]
    second = make_state(ops, c=previous.c, n=previous.n, u=previous.u.copy())
    rebuilt = StepBase(ops, PARAMS, base.k, base.options, base.sources, [first])
    velocities = counted_convection(monkeypatch)
    shared = outer_step(base, second, step=2)
    assembled = len(velocities)
    fresh = outer_step(rebuilt, second, step=2)
    assert shared.diagnostics.converged and shared.diagnostics.outer_iterations > 1
    assert assembled == len(velocities) - assembled - 1
    for name in ("c", "n", "u", "p"):
        assert np.array_equal(getattr(shared, name), getattr(fresh, name))
    assert shared.diagnostics.outer_history == fresh.diagnostics.outer_history


def solves_by_block(monkeypatch):
    """Triangular solves and factorisations of every factor made from now on, by block.

    Wraps each factor ``fluid.factorise`` makes (the one caller of
    ``fluid.splu``), labelled with the block name it is given.
    """
    solves, made = Counter(), Counter()
    factorise = fluid.factorise

    class Counted:
        def __init__(self, lu, what):
            self.lu, self.what, self.solves = lu, what, 0

        def solve(self, rhs):
            solves[self.what] += 1
            self.solves += 1
            return self.lu.solve(rhs)

    def counted(matrix, what):
        made[what] += 1
        return Counted(factorise(matrix, what), what)

    monkeypatch.setattr(fluid, "factorise", counted)
    return solves, made


def test_warm_started_run_triangular_solves(monkeypatch):
    # every held-factor solve corrects from the iterate it replaces, so the
    # later outer iterations of a step need fewer corrections; bounds are the
    # counts of the warm-started solver around first-system factors (cold
    # starts took 192, 667 and 885 solves, and 17 oxygen and 17 cell
    # factorisations)
    config = Path(__file__).resolve().parents[1] / "configs" / "benchmark.json"
    raw = apply_overrides(load_config(config).raw, ["mesh.target_h=0.1", "time.N=16"])
    cfg = config_from_dict(raw, base_dir=config.parent)
    mesh = build_disc_mesh(**cfg.mesh)
    ops = build_operators(mesh)
    state0 = build_initial_state(cfg, ops)
    solves, made = solves_by_block(monkeypatch)
    traj = run(ops, cfg.params, cfg.grid, state0, options=cfg.options)
    assert all(d.converged for ds in traj.diagnostics[1:] for d in ds)
    assert solves["saddle"] <= 102
    assert solves["oxygen"] <= 424
    assert solves["cell-density"] <= 362
    assert made["oxygen"] == 1 and made["cell-density"] == 1 and made["saddle"] == 1


def test_low_viscosity_blocks_factorise_at_most_once_per_attempt(monkeypatch):
    # the low_xi data (xi=0.01, h=0.1, k=1/16), first four steps: step 1
    # has no start factors, so each block factorises its first system's
    # matrix once and carries it.  In every later attempt the oxygen and
    # cell corrections around the factor of the previous step's first
    # system stall or spend their budget; each block then factorises its
    # own first system's matrix once, keeps it for the rest of the attempt
    # and carries it to the next step.  The saddle gives its start factor
    # up less often.  No system is built twice: an attempt assembles the
    # convection of its first system only when the base holds no last
    # system yet, and one per outer iteration.
    config = Path(__file__).resolve().parents[1] / "configs" / "benchmark.json"
    raw = apply_overrides(load_config(config).raw, ["params.xi=0.01", "mesh.target_h=0.1", "time.N=16"])
    cfg = config_from_dict(raw, base_dir=config.parent)
    mesh = build_disc_mesh(**cfg.mesh)
    ops = build_operators(mesh)
    state0 = build_initial_state(cfg, ops)
    solves, made = solves_by_block(monkeypatch)
    velocities = counted_convection(monkeypatch)
    attempts, assemblies = [], []
    outer = timestepping.outer_step

    def attempt(base, prev, step):
        new = base.last is None
        before = made.copy()
        starts = [(what, lu) for what, lu in zip(BLOCKS, base.factors) if lu is not None]
        spent = {what: lu.solves for what, lu in starts}
        assembled = len(velocities)
        result = outer(base, prev, step=step)
        corrections = {what: lu.solves - spent[what] for what, lu in starts}
        attempts.append((step, made - before, corrections, list(base.sources)))
        assemblies.append((len(velocities) - assembled, result.diagnostics.outer_iterations + new))
        return result

    monkeypatch.setattr(timestepping, "outer_step", attempt)
    grid = TimeGrid(T=cfg.grid.T / 4, N=4)
    assert grid.k == cfg.grid.k
    traj = run(ops, cfg.params, grid, state0, options=cfg.options)
    assert all(d.converged for ds in traj.diagnostics[1:] for d in ds) and len(attempts) == 4
    assert all(built == due for built, due in assemblies), assemblies
    assert [step for step, *_ in attempts] == [1, 2, 3, 4] and attempts[0][2] == {}
    for step, factorisations, corrections, sources in attempts:
        for block in ("oxygen", "cell-density"):
            assert factorisations[block] == 1
            assert step == 1 or 0 < corrections[block] <= KeptFactor.max_corrections
        assert sources[:2] == [step, step]
        assert step == 1 or 0 < corrections["saddle"] <= KeptFactor.max_corrections
    # step 1's first system, then step 3's
    assert [factorisations["saddle"] for _, factorisations, _, _ in attempts] == [1, 0, 1, 0]
    assert [sources[2] for *_, sources in attempts] == [1, 1, 3, 3]


def test_fresh_step_base_factorises_nothing(coarse_ops, monkeypatch):
    # the first attempt factorises its own first system, so a base starts
    # with no start factor and builds no system
    solves, made = solves_by_block(monkeypatch)
    velocities = counted_convection(monkeypatch)
    base = StepBase(coarse_ops, PARAMS, 0.05)
    assert not made and not velocities and base.last is None
    assert base.factors == [None, None, None] and base.sources == [0, 0, 0]


def test_failed_first_system_factorisation_carries_no_source(coarse_ops, monkeypatch):
    # the block hands back its (absent) start factor before it factorises
    # its first system; when that fails it carries nothing, so a checkpoint
    # written after the retry names no factor the run does not hold
    def singular(matrix, **kw):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(fluid, "splu", singular)
    base = StepBase(coarse_ops, PARAMS, 0.05)
    with pytest.raises(LinearSolveError, match="oxygen factorisation failed"):
        outer_step(base, make_state(coarse_ops), step=1)
    assert base.factors == [None, None, None] and base.sources == [0, 0, 0]
