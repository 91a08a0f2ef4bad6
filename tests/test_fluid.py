import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from chemoflow import fluid
from chemoflow.assembly import assemble_convection, build_operators
from chemoflow.fluid import (
    KeptFactor,
    project_divergence_free,
    solve_saddle,
)
from chemoflow.geometry import build_disc_mesh
from chemoflow.model import ModelParams
from chemoflow.step_solver import State, StepBase, outer_step, picard_inner, u_step_rhs


PARAMS = ModelParams()


def saddle_system(ops, u_hat, n, u_prev, k, params):
    """The fluid step's saddle at ``u_hat`` and its load from ``n`` and ``u_prev``."""
    base = StepBase(ops, params, k)
    return base.system(u_hat).fluid, u_step_rhs(base, State(n, n, u_prev, np.zeros_like(n), 0.0), n)


def fluid_step(ops, n, q, k, params):
    """One coupled step from cell density n and velocity q, with no oxygen."""
    c = np.zeros(ops.mesh.n_vertices)
    result = outer_step(StepBase(ops, params, k), State(c, n, q, np.zeros_like(c), 0.0))
    return result.u, result.p, result.diagnostics


def test_zero_rhs_gives_zero(coarse_ops):
    u0 = np.zeros(coarse_ops.vspace.n_velocity)
    n0 = np.zeros(coarse_ops.mesh.n_vertices)
    A, rhs = saddle_system(coarse_ops, u0, n0, u0, 0.01, PARAMS)
    u, p = solve_saddle(coarse_ops, A, rhs)
    assert np.max(np.abs(u)) == 0.0
    assert np.max(np.abs(p)) == 0.0


def test_constant_buoyancy_is_hydrostatic(coarse_ops):
    # constant n with constant grad_sigma is balanced entirely by pressure:
    # the force is the discrete gradient of a linear pressure field
    ops = coarse_ops
    n = np.full(ops.mesh.n_vertices, 2.0)
    u0 = np.zeros(ops.vspace.n_velocity)
    k = 0.05
    A, rhs = saddle_system(ops, u0, n, u0, k, PARAMS)
    u, p = solve_saddle(ops, A, rhs)
    assert np.sqrt(ops.velocity_norm_sq(u)) < 1e-10
    # pressure equals -2*y up to the mean-zero shift
    y = ops.mesh.vertices[:, 1]
    expected = -2.0 * y
    expected -= (ops.pressure_weights @ expected) / ops.pressure_weights.sum()
    assert np.max(np.abs(p - expected)) < 1e-8


def test_dense_saddle_oracle(coarse_ops):
    # independent dense solve of the same blocks
    ops = coarse_ops
    rng = np.random.default_rng(11)
    n = rng.random(ops.mesh.n_vertices)
    q = project_divergence_free(
        ops.vspace.zero_boundary(rng.standard_normal(ops.vspace.n_velocity)), ops
    )
    k = 0.02
    u_hat = q
    saddle, rhs_full = saddle_system(ops, u_hat, n, q, k, PARAMS)
    u, p = solve_saddle(ops, saddle, rhs_full)

    idx = ops.vspace.interior_velocity
    A = saddle.A.toarray()
    B = ops.B[:, idx].toarray()
    w = ops.pressure_weights
    n_u, n_p = A.shape[0], B.shape[0]
    dense = np.zeros((n_u + n_p + 1, n_u + n_p + 1))
    dense[:n_u, :n_u] = A
    dense[:n_u, n_u : n_u + n_p] = -k * B.T
    dense[n_u : n_u + n_p, :n_u] = B
    dense[n_u : n_u + n_p, -1] = w
    dense[-1, n_u : n_u + n_p] = w
    rhs = np.zeros(n_u + n_p + 1)
    rhs[:n_u] = rhs_full[idx]
    sol = np.linalg.solve(dense, rhs)
    assert np.allclose(u[idx], sol[:n_u], atol=1e-10)
    assert np.allclose(p, sol[n_u : n_u + n_p], atol=1e-10)


class CountingLU:
    """A sparse factor that counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


def counted_factorisations(monkeypatch):
    """Every factor ``fluid.splu`` makes from now on, in order, counting its solves."""
    made = []

    def counted(matrix, **kw):
        made.append(CountingLU(splu(matrix, **kw)))
        return made[-1]

    monkeypatch.setattr(fluid, "splu", counted)
    return made


def stokes_base(ops, xi, k):
    """Factor of the convection-free step saddle ``M + k xi K`` of step size ``k``."""
    return fluid.factorise(fluid.PinnedSaddle(ops, ops.M_u.data + k * xi * ops.K_u.data, k), "saddle")


def random_step_system(ops, params, k, amplitude, seed, q_scale=1.0):
    rng = np.random.default_rng(seed)
    n = rng.random(ops.mesh.n_vertices)
    q = project_divergence_free(
        ops.vspace.zero_boundary(amplitude * rng.standard_normal(ops.vspace.n_velocity)), ops
    )
    return saddle_system(ops, q_scale * q, n, q, k, params)


def test_saddle_cache_matches_direct_solve(coarse_ops, monkeypatch):
    # convection on: the fluid factor defect-corrects around its Stokes base
    ops = coarse_ops
    k = 0.02
    A, rhs = random_step_system(ops, PARAMS, k, 1.0, 12)
    u_ref, p_ref = solve_saddle(ops, A, rhs)
    made = counted_factorisations(monkeypatch)
    u, p = solve_saddle(ops, A, rhs, factor=KeptFactor("saddle", stokes_base(ops, PARAMS.xi, k)))
    assert len(made) == 1  # the convection-free base, nothing else
    assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-12 * np.linalg.norm(p_ref)


def test_saddle_cache_falls_back_once_at_low_viscosity(coarse_ops, monkeypatch):
    # xi = 0.01 with a strong velocity: the correction stalls, as on low_xi
    ops = coarse_ops
    params = ModelParams(xi=0.01)
    k = 0.0625
    A, rhs = random_step_system(ops, params, k, 5.0, 12)
    made = counted_factorisations(monkeypatch)
    u, p = solve_saddle(ops, A, rhs, factor=KeptFactor("saddle", stokes_base(ops, params.xi, k)))
    assert len(made) == 2  # the base, then the true matrix
    idx = ops.vspace.interior_velocity
    B = ops.B[:, idx]
    r_mom = A.A @ u[idx] - k * (B.T @ p) - rhs[idx]
    assert np.linalg.norm(r_mom) <= 1e-10 * np.linalg.norm(rhs[idx])
    assert np.linalg.norm(B @ u[idx]) <= 1e-10 * np.linalg.norm(u[idx])
    assert np.array_equal(ops.vspace.zero_boundary(u), u)
    assert abs(ops.pressure_weights @ p) <= 1e-12 * np.linalg.norm(p)


STALLING = [
    (0.01, 5.0),  # every correction makes the defect grow
    (0.03, 2.0),  # the defect falls, by about 0.8 a step: 2e-4 after 30
]


@pytest.mark.parametrize("xi, amplitude", STALLING)
def test_saddle_cache_falls_back_early(coarse_ops, monkeypatch, xi, amplitude):
    ops = coarse_ops
    params = ModelParams(xi=xi)
    k = 0.0625
    A, rhs = random_step_system(ops, params, k, amplitude, 12)
    made = counted_factorisations(monkeypatch)
    factor = KeptFactor("saddle", stokes_base(ops, params.xi, k))
    solve_saddle(ops, A, rhs, factor=factor)
    base, *fresh = made
    assert base.solves <= 2
    assert len(fresh) == 1 and fresh[0].solves == 1
    assert factor.lu is fresh[0]  # kept for the next solves


@pytest.mark.parametrize("xi, amplitude", STALLING)
def test_saddle_cache_nearby_system_after_a_stall_needs_no_factorisation(coarse_ops, monkeypatch, xi, amplitude):
    # the next outer iteration of a step: convection by a nearby velocity
    ops = coarse_ops
    params = ModelParams(xi=xi)
    k = 0.0625
    A_first, rhs_first = random_step_system(ops, params, k, amplitude, 12)
    A, rhs = random_step_system(ops, params, k, amplitude, 12, q_scale=1.01)
    u_ref, p_ref = solve_saddle(ops, A, rhs)
    made = counted_factorisations(monkeypatch)
    factor = KeptFactor("saddle", stokes_base(ops, params.xi, k))
    solve_saddle(ops, A_first, rhs_first, factor=factor)
    base, kept = made
    base_solves = base.solves
    u, p = solve_saddle(ops, A, rhs, factor=factor)
    assert len(made) == 2
    assert base.solves == base_solves
    assert 1 < kept.solves < 1 + KeptFactor.max_corrections
    assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-12 * np.linalg.norm(p_ref)


@pytest.mark.parametrize("xi, amplitude", STALLING)
def test_given_up_start_factor_gives_way_to_the_first_systems_factor(coarse_ops, monkeypatch, xi, amplitude):
    # a later outer iteration of a step, on a system near the step's first
    # one: the held factor drops its start factor, factorises the first
    # system rather than the current one, hands it over, and corrects the
    # current system around it
    ops = coarse_ops
    params = ModelParams(xi=xi)
    k = 0.0625
    A_first, _ = random_step_system(ops, params, k, amplitude, 12)
    A, rhs = random_step_system(ops, params, k, amplitude, 12, q_scale=1.01)
    u_ref, p_ref = solve_saddle(ops, A, rhs)
    made = counted_factorisations(monkeypatch)
    handed = []
    factor = KeptFactor("saddle", stokes_base(ops, params.xi, k), A_first, handed.append)
    u, p = solve_saddle(ops, A, rhs, factor=factor)
    start, first = made
    assert start.solves <= 2 and 1 < first.solves < 1 + KeptFactor.max_corrections
    assert handed == [None, first] and factor.lu is first and factor.first is None
    assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)
    assert np.linalg.norm(p - p_ref) <= 1e-12 * np.linalg.norm(p_ref)


@pytest.mark.parametrize(
    "xi, amplitude, k",
    [
        (1.0, 1.0, 0.02),  # the system of test_saddle_cache_matches_direct_solve
        (0.03, 1.0, 0.0625),  # contracts by about 0.4 a step, reaching the target at the 29th check
    ],
)
def test_saddle_cache_converging_correction_does_not_fall_back(coarse_ops, monkeypatch, xi, amplitude, k):
    ops = coarse_ops
    params = ModelParams(xi=xi)
    A, rhs = random_step_system(ops, params, k, amplitude, 12)
    made = counted_factorisations(monkeypatch)
    factor = KeptFactor("saddle", stokes_base(ops, params.xi, k))
    solve_saddle(ops, A, rhs, factor=factor)
    base, *fresh = made
    assert fresh == []
    assert 0 < base.solves < KeptFactor.max_corrections


def test_step_attempt_starts_from_the_base(coarse_ops, monkeypatch):
    # a base that carries an attempt's first-system factors, shared with a
    # saddle solve that stalled and kept its own factor, and with an inner
    # loop that spent corrections around its scalar factors: the next
    # attempt starts from the base factors alone, with a full correction
    # budget, so it computes the same bits as from a base not shared
    ops = coarse_ops
    params = ModelParams(xi=0.01)
    k = 0.0625
    A, rhs = random_step_system(ops, params, k, 5.0, 12)
    rng = np.random.default_rng(7)
    c = np.ones(ops.mesh.n_vertices)
    n = rng.random(ops.mesh.n_vertices)
    u_prev = np.zeros(ops.vspace.n_velocity)
    prev = State(c, n, u_prev, np.zeros_like(c), 0.0)
    unshared = StepBase(ops, params, k)
    outer_step(unshared, prev, step=1)
    fresh = outer_step(unshared, prev, step=2)
    made = counted_factorisations(monkeypatch)
    base = StepBase(ops, params, k)
    outer_step(base, prev, step=1)
    oxygen_lu, cells_lu, saddle_lu = base.factors
    assert base.sources == [1, 1, 1] and made[:3] == [oxygen_lu, cells_lu, saddle_lu]
    solve_saddle(ops, A, rhs, factor=KeptFactor("saddle", saddle_lu))
    stalled = made[-1]
    assert stalled not in base.factors and stalled.solves == 1
    held = (KeptFactor("oxygen", oxygen_lu), KeptFactor("cell-density", cells_lu))
    other = State(2 * c, n, u_prev, np.zeros_like(c), 0.0)
    inner = StepBase(ops, params, k)
    picard_inner(inner, other, inner.system(u_prev), factors=held)
    assert all(f.spare < KeptFactor.max_corrections for f in held)
    solves = saddle_lu.solves
    result = outer_step(base, prev, step=2)
    assert saddle_lu.solves > solves and stalled.solves == 1
    for name in ("c", "n", "u", "p"):
        assert np.array_equal(getattr(result, name), getattr(fresh, name))
    assert result.diagnostics.outer_history == fresh.diagnostics.outer_history


def test_kinetic_energy_identity(coarse_ops):
    # multiply the step by u: skew convection drops, pressure drops, leaving
    # |u|^2 - |q|^2 + |u-q|^2 + 2 k xi |grad u|^2 = 2 k (force, u)
    ops = coarse_ops
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = rng.random(ops.mesh.n_vertices)
        q = project_divergence_free(
            ops.vspace.zero_boundary(rng.standard_normal(ops.vspace.n_velocity)), ops
        )
        u_hat = project_divergence_free(
            ops.vspace.zero_boundary(rng.standard_normal(ops.vspace.n_velocity)), ops
        )
        k = 0.03
        A, load = saddle_system(ops, u_hat, n, q, k, PARAMS)
        u, p = solve_saddle(ops, A, load)
        force = ops.buoyancy_load(n, np.asarray(PARAMS.grad_sigma))
        lhs = (
            ops.velocity_norm_sq(u)
            - ops.velocity_norm_sq(q)
            + ops.velocity_norm_sq(u - q)
            + 2 * k * PARAMS.xi * float(u @ (ops.K_u @ u))
        )
        rhs = 2 * k * float(force @ u)
        scale = ops.velocity_norm_sq(q) + abs(rhs) + 1e-30
        assert abs(lhs - rhs) < 1e-10 * scale


def test_divergence_residual_small(coarse_ops):
    ops = coarse_ops
    rng = np.random.default_rng(6)
    n = rng.random(ops.mesh.n_vertices)
    q = np.zeros(ops.vspace.n_velocity)
    u, p, diag = fluid_step(ops, n, q, 0.05, PARAMS)
    assert diag.converged
    assert np.linalg.norm(ops.B @ u) <= 1e-9 * max(np.linalg.norm(u), 1e-300)


def test_picard_zero_force_one_iteration(coarse_ops):
    ops = coarse_ops
    n = np.zeros(ops.mesh.n_vertices)
    q = np.zeros(ops.vspace.n_velocity)
    u, p, diag = fluid_step(ops, n, q, 0.05, PARAMS)
    assert diag.converged and diag.outer_iterations == 1
    assert np.max(np.abs(u)) == 0.0


def test_picard_moderate_data_converges_fast(coarse_ops):
    ops = coarse_ops
    rng = np.random.default_rng(8)
    n = rng.random(ops.mesh.n_vertices)
    q = project_divergence_free(
        ops.vspace.zero_boundary(0.3 * rng.standard_normal(ops.vspace.n_velocity)), ops
    )
    u, p, diag = fluid_step(ops, n, q, 0.01, PARAMS)
    assert diag.converged
    assert diag.outer_iterations <= 5  # regression baseline


def test_viscosity_scan_monotone(coarse_ops):
    ops = coarse_ops
    n = np.exp(-((ops.mesh.vertices[:, 0] - 0.2) ** 2 + ops.mesh.vertices[:, 1] ** 2) / 0.1)
    q = np.zeros(ops.vspace.n_velocity)
    norms = []
    for xi in (1.0, 10.0, 100.0):
        params = ModelParams(xi=xi)
        u, p, diag = fluid_step(ops, n, q, 0.05, params)
        assert diag.converged
        norms.append(np.sqrt(ops.velocity_norm_sq(u)))
    assert norms[0] > norms[1] > norms[2]
    assert norms[2] < norms[0] / 10


def test_projection_idempotent_and_divfree(coarse_ops):
    ops = coarse_ops
    rng = np.random.default_rng(9)
    u = ops.vspace.zero_boundary(rng.standard_normal(ops.vspace.n_velocity))
    v = project_divergence_free(u, ops)
    assert np.linalg.norm(ops.B @ v) < 1e-10 * max(np.linalg.norm(v), 1e-300)
    w = project_divergence_free(v, ops)
    assert np.allclose(w, v, atol=1e-9 * max(1.0, np.max(np.abs(v))))


def test_skew_convection_annihilates_constants_for_divfree_velocity(coarse_ops):
    # complements the masked-rotation assembly test: once the rotation is
    # projected onto the divergence-free subspace, constants are in the kernel
    ops = coarse_ops
    u = project_divergence_free(
        ops.vspace.zero_boundary(ops.vspace.interpolate(lambda x, y: (-y, x))), ops
    )
    C, _ = assemble_convection(ops, u)
    const = np.full(ops.mesh.n_vertices, 3.7)
    assert np.max(np.abs(C @ const)) < 1e-10
    ones = np.ones(ops.mesh.n_vertices)
    rng = np.random.default_rng(10)
    x = rng.standard_normal(ops.mesh.n_vertices)
    assert abs(ones @ (C @ x)) < 1e-10 * np.linalg.norm(x)


def assert_dense_equal(a, b, rows=256):
    """``np.array_equal`` of two sparse matrices as dense arrays, a block of rows at a time."""
    a, b = sp.csr_matrix(a), sp.csr_matrix(b)
    assert a.shape == b.shape
    for start in range(0, a.shape[0], rows):
        assert np.array_equal(a[start : start + rows].toarray(), b[start : start + rows].toarray())


def test_step_matrices_equal_the_sparse_sums():
    # the pattern-data step matrices against the sparse-sum expressions they
    # replace, on the N=64 benchmark mesh with convection on
    mesh = build_disc_mesh(1.0, 0.05)
    ops = build_operators(mesh)
    params = ModelParams(alpha=0.3, beta=0.7, xi=0.5, b=2.0)
    k = 0.015625
    u = ops.vspace.zero_boundary(ops.vspace.interpolate(lambda x, y: (-y + 0.3 * x * x, x - 0.2 * y)))
    C, C_u = assemble_convection(ops, u)
    system = StepBase(ops, params, k).system(u)
    a_ob = params.alpha / params.b
    expected_c = ops.M_vol + a_ob * ops.M_bnd_global + k * params.alpha * ops.K_vol + k * a_ob * ops.K_bnd_global + k * C
    assert_dense_equal(system.oxygen, expected_c)
    assert_dense_equal(system.cells, ops.M_vol + k * params.beta * ops.K_vol + k * C)

    saddle = system.fluid
    idx = ops.vspace.interior_velocity
    expected_A = ops.M_u + k * params.xi * ops.K_u + k * C_u
    assert_dense_equal(saddle.A, expected_A[idx][:, idx])
    assert saddle.scale == k
    B = ops.B[:, idx].tocsr()
    expected_saddle = sp.bmat([[expected_A[idx][:, idx], -k * B[1:, :].T], [B[1:, :], None]])
    assert_dense_equal(saddle.tocsc(), expected_saddle)


def test_guess_within_target_needs_no_triangular_solve(coarse_ops):
    ops = coarse_ops
    A = ops.M_vol + 0.1 * ops.K_vol
    rhs = ops.M_vol @ np.linspace(1.0, 2.0, ops.mesh.n_vertices)
    factor = KeptFactor("test")
    x = factor.solve(A, rhs, 1e-10)
    factor.lu = CountingLU(factor.lu)
    assert np.array_equal(factor.solve(A, rhs, 1e-10, guess=x), x)
    assert factor.lu.solves == 0
    factor.solve(A, 1.01 * rhs, 1e-10, guess=x)
    assert factor.lu.solves > 0


def test_saddle_guess_maps_to_the_pinned_layout(coarse_ops, monkeypatch):
    # the solution (u, p) of a step system, handed back as the guess, is
    # already within target once p is re-pinned to its dof 0
    ops = coarse_ops
    k = 0.02
    A, rhs = random_step_system(ops, PARAMS, k, 1.0, 12)
    made = counted_factorisations(monkeypatch)
    factor = KeptFactor("saddle", stokes_base(ops, PARAMS.xi, k))
    u, p = solve_saddle(ops, A, rhs, factor=factor)
    (base,) = made
    solves = base.solves
    u2, p2 = solve_saddle(ops, A, rhs, factor=factor, guess=(u, p))
    assert base.solves == solves and len(made) == 1
    assert np.linalg.norm(u2 - u) <= 1e-14 * np.linalg.norm(u)
    assert np.linalg.norm(p2 - p) <= 1e-14 * np.linalg.norm(p)


def test_held_factors_keep_fill_low(medium_ops):
    # the symmetric-mode ordering on the h=0.1 saddles: COLAMD fills 0.60,
    # 0.60 and 0.47 M, and a diagonal pivot threshold of 0.1 (projection,
    # 4.3 M) or 1.0 (xi=0.01 base, 4.9 M) undoes the ordering
    ops = medium_ops
    k = 1 / 16
    systems = {
        "xi=0.01 base": fluid.PinnedSaddle(ops, ops.M_u.data + k * 0.01 * ops.K_u.data, k),
        "projection": fluid.PinnedSaddle(ops, ops.M_u.data, 1.0),
        "stokes": fluid.PinnedSaddle(ops, PARAMS.xi * ops.K_u.data, 1.0),
    }
    rhs = np.random.default_rng(3).standard_normal(sum(systems["stokes"].Bp.shape))
    for name, saddle in systems.items():
        factor = KeptFactor(name)
        x = factor.solve(saddle, rhs, 1e-12)
        assert factor.lu.L.nnz + factor.lu.U.nnz <= 350_000, name
        assert np.linalg.norm(saddle @ x - rhs) <= 1e-12 * np.linalg.norm(rhs), name
