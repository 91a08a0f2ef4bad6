import numpy as np

from chemoflow.assembly import assemble_convection
from chemoflow.fluid import (
    SaddleSystem,
    build_saddle_system,
    project_divergence_free,
    solve_saddle,
)
from chemoflow.model import ModelParams
from chemoflow.step_solver import StepInputs, outer_step


PARAMS = ModelParams()


def fluid_step(ops, n, q, k, params):
    """One coupled step from cell density n and velocity q, with no oxygen."""
    c = np.zeros(ops.mesh.n_vertices)
    inputs = StepInputs(c_prev=c, c_trace_prev=ops.trace.restrict(c), n_prev=n, u_prev=q, dt=k)
    result = outer_step(inputs, params, ops)
    return result.u, result.p, result.diagnostics


def test_zero_rhs_gives_zero(coarse_ops):
    u0 = np.zeros(coarse_ops.vspace.n_velocity)
    n0 = np.zeros(coarse_ops.mesh.n_vertices)
    sys = build_saddle_system(coarse_ops, u0, n0, u0, 0.01, PARAMS)
    u, p = solve_saddle(sys)
    assert np.max(np.abs(u)) == 0.0
    assert np.max(np.abs(p)) == 0.0


def test_constant_buoyancy_is_hydrostatic(coarse_ops):
    # constant n with constant grad_sigma is balanced entirely by pressure:
    # the force is the discrete gradient of a linear pressure field
    ops = coarse_ops
    n = np.full(ops.mesh.n_vertices, 2.0)
    u0 = np.zeros(ops.vspace.n_velocity)
    k = 0.05
    sys = build_saddle_system(ops, u0, n, u0, k, PARAMS)
    u, p = solve_saddle(sys)
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
    sys = build_saddle_system(ops, u_hat, n, q, k, PARAMS)
    u, p = solve_saddle(sys)

    idx = ops.vspace.interior_velocity
    A = sys.A[idx][:, idx].toarray()
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
    rhs[:n_u] = sys.rhs[idx]
    sol = np.linalg.solve(dense, rhs)
    assert np.allclose(u[idx], sol[:n_u], atol=1e-10)
    assert np.allclose(p, sol[n_u : n_u + n_p], atol=1e-10)


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
        sys = build_saddle_system(ops, u_hat, n, q, k, PARAMS)
        u, p = solve_saddle(sys)
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
    C = assemble_convection(ops, u)
    const = np.full(ops.mesh.n_vertices, 3.7)
    assert np.max(np.abs(C @ const)) < 1e-10
    ones = np.ones(ops.mesh.n_vertices)
    rng = np.random.default_rng(10)
    x = rng.standard_normal(ops.mesh.n_vertices)
    assert abs(ones @ (C @ x)) < 1e-10 * np.linalg.norm(x)
