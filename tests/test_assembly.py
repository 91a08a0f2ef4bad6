import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh

from chemoflow.assembly import (
    assemble_boundary_laplace_beltrami,
    assemble_boundary_mass,
    assemble_chemotaxis_rhs,
    assemble_convection,
    assemble_convection_velocity,
    build_operators,
)
from chemoflow.geometry import MeshError, build_disc_mesh, build_trace_map, mesh_from_arrays


def p1_operators(mesh):
    return build_operators(mesh, build_trace_map(mesh))


def rel_sym_defect(a):
    d = (a - a.T).tocoo()
    if a.nnz == 0:
        return 0.0
    return np.max(np.abs(d.data)) / np.max(np.abs(a.data)) if d.nnz else 0.0


def test_reference_triangle_mass(reference_triangle_mesh):
    M = p1_operators(reference_triangle_mesh).M_vol.toarray()
    expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    assert np.allclose(M, expected, atol=1e-15)


def test_reference_triangle_stiffness(reference_triangle_mesh):
    K = p1_operators(reference_triangle_mesh).K_vol.toarray()
    expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    assert np.allclose(K, expected, atol=1e-15)


def test_operators_reject_non_positive_area(reference_triangle_mesh):
    # a clockwise triangle, built past mesh validation
    flipped = dataclasses.replace(
        reference_triangle_mesh, triangles=reference_triangle_mesh.triangles[:, ::-1]
    )
    with pytest.raises(MeshError, match="non-positive"):
        build_operators(flipped, build_trace_map(reference_triangle_mesh))


def test_mass_total_is_disc_area():
    mesh = build_disc_mesh(1.0, 0.05)
    M = p1_operators(mesh).M_vol
    ones = np.ones(mesh.n_vertices)
    assert abs(ones @ (M @ ones) - np.pi) / np.pi < 0.01
    # row sums total the (polygonal) mesh area exactly
    assert np.isclose(M.sum(), mesh.area, rtol=1e-12)


def test_stiffness_annihilates_constants(medium_ops):
    K = medium_ops.K_vol
    ones = np.ones(K.shape[0])
    assert np.max(np.abs(K @ ones)) < 1e-12
    assert rel_sym_defect(K) < 1e-13


def test_stiffness_quadratic_form_linear_field():
    mesh = build_disc_mesh(1.0, 0.05)
    K = p1_operators(mesh).K_vol
    x = mesh.vertices[:, 0]
    # integral of |grad x|^2 over the disc is its area
    assert abs(x @ (K @ x) - np.pi) / np.pi < 0.02


def test_mass_symmetry_and_spd(coarse_ops):
    for M in (coarse_ops.M_vol, coarse_ops.M_bnd, coarse_ops.M_u):
        assert rel_sym_defect(M) < 1e-13
    eig = np.linalg.eigvalsh(coarse_ops.M_vol.toarray())
    assert eig.min() > 0
    eigb = np.linalg.eigvalsh(coarse_ops.M_bnd.toarray())
    assert eigb.min() > 0


def test_stiffness_kernel_is_constants(coarse_ops):
    for K in (coarse_ops.K_vol, coarse_ops.K_bnd):
        eig = np.linalg.eigvalsh(K.toarray())
        assert eig[0] > -1e-12
        assert np.sum(np.abs(eig) < 1e-10) == 1  # only the constant mode


def test_boundary_mass_total():
    mesh = build_disc_mesh(1.0, 1.0 / 32.0, first_ring=8)
    trace = build_trace_map(mesh)
    M = assemble_boundary_mass(mesh, trace)
    ones = np.ones(trace.n_boundary)
    total = ones @ (M @ ones)
    assert mesh.n_boundary == 256
    assert abs(total - 2 * np.pi) / (2 * np.pi) < 0.001
    assert np.isclose(total, mesh.perimeter, rtol=1e-12)


def test_boundary_mass_rejects_degenerate_loop():
    mesh = mesh_from_arrays(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_loop=np.array([0, 1, 2]),
    )
    trace = build_trace_map(mesh)
    bad = type(trace)(boundary_vertices=np.array([0, 1]), n_global=3)
    with pytest.raises(MeshError):
        assemble_boundary_mass(mesh, bad)


def test_laplace_beltrami_constants_and_sine_mode():
    mesh = build_disc_mesh(1.0, 1.0 / 32.0, first_ring=8)
    trace = build_trace_map(mesh)
    K = assemble_boundary_laplace_beltrami(mesh, trace)
    ones = np.ones(trace.n_boundary)
    assert np.max(np.abs(K @ ones)) < 1e-12
    theta = np.arctan2(
        mesh.vertices[mesh.boundary_loop, 1], mesh.vertices[mesh.boundary_loop, 0]
    )
    v = np.sin(3 * theta)
    # integral over the circle of |d/ds sin(3 theta)|^2 = 9 pi
    assert abs(v @ (K @ v) - 9 * np.pi) / (9 * np.pi) < 0.02


def test_laplace_beltrami_spectrum():
    mesh = build_disc_mesh(1.0, 1.0 / 32.0, first_ring=8)
    trace = build_trace_map(mesh)
    K = assemble_boundary_laplace_beltrami(mesh, trace).toarray()
    M = assemble_boundary_mass(mesh, trace).toarray()
    eig = eigh(K, M, eigvals_only=True)
    # circle eigenvalues m^2, doubly degenerate for m >= 1
    assert abs(eig[0]) < 1e-10
    assert abs(eig[1] - 1.0) < 0.02 and abs(eig[2] - 1.0) < 0.02


def test_convection_zero_velocity(coarse_ops):
    u = np.zeros(coarse_ops.vspace.n_velocity)
    C = assemble_convection(coarse_ops, u)
    assert C.nnz == 0 or np.max(np.abs(C.data)) == 0.0


def test_convection_skew_identity(coarse_ops):
    rng = np.random.default_rng(7)
    ns = coarse_ops.vspace.n_scalar
    for _ in range(10):
        u = coarse_ops.vspace.zero_boundary(rng.standard_normal(2 * ns))
        c = rng.standard_normal(coarse_ops.mesh.n_vertices)
        C = assemble_convection(coarse_ops, u)
        assert abs(c @ (C @ c)) <= 1e-12 * (c @ c) * np.max(np.abs(u))
        Cu = assemble_convection_velocity(coarse_ops, u)
        x = rng.standard_normal(2 * ns)
        assert abs(x @ (Cu @ x)) <= 1e-12 * (x @ x) * max(np.max(np.abs(u)), 1)


def test_convection_constant_field(coarse_ops):
    # Masking the rotation to zero at the boundary makes it non-solenoidal in
    # the boundary band of elements; the skew form annihilates constants
    # exactly wherever the velocity is (discretely) divergence-free, i.e. on
    # every row whose vertex star avoids that band.  The global statement for
    # divergence-free velocities is covered by the fluid tests.
    mesh = coarse_ops.mesh
    vs = coarse_ops.vspace
    u = vs.zero_boundary(vs.interpolate(lambda x, y: (-y, x)))
    C = assemble_convection(coarse_ops, u)
    const = np.full(mesh.n_vertices, 3.7)
    r = C @ const
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary[mesh.boundary_loop] = True
    touched = np.unique(mesh.triangles[np.any(on_boundary[mesh.triangles], axis=1)])
    inner = np.setdiff1d(np.arange(mesh.n_vertices), touched)
    assert inner.size > 0
    assert np.max(np.abs(r[inner])) < 1e-13


def test_chemotaxis_constant_c(coarse_ops):
    n = np.random.default_rng(0).random(coarse_ops.mesh.n_vertices)
    c = np.full(coarse_ops.mesh.n_vertices, 2.0)
    G = assemble_chemotaxis_rhs(coarse_ops, n, c, lambda n_, c_: np.ones_like(n_))
    assert np.max(np.abs(G)) < 1e-13


def test_chemotaxis_zero_sensitivity(coarse_ops):
    rng = np.random.default_rng(1)
    n = rng.random(coarse_ops.mesh.n_vertices)
    c = rng.random(coarse_ops.mesh.n_vertices)
    G = assemble_chemotaxis_rhs(coarse_ops, n, c, lambda n_, c_: np.zeros_like(n_))
    assert np.max(np.abs(G)) == 0.0


def test_chemotaxis_unit_sensitivity_is_stiffness_action(coarse_ops):
    rng = np.random.default_rng(2)
    n = rng.random(coarse_ops.mesh.n_vertices)
    c = rng.random(coarse_ops.mesh.n_vertices)
    G = assemble_chemotaxis_rhs(coarse_ops, n, c, lambda n_, c_: np.ones_like(n_))
    ref = coarse_ops.K_vol @ c
    assert np.max(np.abs(G - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_divergence_zero_velocity(coarse_ops):
    u = np.zeros(coarse_ops.vspace.n_velocity)
    assert np.max(np.abs(coarse_ops.B @ u)) == 0.0


def test_divergence_theorem_row(coarse_ops):
    # for u vanishing on the boundary the total divergence integral is zero
    rng = np.random.default_rng(3)
    u = coarse_ops.vspace.zero_boundary(rng.standard_normal(coarse_ops.vspace.n_velocity))
    ones = np.ones(coarse_ops.mesh.n_vertices)
    assert abs(ones @ (coarse_ops.B @ u)) < 1e-12 * max(1.0, np.max(np.abs(u)))


def stream_velocity(ops):
    """Interpolant of curl psi for psi = (1 - r^2)^2, zero to first order on r=1."""

    def vel(x, y):
        r2 = x**2 + y**2
        dpsi_dx = 2 * (1 - r2) * (-2 * x)
        dpsi_dy = 2 * (1 - r2) * (-2 * y)
        return dpsi_dy, -dpsi_dx

    return ops.vspace.zero_boundary(ops.vspace.interpolate(vel))


def test_divergence_of_curl_decreases_under_refinement():
    residuals = []
    for h in (0.3, 0.15):
        mesh = build_disc_mesh(1.0, h)
        ops = build_operators(mesh, build_trace_map(mesh))
        u = stream_velocity(ops)
        div = ops.B @ u
        residuals.append(np.linalg.norm(div) / np.linalg.norm(u))
    assert residuals[1] < residuals[0]
    assert residuals[1] < 1e-2


def test_assembly_deterministic():
    mesh = build_disc_mesh(1.0, 0.3)
    trace = build_trace_map(mesh)
    a = build_operators(mesh, trace)
    b = build_operators(mesh, trace)
    for x, y in [(a.M_vol, b.M_vol), (a.K_vol, b.K_vol), (a.B, b.B), (a.M_u, b.M_u)]:
        assert np.array_equal(x.toarray(), y.toarray())
    rng = np.random.default_rng(4)
    u = a.vspace.zero_boundary(rng.standard_normal(a.vspace.n_velocity))
    c1 = assemble_convection(a, u)
    c2 = assemble_convection(a, u)
    assert np.array_equal(c1.toarray(), c2.toarray())


def test_p2_mass_total_area(coarse_ops):
    ns = coarse_ops.vspace.n_scalar
    ones = np.concatenate([np.ones(ns), np.zeros(ns)])
    total = ones @ (coarse_ops.M_u @ ones)
    assert np.isclose(total, coarse_ops.mesh.area, rtol=1e-12)


def test_velocity_stiffness_annihilates_constants(coarse_ops):
    ns = coarse_ops.vspace.n_scalar
    ones = np.concatenate([np.ones(ns), np.full(ns, -2.0)])
    assert np.max(np.abs(coarse_ops.K_u @ ones)) < 1e-12
