import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh

from chemoflow.assembly import (
    QUAD_BARY,
    QUAD_WEIGHTS,
    assemble_boundary_laplace_beltrami,
    assemble_boundary_mass,
    assemble_chemotaxis_rhs,
    assemble_convection,
    build_operators,
)
from chemoflow.geometry import MeshError, build_disc_mesh, mesh_from_arrays


def p1_operators(mesh):
    return build_operators(mesh)


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
    # a mesh is validated when built, even by dataclasses.replace, so no
    # clockwise triangle or NaN vertex reaches the operators
    with pytest.raises(MeshError, match="non-positive area"):
        dataclasses.replace(reference_triangle_mesh, triangles=reference_triangle_mesh.triangles[:, ::-1])
    vertices = reference_triangle_mesh.vertices.copy()
    vertices[0, 0] = np.nan
    with pytest.raises(MeshError, match="non-finite"):
        dataclasses.replace(reference_triangle_mesh, vertices=vertices)


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
    loop = coarse_ops.mesh.boundary_loop
    M_bnd = coarse_ops.M_bnd_global[loop][:, loop]
    for M in (coarse_ops.M_vol, M_bnd, coarse_ops.M_u):
        assert rel_sym_defect(M) < 1e-13
    eig = np.linalg.eigvalsh(coarse_ops.M_vol.toarray())
    assert eig.min() > 0
    eigb = np.linalg.eigvalsh(M_bnd.toarray())
    assert eigb.min() > 0


def test_stiffness_kernel_is_constants(coarse_ops):
    loop = coarse_ops.mesh.boundary_loop
    for K in (coarse_ops.K_vol, coarse_ops.K_bnd_global[loop][:, loop]):
        eig = np.linalg.eigvalsh(K.toarray())
        assert eig[0] > -1e-12
        assert np.sum(np.abs(eig) < 1e-10) == 1  # only the constant mode


def test_boundary_mass_total():
    mesh = build_disc_mesh(1.0, 1.0 / 32.0, first_ring=8)
    M = assemble_boundary_mass(mesh)[mesh.boundary_loop][:, mesh.boundary_loop]
    ones = np.ones(mesh.n_boundary)
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
    # the two-vertex loop is refused when the mesh is built, before any boundary assembly
    with pytest.raises(MeshError, match="fewer than 3 vertices"):
        dataclasses.replace(mesh, boundary_loop=np.array([0, 1]))


def test_laplace_beltrami_constants_and_sine_mode():
    mesh = build_disc_mesh(1.0, 1.0 / 32.0, first_ring=8)
    K = assemble_boundary_laplace_beltrami(mesh)[mesh.boundary_loop][:, mesh.boundary_loop]
    ones = np.ones(mesh.n_boundary)
    assert np.max(np.abs(K @ ones)) < 1e-12
    theta = np.arctan2(
        mesh.vertices[mesh.boundary_loop, 1], mesh.vertices[mesh.boundary_loop, 0]
    )
    v = np.sin(3 * theta)
    # integral over the circle of |d/ds sin(3 theta)|^2 = 9 pi
    assert abs(v @ (K @ v) - 9 * np.pi) / (9 * np.pi) < 0.02


def test_laplace_beltrami_spectrum():
    mesh = build_disc_mesh(1.0, 1.0 / 32.0, first_ring=8)
    loop = mesh.boundary_loop
    K = assemble_boundary_laplace_beltrami(mesh)[loop][:, loop].toarray()
    M = assemble_boundary_mass(mesh)[loop][:, loop].toarray()
    eig = eigh(K, M, eigvals_only=True)
    # circle eigenvalues m^2, doubly degenerate for m >= 1
    assert abs(eig[0]) < 1e-10
    assert abs(eig[1] - 1.0) < 0.02 and abs(eig[2] - 1.0) < 0.02


def test_convection_zero_velocity(coarse_ops):
    u = np.zeros(coarse_ops.vspace.n_velocity)
    C, _ = assemble_convection(coarse_ops, u)
    assert C.nnz == 0 or np.max(np.abs(C.data)) == 0.0


def test_convection_skew_identity(coarse_ops):
    rng = np.random.default_rng(7)
    ns = coarse_ops.vspace.n_scalar
    for _ in range(10):
        u = coarse_ops.vspace.zero_boundary(rng.standard_normal(2 * ns))
        c = rng.standard_normal(coarse_ops.mesh.n_vertices)
        C, Cu = assemble_convection(coarse_ops, u)
        assert abs(c @ (C @ c)) <= 1e-12 * (c @ c) * np.max(np.abs(u))
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
    C, _ = assemble_convection(coarse_ops, u)
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
        ops = build_operators(mesh)
        u = stream_velocity(ops)
        div = ops.B @ u
        residuals.append(np.linalg.norm(div) / np.linalg.norm(u))
    assert residuals[1] < residuals[0]
    assert residuals[1] < 1e-2


def test_assembly_deterministic():
    mesh = build_disc_mesh(1.0, 0.3)
    a = build_operators(mesh)
    b = build_operators(mesh)
    for x, y in [(a.M_vol, b.M_vol), (a.K_vol, b.K_vol), (a.B, b.B), (a.M_u, b.M_u)]:
        assert np.array_equal(x.toarray(), y.toarray())
    rng = np.random.default_rng(4)
    u = a.vspace.zero_boundary(rng.standard_normal(a.vspace.n_velocity))
    c1, _ = assemble_convection(a, u)
    c2, _ = assemble_convection(a, u)
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


# ---------------------------------------------------------------------------
# Independent references for the fixed-pattern scatter: element data computed
# here from the vertex coordinates, assembled per triangle or through COO.


def element_geometry(ops):
    """Areas (nt,) and barycentric gradients (nt, 3, 2) of every triangle."""
    p = ops.mesh.vertices[ops.mesh.triangles]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]
    g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
    return 0.5 * det, np.stack([-g1 - g2, g1, g2], axis=1)


def p2_basis(lam, dlam):
    """P2 values (6,) and gradients (6, 2) at barycentric point lam of one triangle."""
    vals = np.empty(6)
    grads = np.empty((6, 2))
    for i in range(3):
        vals[i] = lam[i] * (2 * lam[i] - 1)
        grads[i] = (4 * lam[i] - 1) * dlam[i]
    for k in range(3):
        a, b = (k + 1) % 3, (k + 2) % 3
        vals[3 + k] = 4 * lam[a] * lam[b]
        grads[3 + k] = 4 * (lam[a] * dlam[b] + lam[b] * dlam[a])
    return vals, grads


def p2_dofs(ops):
    return np.hstack([ops.mesh.triangles, ops.mesh.n_vertices + ops.vspace.tri_edges])


def dense_convection_reference(ops, u):
    """Skew P1 and per-component P2 convection, one triangle and point at a time."""
    nv, ns = ops.mesh.n_vertices, ops.vspace.n_scalar
    areas, dlam = element_geometry(ops)
    dofs2 = p2_dofs(ops)
    N1 = np.zeros((nv, nv))
    N2 = np.zeros((ns, ns))
    for t, tri in enumerate(ops.mesh.triangles):
        d2 = dofs2[t]
        for w, lam in zip(QUAD_WEIGHTS, QUAD_BARY):
            vals, grads = p2_basis(lam, dlam[t])
            uq = np.array([vals @ u[:ns][d2], vals @ u[ns:][d2]])
            wa = w * areas[t]
            N1[np.ix_(tri, tri)] += wa * np.outer(lam, dlam[t] @ uq)
            N2[np.ix_(d2, d2)] += wa * np.outer(vals, grads @ uq)
    C2 = 0.5 * (N2 - N2.T)
    zero = np.zeros_like(C2)
    return 0.5 * (N1 - N1.T), np.block([[C2, zero], [zero, C2]])


def coo_matrix_from(local, rows_map, cols_map, shape):
    nc = cols_map.shape[1]
    rows = np.repeat(rows_map, nc, axis=1).ravel()
    cols = np.tile(cols_map, (1, rows_map.shape[1])).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()


def test_convection_skew_is_exact(coarse_ops):
    rng = np.random.default_rng(21)
    for _ in range(3):
        u = rng.standard_normal(coarse_ops.vspace.n_velocity)
        for C in assemble_convection(coarse_ops, u):
            S = (C + C.T).toarray()
            assert np.array_equal(S, np.zeros_like(S))
            assert np.max(np.abs(C.data)) > 0


def test_convection_matches_dense_reference(coarse_ops):
    rng = np.random.default_rng(22)
    u = rng.standard_normal(coarse_ops.vspace.n_velocity)
    ref1, ref2 = dense_convection_reference(coarse_ops, u)
    for C, ref in zip(assemble_convection(coarse_ops, u), (ref1, ref2)):
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(C.toarray() - ref)) <= 1e-14 * scale


def test_volume_operators_match_coo_reference(coarse_ops):
    ops = coarse_ops
    nv, ns = ops.mesh.n_vertices, ops.vspace.n_scalar
    areas, dlam = element_geometry(ops)
    tri1, tri2 = ops.mesh.triangles, p2_dofs(ops)
    nt = tri1.shape[0]
    m1 = np.zeros((nt, 3, 3))
    k1 = np.zeros((nt, 3, 3))
    m2 = np.zeros((nt, 6, 6))
    k2 = np.zeros((nt, 6, 6))
    div = np.zeros((nt, 3, 2, 6))
    mix = np.zeros((nt, 6, 3))
    for t in range(nt):
        for w, lam in zip(QUAD_WEIGHTS, QUAD_BARY):
            vals, grads = p2_basis(lam, dlam[t])
            wa = w * areas[t]
            m1[t] += wa * np.outer(lam, lam)
            k1[t] += wa * dlam[t] @ dlam[t].T
            m2[t] += wa * np.outer(vals, vals)
            k2[t] += wa * grads @ grads.T
            div[t] += wa * lam[:, None, None] * grads.T[None, :, :]
            mix[t] += wa * np.outer(vals, lam)
    pair = np.vstack([tri2, tri2 + ns])
    references = {
        "M_vol": coo_matrix_from(m1, tri1, tri1, (nv, nv)),
        "K_vol": coo_matrix_from(k1, tri1, tri1, (nv, nv)),
        "M_u": coo_matrix_from(np.concatenate([m2, m2]), pair, pair, (2 * ns, 2 * ns)),
        "K_u": coo_matrix_from(np.concatenate([k2, k2]), pair, pair, (2 * ns, 2 * ns)),
        "B": coo_matrix_from(div.reshape(nt, 3, 12), tri1, np.hstack([tri2, tri2 + ns]), (nv, 2 * ns)),
        "M_mix": coo_matrix_from(mix, tri2, tri1, (ns, nv)),
    }
    for name, ref in references.items():
        got = getattr(ops, name)
        assert got.shape == ref.shape, name
        ref = ref.toarray()
        err = np.max(np.abs(got.toarray() - ref)) / np.max(np.abs(ref))
        assert err <= 1e-15, (name, err)


def sensitivity(n_, c_):
    return n_ / (1 + c_)


def chemotaxis_add_at_reference(ops, n, c, g):
    """The chemotaxis load one triangle and point at a time, summed by ``np.add.at``."""
    areas, dlam = element_geometry(ops)
    tris = ops.mesh.triangles
    gn = g(n, c)
    local = np.zeros(tris.shape)
    for t, tri in enumerate(tris):
        grad_c = c[tri] @ dlam[t]
        g_int = areas[t] * sum(w * (lam @ gn[tri]) for w, lam in zip(QUAD_WEIGHTS, QUAD_BARY))
        local[t] = g_int * (dlam[t] @ grad_c)
    ref = np.zeros(ops.mesh.n_vertices)
    np.add.at(ref, tris.ravel(), local.ravel())
    return ref


def test_chemotaxis_rhs_matches_add_at_reference(coarse_ops):
    ops = coarse_ops
    rng = np.random.default_rng(23)
    n = rng.random(ops.mesh.n_vertices)
    c = rng.random(ops.mesh.n_vertices)
    ref = chemotaxis_add_at_reference(ops, n, c, sensitivity)
    G = assemble_chemotaxis_rhs(ops, n, c, sensitivity)
    assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))


def renumbered_disc_mesh(seed):
    """The coarse disc with shuffled vertex numbers, triangles and local vertex order."""
    mesh = build_disc_mesh(1.0, 0.35)
    rng = np.random.default_rng(seed)
    new = rng.permutation(mesh.n_vertices)  # new number of each vertex
    vertices = np.empty_like(mesh.vertices)
    vertices[new] = mesh.vertices
    # a cyclic rotation keeps each triangle counter-clockwise
    rotation = (np.arange(3) + rng.integers(0, 3, (mesh.triangles.shape[0], 1))) % 3
    triangles = np.take_along_axis(new[mesh.triangles], rotation, axis=1)
    return mesh_from_arrays(vertices, triangles[rng.permutation(len(triangles))], new[mesh.boundary_loop])


def test_per_iteration_forms_on_a_renumbered_mesh():
    ops = build_operators(renumbered_disc_mesh(24))
    # local upper pairs land in global lower slots, and in upper ones
    for dofs in (ops.mesh.triangles, p2_dofs(ops)):
        row, col = np.triu_indices(dofs.shape[1], 1)
        lower = dofs[:, row] > dofs[:, col]
        assert lower.any() and not lower.all()
    rng = np.random.default_rng(25)
    u = rng.standard_normal(ops.vspace.n_velocity)
    for C, ref in zip(assemble_convection(ops, u), dense_convection_reference(ops, u)):
        assert np.max(np.abs(C.toarray() - ref)) <= 1e-14 * np.max(np.abs(ref))
        S = (C + C.T).toarray()
        assert np.array_equal(S, np.zeros_like(S))
    n = rng.random(ops.mesh.n_vertices)
    c = rng.random(ops.mesh.n_vertices)
    ref = chemotaxis_add_at_reference(ops, n, c, sensitivity)
    G = assemble_chemotaxis_rhs(ops, n, c, sensitivity)
    assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))
