"""Sparse operator assembly on disc meshes.

Scalar fields (oxygen c, cell density n, pressure p) live in the P1 vertex
space; velocity lives in the P2 vector space of a Taylor-Hood pair.  All
volume integrals use a degree-5 rule, exact for every polynomial product
appearing here, including the trilinear convection term.  Boundary operators
are one-dimensional periodic P1 operators in arclength on the boundary loop.

Convection matrices are returned in skew-symmetric form, half the difference
of the raw operator and its transpose, so the discrete advection energy
``x' C(u) x`` vanishes identically for every velocity, not just pointwise
divergence-free ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import Mesh, MeshError, TraceMap

# Degree-5 rule on the reference triangle (7 points, weights sum to 1).
_SQRT15 = np.sqrt(15.0)
_A1 = (6.0 + _SQRT15) / 21.0
_A2 = (6.0 - _SQRT15) / 21.0
_W0 = 9.0 / 40.0
_W1 = (155.0 + _SQRT15) / 1200.0
_W2 = (155.0 - _SQRT15) / 1200.0
QUAD_WEIGHTS = np.array([_W0, _W1, _W1, _W1, _W2, _W2, _W2])
QUAD_BARY = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_A1, _A1, 1 - 2 * _A1],
        [_A1, 1 - 2 * _A1, _A1],
        [1 - 2 * _A1, _A1, _A1],
        [_A2, _A2, 1 - 2 * _A2],
        [_A2, 1 - 2 * _A2, _A2],
        [1 - 2 * _A2, _A2, _A2],
    ]
)


def _p2_values(bary: np.ndarray) -> np.ndarray:
    """P2 basis values at barycentric points; dofs = 3 vertices, 3 midpoints.

    Midpoint k sits on the edge opposite vertex k.
    """
    lam = bary
    vals = np.empty(bary.shape[:-1] + (6,))
    for i in range(3):
        vals[..., i] = lam[..., i] * (2 * lam[..., i] - 1)
    for k in range(3):
        vals[..., 3 + k] = 4 * lam[..., (k + 1) % 3] * lam[..., (k + 2) % 3]
    return vals


def _p2_grad_coeffs(bary: np.ndarray) -> np.ndarray:
    """Coefficients c[q, a, i] with grad N_a(q) = sum_i c[q,a,i] grad lambda_i."""
    nq = bary.shape[0]
    c = np.zeros((nq, 6, 3))
    for i in range(3):
        c[:, i, i] = 4 * bary[:, i] - 1
    for k in range(3):
        c[:, 3 + k, (k + 2) % 3] = 4 * bary[:, (k + 1) % 3]
        c[:, 3 + k, (k + 1) % 3] = 4 * bary[:, (k + 2) % 3]
    return c


@dataclass(frozen=True)
class VelocitySpace:
    """P2 scalar dof layout: vertex dofs first, then edge-midpoint dofs.

    A velocity vector stacks the two components: ``u = [u_x; u_y]`` with each
    component of length ``n_scalar``.
    """

    edges: np.ndarray  # (ne, 2) sorted vertex pairs
    tri_edges: np.ndarray  # (nt, 3) edge id opposite each local vertex
    nodes: np.ndarray  # (n_scalar, 2) vertex coords then midpoints
    n_vertices: int
    boundary_scalar: np.ndarray  # scalar dofs on the boundary
    interior_scalar: np.ndarray

    @property
    def n_scalar(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_velocity(self) -> int:
        return 2 * self.n_scalar

    @property
    def interior_velocity(self) -> np.ndarray:
        return np.concatenate([self.interior_scalar, self.interior_scalar + self.n_scalar])

    def interpolate(self, fn) -> np.ndarray:
        """Nodal interpolation of a callable (x, y) -> (ux, uy)."""
        vals = np.asarray(fn(self.nodes[:, 0], self.nodes[:, 1]), dtype=float)
        return np.concatenate([vals[0], vals[1]])

    def zero_boundary(self, u: np.ndarray) -> np.ndarray:
        out = u.copy()
        out[self.boundary_scalar] = 0.0
        out[self.boundary_scalar + self.n_scalar] = 0.0
        return out


def build_velocity_space(mesh: Mesh) -> VelocitySpace:
    tris = mesh.triangles
    raw = np.concatenate([tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]])
    raw_sorted = np.sort(raw, axis=1)
    edges, inverse, counts = np.unique(
        raw_sorted, axis=0, return_inverse=True, return_counts=True
    )
    tri_edges = inverse.reshape(3, -1).T  # column k = edge opposite vertex k
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    nodes = np.vstack([mesh.vertices, midpoints])
    nv = mesh.n_vertices
    boundary_edges = np.flatnonzero(counts == 1)
    boundary_scalar = np.concatenate([mesh.boundary_loop, nv + boundary_edges])
    boundary_scalar.sort()
    interior_scalar = np.setdiff1d(np.arange(nodes.shape[0]), boundary_scalar)
    return VelocitySpace(
        edges=edges,
        tri_edges=tri_edges,
        nodes=nodes,
        n_vertices=nv,
        boundary_scalar=boundary_scalar,
        interior_scalar=interior_scalar,
    )


class _Workspace:
    """Per-mesh precomputation shared by the element assemblies."""

    def __init__(self, mesh: Mesh, vspace: VelocitySpace):
        p = mesh.vertices[mesh.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(self.areas <= 0):
            raise MeshError("mesh has non-positive triangle areas")
        # gradients of barycentric coordinates: rows of inv(J)^T applied to
        # the reference gradients (-1,-1), (1,0), (0,1)
        det = 2.0 * self.areas
        jinv_t = np.empty((len(det), 2, 2))
        jinv_t[:, 0, 0] = d2[:, 1] / det
        jinv_t[:, 0, 1] = -d1[:, 1] / det
        jinv_t[:, 1, 0] = -d2[:, 0] / det
        jinv_t[:, 1, 1] = d1[:, 0] / det
        ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        self.dlam = np.einsum("tdr,ir->tid", jinv_t, ref)  # (nt, 3, 2)

        self.w = QUAD_WEIGHTS
        self.lam_q = QUAD_BARY  # (nq, 3): P1 values at quad points
        self.p2_q = _p2_values(QUAD_BARY)  # (nq, 6)
        coeff = _p2_grad_coeffs(QUAD_BARY)  # (nq, 6, 3)
        self.p2_grad = np.einsum("qai,tid->tqad", coeff, self.dlam)  # (nt, nq, 6, 2)

        self.tri_p1 = mesh.triangles
        self.tri_p2 = np.hstack([mesh.triangles, vspace.n_vertices + vspace.tri_edges])

    def scatter(self, local: np.ndarray, rows_map: np.ndarray, cols_map: np.ndarray, shape):
        nt, nr, nc = local.shape
        rows = np.repeat(rows_map, nc, axis=1).ravel()
        cols = np.tile(cols_map, (1, nr)).ravel()
        mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape)
        return mat.tocsr()


@dataclass(frozen=True)
class OperatorSet:
    """All mesh-bound sparse operators plus the assembly workspace.

    Boundary operators come in boundary-loop indexing (``M_bnd``, ``K_bnd``)
    and prolonged to global vertex indexing (``M_bnd_global``,
    ``K_bnd_global``) via the trace map.
    """

    mesh: Mesh
    trace: TraceMap
    vspace: VelocitySpace
    M_vol: sp.csr_matrix  # P1 mass, (nv, nv)
    K_vol: sp.csr_matrix  # P1 stiffness, (nv, nv)
    M_bnd: sp.csr_matrix  # boundary P1 mass, (nb, nb)
    K_bnd: sp.csr_matrix  # boundary Laplace-Beltrami stiffness, (nb, nb)
    M_bnd_global: sp.csr_matrix
    K_bnd_global: sp.csr_matrix
    B: sp.csr_matrix  # divergence: velocity dofs -> pressure dofs, (nv, 2 ns)
    M_u: sp.csr_matrix  # P2 vector mass, (2 ns, 2 ns)
    K_u: sp.csr_matrix  # P2 vector stiffness, (2 ns, 2 ns)
    M_mix: sp.csr_matrix  # P2 scalar x P1 mass, (ns, nv)
    pressure_weights: np.ndarray  # integral of each P1 basis function
    _work: _Workspace

    def scalar_norm_sq(self, x: np.ndarray) -> float:
        return float(x @ (self.M_vol @ x))

    def velocity_norm_sq(self, u: np.ndarray) -> float:
        return float(u @ (self.M_u @ u))

    def buoyancy_load(self, n: np.ndarray, grad_sigma: np.ndarray) -> np.ndarray:
        """Load vector of the body force n * grad_sigma against P2 test fields."""
        mn = self.M_mix @ n
        return np.concatenate([grad_sigma[0] * mn, grad_sigma[1] * mn])


def _periodic_loop_matrix(mesh: Mesh, trace: TraceMap, edge_entries) -> sp.csr_matrix:
    """Scatter per-edge 2x2 blocks [[d, o], [o, d]] around the closed boundary loop.

    ``edge_entries`` maps the boundary edge lengths to the diagonal and
    off-diagonal entries ``(d, o)``; edge j joins loop vertices j and j+1.
    """
    nb = trace.n_boundary
    if nb < 3:
        raise MeshError("boundary loop needs at least 3 vertices")
    d, o = edge_entries(mesh.boundary_edge_lengths())
    i = np.arange(nb)
    j = (i + 1) % nb
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    vals = np.concatenate([d, d, o, o])
    return sp.coo_matrix((vals, (rows, cols)), shape=(nb, nb)).tocsr()


def assemble_boundary_mass(mesh: Mesh, trace: TraceMap) -> sp.csr_matrix:
    """Consistent P1 mass on the closed boundary loop, boundary-indexed.

    ``1' M 1`` equals the polygonal boundary length exactly.
    """
    return _periodic_loop_matrix(mesh, trace, lambda h: (h / 3, h / 6))


def assemble_boundary_laplace_beltrami(mesh: Mesh, trace: TraceMap) -> sp.csr_matrix:
    """Periodic 1D stiffness in arclength on the boundary loop."""
    return _periodic_loop_matrix(mesh, trace, lambda h: (1.0 / h, -1.0 / h))


def _velocity_at_quad(work: _Workspace, ns: int, u: np.ndarray) -> np.ndarray:
    """Velocity values at quadrature points, shape (nt, nq, 2)."""
    ux = u[:ns][work.tri_p2]  # (nt, 6)
    uy = u[ns:][work.tri_p2]
    uq = np.empty(work.p2_grad.shape[:2] + (2,))
    uq[:, :, 0] = np.einsum("ta,qa->tq", ux, work.p2_q)
    uq[:, :, 1] = np.einsum("ta,qa->tq", uy, work.p2_q)
    return uq


def assemble_convection(ops: OperatorSet, u: np.ndarray) -> sp.csr_matrix:
    """Skew-symmetric P1 convection operator for a P2 velocity field.

    ``C = (N - N') / 2`` with ``N_ij = integral (u . grad phi_j) phi_i``, so
    ``x' C x = 0`` exactly for every x and every u.
    """
    work = ops._work
    uq = _velocity_at_quad(work, ops.vspace.n_scalar, u)
    local = np.einsum(
        "q,qi,tqd,tjd->tij", work.w, work.lam_q, uq, work.dlam
    ) * work.areas[:, None, None]
    nv = ops.mesh.n_vertices
    raw = work.scatter(local, work.tri_p1, work.tri_p1, (nv, nv))
    return ((raw - raw.T) * 0.5).tocsr()


def assemble_convection_velocity(ops: OperatorSet, u: np.ndarray) -> sp.csr_matrix:
    """Skew-symmetric P2 convection block, applied per velocity component."""
    work = ops._work
    uq = _velocity_at_quad(work, ops.vspace.n_scalar, u)
    local = np.einsum(
        "q,qa,tqd,tqbd->tab", work.w, work.p2_q, uq, work.p2_grad
    ) * work.areas[:, None, None]
    ns = ops.vspace.n_scalar
    raw = work.scatter(local, work.tri_p2, work.tri_p2, (ns, ns))
    skew = ((raw - raw.T) * 0.5).tocsr()
    return sp.block_diag([skew, skew]).tocsr()


def assemble_chemotaxis_rhs(ops: OperatorSet, n: np.ndarray, c: np.ndarray, g) -> np.ndarray:
    """Load vector G_i = integral g(n, c) grad c . grad phi_i.

    The sensitivity is evaluated nodewise and interpolated (P1 product rule),
    so ``g == 1`` reproduces the stiffness action on c exactly.
    """
    work = ops._work
    gn = np.asarray(g(n, c), dtype=float)
    if gn.shape != n.shape:
        gn = np.broadcast_to(gn, n.shape).astype(float)
    g_q = np.einsum("ti,qi->tq", gn[work.tri_p1], work.lam_q)  # (nt, nq)
    grad_c = np.einsum("ti,tid->td", c[work.tri_p1], work.dlam)  # constant per tri
    coeff = (g_q @ work.w) * work.areas  # integral of g over each triangle
    local = coeff[:, None] * np.einsum("td,tjd->tj", grad_c, work.dlam)
    out = np.zeros(ops.mesh.n_vertices)
    np.add.at(out, work.tri_p1.ravel(), local.ravel())
    return out


def assemble_divergence(mesh: Mesh, vspace: VelocitySpace, work: _Workspace) -> sp.csr_matrix:
    """Divergence operator B: P2 velocity -> P1 pressure test space."""
    nv = mesh.n_vertices
    ns = vspace.n_scalar
    blocks = []
    for d in range(2):
        local = np.einsum(
            "q,qp,tqad->tpa", work.w, work.lam_q, work.p2_grad[..., d : d + 1]
        ) * work.areas[:, None, None]
        blocks.append(work.scatter(local, work.tri_p1, work.tri_p2, (nv, ns)))
    return sp.hstack(blocks).tocsr()


def build_operators(mesh: Mesh, trace: TraceMap) -> OperatorSet:
    """Assemble every mesh-bound operator once; the result is immutable."""
    vspace = build_velocity_space(mesh)
    work = _Workspace(mesh, vspace)

    # P1 mass (1' M 1 is the mesh area exactly) and stiffness (annihilates constants)
    nv = mesh.n_vertices
    ref_p1_mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
    m1_local = work.areas[:, None, None] * ref_p1_mass[None, :, :]
    M_vol = work.scatter(m1_local, work.tri_p1, work.tri_p1, (nv, nv))
    k1_local = work.areas[:, None, None] * np.einsum("tid,tjd->tij", work.dlam, work.dlam)
    K_vol = work.scatter(k1_local, work.tri_p1, work.tri_p1, (nv, nv))
    M_bnd = assemble_boundary_mass(mesh, trace)
    K_bnd = assemble_boundary_laplace_beltrami(mesh, trace)

    nb = trace.n_boundary
    P = sp.coo_matrix(
        (np.ones(nb), (trace.boundary_vertices, np.arange(nb))),
        shape=(nv, nb),
    ).tocsr()
    M_bnd_global = (P @ M_bnd @ P.T).tocsr()
    K_bnd_global = (P @ K_bnd @ P.T).tocsr()

    # P2 scalar mass and stiffness, shared by both velocity components
    ref_mass = np.einsum("q,qa,qb->ab", work.w, work.p2_q, work.p2_q)
    ns = vspace.n_scalar
    m_local = work.areas[:, None, None] * ref_mass[None, :, :]
    M2 = work.scatter(m_local, work.tri_p2, work.tri_p2, (ns, ns))
    k_local = np.einsum(
        "q,tqad,tqbd->tab", work.w, work.p2_grad, work.p2_grad
    ) * work.areas[:, None, None]
    K2 = work.scatter(k_local, work.tri_p2, work.tri_p2, (ns, ns))

    mix_local = work.areas[:, None, None] * np.einsum(
        "q,qa,qp->ap", work.w, work.p2_q, work.lam_q
    )
    M_mix = work.scatter(mix_local, work.tri_p2, work.tri_p1, (ns, nv))

    B = assemble_divergence(mesh, vspace, work)

    return OperatorSet(
        mesh=mesh,
        trace=trace,
        vspace=vspace,
        M_vol=M_vol,
        K_vol=K_vol,
        M_bnd=M_bnd,
        K_bnd=K_bnd,
        M_bnd_global=M_bnd_global,
        K_bnd_global=K_bnd_global,
        B=B,
        M_u=sp.block_diag([M2, M2]).tocsr(),
        K_u=sp.block_diag([K2, K2]).tocsr(),
        M_mix=M_mix,
        pressure_weights=np.asarray(M_vol.sum(axis=1)).ravel(),
        _work=work,
    )
