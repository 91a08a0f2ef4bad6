"""Sparse operator assembly on disc meshes.

Scalar fields (oxygen c, cell density n, pressure p) live in the P1 vertex
space; velocity lives in the P2 vector space of a Taylor-Hood pair.  All
volume integrals use a degree-5 rule, exact for every polynomial product
appearing here, including the trilinear convection term.  Boundary operators
are one-dimensional periodic P1 operators in arclength on the boundary loop.

Every operator is assembled the same way: element matrices are summed into
a CSR pattern fixed once per mesh (``_Pattern``), one ``np.bincount`` per
matrix.  The forms assembled on every iteration, convection and the
chemotaxis load, take no quadrature per call: each is a fixed reference tensor
contracted with per-mesh geometry (Kirby & Logg, ACM TOMS 32(3), 2006).
Convection is skewed on the strict-upper local pairs, each mirrored pair
getting the exact negation, so ``C' = -C`` bitwise and the discrete advection
energy ``x' C(u) x`` vanishes for every velocity, not just divergence-free ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import Mesh

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
# strict-upper local (row, column) pairs of the P1 and P2 element matrices
_UP1, _UP2 = np.triu_indices(3, 1), np.triu_indices(6, 1)


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


class _Pattern:
    """Fixed CSR pattern of one element-map pair.

    ``slot`` holds, for every local entry ``(t, r, c)`` in C order, its
    position in ``data``, so a scatter is a single ``np.bincount``.
    """

    def __init__(self, rows_map: np.ndarray, cols_map: np.ndarray, shape):
        n_cols = shape[1]
        keys = (rows_map[:, :, None] * n_cols + cols_map[:, None, :]).ravel()
        entries, self.slot = np.unique(keys, return_inverse=True)
        counts = np.bincount(entries // n_cols, minlength=shape[0])
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self.indices = (entries % n_cols).astype(np.int32)
        # shared by every matrix built on the pattern, so in-place edits raise
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)
        self.shape = shape

    def data(self, local: np.ndarray) -> np.ndarray:
        return np.bincount(self.slot, weights=local.ravel(), minlength=self.indices.size)

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)

    def scatter(self, local: np.ndarray) -> sp.csr_matrix:
        return self.matrix(self.data(local))


def _row_blocks(cols: np.ndarray, vals: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """CSR matrix with a row per entry of the leading axes, holding ``vals`` at ``cols`` along the last."""
    indptr = np.arange(0, cols.size + 1, cols.shape[-1], dtype=np.int32)
    return sp.csr_matrix((vals.ravel(), cols.ravel().astype(np.int32), indptr), shape=(len(indptr) - 1, n_cols))


class OperatorSet:
    """Everything fixed once per mesh that the solver assembles from.

    Operators: P1 mass ``M_vol`` and stiffness ``K_vol``; boundary-loop mass
    ``M_bnd_global`` and Laplace-Beltrami stiffness ``K_bnd_global`` in vertex
    indexing (``M[loop][:, loop]``, ``loop = mesh.boundary_loop``, is the
    loop-indexed form); divergence ``B`` (nv, 2 ns); P2 vector mass ``M_u``
    and stiffness ``K_u``; P2 x P1 mass ``M_mix``; ``pressure_weights``, the
    integral of each P1 basis function.  Patterns: ``p1``, ``p2``, ``p2_pair``
    (``[[P2, 0], [0, P2]]``) with the slots ``loop_slot`` and ``interior_slot``,
    and the interior divergence blocks ``interior_div``.  Maps of the
    per-iteration forms: ``v_map``, ``conv_ref``, ``areas``, ``grad_map``,
    ``lam_weights``.
    """

    def __init__(self, mesh: Mesh):
        areas = mesh.triangle_areas()
        self.mesh, self.areas = mesh, areas
        self.vspace = vspace = build_velocity_space(mesh)
        # gradients of barycentric coordinates: rows of inv(J)^T applied to
        # the reference gradients (-1,-1), (1,0), (0,1)
        p = mesh.vertices[mesh.triangles]
        d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        det = 2.0 * areas
        jinv_t = np.empty((len(det), 2, 2))
        jinv_t[:, 0, 0] = d2[:, 1] / det
        jinv_t[:, 0, 1] = -d1[:, 1] / det
        jinv_t[:, 1, 0] = -d2[:, 0] / det
        jinv_t[:, 1, 1] = d1[:, 0] / det
        ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        dlam = np.einsum("tdr,ir->tid", jinv_t, ref)  # (nt, 3, 2)
        # quadrature weights, P1 and P2 values and P2 gradient coefficients at the points
        w, lam_q, p2_q, p2_c = QUAD_WEIGHTS, QUAD_BARY, _p2_values(QUAD_BARY), _p2_grad_coeffs(QUAD_BARY)

        tri_p1 = mesh.triangles
        tri_p2 = np.hstack([tri_p1, vspace.n_vertices + vspace.tri_edges])
        nv, ns = vspace.n_vertices, vspace.n_scalar
        self.p1 = _Pattern(tri_p1, tri_p1, (nv, nv))
        self.p2 = _Pattern(tri_p2, tri_p2, (ns, ns))
        # [[P2, 0], [0, P2]]: its data is the P2 data once per component
        pair = np.vstack([tri_p2, tri_p2 + ns])
        self.p2_pair = _Pattern(pair, pair, (2 * ns, 2 * ns))
        # entry positions + 1 (none zero), then its interior block: data[interior_slot]
        rank = self.p2_pair.matrix(np.arange(1.0, self.p2_pair.indices.size + 1))
        self._interior = rank[vspace.interior_velocity][:, vspace.interior_velocity]
        self.interior_slot = self._interior.data.astype(np.intp) - 1
        area = areas[:, None, None]

        # P1 mass (1' M 1 is the mesh area exactly) and stiffness (annihilates constants)
        ref_p1_mass = (np.ones((3, 3)) + np.eye(3)) / 12.0
        self.M_vol = self.p1.scatter(area * ref_p1_mass[None, :, :])
        gg = np.einsum("tid,tjd->tij", dlam, dlam)
        self.K_vol = self.p1.scatter(area * gg)
        self.pressure_weights = np.asarray(self.M_vol.sum(axis=1)).ravel()
        self.M_bnd_global = assemble_boundary_mass(mesh)
        self.K_bnd_global = assemble_boundary_laplace_beltrami(mesh)
        # where the entries of both loop operators (one pattern) sit in the P1 pattern
        loop, rank = self.M_bnd_global.tocoo(), self.p1.matrix(np.arange(1.0, self.p1.indices.size + 1))
        self.loop_slot = np.asarray(rank[loop.row, loop.col]).ravel().astype(np.intp) - 1

        # P2 scalar mass and stiffness, shared by both velocity components
        self.M_u = self.scatter_pair(area * np.einsum("q,qa,qb->ab", w, p2_q, p2_q)[None, :, :])
        p2_grad = np.einsum("qai,tid->tqad", p2_c, dlam)  # (nt, nq, 6, 2)
        self.K_u = self.scatter_pair(area * np.einsum("q,tqad,tqbd->tab", w, p2_grad, p2_grad))
        mix_local = area * np.einsum("q,qa,qp->ap", w, p2_q, lam_q)
        self.M_mix = _Pattern(tri_p2, tri_p1, (ns, nv)).scatter(mix_local)

        # divergence B: P2 velocity -> P1 pressure test space, columns x component then y
        div_local = np.einsum("q,qp,tqad->tpda", w, lam_q, p2_grad)
        div = _Pattern(tri_p1, np.hstack([tri_p2, tri_p2 + ns]), (nv, 2 * ns))
        self.B = div.scatter(area * div_local.reshape(-1, 3, 12))
        # on the interior velocity dofs, with its rows but pressure dof 0's, and their transposes
        B_int = self.B[:, vspace.interior_velocity].tocsr()
        Bp = B_int[1:, :]
        self.interior_div = (B_int, B_int.T, Bp, Bp.T)

        # the per-iteration forms as reference tensors: convection is linear in
        # V[t, a, i] = |T| u_a . grad lambda_i, and v_map takes u to V
        v_cols = tri_p2[:, :, None, None] + ns * np.arange(2)  # (nt, 6, 1, 2)
        v_vals = areas[:, None, None, None] * dlam[:, None]  # (nt, 1, 3, 2)
        self.v_map = _row_blocks(*np.broadcast_arrays(v_cols, v_vals), 2 * ns)
        # N2[b, c] = R2[b, c, a, i] V[a, i] and N1[i, j] = R1[i, a] V[a, j], skewed on
        # the strict-upper local pairs: V @ conv_ref holds the P2 pairs, then the P1 pairs
        r2 = np.einsum("q,qb,qa,qci->bcai", w, p2_q, p2_q, p2_c)
        r1 = np.einsum("ia,jk->ijak", (w[:, None] * lam_q).T @ p2_q, np.eye(3))
        skew = [0.5 * (r[up] - r[up[::-1]]).reshape(len(up[0]), 18) for r, up in ((r2, _UP2), (r1, _UP1))]
        self.conv_ref = np.vstack(skew).T  # (18, 15 + 3)
        # the chemotaxis load: grad_map takes c to grad lambda_j . grad c per element
        self.grad_map = _row_blocks(*np.broadcast_arrays(tri_p1[:, None, :], gg), nv)
        self.lam_weights = lam_q.T @ w  # integral of each lambda_i over T, per |T|

    def scatter_pair(self, local: np.ndarray) -> sp.csr_matrix:
        """Block-diagonal ``[[S, 0], [0, S]]`` of one P2 scalar element matrix set."""
        data = self.p2.data(local)
        return self.p2_pair.matrix(np.concatenate([data, data]))

    def interior(self, data: np.ndarray) -> sp.csr_matrix:
        """``A[idx][:, idx]`` over the interior velocity dofs, from ``A``'s pair-pattern ``data``."""
        block = self._interior
        return sp.csr_matrix((data[self.interior_slot], block.indices, block.indptr), shape=block.shape)

    def scalar_norm_sq(self, x: np.ndarray) -> float:
        return float(x @ (self.M_vol @ x))

    def velocity_norm_sq(self, u: np.ndarray) -> float:
        return float(u @ (self.M_u @ u))

    def buoyancy_load(self, n: np.ndarray, grad_sigma: np.ndarray) -> np.ndarray:
        """Load vector of the body force n * grad_sigma against P2 test fields."""
        mn = self.M_mix @ n
        return np.concatenate([grad_sigma[0] * mn, grad_sigma[1] * mn])


def _periodic_loop_matrix(mesh: Mesh, edge_entries) -> sp.csr_matrix:
    """Scatter per-edge 2x2 blocks [[d, o], [o, d]] around the closed boundary loop.

    ``edge_entries`` maps the boundary edge lengths to the diagonal and
    off-diagonal entries ``(d, o)``; edge j joins loop vertices j and j+1.
    The result is in vertex indexing, zero off the loop.
    """
    nb = mesh.n_boundary
    d, o = edge_entries(mesh.boundary_edge_lengths())
    i = np.arange(nb)
    ends = mesh.boundary_loop[np.stack([i, (i + 1) % nb], axis=1)]
    local = np.stack([d, o, o, d], axis=1).reshape(nb, 2, 2)
    return _Pattern(ends, ends, (mesh.n_vertices,) * 2).scatter(local)


def assemble_boundary_mass(mesh: Mesh) -> sp.csr_matrix:
    """Consistent P1 mass on the closed boundary loop, vertex-indexed.

    ``1' M 1`` equals the polygonal boundary length exactly.
    """
    return _periodic_loop_matrix(mesh, lambda h: (h / 3, h / 6))


def assemble_boundary_laplace_beltrami(mesh: Mesh) -> sp.csr_matrix:
    """Periodic 1D stiffness in arclength on the boundary loop, vertex-indexed."""
    return _periodic_loop_matrix(mesh, lambda h: (1.0 / h, -1.0 / h))


def _skew_local(x: np.ndarray, up, size: int) -> np.ndarray:
    """Element matrices with ``x`` on the strict-upper local pairs ``up``, ``-x`` mirrored, zero diagonal."""
    local = np.zeros((len(x), size, size))
    local[:, up[0], up[1]] = x
    local[:, up[1], up[0]] = -x
    return local


def assemble_convection(ops: OperatorSet, u: np.ndarray) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Skew-symmetric convection operators ``(C, C_u)`` of a P2 velocity field.

    ``C`` is the P1 operator ``(N - N') / 2`` with ``N_ij = integral
    (u . grad phi_j) phi_i``, and ``C_u`` the P2 block of the same form,
    applied per velocity component.  One sparse product gives ``V`` of every
    element and one matrix product the skew entries of its strict-upper local
    pairs; each mirrored pair gets their negation, so ``C' = -C`` bitwise and
    ``x' C x = 0`` for every x and every u.
    """
    x = (ops.v_map @ u).reshape(-1, 18) @ ops.conv_ref  # 15 P2 pairs, then 3 P1 pairs
    return ops.p1.scatter(_skew_local(x[:, 15:], _UP1, 3)), ops.scatter_pair(_skew_local(x[:, :15], _UP2, 6))


def assemble_chemotaxis_rhs(ops: OperatorSet, n: np.ndarray, c: np.ndarray, g) -> np.ndarray:
    """Load vector G_i = integral g(n, c) grad c . grad phi_i.

    The sensitivity is evaluated nodewise and interpolated (P1 product rule),
    so ``g == 1`` reproduces the stiffness action on c exactly.
    """
    tris = ops.mesh.triangles
    gn = np.asarray(g(n, c), dtype=float)
    if gn.shape != n.shape:
        gn = np.broadcast_to(gn, n.shape).astype(float)
    coeff = ops.areas * (gn[tris] @ ops.lam_weights)  # integral of g over each triangle
    local = coeff[:, None] * (ops.grad_map @ c).reshape(-1, 3)
    return np.bincount(tris.ravel(), weights=local.ravel(), minlength=ops.mesh.n_vertices)


def build_operators(mesh: Mesh) -> OperatorSet:
    """Assemble every mesh-bound operator once."""
    return OperatorSet(mesh)
