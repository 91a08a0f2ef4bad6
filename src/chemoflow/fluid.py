"""Implicit fluid step: mixed saddle-point solves for (velocity, pressure).

One time step of the momentum equation is linearised by freezing the
convecting velocity, which leaves the sparse block system

    [ A(u_hat)   -s B' ] [u]   [r]
    [ B           0    ] [p] = [0]

over interior velocity dofs, where A = M + k xi K + k C(u_hat) has a positive
definite symmetric part, B is the discrete divergence, and s scales the
pressure gradient (the step size k for a time step, 1 for a plain
projection).  The velocity vanishes on the boundary, so the divergence rows
are linearly dependent and the pressure is fixed only up to a constant: the
solve pins pressure dof 0 (drops its row and column) and afterwards shifts
the pressure to zero mean against the P1 basis integrals.  Desk-scale
systems are solved by sparse LU.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import OperatorSet, assemble_convection_velocity


class LinearSolveError(Exception):
    """A sparse factorisation failed or a solve left too large a residual."""


def build_saddle_system(
    ops: OperatorSet,
    u_hat: np.ndarray,
    n: np.ndarray,
    u_prev: np.ndarray,
    k: float,
    params,
):
    """Velocity operator and load of the implicit step.

    Returns ``(A, rhs)`` with ``A = M + k xi K + k C(u_hat)`` and
    ``rhs = k (n grad_sigma, .) + M u_prev``, both on the full dof set; the
    pressure gradient enters the solve with scale k.
    """
    C = assemble_convection_velocity(ops, u_hat)
    A = (ops.M_u + k * params.xi * ops.K_u + k * C).tocsr()
    force = ops.buoyancy_load(n, np.asarray(params.grad_sigma, dtype=float))
    return A, k * force + ops.M_u @ u_prev


def _pinned_matrix(A, B, scale):
    # the divergence rows are linearly dependent for boundary-free velocities,
    # so pinning pressure dof 0 (dropping its row and column) loses nothing
    # and avoids the LU fill a dense mean-zero multiplier row would cause
    Bp = B[1:, :]
    return sp.bmat([[A, -scale * Bp.T], [Bp, None]], format="csc"), Bp


def _expand_checked(ops, A, B, b, scale, sol, tol):
    """Full-length velocity and mean-zero pressure from a pinned solution.

    ``A``, ``B`` and ``b`` are the interior-restricted blocks and load;
    residuals of both blocks are checked against ``tol`` before returning.
    """
    idx = ops.vspace.interior_velocity
    u_int = sol[: idx.size]
    u = np.zeros(ops.vspace.n_velocity)
    u[idx] = u_int
    p = np.concatenate([[0.0], sol[idx.size :]])
    w = ops.pressure_weights
    p -= (w @ p) / w.sum()
    r_mom = A @ u_int - scale * (B.T @ p) - b
    mom_scale = max(np.linalg.norm(b), 1e-300)
    # near-zero velocities (hydrostatic balance) make a pure ||B u|| / ||u||
    # ratio meaningless, so fall back to the load scale
    div_scale = max(np.linalg.norm(u_int), mom_scale)
    res_mom = np.linalg.norm(r_mom) / mom_scale
    res_div = np.linalg.norm(B @ u_int) / div_scale
    if res_mom > tol or res_div > tol:
        raise LinearSolveError(
            f"saddle solve residual too large: momentum {res_mom:.3e}, divergence {res_div:.3e}"
        )
    return u, p


def solve_saddle(ops: OperatorSet, A, rhs: np.ndarray, pressure_scale: float, tol: float = 1e-10):
    """Solve the mixed system for velocity operator ``A`` and load ``rhs``.

    Both live on the full velocity dof set; the Dirichlet dofs are
    eliminated here.  Returns (u, p): the velocity with exact zeros on the
    boundary and the mean-zero pressure.
    """
    idx = ops.vspace.interior_velocity
    A = A[idx][:, idx].tocsr()
    B = ops.B[:, idx].tocsr()
    sys_mat, Bp = _pinned_matrix(A, B, pressure_scale)
    b = rhs[idx]
    try:
        lu = splu(sys_mat)
    except RuntimeError as exc:
        raise LinearSolveError(f"saddle factorisation failed: {exc}") from exc
    sol = lu.solve(np.concatenate([b, np.zeros(Bp.shape[0])]))
    if not np.all(np.isfinite(sol)):
        raise LinearSolveError("saddle solve produced non-finite values")
    return _expand_checked(ops, A, B, b, pressure_scale, sol, tol)


class SaddleCache:
    """Factorisation of the convection-free saddle, reused across a run.

    Within one step size the matrix changes only through the skew convection
    block, a tiny perturbation at desk-scale velocities, so systems including
    convection are solved by defect correction preconditioned with this
    factorisation.  As soon as the observed contraction cannot bring the
    defect to the target within ``max_defect_iterations`` (very large k or
    velocity, low viscosity), the solve falls back to a direct factorisation
    of the true matrix.  Residuals are always verified against the true
    system.
    """

    def __init__(self, ops, params, k: float):
        self.ops = ops
        self.k = k
        self.idx = ops.vspace.interior_velocity
        self.B = ops.B[:, self.idx].tocsr()
        A0 = (ops.M_u + k * params.xi * ops.K_u)[self.idx][:, self.idx].tocsr()
        mat, self.Bp = _pinned_matrix(A0, self.B, k)
        self.lu = splu(mat)
        self.max_defect_iterations = 30

    def solve(self, A, rhs: np.ndarray, tol: float = 1e-10):
        """Solve the step system ``(A, rhs)`` of this cache's step size."""
        idx, Bp = self.idx, self.Bp
        A_int = A[idx][:, idx].tocsr()
        b = rhs[idx]
        full = np.concatenate([b, np.zeros(Bp.shape[0])])
        scale = max(np.linalg.norm(full), 1e-300)
        n_u = idx.size
        target = 0.01 * tol * scale
        x = np.zeros_like(full)
        previous = np.inf
        for it in range(self.max_defect_iterations):
            r = full.copy()
            r[:n_u] -= A_int @ x[:n_u] - self.k * (Bp.T @ x[n_u:])
            r[n_u:] -= Bp @ x[:n_u]
            defect = np.linalg.norm(r)
            if defect <= target:
                return _expand_checked(self.ops, A_int, self.B, b, self.k, x, tol)
            # give up once the last contraction, kept up to the cap, cannot
            # reach the target; a defect that did not fall never can
            rate = min(defect / previous, 1.0)
            if defect * rate ** (self.max_defect_iterations - 1 - it) > target:
                break
            previous = defect
            x += self.lu.solve(r)
        return solve_saddle(self.ops, A, rhs, self.k, tol)


def steady_stokes_velocity(ops: OperatorSet, params, n: np.ndarray) -> np.ndarray:
    """Creeping-flow equilibrium velocity for the buoyancy of a density field.

    Solves xi K u + grad p = n grad_sigma with the divergence constraint;
    useful as an initial velocity in quasi-static balance with the data.
    """
    load = ops.buoyancy_load(np.asarray(n, dtype=float), np.asarray(params.grad_sigma, dtype=float))
    u, _ = solve_saddle(ops, (params.xi * ops.K_u).tocsr(), load, 1.0)
    return u


def project_divergence_free(u: np.ndarray, ops: OperatorSet) -> np.ndarray:
    """Mass-orthogonal projection onto {v: B v = 0, v = 0 on the boundary}."""
    rhs = ops.M_u @ ops.vspace.zero_boundary(np.asarray(u, dtype=float))
    v, _ = solve_saddle(ops, ops.M_u.tocsr(), rhs, 1.0)
    return v
