"""Implicit fluid step: mixed saddle-point solves for (velocity, pressure).

One time step of the momentum equation is linearised by freezing the
convecting velocity, which leaves the sparse block system

    [ A(u_hat)   -s B'   0 ] [u]   [r]
    [ B           0      w ] [p] = [0]
    [ 0           w'     0 ] [l]   [0]

over interior velocity dofs, where A = M + k xi K + k C(u_hat) has a positive
definite symmetric part, B is the discrete divergence, s scales the pressure
gradient (the step size k for a time step, 1 for a plain projection), and the
multiplier row pins the pressure mean to zero (w holds the P1 basis
integrals).  Since the velocity vanishes on the boundary the multiplier is
zero at the solution, so the constraint is untouched.  Desk-scale systems are
solved by sparse LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import OperatorSet, assemble_convection_velocity


class SaddleSolveError(Exception):
    """Sparse factorisation failed or the solve left a large residual."""

    def __init__(self, message, residual_history=()):
        super().__init__(message)
        self.residual_history = list(residual_history)


@dataclass(frozen=True)
class SaddleSystem:
    """Assembled mixed system for one linearised fluid solve."""

    A: sp.csr_matrix  # velocity block on the full dof set
    B: sp.csr_matrix  # divergence constraint, pressure x velocity
    rhs: np.ndarray  # full-length velocity load
    pressure_scale: float  # s multiplying the pressure-gradient block
    interior: np.ndarray  # interior velocity dofs (Dirichlet eliminated)
    pressure_weights: np.ndarray


def build_saddle_system(
    ops: OperatorSet,
    u_hat: np.ndarray,
    n: np.ndarray,
    u_prev: np.ndarray,
    k: float,
    params,
) -> SaddleSystem:
    """System for the implicit step: (M + k xi K + k C(u_hat)) u + k grad p."""
    C = assemble_convection_velocity(ops, u_hat)
    A = (ops.M_u + k * params.xi * ops.K_u + k * C).tocsr()
    force = ops.buoyancy_load(n, np.asarray(params.grad_sigma, dtype=float))
    rhs = k * force + ops.M_u @ u_prev
    return SaddleSystem(
        A=A,
        B=ops.B,
        rhs=rhs,
        pressure_scale=k,
        interior=ops.vspace.interior_velocity,
        pressure_weights=ops.pressure_weights,
    )


def _restricted_blocks(system: SaddleSystem):
    idx = system.interior
    A = system.A[idx][:, idx].tocsr()
    B = system.B[:, idx].tocsr()
    return idx, A, B


def _expand_solution(system: SaddleSystem, idx, sol_u, sol_p_pinned):
    """Undo the pressure pinning and shift the pressure to zero mean."""
    u = np.zeros(system.A.shape[0])
    u[idx] = sol_u
    p = np.concatenate([[0.0], sol_p_pinned])
    w = system.pressure_weights
    p -= (w @ p) / w.sum()
    return u, p


def _check_residuals(system, idx, A, B, u_int, p, tol):
    r_mom = A @ u_int - system.pressure_scale * (B.T @ p) - system.rhs[idx]
    mom_scale = max(np.linalg.norm(system.rhs[idx]), 1e-300)
    # near-zero velocities (hydrostatic balance) make a pure ||B u|| / ||u||
    # ratio meaningless, so fall back to the load scale
    div_scale = max(np.linalg.norm(u_int), mom_scale)
    res_mom = np.linalg.norm(r_mom) / mom_scale
    res_div = np.linalg.norm(B @ u_int) / div_scale
    if res_mom > tol or res_div > tol:
        raise SaddleSolveError(
            f"saddle solve residual too large: momentum {res_mom:.3e}, divergence {res_div:.3e}",
            residual_history=[res_mom, res_div],
        )


def _pinned_matrix(A, B, scale):
    # the divergence rows are linearly dependent for boundary-free velocities,
    # so pinning pressure dof 0 (dropping its row and column) loses nothing
    # and avoids the LU fill a dense mean-zero multiplier row would cause
    Bp = B[1:, :]
    return sp.bmat([[A, -scale * Bp.T], [Bp, None]], format="csc"), Bp


def solve_saddle(system: SaddleSystem, tol: float = 1e-10):
    """Solve the mixed system; returns (u, p) with mean-zero pressure.

    The velocity comes back on the full dof set with exact zeros on the
    boundary.  Residuals of both blocks are checked against ``tol`` before
    returning.
    """
    idx, A, B = _restricted_blocks(system)
    sys_mat, Bp = _pinned_matrix(A, B, system.pressure_scale)
    rhs = np.concatenate([system.rhs[idx], np.zeros(Bp.shape[0])])
    try:
        lu = splu(sys_mat)
    except RuntimeError as exc:
        raise SaddleSolveError(f"saddle factorisation failed: {exc}") from exc
    sol = lu.solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise SaddleSolveError("saddle solve produced non-finite values")
    u_int = sol[: idx.size]
    u, p = _expand_solution(system, idx, u_int, sol[idx.size :])
    _check_residuals(system, idx, A, B, u_int, p, tol)
    return u, p


class SaddleCache:
    """Factorisation of the convection-free saddle, reused across a run.

    Within one step size the matrix changes only through the skew convection
    block, a tiny perturbation at desk-scale velocities, so systems including
    convection are solved by defect correction preconditioned with this
    factorisation; if the correction stalls (very large k or velocity) the
    solve falls back to a direct factorisation of the true matrix.  Residuals
    are always verified against the true system.
    """

    def __init__(self, ops, params, k: float):
        self.k = k
        idx = ops.vspace.interior_velocity
        A0 = (ops.M_u + k * params.xi * ops.K_u)[idx][:, idx].tocsr()
        B = ops.B[:, idx].tocsr()
        mat, _ = _pinned_matrix(A0, B, k)
        self.lu = splu(mat)
        self.max_defect_iterations = 30

    def solve(self, system: SaddleSystem, tol: float = 1e-10):
        if system.pressure_scale != self.k:
            raise ValueError("saddle cache built for a different step size")
        idx, A, B = _restricted_blocks(system)
        Bp = B[1:, :]
        rhs = np.concatenate([system.rhs[idx], np.zeros(Bp.shape[0])])
        scale = max(np.linalg.norm(rhs), 1e-300)
        n_u = idx.size
        x = np.zeros_like(rhs)
        converged = False
        for _ in range(self.max_defect_iterations):
            r = rhs.copy()
            r[:n_u] -= A @ x[:n_u] - self.k * (Bp.T @ x[n_u:])
            r[n_u:] -= Bp @ x[:n_u]
            if np.linalg.norm(r) <= 0.01 * tol * scale:
                converged = True
                break
            x += self.lu.solve(r)
        if not converged:
            return solve_saddle(system, tol)
        u_int = x[:n_u]
        u, p = _expand_solution(system, idx, u_int, x[n_u:])
        _check_residuals(system, idx, A, B, u_int, p, tol)
        return u, p


def steady_stokes_velocity(ops: OperatorSet, params, n: np.ndarray) -> np.ndarray:
    """Creeping-flow equilibrium velocity for the buoyancy of a density field.

    Solves xi K u + grad p = n grad_sigma with the divergence constraint;
    useful as an initial velocity in quasi-static balance with the data.
    """
    system = SaddleSystem(
        A=(params.xi * ops.K_u).tocsr(),
        B=ops.B,
        rhs=ops.buoyancy_load(np.asarray(n, dtype=float), np.asarray(params.grad_sigma, dtype=float)),
        pressure_scale=1.0,
        interior=ops.vspace.interior_velocity,
        pressure_weights=ops.pressure_weights,
    )
    u, _ = solve_saddle(system)
    return u


def project_divergence_free(u: np.ndarray, ops: OperatorSet) -> np.ndarray:
    """Mass-orthogonal projection onto {v: B v = 0, v = 0 on the boundary}."""
    system = SaddleSystem(
        A=ops.M_u.tocsr(),
        B=ops.B,
        rhs=ops.M_u @ ops.vspace.zero_boundary(np.asarray(u, dtype=float)),
        pressure_scale=1.0,
        interior=ops.vspace.interior_velocity,
        pressure_weights=ops.pressure_weights,
    )
    v, _ = solve_saddle(system)
    return v
