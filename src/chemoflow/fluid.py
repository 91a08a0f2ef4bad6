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
block is held as a ``PinnedSaddle``, with pressure dof 0 pinned (its row and
column dropped), and the solve afterwards shifts the pressure to zero mean
against the P1 basis integrals.

Desk-scale systems are solved by sparse LU through ``KeptFactor``, the one
linear layer of the oxygen, cell and fluid blocks: it holds a factor, solves
each new system by defect correction around it, started from the iterate
the solve replaces, and factorises (and keeps) a matrix only when the
correction stalls or, around a start factor it was handed, once its budget
of corrections is spent.  A held factor of a time step corrects around its
start factor, an earlier step's first-system factor, if it has one, then
around the factor of its own step's first system (the one at the previous
velocity), then around its own factor of the true matrix, each only after
the one before it gave up.  ``factorise`` makes every factor, with one
symmetric-mode, fill-reducing ordering.  ``solve_saddle`` is the one saddle
entry point: a time step passes the ``PinnedSaddle`` of its frozen velocity
and its held saddle factor, and the one-off set-up systems pass none and
keep the default tolerance 1e-10.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import OperatorSet


class LinearSolveError(Exception):
    """A sparse factorisation failed or a solve left too large a residual."""


def factorise(matrix, what: str):
    """Sparse LU of ``matrix`` (needs ``tocsc()``); a failure names the block ``what``.

    Orders ``A + A'`` by minimum degree in SuperLU's symmetric mode with
    diagonal pivot threshold 1e-3, because larger thresholds swap rows off
    the ordered diagonal (1 on the xi=0.01 saddles, 0.1 on the scale-1
    set-up saddles) and fill in about tenfold; the residual checks of the
    solves guard the weaker pivoting.
    """
    try:
        return splu(
            matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3, options={"SymmetricMode": True}
        )
    except RuntimeError as exc:
        raise LinearSolveError(f"{what} factorisation failed: {exc}") from exc


class KeptFactor:
    """Sparse LU held across the nearby systems of one block.

    ``solve`` corrects the defect around the held factor ``lu``, from
    ``guess`` or zero, until it is below ``0.01 tol ||rhs||``.  A handed-in
    start factor ``lu`` has ``max_corrections`` corrections to spend over the
    object's life (``spare`` left).  Once the last contraction, continued to
    ``max_corrections`` or ``spare``, cannot get there, the object gives the
    factor up.  A given-up start factor is handed back as ``keep(None)``, so
    that one nobody else holds is freed at once.  Then, or at once with no
    ``lu``, the object factorises the matrix ``first``, hands that factor
    over as ``keep(lu)`` and corrects around it with no budget.  With no
    ``first`` (left), it factorises the true matrix, solves with it, checks
    the residual against ``tol`` and keeps that factor.  Matrices need ``@``
    and ``tocsc()``.
    """

    max_corrections = 30

    def __init__(self, what: str, lu=None, first=None, keep=lambda lu: None):
        self.what = what
        self.lu = lu
        self.first = first
        self.keep = keep
        self.spare = np.inf if lu is None else self.max_corrections

    def solve(self, matrix, rhs: np.ndarray, tol: float, guess=None) -> np.ndarray:
        scale = max(np.linalg.norm(rhs), 1e-300)
        x = np.zeros_like(rhs) if guess is None else np.array(guess, dtype=float)
        while True:
            if self.lu is not None and self._correct(matrix, rhs, x, 0.01 * tol * scale):
                return x
            if self.first is None:
                break
            self.lu = None
            self.keep(None)
            self.lu, self.first, self.spare = factorise(self.first, self.what), None, np.inf
            self.keep(self.lu)
        self.lu = factorise(matrix, self.what)
        self.spare = np.inf
        x = self.lu.solve(rhs)
        if not np.all(np.isfinite(x)):
            raise LinearSolveError(f"{self.what} solve produced non-finite values")
        res = np.linalg.norm(matrix @ x - rhs) / scale
        if res > tol:
            raise LinearSolveError(f"{self.what} solve residual {res:.3e} exceeds tolerance {tol:.1e}")
        return x

    def _correct(self, matrix, rhs: np.ndarray, x: np.ndarray, target: float) -> bool:
        """Correct ``x`` in place around ``lu``; False once the defect cannot reach ``target``."""
        previous = np.inf
        for it in range(self.max_corrections):
            r = rhs - matrix @ x
            defect = np.linalg.norm(r)
            if defect <= target:
                return True
            # a defect that did not fall never reaches the target
            rate = min(defect / previous, 1.0)
            if defect * rate ** min(self.max_corrections - 1 - it, self.spare) > target:
                return False
            previous = defect
            self.spare -= 1
            x += self.lu.solve(r)
        return False


class PinnedSaddle:
    """The fluid block ``[[A, -s Bp'], [Bp, 0]]``, applied by blocks and assembled only to factorise.

    ``A`` is the interior block of the P2 pair-pattern ``data`` and ``s`` is
    ``scale``.  The divergence rows are linearly dependent for boundary-free
    velocities, so pinning pressure dof 0 (``Bp`` drops its row) loses
    nothing and avoids the LU fill a dense mean-zero multiplier row would
    cause.  ``B`` keeps every row.
    """

    def __init__(self, ops: OperatorSet, data: np.ndarray, scale: float):
        self.A = ops.interior(data)
        self.B, self.BT, self.Bp, self.BpT = ops.interior_div
        self.scale = scale

    def __matmul__(self, x):
        n = self.A.shape[0]
        return np.concatenate([self.A @ x[:n] - self.scale * (self.BpT @ x[n:]), self.Bp @ x[:n]])

    def tocsc(self):
        return sp.bmat([[self.A, -self.scale * self.BpT], [self.Bp, None]], format="csc")

    def momentum_residual(self, u_int: np.ndarray, p: np.ndarray, load: np.ndarray) -> np.ndarray:
        """``A u - s B' p - load`` for interior velocity values ``u_int`` and every pressure dof."""
        return self.A @ u_int - self.scale * (self.BT @ p) - load


def solve_saddle(ops: OperatorSet, saddle: PinnedSaddle, rhs: np.ndarray, *, tol: float = 1e-10, factor=None, guess=None):
    """Velocity and mean-zero pressure of the fluid block ``saddle`` under the load ``rhs``.

    ``rhs`` and ``u`` of a ``guess`` ``(u, p)`` live on the full velocity dof
    set; ``u`` comes back with exact zeros on the boundary.  Solves through
    the ``KeptFactor`` ``factor``, or a fresh one, and checks the residuals
    of both blocks against ``tol`` before returning.
    """
    if factor is None:
        factor = KeptFactor("saddle")
    idx = ops.vspace.interior_velocity
    b = rhs[idx]
    if guess is not None:  # the pinned layout
        guess = np.concatenate([guess[0][idx], guess[1][1:] - guess[1][0]])
    sol = factor.solve(saddle, np.concatenate([b, np.zeros(saddle.Bp.shape[0])]), tol, guess)
    u_int = sol[: idx.size]
    u = np.zeros(ops.vspace.n_velocity)
    u[idx] = u_int
    p = np.concatenate([[0.0], sol[idx.size :]])
    w = ops.pressure_weights
    p -= (w @ p) / w.sum()
    r_mom = saddle.momentum_residual(u_int, p, b)
    mom_scale = max(np.linalg.norm(b), 1e-300)
    # near-zero velocities (hydrostatic balance) make a pure ||B u|| / ||u||
    # ratio meaningless, so fall back to the load scale
    div_scale = max(np.linalg.norm(u_int), mom_scale)
    res_mom = np.linalg.norm(r_mom) / mom_scale
    res_div = np.linalg.norm(saddle.B @ u_int) / div_scale
    if res_mom > tol or res_div > tol:
        raise LinearSolveError(
            f"saddle solve residual too large: momentum {res_mom:.3e}, divergence {res_div:.3e}"
        )
    return u, p


def steady_stokes_velocity(ops: OperatorSet, params, n: np.ndarray) -> np.ndarray:
    """Creeping-flow equilibrium velocity for the buoyancy of a density field.

    Solves xi K u + grad p = n grad_sigma with the divergence constraint;
    useful as an initial velocity in quasi-static balance with the data.
    """
    load = ops.buoyancy_load(np.asarray(n, dtype=float), np.asarray(params.grad_sigma, dtype=float))
    u, _ = solve_saddle(ops, PinnedSaddle(ops, params.xi * ops.K_u.data, 1.0), load)
    return u


def project_divergence_free(u: np.ndarray, ops: OperatorSet) -> np.ndarray:
    """Mass-orthogonal projection onto {v: B v = 0, v = 0 on the boundary}."""
    rhs = ops.M_u @ ops.vspace.zero_boundary(np.asarray(u, dtype=float))
    v, _ = solve_saddle(ops, PinnedSaddle(ops, ops.M_u.data, 1.0), rhs)
    return v
