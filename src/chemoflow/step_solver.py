"""One implicit time step of the coupled system via nested fixed points.

A step advances (c, n, u) by solving the nonlinear elliptic system

    c + k alpha A_c c + k conv(u) c = prev_c - k n f(c)      (+ boundary terms)
    n + k beta  K n   + k conv(u) n = prev_n + k chem(n, c)
    u + k xi    K u   + k conv(u) u + k grad p = prev_u + k n grad_sigma

with two nested loops replacing abstract fixed-point existence arguments:

* the inner loop freezes the velocity and Picard-iterates the (c, n) pair,
  each pass solving two *linear* systems because the nonlinear products
  n f(c) and g(n, c) are evaluated at the frozen iterate;
* the outer loop freezes the convecting velocity, runs the inner loop, then
  solves the linearised fluid step with the fresh cell density, and repeats
  until the velocity update stalls and the fully nonlinear residual is small.

The oxygen equation carries the dynamic boundary condition: its mass and
stiffness include the boundary operators scaled by alpha/b, so the boundary
trace evolves with its own surface diffusion driven by the bulk flux.

The step matrices of one frozen velocity are one ``StepSystem``, the
convection-free data of its step size plus one convection assembly; the
inner loop, the fluid solve and the residual check read it, the fluid block
in the solve's pinned layout.  ``StepBase`` is the one owner of what every
attempt at a step size ``k`` shares: the operators, the coefficients, ``k``
and the solver options, the convection-free data, the start factor of each
of its three blocks, which every attempt's held factors start from, and the
last system, which the next step starts from.  ``outer_step``,
``picard_inner``, ``step_residual`` and the block loads read all of it from
the base they are given, so one step's matrices and loads share one ``k``,
and the previous level's fields from the ``State`` the time loop holds,
whose ``validate`` is the one check of the fields' shapes.
Consecutive steps' matrices differ by ``k (C(u_m) - C(u_{m-1}))``
alone, so every start factor is the factor of some step's first system:
the first attempt factorises its own, and a block that gives its start
factor up later factorises its step's first system and carries that on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp

from . import fluid
from .assembly import OperatorSet, assemble_chemotaxis_rhs, assemble_convection
from .fluid import KeptFactor, PinnedSaddle, solve_saddle

BLOCKS = ("oxygen", "cell-density", "saddle")  # the block names a failed factorisation or solve reports


@dataclass(frozen=True)
class State:
    """Discrete fields at one time level; velocity vanishes on the boundary.

    A step reads the previous level's ``c``, ``n`` and ``u``.  The oxygen
    boundary trace is the restriction of ``c``; the boundary operators are
    vertex-indexed, so it needs no field of its own.
    """

    c: np.ndarray
    n: np.ndarray
    u: np.ndarray
    p: np.ndarray
    t: float

    def validate(self, ops: OperatorSet) -> None:
        """Refuse ``c``, ``n`` or ``u`` whose shape does not match the mesh or velocity space of ``ops``."""
        nv = ops.mesh.n_vertices
        if self.c.shape != (nv,) or self.n.shape != (nv,):
            raise ValueError("scalar fields do not match the mesh vertex count")
        if self.u.shape != (ops.vspace.n_velocity,):
            raise ValueError("velocity field does not match the velocity space")

    def first_nonfinite_field(self):
        for name in ("c", "n", "u", "p"):
            if not np.all(np.isfinite(getattr(self, name))):
                return name
        return None


@dataclass
class FixedPointDiagnostics:
    """Update-norm histories of one step solve; its iteration counts are their lengths.

    ``inner_history`` holds the inner loop's relative pair updates (for
    outer_step, every inner pass of every outer iteration, in order) and
    ``outer_history`` the outer loop's relative velocity updates, empty for
    picard_inner.
    """

    inner_history: list = field(default_factory=list)
    outer_history: list = field(default_factory=list)
    converged: bool = False
    final_residual: float = float("nan")

    @property
    def inner_iterations(self) -> int:
        return len(self.inner_history)

    @property
    def outer_iterations(self) -> int:
        return len(self.outer_history)

    def csv_rows(self, step: int):
        return [f"{step},{level},{i + 1},{r:.17g}"
                for level, history in (("inner", self.inner_history), ("outer", self.outer_history))
                for i, r in enumerate(history)]


@dataclass(frozen=True)
class SolverOptions:
    """The solver settings, with their defaults; the config's ``solver`` section has the same keys."""

    inner_tol: float = 1e-11
    outer_tol: float = 1e-10
    linear_tol: float = 1e-10
    max_inner: int = 60
    max_outer: int = 60
    retry_depth: int = 3

    def __post_init__(self) -> None:
        for name in ("inner_tol", "outer_tol", "linear_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.max_inner < 1 or self.max_outer < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.retry_depth < 0:
            raise ValueError("retry_depth must be >= 0")


@dataclass(frozen=True)
class StepSystem:
    """The step matrices of the oxygen, cell and fluid blocks at one frozen velocity ``u``."""

    u: np.ndarray
    oxygen: sp.csr_matrix  # boundary evolution included
    cells: sp.csr_matrix
    fluid: PinnedSaddle  # M + k xi K + k C(u) on the interior velocity dofs, pressure scale k

    @property
    def blocks(self) -> tuple:
        """The oxygen, cell and fluid matrices, in the order of ``BLOCKS``."""
        return self.oxygen, self.cells, self.fluid


class StepBase:
    """The one owner of what every attempt at one step size ``k`` shares.

    The solver layers read the operators ``ops``, the coefficients
    ``params``, ``k`` and the solver ``options`` from here.  ``data`` is the
    convection-free pattern data of the oxygen, cell and fluid step matrices
    of ``k``, in their sparse sums' order, and ``last`` the last system that
    ``system`` built from it.  ``factors`` holds the start factor of the
    oxygen, cell and pinned fluid blocks, None until an attempt carries one,
    and ``sources`` the grid step whose first system each was factorised
    from, 0 for none; step ``j``'s first system is the one at
    ``states[j - 1].u``.  So each factor depends only on the mesh, the
    coefficients, ``k`` and a checkpointed velocity, and a base made from a
    checkpoint's ``sources`` and the ``states`` up to it holds the same bits.
    """

    def __init__(self, ops: OperatorSet, params, k: float, options: SolverOptions = SolverOptions(),
                 sources=(0, 0, 0), states=()):
        if not 0 < k < np.inf:
            raise ValueError(f"step size k must be positive and finite, got {k}")
        self.ops, self.params, self.k, self.options = ops, params, k, options
        self.last = None
        a_ob = params.alpha / params.b
        oxygen = ops.M_vol.data.copy()
        oxygen[ops.loop_slot] += a_ob * ops.M_bnd_global.data
        oxygen += k * params.alpha * ops.K_vol.data
        oxygen[ops.loop_slot] += k * a_ob * ops.K_bnd_global.data
        cells = ops.M_vol.data + k * params.beta * ops.K_vol.data
        self.data = oxygen, cells, ops.M_u.data + k * params.xi * ops.K_u.data
        made = {j: self.system(states[j - 1].u).blocks for j in set(sources) if j}
        self.factors = [fluid.factorise(made[j][i], what) if j else None
                        for i, (j, what) in enumerate(zip(sources, BLOCKS))]
        self.sources = list(sources)

    def halved(self) -> StepBase:
        """A retry level's base: the same operators, coefficients and options, step ``k/2``, no start factors."""
        return StepBase(self.ops, self.params, self.k / 2, self.options)

    def system(self, u: np.ndarray) -> StepSystem:
        """The system of ``k`` at ``u``, ``data`` plus ``k C(u)``, kept as ``last``."""
        ops, k = self.ops, self.k
        oxygen, cells, velocity = self.data
        C, C_u = assemble_convection(ops, u)
        self.last = StepSystem(
            u=u,
            oxygen=ops.p1.matrix(oxygen + k * C.data),
            cells=ops.p1.matrix(cells + k * C.data),
            fluid=PinnedSaddle(ops, velocity + k * C_u.data, k),
        )
        return self.last

    def held(self, first: StepSystem, step: int) -> tuple:
        """One attempt's ``KeptFactor`` per block, started from ``factors``.

        A block with no start factor, or that gives it up, factorises its
        matrix in the attempt's ``first`` system and hands it to ``carry``.
        """
        return tuple(KeptFactor(what, lu, matrix, partial(self.carry, i, step))
                     for i, (what, lu, matrix) in enumerate(zip(BLOCKS, self.factors, first.blocks)))

    def carry(self, i: int, step: int, lu) -> None:
        """Carry ``lu``, grid ``step``'s first-system factor, as block ``i``'s start factor; None frees the old one."""
        self.factors[i], self.sources[i] = lu, 0 if lu is None else step


def c_step_rhs(base: StepBase, prev: State, c_hat, n_hat):
    """Right side of the oxygen step: previous oxygen and boundary trace less the consumption load."""
    ops, params = base.ops, base.params
    consumption = n_hat * params.consumption()(c_hat)
    return (
        ops.M_vol @ prev.c
        + params.alpha / params.b * (ops.M_bnd_global @ prev.c)
        - base.k * (ops.M_vol @ consumption)
    )


def n_step_rhs(base: StepBase, prev: State, c, n_hat):
    """Right side of the cell step: previous density plus the chemotaxis load."""
    ops = base.ops
    return ops.M_vol @ prev.n + base.k * assemble_chemotaxis_rhs(ops, n_hat, c, base.params.sensitivity())


def u_step_rhs(base: StepBase, prev: State, n):
    """Load of the fluid step on the full velocity dof set: the buoyancy of ``n`` plus ``M prev.u``."""
    ops = base.ops
    force = ops.buoyancy_load(n, np.asarray(base.params.grad_sigma, dtype=float))
    return base.k * force + ops.M_u @ prev.u


def _pair_update_norm(ops, dc, dn, c, n):
    num = np.sqrt(ops.scalar_norm_sq(dc) + ops.scalar_norm_sq(dn))
    den = np.sqrt(ops.scalar_norm_sq(c) + ops.scalar_norm_sq(n))
    return num, den


def picard_inner(base: StepBase, prev: State, system: StepSystem, initial_guess=None, factors=None):
    """Iterate the (c, n) map of the frozen-velocity ``system`` to its fixed point.

    Stops once the relative pair update is at most ``base.options.inner_tol``
    or after ``max_inner`` passes.  Starts from the previous-step fields
    unless a warmer guess is supplied, and solves through the ``(oxygen,
    cells)`` factor pair ``factors`` or fresh ones.  Non-convergence is
    reported through the diagnostics, not raised; the caller owns the retry
    policy.
    """
    ops, options = base.ops, base.options
    prev.validate(ops)
    oxygen, cells = factors or (KeptFactor("oxygen"), KeptFactor("cell-density"))

    if initial_guess is None:
        c_hat, n_hat = prev.c, prev.n
    else:
        c_hat, n_hat = initial_guess

    diag = FixedPointDiagnostics()
    linear_tol = min(options.inner_tol, 1e-10)
    for _ in range(options.max_inner):
        rhs_c = c_step_rhs(base, prev, c_hat, n_hat)
        c = oxygen.solve(system.oxygen, rhs_c, linear_tol, c_hat)
        rhs_n = n_step_rhs(base, prev, c, n_hat)
        n = cells.solve(system.cells, rhs_n, linear_tol, n_hat)
        num, den = _pair_update_norm(ops, c - c_hat, n - n_hat, c, n)
        diag.inner_history.append(num / den if den > 0 else num)
        c_hat, n_hat = c, n
        if num <= options.inner_tol * den:
            diag.converged = True
            break
    return c_hat, n_hat, diag


def step_residual(base: StepBase, prev: State, system: StepSystem, c, n, p) -> float:
    """Relative residual of the fully coupled nonlinear step at (c, n, u, p), ``u = system.u``.

    Each block is ``matrix @ x - rhs`` from the matrices and loads the solve
    uses, with every frozen coefficient evaluated at (c, n, u) itself.
    """
    ops = base.ops
    u = system.u
    r_c = system.oxygen @ c - c_step_rhs(base, prev, c, n)
    r_n = system.cells @ n - n_step_rhs(base, prev, c, n)
    rhs_u = u_step_rhs(base, prev, n)
    idx = ops.vspace.interior_velocity
    M_u_prev = ops.M_u @ prev.u
    # u is zero on the boundary, so the interior columns carry every product
    r_u = system.fluid.momentum_residual(u[idx], p, rhs_u[idx])
    r_div = ops.B @ u
    num = np.sqrt(
        np.sum(r_c**2) + np.sum(r_n**2) + np.sum(r_u**2) + np.sum(r_div**2)
    )
    # the load's force part is rhs_u - M prev.u, k times the buoyancy load
    scale = np.sqrt(
        np.sum((ops.M_vol @ prev.c) ** 2)
        + np.sum((ops.M_vol @ prev.n) ** 2)
        + np.sum(M_u_prev[idx] ** 2)
        + np.linalg.norm(rhs_u - M_u_prev) ** 2
    )
    return num / max(scale, 1e-300)


@dataclass(frozen=True)
class StepResult:
    c: np.ndarray
    n: np.ndarray
    u: np.ndarray
    p: np.ndarray
    diagnostics: FixedPointDiagnostics


def outer_step(base: StepBase, prev: State, step: int = 0) -> StepResult:
    """Full coupled step of size ``base.k``: alternate the (c, n) fixed point with fluid solves.

    Convection in the fluid is linearised at the previous outer velocity
    iterate.  Convergence requires the inner loop converged, the velocity
    update below tolerance, and the fully nonlinear residual below tolerance;
    failure is reported in the diagnostics.  The attempt starts from
    ``base``: its start factors, and its last system when that is at
    ``prev.u``, else a new one there, which is the attempt's first system.
    It leaves in ``base`` its own last system and, for each block that had
    no start factor or gave it up, the factor of its first system, from
    grid ``step``.
    """
    ops, options = base.ops, base.options
    prev.validate(ops)
    # the residual check and the next outer iteration share each new velocity's system
    system = base.last
    if system is None or not np.array_equal(system.u, prev.u):
        system = base.system(np.asarray(prev.u, dtype=float))
    oxygen, cells, saddle = base.held(system, step)
    guess = None
    diag = FixedPointDiagnostics()
    c = n = None
    u, p = system.u, np.zeros(ops.mesh.n_vertices)
    for _ in range(options.max_outer):
        c, n, inner = picard_inner(base, prev, system, initial_guess=guess, factors=(oxygen, cells))
        guess = (c, n)
        diag.inner_history.extend(inner.inner_history)
        rhs = u_step_rhs(base, prev, n)
        u, p = solve_saddle(ops, system.fluid, rhs, tol=options.linear_tol, factor=saddle, guess=(system.u, p))
        num = np.sqrt(ops.velocity_norm_sq(u - system.u))
        den = np.sqrt(ops.velocity_norm_sq(u))
        diag.outer_history.append(num / den if den > 0 else num)
        system = base.system(u)
        if inner.converged and num <= options.outer_tol * den:
            residual = step_residual(base, prev, system, c, n, p)
            diag.final_residual = residual
            if residual <= max(options.outer_tol, 10 * options.linear_tol):
                diag.converged = True
                break
    if not diag.converged and c is not None and np.isnan(diag.final_residual):
        diag.final_residual = step_residual(base, prev, system, c, n, p)
    return StepResult(c=c, n=n, u=u, p=p, diagnostics=diag)
