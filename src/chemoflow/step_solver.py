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
in the solve's pinned layout.  A run keeps one ``StepBase`` per step size:
that data, the start factor of each of its three blocks, which every
attempt's held factors start from, and the last system, which the next step
starts from.  The step matrices differ from the base by the skew convection
block alone, and consecutive steps' matrices by ``k (C(u_m) - C(u_{m-1}))``:
a start factor is the convection-free one until a grid step gives it up,
and from then on the factor of that step's first system, carried to the
steps after it.
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
class StepInputs:
    """Previous-step fields feeding one implicit step.

    The oxygen boundary trace is the restriction of ``c_prev``; the boundary
    operators are vertex-indexed, so it needs no field of its own.
    """

    c_prev: np.ndarray
    n_prev: np.ndarray
    u_prev: np.ndarray
    dt: float

    def validate(self, ops: OperatorSet) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        nv = ops.mesh.n_vertices
        if self.c_prev.shape != (nv,) or self.n_prev.shape != (nv,):
            raise ValueError("scalar fields do not match the mesh vertex count")
        if self.u_prev.shape != (ops.vspace.n_velocity,):
            raise ValueError("velocity field does not match the velocity space")


@dataclass
class FixedPointDiagnostics:
    """Iteration counts and update-norm history for one step solve.

    ``residual_history`` belongs to the loop the object describes (inner for
    picard_inner, outer for outer_step); an outer diagnostics object also
    carries the concatenated inner histories for serialisation.
    """

    inner_iterations: int = 0
    outer_iterations: int = 0
    residual_history: list = field(default_factory=list)
    inner_history: list = field(default_factory=list)
    converged: bool = False
    final_residual: float = float("nan")

    def csv_rows(self, step: int):
        rows = [
            f"{step},inner,{i + 1},{r:.17g}" for i, r in enumerate(self.inner_history)
        ]
        rows += [
            f"{step},outer,{i + 1},{r:.17g}" for i, r in enumerate(self.residual_history)
        ]
        return rows


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


def step_data(ops: OperatorSet, params, k: float) -> tuple:
    """Convection-free pattern data of the oxygen, cell and fluid step matrices, in their sparse sums' order."""
    a_ob = params.alpha / params.b
    oxygen = ops.M_vol.data.copy()
    oxygen[ops.loop_slot] += a_ob * ops.M_bnd_global.data
    oxygen += k * params.alpha * ops.K_vol.data
    oxygen[ops.loop_slot] += k * a_ob * ops.K_bnd_global.data
    return oxygen, ops.M_vol.data + k * params.beta * ops.K_vol.data, ops.M_u.data + k * params.xi * ops.K_u.data


def step_system(ops: OperatorSet, params, k: float, u: np.ndarray, data: tuple | None = None) -> StepSystem:
    """Step matrices of step size ``k`` at ``u``: its ``step_data``, or ``data``, plus ``k C(u)``."""
    oxygen, cells, velocity = step_data(ops, params, k) if data is None else data
    C, C_u = assemble_convection(ops, u)
    return StepSystem(
        u=u,
        oxygen=ops.p1.matrix(oxygen + k * C.data),
        cells=ops.p1.matrix(cells + k * C.data),
        fluid=PinnedSaddle(ops, velocity + k * C_u.data, k),
    )


class StepBase:
    """What every attempt of step size ``k`` in one run shares.

    ``data`` is the ``step_data`` of ``k`` and ``last`` the last system that
    ``system`` built from it.  ``factors`` holds the start factor of the
    oxygen, cell and pinned fluid blocks, and ``sources`` the grid step
    whose first system each was factorised from, 0 for the convection-free
    matrix of ``data``; step ``j``'s first system is the one at
    ``states[j - 1].u``.  So each factor depends only on the mesh, the
    coefficients, ``k`` and a checkpointed velocity, and a base made from a
    checkpoint's ``sources`` and the ``states`` up to it holds the same bits.
    """

    def __init__(self, ops: OperatorSet, params, k: float, sources=(0, 0, 0), states=()):
        self.ops, self.params, self.k = ops, params, k
        self.last = None
        self.data = oxygen, cells, velocity = step_data(ops, params, k)
        made = {j: self.system(states[j - 1].u).blocks for j in set(sources) if j}
        if 0 in sources:
            made[0] = ops.p1.matrix(oxygen), ops.p1.matrix(cells), PinnedSaddle(ops, velocity, k)
        self.factors = [fluid.factorise(made[j][i], what) for i, (j, what) in enumerate(zip(sources, BLOCKS))]
        self.sources = list(sources)

    def system(self, u: np.ndarray) -> StepSystem:
        """The system of ``k`` at ``u``, kept as ``last``."""
        self.last = step_system(self.ops, self.params, self.k, u, self.data)
        return self.last

    def held(self, first: StepSystem, step: int = 0) -> tuple:
        """One attempt's ``KeptFactor`` per block, started from ``factors``.

        A block that gives up its start factor hands it to ``carry`` and
        factorises its matrix in the attempt's ``first`` system.
        """
        return tuple(KeptFactor(what, lu, matrix, partial(self.carry, i, step))
                     for i, (what, lu, matrix) in enumerate(zip(BLOCKS, self.factors, first.blocks)))

    def carry(self, i: int, step: int, lu) -> None:
        """Carry ``lu`` as block ``i``'s start factor to the steps after grid ``step``.

        ``None`` frees the given-up factor at once; a ``step`` of 0 (a halved retry) carries nothing.
        """
        if step:
            self.factors[i], self.sources[i] = lu, step


def c_step_rhs(ops: OperatorSet, params, inputs: StepInputs, c_hat, n_hat, consumption_fn):
    a_ob = params.alpha / params.b
    consumption = n_hat * consumption_fn(c_hat)
    return (
        ops.M_vol @ inputs.c_prev
        + a_ob * (ops.M_bnd_global @ inputs.c_prev)
        - inputs.dt * (ops.M_vol @ consumption)
    )


def n_step_rhs(ops: OperatorSet, inputs: StepInputs, c, n_hat, sensitivity_fn):
    """Right side of the cell step: previous density plus the chemotaxis load."""
    return ops.M_vol @ inputs.n_prev + inputs.dt * assemble_chemotaxis_rhs(ops, n_hat, c, sensitivity_fn)


def u_step_rhs(ops: OperatorSet, params, inputs: StepInputs, n):
    """Load of the fluid step on the full velocity dof set: the buoyancy of ``n`` plus ``M u_prev``."""
    force = ops.buoyancy_load(n, np.asarray(params.grad_sigma, dtype=float))
    return inputs.dt * force + ops.M_u @ inputs.u_prev


def _pair_update_norm(ops, dc, dn, c, n):
    num = np.sqrt(ops.scalar_norm_sq(dc) + ops.scalar_norm_sq(dn))
    den = np.sqrt(ops.scalar_norm_sq(c) + ops.scalar_norm_sq(n))
    return num, den


def picard_inner(
    inputs: StepInputs,
    system: StepSystem,
    params,
    ops: OperatorSet,
    options: SolverOptions = SolverOptions(),
    initial_guess=None,
    factors=None,
):
    """Iterate the (c, n) map of the frozen-velocity ``system`` to its fixed point.

    Stops once the relative pair update is at most ``options.inner_tol`` or
    after ``options.max_inner`` passes.  Starts from the previous-step fields
    unless a warmer guess is supplied, and solves through the ``(oxygen,
    cells)`` factor pair ``factors`` or fresh ones.  Non-convergence is
    reported through the diagnostics, not raised; the caller owns the retry
    policy.
    """
    inputs.validate(ops)
    oxygen, cells = factors or (KeptFactor("oxygen"), KeptFactor("cell-density"))
    f = params.consumption()
    g = params.sensitivity()

    if initial_guess is None:
        c_hat, n_hat = inputs.c_prev, inputs.n_prev
    else:
        c_hat, n_hat = initial_guess

    diag = FixedPointDiagnostics()
    linear_tol = min(options.inner_tol, 1e-10)
    for it in range(1, options.max_inner + 1):
        rhs_c = c_step_rhs(ops, params, inputs, c_hat, n_hat, f)
        c = oxygen.solve(system.oxygen, rhs_c, linear_tol, c_hat)
        rhs_n = n_step_rhs(ops, inputs, c, n_hat, g)
        n = cells.solve(system.cells, rhs_n, linear_tol, n_hat)
        num, den = _pair_update_norm(ops, c - c_hat, n - n_hat, c, n)
        diag.inner_iterations = it
        diag.residual_history.append(num / den if den > 0 else num)
        c_hat, n_hat = c, n
        if num <= options.inner_tol * den:
            diag.converged = True
            break
    return c_hat, n_hat, diag


def step_residual(ops: OperatorSet, params, inputs: StepInputs, system: StepSystem, c, n, p) -> float:
    """Relative residual of the fully coupled nonlinear step at (c, n, u, p), ``u = system.u``.

    Each block is ``matrix @ x - rhs`` from the matrices and loads the solve
    uses, with every frozen coefficient evaluated at (c, n, u) itself.
    """
    u = system.u
    r_c = system.oxygen @ c - c_step_rhs(ops, params, inputs, c, n, params.consumption())
    r_n = system.cells @ n - n_step_rhs(ops, inputs, c, n, params.sensitivity())
    rhs_u = u_step_rhs(ops, params, inputs, n)
    idx = ops.vspace.interior_velocity
    M_u_prev = ops.M_u @ inputs.u_prev
    # u is zero on the boundary, so the interior columns carry every product
    r_u = system.fluid.momentum_residual(u[idx], p, rhs_u[idx])
    r_div = ops.B @ u
    num = np.sqrt(
        np.sum(r_c**2) + np.sum(r_n**2) + np.sum(r_u**2) + np.sum(r_div**2)
    )
    # the load's force part is rhs_u - M u_prev, k times the buoyancy load
    scale = np.sqrt(
        np.sum((ops.M_vol @ inputs.c_prev) ** 2)
        + np.sum((ops.M_vol @ inputs.n_prev) ** 2)
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


def outer_step(
    inputs: StepInputs,
    params,
    ops: OperatorSet,
    options: SolverOptions = SolverOptions(),
    bases: dict | None = None,
    step: int = 0,
) -> StepResult:
    """Full coupled step: alternate the (c, n) fixed point with fluid solves.

    Convection in the fluid is linearised at the previous outer velocity
    iterate.  Convergence requires the inner loop converged, the velocity
    update below tolerance, and the fully nonlinear residual below tolerance;
    failure is reported in the diagnostics.  The attempt starts from the
    ``StepBase`` of ``k`` in ``bases`` (made when missing): its start factors,
    and its last system when that is at ``u_prev``, else a new one there,
    which is the attempt's first system.  It leaves its own last system
    there, and for a grid ``step`` (0: none) the first-system factor of each
    block that gave up its start factor.
    """
    inputs.validate(ops)
    k = inputs.dt
    bases = {} if bases is None else bases
    if k not in bases:
        bases[k] = StepBase(ops, params, k)
    base = bases[k]
    # the residual check and the next outer iteration share each new velocity's system
    system = base.last
    if system is None or not np.array_equal(system.u, inputs.u_prev):
        system = base.system(np.asarray(inputs.u_prev, dtype=float))
    oxygen, cells, saddle = base.held(system, step)
    guess = None
    diag = FixedPointDiagnostics()
    c = n = None
    u, p = system.u, np.zeros(ops.mesh.n_vertices)
    for it in range(1, options.max_outer + 1):
        c, n, inner = picard_inner(inputs, system, params, ops, options, initial_guess=guess, factors=(oxygen, cells))
        guess = (c, n)
        diag.inner_iterations += inner.inner_iterations
        diag.inner_history.extend(inner.residual_history)
        rhs = u_step_rhs(ops, params, inputs, n)
        u, p = solve_saddle(ops, system.fluid, rhs, tol=options.linear_tol, factor=saddle, guess=(system.u, p))
        num = np.sqrt(ops.velocity_norm_sq(u - system.u))
        den = np.sqrt(ops.velocity_norm_sq(u))
        diag.outer_iterations = it
        diag.residual_history.append(num / den if den > 0 else num)
        system = base.system(u)
        if inner.converged and num <= options.outer_tol * den:
            residual = step_residual(ops, params, inputs, system, c, n, p)
            diag.final_residual = residual
            if residual <= max(options.outer_tol, 10 * options.linear_tol):
                diag.converged = True
                break
    if not diag.converged and c is not None and np.isnan(diag.final_residual):
        diag.final_residual = step_residual(ops, params, inputs, system, c, n, p)
    return StepResult(c=c, n=n, u=u, p=p, diagnostics=diag)
