"""Per-step norm ledger and numerical verification of the energy estimates.

Every estimate the scheme is supposed to satisfy is checked from one table:
the ledger of mass-matrix-weighted norms, increment norms, and mass integrals
per step.  Checks come in three kinds:

* per-step inequalities (the damped combined estimate with a Young constant
  delta < beta/g1, the single-solve bounds for each field, and the kinetic
  identity), which hold up to solver tolerance for every converged step;
* uniform-in-k boundedness of eight aggregate quantities across a ladder of
  refinements of the same data, reported as the growth of the empirical
  constant relative to the coarsest grid;
* compactness-style diagnostics: the discrete Gronwall bound and the decay of
  time-translate L2 differences of the piecewise-linear reconstruction.

Constants in the estimates are never fixed a priori; the analyzers report
empirical ratios, which is the only numerically meaningful reading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import OperatorSet
from .timestepping import Trajectory, interpolate_state

_FIELDS = ("c", "ctau", "n", "u")


CSV_COLUMNS = (
    ["m", "t"]
    + [f"{f}_sq" for f in _FIELDS]
    + [f"grad_{f}_sq" for f in _FIELDS]
    + [f"d{f}_sq" for f in _FIELDS]
    + [f"inner2_{f}" for f in _FIELDS]
    + ["mass_n", "mass_c_combined", "consumption", "force_dot_u",
       "min_n", "max_n", "min_c", "max_c"]
)


@dataclass(frozen=True)
class EnergyLedger:
    """Norm table over a trajectory; one row per time level.

    ``columns`` maps each ``CSV_COLUMNS`` name but ``m`` to its array, read as
    ``ledger[name]``; ``docs/formats.md`` says what each column holds.
    """

    k: float
    T: float
    N: int
    data_hash: str
    columns: dict

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def identity_residual(self, field: str) -> float:
        """Max relative defect of 2(a, a-b) = |a|^2 - |b|^2 + |a-b|^2."""
        lhs = self[f"inner2_{field}"][1:]
        sq = self[f"{field}_sq"]
        rhs = sq[1:] - sq[:-1] + self[f"d{field}_sq"][1:]
        scale = np.maximum(np.abs(lhs) + np.abs(sq[1:]) + np.abs(sq[:-1]), 1e-300)
        return float(np.max(np.abs(lhs - rhs) / scale)) if len(lhs) else 0.0


def export_ledger(ledger: EnergyLedger, path) -> None:
    """One CSV row per step, columns in the documented order."""
    columns = [ledger[name] for name in CSV_COLUMNS[1:]]
    with open(path, "w") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for m in range(ledger.N + 1):
            f.write(",".join([str(m)] + [f"{col[m]:.17g}" for col in columns]) + "\n")


def build_ledger(traj: Trajectory, ops: OperatorSet, params) -> EnergyLedger:
    """Compute the full norm table; all norms are mass-matrix weighted."""
    N = traj.grid.N
    f = params.consumption()
    grad_sigma = np.asarray(params.grad_sigma, dtype=float)
    a_ob = params.alpha / params.b
    col = {name: np.zeros(N + 1) for name in CSV_COLUMNS[1:]}
    col["t"] = traj.grid.times()

    ones_v = np.ones(ops.mesh.n_vertices)
    ones_b = np.ones(ops.mesh.n_boundary)
    loop = ops.mesh.boundary_loop
    M_bnd, K_bnd = ops.M_bnd_global[loop][:, loop], ops.K_bnd_global[loop][:, loop]
    prev = None
    for m, s in enumerate(traj.states):
        ct = s.c[loop]
        fields = {"c": (s.c, ops.M_vol, ops.K_vol), "ctau": (ct, M_bnd, K_bnd),
                  "n": (s.n, ops.M_vol, ops.K_vol), "u": (s.u, ops.M_u, ops.K_u)}
        for name, (vec, M, K) in fields.items():
            col[f"{name}_sq"][m] = vec @ (M @ vec)
            col[f"grad_{name}_sq"][m] = vec @ (K @ vec)
            if prev is not None:
                d = vec - prev[name][0]
                col[f"d{name}_sq"][m] = d @ (M @ d)
                col[f"inner2_{name}"][m] = 2.0 * (vec @ (M @ d))
        col["mass_n"][m] = ones_v @ (ops.M_vol @ s.n)
        col["mass_c_combined"][m] = ones_v @ (ops.M_vol @ s.c) + a_ob * (ones_b @ (M_bnd @ ct))
        col["consumption"][m] = ones_v @ (ops.M_vol @ (s.n * f(s.c)))
        col["force_dot_u"][m] = ops.buoyancy_load(s.n, grad_sigma) @ s.u
        col["min_n"][m], col["max_n"][m] = s.n.min(), s.n.max()
        col["min_c"][m], col["max_c"][m] = s.c.min(), s.c.max()
        prev = fields

    return EnergyLedger(k=traj.grid.k, T=traj.grid.T, N=N, data_hash=traj.data_hash, columns=col)


@dataclass(frozen=True)
class InequalityReport:
    name: str
    step: int
    lhs: float
    rhs: float
    delta: float  # Young constant the check was run with

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.slack >= -1e-10 * max(abs(self.rhs), 1.0)


def check_step_inequality(ledger: EnergyLedger, m: int, params, delta: float) -> InequalityReport:
    """Damped combined estimate at step m for a Young constant delta.

    LHS collects the telescoping norm differences of c (volume and trace) and
    n plus the weighted gradient terms; RHS is k f1 (|c|^2 + |n|^2).  The
    inequality is a theorem for exact solves with nonnegative n, so the slack
    should never be meaningfully negative on a converged run.
    """
    if not 0 < delta < params.beta / params.g1:
        raise ValueError(f"delta must lie in (0, beta/g1) = (0, {params.beta / params.g1:g})")
    if not 1 <= m <= ledger.N:
        raise ValueError(f"step index must lie in [1, {ledger.N}]")
    k = ledger.k
    a = params.alpha
    b = params.b
    g1 = params.g1

    def diff(field):
        sq = ledger[f"{field}_sq"]
        return sq[m] - sq[m - 1] + ledger[f"d{field}_sq"][m]

    lhs = (
        diff("c")
        + (2 * k * a / b) * ledger["grad_ctau_sq"][m]
        + (a / b) * diff("ctau")
        + (4 * delta * a / g1) * diff("n")
        + (8 * k * delta / g1) * (a * params.beta - g1 * a * delta) * ledger["grad_n_sq"][m]
    )
    rhs = k * params.f1 * (ledger["c_sq"][m] + ledger["n_sq"][m])
    return InequalityReport("combined-step", m, float(lhs), float(rhs), delta)


def check_oxygen_solve_bound(ledger: EnergyLedger, m: int, params, delta: float | None = None) -> InequalityReport:
    """Single-solve bound for the oxygen step (data from the previous row)."""
    if delta is None:
        delta = params.default_delta()
    if not 0 < delta < min(1.0, 1.0 / params.b):
        raise ValueError("delta must lie in (0, min(1, 1/b))")
    k, a, b = ledger.k, params.alpha, params.b
    lhs = (
        (a * k / b) * ledger["grad_ctau_sq"][m]
        + a * k * ledger["grad_c_sq"][m]
        + (1 - delta) * ledger["c_sq"][m]
        + a * (1 / b - delta) * ledger["ctau_sq"][m]
    )
    rhs = (
        (1 / (2 * delta)) * ledger["c_sq"][m - 1]
        + (a / (4 * delta * b * b)) * ledger["ctau_sq"][m - 1]
        + (k * k * params.f1**2 / (2 * delta)) * ledger["n_sq"][m]
    )
    return InequalityReport("oxygen-solve", m, float(lhs), float(rhs), delta)


def check_cell_solve_bound(ledger: EnergyLedger, m: int, params, delta: float = 0.5) -> InequalityReport:
    """Single-solve bound for the cell step; meaningful when beta > g1/2."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    k, g1 = ledger.k, params.g1
    lhs = (k * params.beta - k * g1 / 2) * ledger["grad_n_sq"][m] + (1 - delta) * ledger["n_sq"][m]
    rhs = (1 / (4 * delta)) * ledger["n_sq"][m - 1] + (k * g1 / 2) * ledger["grad_c_sq"][m]
    return InequalityReport("cell-solve", m, float(lhs), float(rhs), delta)


def kinetic_identity_residual(ledger: EnergyLedger, m: int, params) -> float:
    """Relative defect of the discrete kinetic energy balance at step m.

    |u|^2 - |q|^2 + |u - q|^2 + 2 k xi |grad u|^2 = 2 k (force, u) holds to
    round-off because skew convection and the pressure coupling drop exactly.
    """
    k = ledger.k
    lhs = (
        ledger["u_sq"][m]
        - ledger["u_sq"][m - 1]
        + ledger["du_sq"][m]
        + 2 * k * params.xi * ledger["grad_u_sq"][m]
    )
    rhs = 2 * k * ledger["force_dot_u"][m]
    scale = max(ledger["u_sq"][m], ledger["u_sq"][m - 1], abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


UNIFORM_QUANTITIES = (
    "max|c|^2 + max|n|^2",
    "k sum(|grad_tau c|^2 + |grad n|^2)",
    "sum of squared increments (c, c_tau, n)",
    "max|c_tau|^2",
    "sum |dc_tau|^2",
    "max|u|^2",
    "sum |du|^2",
    "k sum |grad u|^2",
)


@dataclass(frozen=True)
class UniformBoundReport:
    ks: tuple
    table: np.ndarray  # (n_quantities, n_ledgers) empirical ratios
    spreads: np.ndarray  # growth of each ratio relative to the coarsest grid
    factor: float

    @property
    def uniform(self) -> bool:
        return bool(np.all(self.spreads <= self.factor))

    def lines(self):
        out = [f"uniform-in-k bound scan over k = {list(self.ks)} (growth factor vs coarsest, gate {self.factor})"]
        for name, spread, row in zip(UNIFORM_QUANTITIES, self.spreads, self.table):
            flag = "ok  " if spread <= self.factor else "FAIL"
            vals = " ".join(f"{v:.6g}" for v in row)
            out.append(f"  [{flag}] spread {spread:8.4f}  {name}: {vals}")
        return out


def uniform_bound_scan(ledgers, params, factor: float = 1.10) -> UniformBoundReport:
    """Empirical uniform-boundedness of the eight aggregate quantities.

    For each ledger the quantity is divided by the initial-data norm to give
    an empirical constant; the verdict compares each constant with its value
    on the coarsest grid.  Quantities that decay with k (the increment sums)
    pass trivially; quantities converging to a time integral must not grow by
    more than the configured factor.
    """
    ledgers = list(ledgers)
    if len(ledgers) < 3:
        raise ValueError("need at least 3 ledgers at distinct step sizes")
    ks = [led.k for led in ledgers]
    if len(set(ks)) != len(ks):
        raise ValueError("ledgers must have distinct step sizes")
    hashes = {led.data_hash for led in ledgers}
    if len(hashes) != 1:
        raise ValueError("ledgers come from different data (mismatched hashes)")
    order = np.argsort(ks)[::-1]  # coarsest first
    ledgers = [ledgers[i] for i in order]
    ks = [ks[i] for i in order]

    table = np.zeros((len(UNIFORM_QUANTITIES), len(ledgers)))
    for j, led in enumerate(ledgers):
        d0 = led["c_sq"][0] + led["ctau_sq"][0] + led["n_sq"][0]
        d0u = d0 + led["u_sq"][0]
        q = [
            np.max(led["c_sq"][1:]) + np.max(led["n_sq"][1:]),
            led.k * np.sum(led["grad_ctau_sq"][1:] + led["grad_n_sq"][1:]),
            np.sum(led["dc_sq"][1:] + led["dctau_sq"][1:] + led["dn_sq"][1:]),
            np.max(led["ctau_sq"][1:]),
            np.sum(led["dctau_sq"][1:]),
            np.max(led["u_sq"][1:]),
            np.sum(led["du_sq"][1:]),
            led.k * np.sum(led["grad_u_sq"][1:]),
        ]
        denom = [d0] * 5 + [d0u] * 3
        for i, (qi, di) in enumerate(zip(q, denom)):
            table[i, j] = 0.0 if qi == 0.0 else qi / di  # 0/0 counts as bounded

    coarse = table[:, 0]
    spreads = np.empty(len(UNIFORM_QUANTITIES))
    for i in range(len(UNIFORM_QUANTITIES)):
        if np.all(table[i] == 0.0):
            spreads[i] = 1.0
        elif coarse[i] == 0.0:
            spreads[i] = np.inf
        else:
            spreads[i] = np.max(table[i]) / coarse[i]
    return UniformBoundReport(ks=tuple(ks), table=table, spreads=spreads, factor=factor)


@dataclass(frozen=True)
class GronwallResult:
    bounds: np.ndarray
    hypothesis_ok: bool
    bound_ok: bool


def discrete_gronwall(a, A, k: float) -> GronwallResult:
    """Exponential bound for sequences with a_i <= A_i + k sum_{j<=i} a_j.

    Sequences are 1-based: entry index 0 is i = 1, and the bound is
    ``A_i exp((i-1) k / (1-k)) / (1-k)``.  The hypothesis inequality is
    checked and reported alongside the bound verdict.
    """
    a = np.asarray(a, dtype=float)
    A = np.asarray(A, dtype=float)
    if not 0 < k < 1:
        raise ValueError(f"k must lie in (0, 1), got {k}")
    if a.shape != A.shape or a.ndim != 1:
        raise ValueError("a and A must be 1-d sequences of equal length")
    if np.any(a < 0) or np.any(A < 0):
        raise ValueError("sequences must be nonnegative")
    if np.any(np.diff(A) < 0):
        raise ValueError("A must be nondecreasing")
    i = np.arange(1, len(a) + 1)
    bounds = A / (1.0 - k) * np.exp((i - 1) * k / (1.0 - k))
    partial = np.cumsum(a)
    hypothesis_ok = bool(np.all(a <= A + k * partial + 1e-12 * np.maximum(A, 1.0)))
    bound_ok = bool(np.all(a <= bounds * (1 + 1e-12)))
    return GronwallResult(bounds=bounds, hypothesis_ok=hypothesis_ok, bound_ok=bound_ok)


@dataclass(frozen=True)
class TranslateDecayReport:
    shifts: tuple
    values: dict  # field -> array of integrals, aligned with shifts
    monotone: dict  # field -> bool, nonincreasing as the shift decreases

    def lines(self):
        out = ["time-translate decay (L2-in-time squared differences)"]
        for f in ("c", "n", "u"):
            flag = "monotone" if self.monotone[f] else "NOT monotone"
            vals = " ".join(f"{v:.6g}" for v in self.values[f])
            out.append(f"  {f}: {vals}  [{flag}]")
        return out


def time_translate_decay(traj: Trajectory, ops: OperatorSet, shifts) -> TranslateDecayReport:
    """Integrals of |g(s + a) - g(s)|^2 over s in [0, T - a] per shift a.

    The piecewise-linear reconstruction makes the integrand piecewise
    quadratic in s, so Simpson's rule on each subinterval between breakpoints
    is exact.
    """
    T = traj.grid.T
    shifts = tuple(float(s) for s in shifts)
    for s in shifts:
        if not 0 < s < T:
            raise ValueError(f"shift {s} outside (0, T)")
    times = traj.grid.times()
    values = {f: [] for f in ("c", "n", "u")}

    def norms(s):
        hi = interpolate_state(traj, s + a)
        lo = interpolate_state(traj, s)
        return (
            ops.scalar_norm_sq(hi.c - lo.c),
            ops.scalar_norm_sq(hi.n - lo.n),
            ops.velocity_norm_sq(hi.u - lo.u),
        )

    for a in shifts:
        cuts = np.concatenate([times, times - a])
        cuts = np.unique(np.clip(cuts, 0.0, T - a))
        acc = np.zeros(3)
        for s0, s1 in zip(cuts[:-1], cuts[1:]):
            if s1 <= s0:
                continue
            f0 = np.array(norms(s0))
            fm = np.array(norms(0.5 * (s0 + s1)))
            f1 = np.array(norms(s1))
            acc += (s1 - s0) / 6.0 * (f0 + 4.0 * fm + f1)
        for f, v in zip(("c", "n", "u"), acc):
            values[f].append(float(v))

    order = np.argsort(shifts)[::-1]  # largest shift first
    monotone = {}
    for f in ("c", "n", "u"):
        vals = np.asarray(values[f])[order]
        slack = 1e-12 * max(vals.max(initial=0.0), 1.0)
        monotone[f] = bool(np.all(np.diff(vals) <= slack))
    return TranslateDecayReport(
        shifts=tuple(np.asarray(shifts)[order]),
        values={f: np.asarray(values[f])[order] for f in values},
        monotone=monotone,
    )
