"""Per-step norm ledger and numerical verification of the energy estimates.

Every estimate the scheme is supposed to satisfy is checked from one table:
the ledger of mass-matrix-weighted norms, increment norms, and mass integrals
per step.  Checks come in three kinds:

* per-step inequalities (the damped combined estimate with a Young constant
  delta < beta/g1, the single-solve bounds for each field, and the kinetic
  identity), each evaluated at once on whole ledger columns, which hold up
  to solver tolerance for every converged step;
* uniform-in-k boundedness of eight aggregate quantities across a ladder of
  refinements of the same data, reported as the growth of the empirical
  constant relative to the coarsest grid, and the interpolant-vs-step gap;
* compactness-style diagnostics: the discrete Gronwall bound and the decay of
  time-translate L2 differences of the piecewise-linear reconstruction.

Constants in the estimates are never fixed a priori; the analyzers report
empirical ratios, which is the only numerically meaningful reading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import OperatorSet
from .timestepping import Trajectory, _locate

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


def _step_diff(ledger: EnergyLedger, field: str) -> np.ndarray:
    """|a|^2 - |b|^2 + |a - b|^2 per step, a the new and b the old value."""
    sq = ledger[f"{field}_sq"]
    return sq[1:] - sq[:-1] + ledger[f"d{field}_sq"][1:]


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
        rhs = _step_diff(self, field)
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
    """Compute the full norm table; all norms are mass-matrix weighted.

    ``M v``, ``K v`` and ``M d`` are formed once per field and state, and the
    mass columns reuse ``M v``.
    """
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
        Mv = {}
        for name, (vec, M, K) in fields.items():
            Mv[name] = M @ vec
            col[f"{name}_sq"][m] = vec @ Mv[name]
            col[f"grad_{name}_sq"][m] = vec @ (K @ vec)
            if prev is not None:
                d = vec - prev[name][0]
                Md = M @ d
                col[f"d{name}_sq"][m] = d @ Md
                col[f"inner2_{name}"][m] = 2.0 * (vec @ Md)
        col["mass_n"][m] = ones_v @ Mv["n"]
        col["mass_c_combined"][m] = ones_v @ Mv["c"] + a_ob * (ones_b @ Mv["ctau"])
        col["consumption"][m] = ones_v @ (ops.M_vol @ (s.n * f(s.c)))
        col["force_dot_u"][m] = ops.buoyancy_load(s.n, grad_sigma) @ s.u
        col["min_n"][m], col["max_n"][m] = s.n.min(), s.n.max()
        col["min_c"][m], col["max_c"][m] = s.c.min(), s.c.max()
        prev = fields

    return EnergyLedger(k=traj.grid.k, T=traj.grid.T, N=N, data_hash=traj.data_hash, columns=col)


@dataclass(frozen=True)
class InequalityReport:
    """Both sides of one estimate, as arrays over the steps m = 1..N."""

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    delta: float  # Young constant the check was run with

    @property
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def passed(self) -> np.ndarray:
        return self.slack >= -1e-10 * np.maximum(np.abs(self.rhs), 1.0)


def check_step_inequality(ledger: EnergyLedger, params, delta: float) -> InequalityReport:
    """Damped combined estimate at every step for a Young constant delta.

    LHS collects the telescoping norm differences of c (volume and trace) and
    n plus the weighted gradient terms; RHS is k f1 (|c|^2 + |n|^2).  The
    inequality is a theorem for exact solves with nonnegative n, so the slack
    should never be meaningfully negative on a converged run.
    """
    if not 0 < delta < params.beta / params.g1:
        raise ValueError(f"delta must lie in (0, beta/g1) = (0, {params.beta / params.g1:g})")
    k, a, b, g1 = ledger.k, params.alpha, params.b, params.g1
    lhs = (
        _step_diff(ledger, "c")
        + (2 * k * a / b) * ledger["grad_ctau_sq"][1:]
        + (a / b) * _step_diff(ledger, "ctau")
        + (4 * delta * a / g1) * _step_diff(ledger, "n")
        + (8 * k * delta / g1) * (a * params.beta - g1 * a * delta) * ledger["grad_n_sq"][1:]
    )
    rhs = k * params.f1 * (ledger["c_sq"][1:] + ledger["n_sq"][1:])
    return InequalityReport("combined-step", lhs, rhs, delta)


def check_oxygen_solve_bound(ledger: EnergyLedger, params) -> InequalityReport:
    """Single-solve bound for the oxygen step (data from the previous row), delta = min(1, 1/b) / 2."""
    delta = 0.5 * min(1.0, 1.0 / params.b)
    k, a, b = ledger.k, params.alpha, params.b
    lhs = (
        (a * k / b) * ledger["grad_ctau_sq"][1:]
        + a * k * ledger["grad_c_sq"][1:]
        + (1 - delta) * ledger["c_sq"][1:]
        + a * (1 / b - delta) * ledger["ctau_sq"][1:]
    )
    rhs = (
        (1 / (2 * delta)) * ledger["c_sq"][:-1]
        + (a / (4 * delta * b * b)) * ledger["ctau_sq"][:-1]
        + (k * k * params.f1**2 / (2 * delta)) * ledger["n_sq"][1:]
    )
    return InequalityReport("oxygen-solve", lhs, rhs, delta)


def check_cell_solve_bound(ledger: EnergyLedger, params) -> InequalityReport:
    """Single-solve bound for the cell step with delta = 1/2; meaningful when beta > g1/2."""
    delta = 0.5
    k, g1 = ledger.k, params.g1
    lhs = (k * params.beta - k * g1 / 2) * ledger["grad_n_sq"][1:] + (1 - delta) * ledger["n_sq"][1:]
    rhs = (1 / (4 * delta)) * ledger["n_sq"][:-1] + (k * g1 / 2) * ledger["grad_c_sq"][1:]
    return InequalityReport("cell-solve", lhs, rhs, delta)


def kinetic_identity_residual(ledger: EnergyLedger, params) -> np.ndarray:
    """Relative defect of the discrete kinetic energy balance at every step.

    |u|^2 - |q|^2 + |u - q|^2 + 2 k xi |grad u|^2 = 2 k (force, u) holds to
    round-off because skew convection and the pressure coupling drop exactly.
    """
    k = ledger.k
    u_sq = ledger["u_sq"]
    lhs = _step_diff(ledger, "u") + 2 * k * params.xi * ledger["grad_u_sq"][1:]
    rhs = 2 * k * ledger["force_dot_u"][1:]
    scale = np.maximum(np.maximum(np.maximum(u_sq[1:], u_sq[:-1]), np.abs(rhs)), 1e-300)
    return np.abs(lhs - rhs) / scale


def interpolant_step_gap(ledger: EnergyLedger) -> dict:
    """Exact L2(0,T) norms of (linear interpolant - step function) per field.

    On each interval the difference is (t_m - t) times the discrete time
    derivative, whose squared time integral is k |increment|^2 / 3; the sum
    over intervals is exact, no quadrature involved.
    """
    k = ledger.k
    # cumsum adds the steps in order, as a pass over the states does;
    # np.sum's pairwise order can differ in the last bit
    return {f: float(np.sqrt(k * np.cumsum(ledger[f"d{f}_sq"][1:])[-1] / 3.0)) for f in ("c", "n", "u")}


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


def uniform_bound_scan(ledgers) -> UniformBoundReport:
    """Empirical uniform-boundedness of the eight aggregate quantities.

    For each ledger the quantity is divided by the initial-data norm to give
    an empirical constant; the verdict compares each constant with its value
    on the coarsest grid.  Quantities that decay with k (the increment sums)
    pass trivially; quantities converging to a time integral must not grow by
    more than a factor 1.10.
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
    return UniformBoundReport(ks=tuple(ks), table=table, spreads=spreads, factor=1.10)


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

    Between the cut points s in {t_m, t_m - a} the difference g(s + a) - g(s)
    is linear in s, so the piecewise-quadratic integrand is integrated exactly
    by Simpson's rule, and the midpoint value follows from the end values
    d0, d1 by polarisation: |(d0 + d1)/2|^2 = (|d0|^2 + |d1|^2 + 2 d0.M d1) / 4.

    ``M c``, ``M n`` and ``M u`` are formed once per state.  A cut's state and
    its products are interpolated with the weights ``interpolate_state`` uses,
    so a difference's product is a difference of products: its rounding is
    about eps |M g|, not eps |M (g(s + a) - g(s))|.
    """
    T = traj.grid.T
    shifts = tuple(float(s) for s in shifts)
    for s in shifts:
        if not 0 < s < T:
            raise ValueError(f"shift {s} outside (0, T)")
    times = traj.grid.times()
    values = {f: [] for f in ("c", "n", "u")}
    pairs = [[(x, M @ x) for x, M in ((s.c, ops.M_vol), (s.n, ops.M_vol), (s.u, ops.M_u))]
             for s in traj.states]

    def at(t):
        idx, theta = _locate(traj.grid, t)
        if theta is None:
            return pairs[idx]
        w0 = 1.0 - theta
        return [(w0 * x0 + theta * x1, w0 * y0 + theta * y1)
                for (x0, y0), (x1, y1) in zip(pairs[idx - 1], pairs[idx])]

    def difference(s, a):
        return [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(at(s), at(s + a))]

    def norms(d):
        return np.array([x @ y for x, y in d])

    for a in shifts:
        cuts = np.unique(np.clip(np.concatenate([times, times - a]), 0.0, T - a))
        acc = np.zeros(3)
        d0 = difference(cuts[0], a)
        f0 = norms(d0)
        for s0, s1 in zip(cuts[:-1], cuts[1:]):
            d1 = difference(s1, a)
            f1 = norms(d1)
            fm = (f0 + f1 + 2.0 * np.array([x0 @ y1 for (x0, _), (_, y1) in zip(d0, d1)])) / 4.0
            acc += (s1 - s0) / 6.0 * (f0 + 4.0 * fm + f1)
            d0, f0 = d1, f1
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
