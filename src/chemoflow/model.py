"""Physical coefficients, bounded response functions, and their validation.

The consumption rate f and the chemotactic sensitivity g are not fixed
functional forms; the model only pins their bounds (f trapped in [f0, f1],
|g| <= g1, all coefficients positive).  This module ships parametric families
satisfying those bounds by construction and validates a parameter set against
them, including the sufficient conditions under which the per-step fixed
point is known to behave (beta > g1/2, and existence of a Young-inequality
window for alpha).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ERROR = "ERROR"
WARNING = "WARNING"
INFO = "INFO"


@dataclass(frozen=True)
class ResponseSpec:
    """A named response family with its declared bounds and parameters."""

    family: str
    params: dict = field(default_factory=dict)


def make_consumption(spec: ResponseSpec, f0: float, f1: float):
    """Vectorised consumption function c -> f(c) with range inside [f0, f1]."""
    if spec.family == "constant":
        return lambda c: np.full_like(np.asarray(c, dtype=float), f0)
    if spec.family == "saturating":
        # f0 + (f1 - f0) c^2 / (1 + c^2): rises from f0 toward f1.
        # |c| is clamped before squaring so the ratio saturates instead of
        # overflowing to nan for huge arguments.
        def f(c):
            t = np.square(np.minimum(np.abs(np.asarray(c, dtype=float)), 1e150))
            return f0 + (f1 - f0) * t / (1.0 + t)

        return f
    raise ValueError(f"unknown consumption family '{spec.family}'")


def make_sensitivity(spec: ResponseSpec, g1: float):
    """Vectorised sensitivity (n, c) -> g(n, c) with |g| <= g1."""
    if spec.family == "constant":
        theta = spec.params.get("theta", 1.0)
        if isinstance(theta, bool) or not isinstance(theta, (int, float)) or not abs(theta) <= 1.0:
            raise ValueError(f"sensitivity 'constant' needs a number theta with |theta| <= 1, got {theta!r}")
        theta = float(theta)

        def g_const(n, c):
            n = np.asarray(n, dtype=float)
            return np.full_like(n, g1 * theta)

        return g_const
    if spec.family == "saturating":
        # g1 * c/(1+|c|) * 1/(1+|n|): signed in c, damped by crowding in n
        def g(n, c):
            n = np.asarray(n, dtype=float)
            c = np.asarray(c, dtype=float)
            return g1 * c / (1.0 + np.abs(c)) / (1.0 + np.abs(n))

        return g
    raise ValueError(f"unknown sensitivity family '{spec.family}'")


@dataclass(frozen=True)
class ModelParams:
    """Coefficients and response functions of the coupled system.

    alpha, beta, xi are the diffusivities of oxygen, cells, and momentum;
    b scales the boundary flux exchange; grad_sigma is the (constant)
    gravitational forcing direction multiplying the cell density in the
    momentum equation.
    """

    alpha: float = 1.0
    beta: float = 1.0
    xi: float = 1.0
    b: float = 1.0
    grad_sigma: tuple[float, float] = (0.0, -1.0)
    f0: float = 0.1
    f1: float = 1.0
    g1: float = 0.5
    f_spec: ResponseSpec = ResponseSpec("saturating")
    g_spec: ResponseSpec = ResponseSpec("saturating")

    def consumption(self):
        return make_consumption(self.f_spec, self.f0, self.f1)

    def sensitivity(self):
        return make_sensitivity(self.g_spec, self.g1)

    @property
    def delta_hat_window(self) -> tuple[float, float]:
        """Window for the cell-step constant where the fixed point is covered.

        delta_hat must lie in (0, min(1, beta/g1)) and additionally exceed
        g1/(4 alpha) for the gradient coupling to be absorbable.
        """
        if self.g1 <= 0 or self.alpha <= 0 or self.beta <= 0:
            return (0.0, 0.0)
        lo = self.g1 / (4.0 * self.alpha)
        hi = min(1.0, self.beta / self.g1)
        return (lo, hi)


@dataclass(frozen=True)
class Finding:
    level: str
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def errors(self):
        return [f for f in self.findings if f.level == ERROR]

    @property
    def warnings(self):
        return [f for f in self.findings if f.level == WARNING]

    @property
    def ok(self) -> bool:
        return not self.errors

    def lines(self):
        return [f"{f.level:7s} {f.code}: {f.message}" for f in self.findings]


_SAMPLES = 100_000


def validate_params(p: ModelParams) -> ValidationReport:
    """Check positivity, response bounds, and the fixed-point conditions.

    Violations of the standing hypotheses are errors; failures of the merely
    sufficient conditions (beta > g1/2, a nonempty delta-hat window) only warn,
    since the solver may still converge outside them.
    """
    out: list[Finding] = []
    for name, val in (("alpha", p.alpha), ("beta", p.beta), ("xi", p.xi), ("b", p.b)):
        if not val > 0:
            out.append(Finding(ERROR, "positivity", f"params.{name} must be positive, got {val}"))
    if not (0 < p.f0 <= p.f1):
        out.append(Finding(ERROR, "consumption-bounds", f"need 0 < f0 <= f1, got f0={p.f0}, f1={p.f1}"))
    if not p.g1 > 0:
        out.append(Finding(ERROR, "sensitivity-bound", f"g1 must be positive, got {p.g1}"))
    if not np.all(np.isfinite(p.grad_sigma)):
        out.append(Finding(ERROR, "forcing", f"grad_sigma must be finite, got {p.grad_sigma}"))
    responses = []
    for make in (p.consumption, p.sensitivity):
        try:
            responses.append(make())
        except ValueError as exc:
            out.append(Finding(ERROR, "response-family", str(exc)))

    if out:
        return ValidationReport(tuple(out))
    f, g = responses

    rng = np.random.default_rng(0)
    c_samples = np.concatenate([np.linspace(-100, 100, _SAMPLES // 2), rng.standard_cauchy(_SAMPLES // 2)])
    fvals = f(c_samples)
    if fvals.min() < p.f0 - 1e-12 or fvals.max() > p.f1 + 1e-12:
        out.append(
            Finding(ERROR, "consumption-range", f"sampled f leaves [f0, f1]: [{fvals.min()}, {fvals.max()}]")
        )
    n_samples = rng.standard_cauchy(_SAMPLES)
    gvals = g(n_samples, c_samples)
    if np.abs(gvals).max() > p.g1 + 1e-12:
        out.append(Finding(ERROR, "sensitivity-range", f"sampled |g| exceeds g1: {np.abs(gvals).max()}"))

    if p.beta <= p.g1 / 2.0:
        out.append(
            Finding(
                WARNING,
                "beta-margin",
                f"beta={p.beta} <= g1/2={p.g1 / 2}; per-step fixed-point convergence is not covered",
            )
        )
    lo, hi = p.delta_hat_window
    if not lo < hi:
        out.append(
            Finding(
                WARNING,
                "alpha-margin",
                f"no delta-hat in (0, min(1, beta/g1)) satisfies alpha > g1/(4 delta-hat) "
                f"(need alpha > {p.g1 / (4 * min(1.0, p.beta / p.g1)):g}); solver may still run",
            )
        )
    else:
        out.append(
            Finding(INFO, "delta-hat-window", f"admissible delta-hat window: ({lo:g}, {hi:g})")
        )
    return ValidationReport(tuple(out))
