import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chemoflow.model import (
    ModelParams,
    ResponseSpec,
    make_consumption,
    make_sensitivity,
    validate_params,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=200)
@given(finite_floats)
def test_consumption_families_bounded(c):
    for family in ("constant", "saturating"):
        f = make_consumption(ResponseSpec(family), 0.1, 1.0)
        v = f(c)
        assert 0.1 - 1e-12 <= v <= 1.0 + 1e-12


@settings(max_examples=200)
@given(finite_floats, finite_floats)
def test_sensitivity_families_bounded(n, c):
    for family in ("constant", "saturating"):
        g = make_sensitivity(ResponseSpec(family), 0.5)
        assert abs(g(n, c)) <= 0.5 + 1e-12


def test_dense_sampling_bounds():
    rng = np.random.default_rng(3)
    c = rng.standard_cauchy(100_000)
    n = rng.standard_cauchy(100_000)
    f = ModelParams().consumption()
    g = ModelParams().sensitivity()
    fv = f(c)
    assert fv.min() >= 0.1 - 1e-12 and fv.max() <= 1.0 + 1e-12
    assert np.abs(g(n, c)).max() <= 0.5 + 1e-12


def test_validate_benchmark_clean():
    report = validate_params(ModelParams(alpha=1, beta=1, xi=1, b=1, f0=0.1, f1=1.0, g1=0.5))
    assert report.ok
    assert not report.warnings
    assert any(f.level == "INFO" for f in report.findings)


def test_validate_beta_warning():
    report = validate_params(ModelParams(beta=0.2, g1=1.0))
    assert report.ok  # warning, not error
    assert any(f.code == "beta-margin" for f in report.warnings)


def test_validate_positivity_error():
    report = validate_params(ModelParams(b=0.0))
    assert not report.ok
    assert any("params.b" in f.message for f in report.errors)


def test_validate_alpha_window_warning():
    # g1/(4 alpha) >= min(1, beta/g1) leaves no admissible delta-hat
    report = validate_params(ModelParams(alpha=0.01, beta=1.0, g1=0.5))
    assert any(f.code == "alpha-margin" for f in report.warnings)


def test_validate_collects_all_errors():
    report = validate_params(ModelParams(alpha=-1, b=0, f0=0.5, f1=0.2))
    assert len(report.errors) >= 3
