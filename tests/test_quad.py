"""Quadrature layer against closed forms and the independent oracle routes."""

import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import oracles
from bcs.quad import QuadratureError, QuadResult, QuadSpec, integrate_finite


# ---------------------------------------------------------------------------
# finite intervals
# ---------------------------------------------------------------------------

def test_finite_smooth_matches_richardson_oracle():
    f = lambda t: math.exp(-t) * math.cos(3.0 * t)
    r = integrate_finite(f, 0.0, 2.0)
    ref = oracles.midpoint_richardson(f, 0.0, 2.0)
    assert abs(r.value - ref) < 1e-12
    assert r.converged
    assert r.error_estimate < 1e-9


def test_finite_endpoint_singularity_never_evaluated():
    # 1/sqrt(x) on (0, 1] integrates to 2; a node at 0 would raise.
    def f(x):
        assert x > 0.0
        return 1.0 / math.sqrt(x)

    r = integrate_finite(f, 0.0, 1.0)
    assert abs(r.value - 2.0) < 1e-9


def test_finite_interior_singular_point_split():
    c = 0.3
    f = lambda x: 1.0 / math.sqrt(abs(x - c))
    exact = 2.0 * (math.sqrt(c) + math.sqrt(1.0 - c))
    r = integrate_finite(f, 0.0, 1.0, QuadSpec(singular_points=(c,)))
    assert abs(r.value - exact) < 1e-8


def test_finite_nan_aborts_with_abscissa():
    def f(x):
        return math.nan if x > 0.5 else 1.0

    with pytest.raises(QuadratureError, match="NaN at x="):
        integrate_finite(f, 0.0, 1.0)


def test_finite_rejects_empty_interval():
    with pytest.raises(ValueError, match="need a < b"):
        integrate_finite(math.cos, 1.0, 1.0)


def test_finite_budget_exhaustion_reports_nonconverged():
    spec = QuadSpec(abs_tol=1e-14, rel_tol=1e-14, max_evals=210)
    r = integrate_finite(lambda x: math.cos(1000.0 * x), 0.0, 10.0, spec)
    assert not r.converged
    assert r.message.startswith("accuracy not reached")


@given(
    coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=8),
    a=st.floats(-3, 3),
    width=st.floats(0.1, 4),
)
@settings(max_examples=100, deadline=None)
def test_finite_polynomials_near_exact(coeffs, a, width):
    b = a + width

    def poly(x):
        return sum(c * x ** k for k, c in enumerate(coeffs))

    exact = sum(c * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                for k, c in enumerate(coeffs))
    r = integrate_finite(poly, a, b)
    assert abs(r.value - exact) <= 1e-10 + 1e-12 * abs(exact)


def test_spec_validation():
    with pytest.raises(ValueError, match="tolerances must be positive"):
        QuadSpec(abs_tol=0.0)
    with pytest.raises(ValueError, match="minimum panel size"):
        QuadSpec(max_evals=20)


def test_result_validation():
    with pytest.raises(ValueError, match="error_estimate"):
        QuadResult(1.0, -1e-3, 10)
    with pytest.raises(ValueError, match="evaluations"):
        QuadResult(1.0, 0.0, 0)


# ---------------------------------------------------------------------------
# the oracles' tail routes
#
# oracles.mtilde_direct takes its outer tail from fourier_tail's "sin2"
# case: brute_semiinfinite for the plain half and QUADPACK's Fourier
# integral (QAWF) for the cosine half.  Both are pinned here against closed
# forms and the hand-rolled Euler half-period route.
# ---------------------------------------------------------------------------

def test_semiinfinite_algebraic_closed_form():
    assert abs(oracles.brute_semiinfinite(lambda x: x ** -2, 1.0) - 1.0) < 1e-9


def test_semiinfinite_algebraic_matches_brute_oracle():
    f = lambda x: 1.0 / (1.0 + x * x)
    ref = oracles.brute_semiinfinite(f, 0.0)
    qagi, _ = integrate.quad(f, 0.0, math.inf)
    assert abs(ref - math.pi / 2.0) < 1e-9
    assert abs(qagi - ref) < 1e-9


def test_semiinfinite_arcoth_tail_frozen_value():
    def f(k):
        return 0.5 * math.log((k + 1.0) / (k - 1.0)) / k

    ref = oracles.brute_semiinfinite(f, 2.0)
    assert abs(ref - oracles.FROZEN_ARCOTH_TAIL_FROM_2) < 1e-10


def test_semiinfinite_algebraic_large_start():
    # Mass sits at x ~ a; the doubling blocks have to start that wide.
    assert abs(oracles.brute_semiinfinite(lambda x: x ** -2, 100.0) - 0.01) < 1e-11


def test_oscillatory_cos_against_both_oracles():
    amp = lambda x: x ** -2
    qawf = oracles.fourier_tail(amp, 3.0, 2.0, "cos")
    euler = oracles.euler_half_period_tail(amp, 3.0, 2.0, "cos")
    assert abs(qawf - euler) < 1e-9


def test_oscillatory_sin_against_oracle():
    amp = lambda x: 1.0 / (1.0 + x * x)
    qawf = oracles.fourier_tail(amp, 2.0, 1.0, "sin")
    euler = oracles.euler_half_period_tail(amp, 2.0, 1.0, "sin")
    assert abs(qawf - euler) < 1e-9


def test_oscillatory_sin2_against_oracle():
    amp = lambda x: x ** -3
    ref = oracles.fourier_tail(amp, 2.0, 1.0, "sin2")
    euler = oracles.euler_half_period_tail(amp, 2.0, 1.0, "sin2")
    assert abs(ref - euler) < 1e-10
