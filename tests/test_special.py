"""Special functions against quadrature oracles and known constants."""

import math

import numpy as np
import pytest

import oracles
from bcs.special import j_d, si_cin


def test_si_matches_quadrature_oracle():
    for x in (0.1, 1.0, 2.5, 10.0, 40.0):
        assert abs(si_cin(x)[0] - oracles.si_quadrature(x)) < 1e-11


def test_cin_matches_quadrature_oracle():
    # Straddles the series/Ci-relation switch at x = 0.5.
    for x in (0.01, 0.3, 0.499, 0.501, 1.0, 7.0, 30.0):
        assert abs(si_cin(x)[1] - oracles.cin_quadrature(x)) < 1e-11


def test_cin_small_x_leading_order():
    # Cin(x) = x^2/4 - x^4/96 + ..., a regime where gamma + log - Ci cancels.
    # The x^4 term is about 190 ulps of the value at x = 1e-6.
    x = 1e-6
    assert abs(si_cin(x)[1] - (x * x / 4.0 - x ** 4 / 96.0)) < 1e-30


def test_cin_tiny_x_relative_accuracy_and_array_agreement():
    # The series must stop on the size of a term relative to the sum: an
    # absolute cut returned 0.0 for a scalar 1e-10 but x^2/4 inside an array.
    for x in (1e-12, 1e-10, 2e-9):
        val = si_cin(x)[1]
        assert val == pytest.approx(x * x / 4.0 - x ** 4 / 96.0, rel=1e-15)
        assert si_cin(np.array([x, 0.3]))[1][0] == val


def test_cin_rejects_negative():
    with pytest.raises(ValueError, match="x >= 0"):
        si_cin(-1.0)


def test_j0_matches_power_series_oracle():
    # j_2 at mu = 1 is J0.  The alternating series cancels ~x^2/4 digits, so
    # stop at moderate x.
    for x in (0.0, 0.5, 2.0, 5.0, 8.0):
        assert abs(j_d(x, 1.0, 2) - oracles.j0_power_series(x)) < 5e-13


def test_j0_first_zero():
    z = oracles.first_j0_zero_bisect()
    assert z == oracles.FROZEN_J0_ZERO
    assert abs(j_d(z, 1.0, 2)) < 1e-14


def test_j_d_closed_forms():
    mu, r = 1.7, 0.83
    z = math.sqrt(mu) * r
    c = math.sqrt(2.0 / math.pi)
    assert abs(j_d(r, mu, 1) - c * math.cos(z)) < 1e-15
    assert abs(j_d(r, mu, 2) - oracles.j0_power_series(z)) < 1e-15
    assert abs(j_d(r, mu, 3) - c * math.sin(z) / z) < 1e-15


def test_j_d_origin_values():
    c = math.sqrt(2.0 / math.pi)
    assert j_d(0.0, 2.0, 1) == pytest.approx(c, abs=1e-15)
    assert j_d(0.0, 2.0, 2) == 1.0
    assert j_d(0.0, 2.0, 3) == pytest.approx(c, abs=1e-15)


def test_j_d_sinc_series_branch_accuracy():
    # Below the z = 1e-4 switch the series must agree with sin(z)/z, which
    # is still fully accurate in doubles at these arguments.
    c = math.sqrt(2.0 / math.pi)
    for z in (1e-5, 5e-5, 0.99e-4):
        assert abs(j_d(z, 1.0, 3) - c * math.sin(z) / z) < 1e-15


def test_j_d_validation():
    with pytest.raises(ValueError, match="mu must be positive"):
        j_d(1.0, 0.0, 3)
    with pytest.raises(ValueError, match="d must be"):
        j_d(1.0, 1.0, 4)


def test_elementwise_and_scalar_types():
    xs = np.array([0.3, 1.0, 4.0])
    assert all(isinstance(v, float) for v in si_cin(1.0))
    assert isinstance(j_d(1.0, 1.0, 2), float)
    assert all(v.shape == xs.shape for v in si_cin(xs))
    assert j_d(xs, 1.0, 3).shape == xs.shape
    np.testing.assert_allclose(
        j_d(xs, 2.0, 2), [j_d(float(x), 2.0, 2) for x in xs], rtol=1e-15)
