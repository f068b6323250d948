"""Special functions against quadrature oracles, known constants and
scipy.special."""

import math

import numpy as np
import pytest
from scipy import special as sp

import oracles
from bcs import special
from bcs.special import bessel_squares, j_d, si_cin


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


@pytest.mark.parametrize("x", [math.nan, math.inf, [0.5, math.nan]])
def test_si_cin_rejects_nan_and_infinity(x):
    # NaN compares false with everything, so a bare x < 0 test let it through.
    with pytest.raises(ValueError, match="x >= 0"):
        si_cin(x)


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
    # _sinc takes the quotient sin(z)/z at every z > 0, with no series
    # branch, so it must stay accurate at small z.
    c = math.sqrt(2.0 / math.pi)
    for z in (1e-5, 5e-5, 0.99e-4):
        assert abs(j_d(z, 1.0, 3) - c * math.sin(z) / z) < 1e-15


# -- j_d on outer products ------------------------------------------------------

_OUTER_K = np.concatenate([[0.0], np.geomspace(1e-8, 1e-3, 5), np.linspace(0.0, 40.0, 201)[1:]])
_OUTER_R = np.concatenate([[0.0], np.geomspace(1e-8, 1e-3, 5), np.linspace(0.0, 10.0, 101)[1:]])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_j_d_outer_matches_scipy(d):
    # j_d on the outer product k r.  The grid holds k = 0 and r = 0, whose
    # row and column take the limits.  scipy's jv(0, .) stands for J0 (its
    # j0 reads 2e-15 off at z = 400).
    z = np.multiply.outer(_OUTER_K, _OUTER_R)
    c = math.sqrt(2.0 / math.pi)
    ref = {1: c * np.cos(z), 2: sp.jv(0, z), 3: c * sp.spherical_jn(0, z)}[d]
    J = j_d(z, 1.0, d)
    assert J.shape == z.shape
    assert np.max(np.abs(J - ref)) <= 1e-15


def test_j_d_validation():
    with pytest.raises(ValueError, match="mu must be positive"):
        j_d(1.0, 0.0, 3)
    with pytest.raises(ValueError, match="d must be"):
        j_d(1.0, 1.0, 4)


def test_elementwise_and_scalar_types():
    xs = np.array([0.3, 1.0, 4.0])
    assert all(isinstance(v, float) for v in si_cin(1.0))
    # A 0-d r gives a float, not a numpy scalar, equal to the one-point
    # array's entry in every d.
    for d in (1, 2, 3):
        for r in (0.0, 0.7, np.float64(30.0), np.array(3.0)):
            assert type(j_d(r, 1.3, d)) is float
            assert j_d(r, 1.3, d) == j_d([r], 1.3, d)[0]
    assert all(v.shape == xs.shape for v in si_cin(xs))
    assert j_d(xs, 1.0, 3).shape == xs.shape
    np.testing.assert_allclose(
        j_d(xs, 2.0, 2), [j_d(float(x), 2.0, 2) for x in xs], rtol=1e-15)


# -- numpy routines against scipy.special -------------------------------------
#
# Each test states its target, puts points at every switch and one ulp to
# either side of it, and shows that an under-sized variant of the routine
# misses the target on the same points.


def _around(points):
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, np.inf)])


def _si_cin_errors():
    """Largest relative errors of Si and Cin on a log grid from 1e-12 to
    1e9, at the series end 2, at the octave ends of the table and at its
    end 64.  Si comes from scipy's sici; so does Cin = gamma + ln x - Ci
    from 1 up, and below 1, where that form cancels, from a 30-point
    Gauss rule of 2 sin^2(xs/2)/s on [0, 1], a smooth positive integrand."""
    x = np.concatenate([np.geomspace(1e-12, 1e9, 2000), _around(2.0 ** np.arange(1, 7)),
                        np.linspace(1.9, 2.1, 41), np.linspace(60.0, 68.0, 41)])
    si_ref, ci = sp.sici(x)
    s, w = np.polynomial.legendre.leggauss(30)
    s, w = 0.5 * (s + 1.0), 0.5 * w
    small = (2.0 * np.sin(0.5 * np.multiply.outer(x, s)) ** 2 / s) @ w
    cin_ref = np.where(x < 1.0, small, np.euler_gamma + np.log(x) - ci)
    si, cin = si_cin(x)
    return np.max(np.abs(si / si_ref - 1.0)), np.max(np.abs(cin / cin_ref - 1.0))


def test_si_cin_relative_accuracy_against_scipy():
    # Target 1e-15 relative on both (reads 4.4e-16 on each).
    assert max(_si_cin_errors()) < 1e-15


def test_si_cin_one_series_term_short_misses_its_target(monkeypatch):
    # Ten terms leave Si 1.2e-15 off just below the series end at 2.
    monkeypatch.setattr(special, "_SI_SERIES", special._SI_SERIES[:-1])
    monkeypatch.setattr(special, "_CIN_SERIES", special._CIN_SERIES[:-1])
    assert max(_si_cin_errors()) > 1e-15


def test_si_cin_one_table_coefficient_short_misses_its_target(monkeypatch):
    # Twelve Chebyshev terms an octave leave Cin 1.1e-15 off near 2.
    monkeypatch.setattr(special, "_SICI_CHEB", special._SICI_CHEB - 1)
    assert max(_si_cin_errors()) > 1e-15


def _j0_error():
    """Largest absolute error of J0 on [0, 1e5]: a fine grid to 60, a log
    grid beyond, the first 40 zeros, and the switch at 25.  The reference
    is scipy's jv(0, x); scipy's j0 reduces x - pi/4 in floating point
    and reads up to 7e-15 off at x ~ 2e4."""
    x = np.concatenate([np.linspace(0.0, 60.0, 6001), np.geomspace(60.0, 1e5, 2000),
                        sp.jn_zeros(0, 40), _around([special._J0_SWITCH])])
    return np.max(np.abs(j_d(x, 1.0, 2) - sp.jv(0, x)))


def test_j0_absolute_accuracy_against_scipy():
    # Target 1e-15 absolute (reads 7.3e-16).
    assert _j0_error() < 1e-15


def test_j0_chebyshev_sum_three_terms_short_misses_its_target(monkeypatch):
    # 27 of the 30 terms leave J0 1e-14 off near x = 3.
    monkeypatch.setattr(special, "_J0_CHEB", special._J0_CHEB - 3)
    assert _j0_error() > 1e-15


def _bessel_square_error(d):
    """Largest absolute error of the squared bases against scipy's jv or
    spherical_jn on a log grid of z in [1e-6, 100]: all l <= 1000, and
    l <= 4 alone, as vmu-spectrum asks, where the recurrence starts from z."""
    z = np.concatenate([np.geomspace(1e-6, 100.0, 120), [1.0, 10.0, 50.0]])
    ell = np.arange(1001)[:, None]
    ref = (sp.jv(ell, z) if d == 2 else sp.spherical_jn(ell, z)) ** 2
    return max(np.max(np.abs(bessel_squares(1000, z, d) - ref)),
               np.max(np.abs(bessel_squares(4, z, d) - ref[:5])))


@pytest.mark.parametrize("d", [2, 3])
def test_bessel_squares_absolute_accuracy_against_scipy(d):
    # Target 1e-15 absolute (reads 3.6e-16 in d = 2, 4.4e-16 in d = 3).
    assert _bessel_square_error(d) < 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_bessel_squares_started_too_low_miss_their_target(monkeypatch, d):
    # Started only 8 orders past max(l_max, z), the recurrence has not
    # forgotten its seed at z = 100: 2e-5 off in d = 2, 2e-7 in d = 3.
    monkeypatch.setattr(special, "_miller_start", lambda ell_max, z_max: int(max(ell_max, z_max)) + 8)
    assert _bessel_square_error(d) > 1e-15
