"""The reciprocal kernel B_T(p, 0) and the shell integral m_mu of the
library, and the log-space kernels K_T and B_T(p, q) of tests/oracles.py,
which criterion 09 runs on, against their direct textbook forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bcs.kernels import (KernelParams, _fermi_shell_edges, _shell_rule,
                         bt_radial_shifted, m_mu)
from bcs.quad import _subdivide
from oracles import bt, kt, tanh_inequality_gap

finite_args = st.floats(-60.0, 60.0, allow_nan=False)


def test_params_validation():
    with pytest.raises(ValueError, match="T must be positive"):
        KernelParams(T=0.0, mu=1.0)
    with pytest.raises(ValueError, match="mu must be positive"):
        KernelParams(T=1.0, mu=-1.0)


def test_kt_matches_textbook_form():
    # Away from the cancellation line b = -a, where the naive tanh-sum form
    # is itself full precision.
    for a, b in [(0.3, 1.2), (-0.5, 2.0), (4.0, -3.0), (-3.0, -0.1)]:
        assert kt(a, b, 0.7) == pytest.approx(
            oracles.kt_direct(a, b, 0.7), rel=1e-13)


def test_kt_origin_is_exactly_2t():
    for T in (1e-6, 0.01, 1.0, 50.0):
        assert kt(0.0, 0.0, T) == 2.0 * T


def test_kt_cancellation_line_limit():
    # b = -a makes tanh terms cancel; the limit is 2T cosh^2(a/2T).
    T = 0.25
    a = 2.0
    exact = 2.0 * T * math.cosh(a / (2.0 * T)) ** 2
    assert kt(a, -a, T) == pytest.approx(exact, rel=1e-12)
    assert kt(a, -a + 1e-12, T) == pytest.approx(exact, rel=1e-9)


def test_kt_overflow_returns_inf():
    # Deep cancellation at tiny T really is beyond float range.
    assert kt(1e6, -1e6, 1e-3) == math.inf


def test_bt_matches_textbook_form():
    T, mu = 0.3, 1.4
    for p_sq, q_sq, dot in [(1.0, 2.0, 0.5), (0.2, 0.2, -0.1), (9.0, 0.0, 0.0)]:
        a = p_sq + q_sq + 2.0 * dot - mu
        b = p_sq + q_sq - 2.0 * dot - mu
        assert bt(p_sq, q_sq, dot, T, mu) == pytest.approx(
            oracles.bt_direct(a, b, T), rel=1e-13)


def test_bt_is_reciprocal_of_kt():
    T, mu = 0.5, 1.0
    p_sq, q_sq, dot = 2.0, 0.7, -0.9
    a = p_sq + q_sq + 2.0 * dot - mu
    b = p_sq + q_sq - 2.0 * dot - mu
    assert bt(p_sq, q_sq, dot, T, mu) * kt(a, b, T) == pytest.approx(1.0, rel=1e-14)


def test_bt_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        bt(-1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="pq_dot"):
        bt(1.0, 1.0, 1.5, 1.0, 1.0)


def test_bt_radial_series_branch():
    par = KernelParams(T=0.8, mu=1.0)
    assert bt_radial_shifted(0.0, par) == pytest.approx(0.5 / par.T, rel=1e-15)
    # Straddle the series switch at |a/2T| = 1e-6.
    for a in (1e-7, 1.5e-6, -1e-7):
        ref = math.tanh(a / (2.0 * par.T)) / a
        assert bt_radial_shifted(a, par) == pytest.approx(ref, rel=1e-12)
    arr = bt_radial_shifted(np.array([-0.5, 0.0, 0.5]), par)
    assert arr.shape == (3,)
    assert arr[0] == arr[2]  # even in a under tanh(a)/a


def test_bt_radial_quiet_at_tiny_temperature():
    # The log-T solve for the weak-coupling T_c prediction reaches
    # T = 1e-300 mu; squaring every z there overflowed to inf - inf.
    a = np.concatenate([-np.geomspace(1.0, 1e-320, 60), [0.0],
                        np.geomspace(1e-320, 200.0, 60)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = bt_radial_shifted(a, KernelParams(T=1e-300, mu=1.0))
        assert m_mu(KernelParams(T=1e-300, mu=1.0), 3) > 690.0
    assert np.all(np.isfinite(tiny)) and np.all(tiny > 0.0)
    # Elsewhere the values are those of the plain series-or-tanh form.
    for T in (1e-3, 1e-18):
        z = a * (0.5 / T)
        small = np.abs(z) < 1e-6
        with np.errstate(over="ignore", invalid="ignore"):
            direct = np.tanh(np.where(small, 1.0, z)) / np.where(small, 1.0, z)
            z2 = z * z
            series = 1.0 - z2 / 3.0 + 2.0 * z2 * z2 / 15.0
        ref = np.where(small, series, direct) * (0.5 / T)
        assert np.array_equal(bt_radial_shifted(a, KernelParams(T=T, mu=1.0)), ref)


@given(finite_args, finite_args)
@settings(max_examples=300, deadline=None)
def test_kt_symmetric_and_at_least_2t(a, b):
    T = 1.0
    k1, k2 = kt(2.0 * a, 2.0 * b, T), kt(2.0 * b, 2.0 * a, T)
    assert k1 == k2
    assert k1 >= 2.0 * T * (1.0 - 1e-14)


@given(finite_args, finite_args)
@settings(max_examples=300, deadline=None)
def test_tanh_inequality_gap_nonnegative(x, y):
    assert tanh_inequality_gap(x, y) >= -1e-13


def test_tanh_inequality_gap_vanishes_on_diagonal():
    xs = np.array([0.1, 1.0, 3.0])
    np.testing.assert_allclose(tanh_inequality_gap(xs, xs), 0.0, atol=1e-12)


def test_tanh_inequality_gap_just_above_series_cutoff():
    # x + y just above the 1e-4 switch to the sinh series; forming
    # 1 - exp(-2z) directly there lost the gap to -3e-13.
    xs = np.geomspace(4e-5, 1e-3, 2001)
    np.testing.assert_allclose(tanh_inequality_gap(xs, xs), 0.0, atol=1e-14)
    assert tanh_inequality_gap(5.02945697332798e-05, 5.02945697332798e-05) >= -1e-13


def test_fit_kt_sandwich_brackets():
    # Constants with C1 (T + p^2 + q^2) <= K <= C2 (p^2 + q^2 + 1), fitted
    # over physical momenta and T in [T0, 10 T0]; C2 grows like the
    # near-cancellation peak 2T cosh^2(mu/2T) as T0 is lowered.
    p2_grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e2, 40)])
    p2, q2 = p2_grid[:, None], p2_grid[None, :]
    c1, c2 = math.inf, 0.0
    for T in np.geomspace(0.1, 1.0, 5):
        k = kt(p2 - 1.0, q2 - 1.0, float(T))
        ok = np.isfinite(k)
        c1 = min(c1, float(np.min((k / (T + p2 + q2))[ok])))
        c2 = max(c2, float(np.max((k / (p2 + q2 + 1.0))[ok])))
    assert 0.0 < c1 < c2
    T = 0.1
    for p2, q2 in [(0.0, 0.0), (1.0, 3.0), (50.0, 0.2)]:
        k = kt(p2 - 1.0, q2 - 1.0, T)
        assert c1 * (T + p2 + q2) <= k * (1.0 + 1e-12)
        assert k <= c2 * (p2 + q2 + 1.0) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# m_mu
# ---------------------------------------------------------------------------

def test_m_mu_matches_substitution_oracle():
    for d in (1, 2, 3):
        for T in (0.3, 1e-3, 1e-6):
            val = m_mu(KernelParams(T=T, mu=1.7), d)
            ref = oracles.m_mu_substitution(T, 1.7, d)
            assert val == pytest.approx(ref, rel=1e-9)


def test_m_mu_log_asymptotics():
    # mu^(1 - d/2) m_mu -> ln(mu/T) + c_d as T/mu -> 0.
    mu = 1.0
    for d in (1, 2, 3):
        c_d = oracles.FROZEN_MMU_CONSTANTS[d]
        for T in (1e-7, 1e-9, 1e-12, 1e-14, 1e-16):
            val = m_mu(KernelParams(T=T, mu=mu), d)
            assert val - math.log(mu / T) == pytest.approx(c_d, abs=5e-7)


def test_m_mu_scaling_d3():
    # In d = 3 the integral scales as sqrt(mu) at fixed T/mu.
    v1 = m_mu(KernelParams(T=1e-4, mu=1.0), 3)
    v2 = m_mu(KernelParams(T=4e-4, mu=4.0), 3)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-9)


def test_shell_rule_panels_match_linspace_split():
    # quad._subdivide splits every panel at once; the loop over np.linspace
    # is its reference, and the arithmetic is the same, so the edges agree
    # bit for bit.
    def looped(edges, p_edges, width):
        n = np.maximum(1, np.ceil(np.diff(p_edges) / width)).astype(int)
        return np.concatenate([np.linspace(lo, hi, k, endpoint=False)
                               for lo, hi, k in zip(edges[:-1], edges[1:], n)]
                              + [edges[-1:]])

    for T, mu in [(0.5, 1.0), (1e-3, 0.25), (1e-16, 3.7)]:
        a_edges, t_edges = _fermi_shell_edges(T, mu)
        for width in (math.inf, 4.0, 0.3, 4.0 / 36.8):
            for edges, p_edges in [(a_edges, np.sqrt(mu + a_edges))] + \
                    [(e, e) for e in t_edges]:
                counts = np.ceil(np.diff(p_edges) / width)
                assert np.array_equal(_subdivide(edges, counts),
                                      looped(edges, p_edges, width))
            assert math.fsum(_shell_rule(T, mu, width)[1]) == pytest.approx(
                math.sqrt(2.0 * mu), rel=1e-14)


def test_m_mu_validation():
    with pytest.raises(ValueError, match="d must be"):
        m_mu(KernelParams(T=1.0, mu=1.0), 4)
