"""Boundary pairing forms in d = 1, 2, their growth fits, and the
weak-coupling boundary energy oracle against the criterion."""

import math
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import j0, j1, zeta

import oracles
from bcs import diagnostics
from bcs.boundary3d import criterion
from bcs.diagnostics import dt_form_d1, dt_form_d1_sweep, dt_form_d2, fit_growth
from bcs.potentials import (ExponentialPotential, GaussianPotential, StepPotential,
                            TabulatedPotential, _radial_measure)
from bcs.quad import QuadratureError, _chebyshev_count, _chebyshev_points, _lagrange, gauss_panels
from bcs.special import j_d

GAUSS1 = GaussianPotential(d=1, a=1.0, ell=1.0)
GAUSS2 = GaussianPotential(d=2, a=1.0, ell=4.0)
GAUSS3 = GaussianPotential(d=3, a=1.0, ell=1.0)


# ---------------------------------------------------------------------------
# d = 1
# ---------------------------------------------------------------------------

def test_dt_d1_frozen_values():
    for T, ref in oracles.FROZEN_DT1.items():
        assert dt_form_d1(GAUSS1, T, 1.0) == pytest.approx(ref, rel=1e-8)


def test_dt_d1_matches_brute_oracle():
    mine = dt_form_d1(GAUSS1, 1e-2, 1.0)
    brute = oracles.dt_d1_brute(GAUSS1.value, GAUSS1.cutoff_radius(), 1e-2, 1.0)
    assert mine == pytest.approx(brute, rel=1e-6)


def _table(d):
    r = np.linspace(0.0, 8.0, 9)
    v = np.exp(-r) * (1.0 + 0.3 * r)
    v[-1] = 0.0
    return TabulatedPotential(d=d, r_values=tuple(r), v_values=tuple(v))


@pytest.mark.parametrize("V", [StepPotential(d=1, a=1.0, R=1.0),
                               ExponentialPotential(d=1, a=1.0, ell=1.0),
                               _table(1)],
                         ids=["step", "exponential", "tabulated"])
def test_dt_d1_matches_brute_oracle_non_gaussian(V):
    mine = dt_form_d1(V, 1e-2, 1.0)
    brute = oracles.dt_d1_brute(V.value, V.cutoff_radius(), 1e-2, 1.0)
    assert mine == pytest.approx(brute, rel=1e-6)


def test_dt_d1_inverse_temperature_fit():
    temps = (1e-2, 1e-3, 1e-4)
    c, dev = fit_growth([dt_form_d1(GAUSS1, T, 1.0) for T in temps],
                        [1.0 / T for T in temps])
    assert c == pytest.approx(oracles.FROZEN_DT1_FIT_C, rel=1e-7)
    assert dev == pytest.approx(oracles.FROZEN_DT1_FIT_DEV, abs=1e-8)
    assert dev < 0.2


@pytest.mark.parametrize("V, vhat", [
    (GAUSS1, lambda k: oracles.gaussian_hat_closed(1.0, 1.0, 1, k)),
    (ExponentialPotential(d=1, a=1.0, ell=1.0),
     lambda k: oracles.exponential_hat_closed(1.0, 1.0, 1, k)),
    (StepPotential(d=1, a=1.0, R=1.0), lambda k: oracles.step_hat_closed(1.0, 1.0, 1, k)),
    (_table(1), oracles.table_hat(np.array(_table(1).r_values),
                                  np.array(_table(1).v_values), 1))],
    ids=["gaussian", "exponential", "step", "tabulated"])
def test_dt_d1_growth_constant(V, vhat):
    # T dt_form_d1 -> C1 = 2 Vhat(0) w^2 I / (4 sqrt(mu)) with I = 28 zeta(3)
    # / pi^2 and w = sqrt(pi/2) (Vhat(0) + Vhat(2 sqrt(mu))) / pi, the d = 1
    # transforms taken from the oracles.  The deviation is linear in T/mu
    # (measured +1.8e-4, -6.6e-4, +2.2e-4 and -1.1e-3 at 1e-3), so it must
    # stay below 2 T/mu and fall tenfold from 1e-3 to 1e-4.  About 0.25 s for the four.
    mu = 1.0
    k_f = math.sqrt(mu)
    w = math.sqrt(math.pi / 2.0) * (vhat(0.0) + vhat(2.0 * k_f)) / math.pi
    c1 = 2.0 * vhat(0.0) * w * w * (28.0 * zeta(3.0) / math.pi ** 2) / (4.0 * k_f)
    dev = {t: t * mu * dt_form_d1(V, t * mu, mu) / c1 - 1.0 for t in (1e-3, 1e-4)}
    assert all(abs(d) <= 2.0 * t for t, d in dev.items()), dev
    assert dev[1e-3] / dev[1e-4] == pytest.approx(10.0, rel=0.05), dev


def test_dt_d1_wrong_dimension_rejected():
    with pytest.raises(ValueError, match="needs a d=1"):
        dt_form_d1(GAUSS3, 1e-2, 1.0)


def test_dt_d1_zero_potential_vanishes():
    assert dt_form_d1(GaussianPotential(d=1, a=0.0), 1e-2, 1.0) == 0.0


def test_dt_d1_rejects_uncertified_integral(monkeypatch):
    # The step's transform decays like 1/p, so its tail bound needs octaves
    # out to p ~ 700; a cap at p rc = 4 stops it after the first.
    monkeypatch.setattr(diagnostics, "_MAX_P_RC", 4.0)
    with pytest.raises(QuadratureError, match="tail bound still above tolerance"):
        dt_form_d1(StepPotential(d=1, a=1.0, R=1.0), 1e-2, 1.0)


D1_KINDS = pytest.mark.parametrize(
    "V", [GAUSS1, StepPotential(d=1, a=1.0, R=1.0), ExponentialPotential(d=1, a=1.0, ell=1.0),
          _table(1)], ids=["gaussian", "step", "exponential", "tabulated"])


@D1_KINDS
@pytest.mark.parametrize("mu", [1.0, 0.3])
def test_dt_d1_sweep_equals_lone_calls(V, mu):
    # One octave ladder serves the whole sweep, and each T stops at its own
    # octave: every value is the lone call's, bit for bit, for an unsorted
    # list whose temperatures stop at different octaves.
    temps = [1e-2 * mu, 0.3 * mu, 1e-4 * mu, 2e-3 * mu]
    assert dt_form_d1_sweep(V, temps, mu) == [dt_form_d1(V, T, mu) for T in temps]


def test_dt_d1_sweep_raises_the_lone_calls_error(monkeypatch):
    # Under the cap of test_dt_d1_rejects_uncertified_integral the sweep
    # raises what a lone call at any of its temperatures raises.
    V = StepPotential(d=1, a=1.0, R=1.0)
    monkeypatch.setattr(diagnostics, "_MAX_P_RC", 4.0)
    temps = [1e-1, 1e-2, 1e-3]
    errors = []
    for call in [lambda: dt_form_d1_sweep(V, temps, 1.0)] + [
            lambda T=T: dt_form_d1(V, T, 1.0) for T in temps]:
        with pytest.raises(QuadratureError) as exc:
            call()
        errors.append(str(exc.value))
    assert errors == ["dt_form_d1 tail bound still above tolerance at p = 5.65685"] * 4


def test_dt_d1_overflow_at_tiny_temperature_is_an_error():
    # T dt_form_d1 holds 0.1795246546087536 from T = 1e-16 down to 1e-154;
    # below, (B_T w)^2 overflows, and the form raises instead of returning
    # inf behind a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 1e-150 * dt_form_d1(GAUSS1, 1e-150, 1.0) == pytest.approx(
            0.1795246546087536, rel=1e-14)
        with pytest.raises(QuadratureError,
                           match=r"^dt_form_d1: \(B_T w\)\^2 overflows at T = 1e-160$"):
            dt_form_d1(GAUSS1, 1e-160, 1.0)
        with pytest.raises(QuadratureError, match="overflows at T = 1e-160"):
            dt_form_d1_sweep(GAUSS1, [1e-2, 1e-160], 1.0)


@pytest.mark.parametrize("V, t_factors",
                         [(GAUSS1, (1e-1, 1e-2, 1e-3)),
                          (StepPotential(d=1, a=1.0, R=1.0), (1e-1, 1e-2, 1e-3)),
                          (ExponentialPotential(d=1, a=1.0, ell=1.0), (1e-2, 1e-3)),
                          (_table(1), (1e-1, 1e-2, 1e-3))],
                         ids=["gaussian", "step", "exponential", "tabulated"])
def test_dt_d1_tail_tolerance_holds(monkeypatch, V, t_factors):
    # The tail bound at _TAIL_TOL leaves every form within 1e-12 of its
    # value with the tail taken to 1e-15 (measured at most 3.8e-14), while
    # a bound at 1e-9 moves each by 2.3e-12 or more.  The exponential at
    # T = 0.1 is left out: its 1e-15 tail alone costs 0.4 s.
    forms = [dt_form_d1(V, t, 1.0) for t in t_factors]
    monkeypatch.setattr(diagnostics, "_TAIL_TOL", 1e-15)
    refs = [dt_form_d1(V, t, 1.0) for t in t_factors]
    monkeypatch.setattr(diagnostics, "_TAIL_TOL", 1e-9)
    for t, form, ref in zip(t_factors, forms, refs):
        assert form == pytest.approx(ref, rel=1e-12, abs=0.0), t
        assert dt_form_d1(V, t, 1.0) != pytest.approx(ref, rel=1e-12, abs=0.0), t


# ---------------------------------------------------------------------------
# d = 2
# ---------------------------------------------------------------------------

def test_dt_d2_frozen_values_wide_range():
    for T, ref in oracles.FROZEN_DT2_L4.items():
        assert dt_form_d2(GAUSS2, T, 1.0) == pytest.approx(ref, rel=1e-7)


def test_dt_d2_unit_range_frozen_value():
    V = GaussianPotential(d=2, a=1.0, ell=1.0)
    assert dt_form_d2(V, 1e-2, 1.0) == pytest.approx(
        oracles.FROZEN_DT2_L1_T1E2, rel=1e-8)


def test_dt_d2_log_cubed_ratios():
    for T, ref in oracles.FROZEN_DT2_L4_RATIOS.items():
        got = dt_form_d2(GAUSS2, T, 1.0) / math.log(1.0 / T) ** 3
        assert got == pytest.approx(ref, rel=1e-7)


def test_dt_d2_gaussian_matches_direct_sum():
    vhat, vj2 = oracles.gaussian_d2_transforms(1.0, 1.0)
    ref = oracles.dt_d2_direct(vhat, vj2, 1e-2, 1.0, fermi_width=0.02,
                               p_max=12.0, tail_width=0.5)
    V = GaussianPotential(d=2, a=1.0, ell=1.0)
    assert dt_form_d2(V, 1e-2, 1.0) == pytest.approx(ref, rel=1e-7)


@pytest.fixture(scope="module")
def step2_direct():
    """The unit step's d = 2 form at T = 0.1 as a direct sum to p = 120."""
    vhat, vj2 = oracles.step_d2_transforms(1.0, 1.0, 1.0)
    return oracles.dt_d2_direct(vhat, vj2, 0.1, 1.0, fermi_width=0.05,
                                p_max=120.0, tail_width=1.0)


def test_dt_d2_step_matches_direct_sum(step2_direct):
    # The step's transforms decay like powers of k, so this also checks
    # that the momentum cutoff leaves a negligible tail.
    V = StepPotential(d=2, a=1.0, R=1.0)
    assert dt_form_d2(V, 0.1, 1.0) == pytest.approx(step2_direct, rel=1e-7)


def test_dt_d2_half_sized_chebyshev_grid_leaves_the_direct_sum(monkeypatch, step2_direct):
    # Half the Chebyshev points the interpolation bound asks for (4 pieces
    # of 16 instead of 4 of 33) move the step's form off its direct sum by
    # 5.5e-7, more than 1e-7; the full grid is 7.3e-9 off.
    # The grid is built with the tables, so they are built afresh, uncached.
    V = StepPotential(d=2, a=1.0, R=1.0)
    count = diagnostics._chebyshev_count
    monkeypatch.setattr(diagnostics, "_chebyshev_count", lambda Y, P: count(Y, P) // 2)
    monkeypatch.setattr(diagnostics, "_d2_tables", diagnostics._d2_tables.__wrapped__)
    assert dt_form_d2(V, 0.1, 1.0) != pytest.approx(step2_direct, rel=1e-7)


@pytest.mark.parametrize("mu", [0.01, 1.0])
def test_exponential_d2_transforms_match_quadrature(mu):
    # The closed forms against QUADPACK on [0, 60], where e^(-r/0.8) < 1e-32.
    a, ell, alpha = 1.3, 0.8, math.sqrt(mu)
    vhat, vj2 = oracles.exponential_d2_transforms(a, ell, mu)
    for s in (0.0, 0.05, alpha, 0.37, 2.0, 6.0):
        ref = integrate.quad(lambda r: a * math.exp(-r / ell) * j0(alpha * r) * j0(s * r) * r,
                             0.0, 60.0, limit=400, epsabs=1e-15, epsrel=1e-13)[0]
        assert vj2(s) == pytest.approx(ref, rel=1e-12), s
    for k in (0.0, 0.5, 3.0):
        assert vhat(k) == pytest.approx(oracles.exponential_hat_closed(a, ell, 2, k), rel=1e-14)


def test_dt_d2_exponential_matches_direct_sum_below_its_cutoff():
    # The closed-form transforms of e^-r at mu = 0.01, summed directly up to
    # the library's own momentum cutoff P.  Summed on to p = 20 the direct
    # sum grows by 1.2e-7 of itself: that tail is the cutoff's, not the
    # route's, and this test does not check it.
    V = ExponentialPotential(d=2, a=1.0, ell=1.0)
    P = diagnostics._d2_tables(V, 0.01)[0]
    vhat, vj2 = oracles.exponential_d2_transforms(1.0, 1.0, 0.01)
    ref = oracles.dt_d2_direct(vhat, vj2, 1e-3, 0.01, fermi_width=0.005,
                               p_max=P, tail_width=0.25)
    assert dt_form_d2(V, 1e-3, 0.01) == pytest.approx(ref, rel=1e-10)


@pytest.fixture(scope="module")
def table2_form():
    """The 9-knot d = 2 table, built from tuples, and its form at T = 0.1."""
    V = _table(2)
    return V, dt_form_d2(V, 0.1, 1.0)


def test_dt_d2_tabulated_matches_direct_sum(table2_form):
    # The oracle transforms its own PCHIP interpolant of the samples on
    # Gauss rules between knots; p_max = 12 leaves a tail of about 4e-9.
    V, form = table2_form
    vhat, vj2 = oracles.table_d2_transforms(V.r_values, V.v_values, 1.0)
    ref = oracles.dt_d2_direct(vhat, vj2, 0.1, 1.0, fermi_width=0.1,
                               p_max=12.0, tail_width=1.0)
    assert form == pytest.approx(ref, rel=1e-7)


def test_dt_d2_table_built_from_lists_or_arrays_is_bit_identical(table2_form):
    # Samples are stored as float tuples however they are given, so the
    # tables are equal, hash alike and share one table build.
    V, form = table2_form
    r, v = np.asarray(V.r_values), np.asarray(V.v_values)
    misses = diagnostics._d2_tables.cache_info().misses
    for W in (TabulatedPotential(d=2, r_values=list(r), v_values=list(v)),
              TabulatedPotential(d=2, r_values=r, v_values=v)):
        assert W == V and dt_form_d2(W, 0.1, 1.0) == form
    assert diagnostics._d2_tables.cache_info().misses == misses


# One (V, mu) pair of every kind for the V j2 table tests.
D2_TABLE_CASES = pytest.mark.parametrize(
    "V, mu", [(GaussianPotential(d=2, a=1.0, ell=1.0), 1.0),
              (StepPotential(d=2, a=1.0, R=1.0), 1.0),
              (_table(2), 1.0),
              (ExponentialPotential(d=2, a=1.0, ell=1.0), 0.01),
              (GaussianPotential(d=2), 100.0)],
    ids=["gaussian", "step", "tabulated", "exponential", "gaussian-mu100"])


def _node_values(table):
    """The values f and slopes f' at every node k h that the coefficient table (h, c) of
    _d2_tables was built from: c holds each interval's cubic in t = s / h - k from t^3
    down, so f = c[3] and h f' = c[2] at its left end, and the last node closes the last
    interval at t = 1."""
    h, c = table
    f = np.append(c[3], c[:, -1].sum())
    df = np.append(c[2], 3.0 * c[0, -1] + 2.0 * c[1, -1] + c[2, -1]) / h
    return h, f, df


@D2_TABLE_CASES
def test_dt_d2_vj2_table_matches_position_space_oracle(V, mu):
    # The table's own target: (V j2)^(s) within 1e-9 of its peak over the
    # nodes, at 11 evenly spaced s in [0, P], each certified by the oracle (a
    # warning fails the test).
    P, table = diagnostics._d2_tables(V, mu)[:2]
    peak = np.abs(_node_values(table)[1]).max()
    for s in np.linspace(0.0, P, 11):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = oracles.wd_position_space(V.value, V.cutoff_radius(), 2, s,
                                            math.sqrt(mu), V.breakpoints)
        assert abs(diagnostics._hermite(table, np.array([s]))[0] - ref) <= 1e-9 * peak, s


@D2_TABLE_CASES
def test_dt_d2_vj2_hermite_table_matches_direct_product(V, mu):
    # Midway between the nodes, where the cubic Hermite interpolant is
    # worst, the table is within 1e-9 of its peak of the direct product
    # g @ J0(s r) on a radial measure sized to the table's end.  The slopes
    # it stores match the direct product -(r g) @ J1(s r) at every node,
    # and a fourth-order central difference of the values' product.  Values
    # and slopes are read from the table's coefficients (_node_values).
    table = diagnostics._d2_tables(V, mu)[1]
    h, f, df = _node_values(table)
    r, m = _radial_measure(V, h * (len(f) - 1) + math.sqrt(mu))
    g = m * j_d(r, mu, 2)

    def direct(s, bessel=j0, weights=g):
        return np.concatenate([bessel(np.outer(s[i:i + 256], r)) @ weights
                               for i in range(0, len(s), 256)])

    mid = h * (np.arange(len(f) - 1) + 0.5)
    err = np.abs(diagnostics._hermite(table, mid) - direct(mid)).max()
    assert err <= 1e-9 * np.abs(f).max()
    nodes = h * np.arange(len(f))
    assert np.abs(df - direct(nodes, j1, -r * g)).max() <= 1e-12 * np.abs(df).max()
    k = np.arange(1, len(f) - 1, 7)
    e = 0.25 * h
    slope = (8.0 * (direct(k * h + e) - direct(k * h - e))
             - (direct(k * h + 2 * e) - direct(k * h - 2 * e))) / (12.0 * e)
    assert np.abs(df[k] - slope).max() <= 1e-10 * np.abs(df).max()


@D2_TABLE_CASES
def test_dt_d2_chebyshev_contraction_matches_plain_cosines(V, mu):
    # Every row of the form reaches the transverse rule through the
    # Chebyshev points of the pieces of [0, P]: C @ a, with a the moments
    # sum u T_j(tau) of each piece's q times the matrix C, must equal the plain
    # cosine sum cos(y q) @ u, on an inside row's q grid refined at its Fermi
    # crossing (T/mu = 1e-3) and on the grid the rows outside the circle
    # share.  The grid comes with the tables, read-only, since threads share it.
    P, _, y, _, (k, C, cos_y) = diagnostics._d2_tables(V, mu)
    assert not any(a.flags.writeable for a in (y, C, cos_y))
    n = len(C)
    T, root_mu = 1e-3 * mu, math.sqrt(mu)
    base = diagnostics._PANEL_RC / V.cutoff_radius()
    rng = np.random.default_rng(11)
    for qstar, width in ((0.6 * root_mu, 0.5 * T / (0.6 * root_mu)),
                         (0.0, 0.5 * math.sqrt(T))):
        q = diagnostics._refined_rows(P, base, [qstar], [width])[0]
        u = rng.normal(size=len(q))
        piece, M = diagnostics._moments(q, P, k, u, np.empty((n, len(q))))
        a = np.zeros((k, n))
        np.add.at(a, piece, M.T)
        got = cos_y @ (a @ C).ravel()
        assert np.abs(got - np.cos(np.outer(y, q)) @ u).max() <= 1e-14 * np.abs(u).sum()


def test_dt_d2_moment_recurrence_meets_cosines():
    # The three-term recurrence of _moments holds T_j(tau) = cos(j arccos tau)
    # to within 2 (j^2 + 1) eps at every degree j up to n - 1 (33 points for
    # the step at mu = 1, 66 and 130 beyond): its rounding grows like j^2
    # toward tau = +/-1, measured at most 1.52 j^2 eps, 2.8e-14 at j = 32.
    # Dearer rows meet small Chebyshev coefficients of cos(q y), so the
    # contraction above keeps 1e-14.  The taus are dyadic, so q = (1 + tau)
    # on [0, 2) and 3 + tau on [2, 4] (q = 4 the last piece's end) give them
    # back exactly.
    eps = np.finfo(float).eps
    ends = 1.0 - 2.0 ** -np.arange(1.0, 40.0)
    tau = np.concatenate([np.linspace(-1.0, 1.0, 4097), ends, -ends])
    first = tau[tau < 1.0]
    for n in (33, 66, 130):
        q = np.concatenate([1.0 + first, 3.0 + tau])
        piece, M = diagnostics._moments(q, 4.0, 2, np.ones(len(q)), np.empty((n, len(q))))
        assert piece.tolist() == [0] * len(first) + [1] * len(tau)
        j = np.arange(n)
        ref = np.cos(j[:, None] * np.arccos(np.concatenate([first, tau])))
        err = np.abs(M - ref).max(axis=1)
        assert np.all(err <= 2.0 * (j * j + 1.0) * eps), (n, (err / (j * j + 1.0) / eps).max())


def test_dt_d2_moment_weights_are_lagrange_rows():
    # C's columns are the pieces' Lagrange polynomials in the T_j basis: a q
    # on a Chebyshev point of its piece gets that point's unit row to within
    # 1e-14 (the barycentric route needed a branch for this exact hit), and
    # every row sums to 1.
    y, P = np.linspace(0.0, 6.0, 40), 11.0
    k, C, cos_y = diagnostics._chebyshev_grid(y, P)
    n = len(C)
    assert (k, n) == (4, 33)
    xi = _chebyshev_points(n, P / k)[0]
    q = np.array([xi[0], (P / k) + xi[8], 2.0 * (P / k) + xi[22], 0.37, 5.5, P])
    piece, M = diagnostics._moments(q, P, k, np.ones(len(q)), np.empty((n, len(q))))
    L = M.T @ C
    assert piece.tolist() == [0, 1, 2, 0, 2, 3]
    eye = np.eye(n)
    for j, l in ((0, 0), (1, 8), (2, 22)):
        assert np.abs(L[j] - eye[l]).max() <= 1e-14
    assert np.abs(L.sum(axis=1) - 1.0).max() <= 1e-14
    for j in range(len(q)):
        own = cos_y[:, piece[j] * n:(piece[j] + 1) * n]
        assert np.abs(own @ L[j] - np.cos(y * q[j])).max() <= 1e-14


@D2_TABLE_CASES
def test_dt_d2_row_rules_match_per_row_layout(V, mu):
    # The rows laid back to back are, bit for bit, the per-row layout of
    # oracles.refined_row_rule: the p1 rule, every inside row's q rule and
    # the rows' shared outside rule at T/mu = 0.1 and 1e-3, and rows whose
    # width is below the 1e-14 P floor, centred at 0 and at P.
    P = diagnostics._d2_tables(V, mu)[0]
    base = diagnostics._PANEL_RC / V.cutoff_radius()
    root_mu = math.sqrt(mu)
    cases = [([0.0, 0.3 * root_mu, root_mu, P], [1e-30, 0.0, 1e-15 * P, 0.5 * 1e-14 * P])]
    for T in (0.1 * mu, 1e-3 * mu):
        p1 = diagnostics._refined_rows(P, base, [root_mu], [0.25 * T / root_mu])[0]
        qstar = [math.sqrt(mu - p * p) for p in p1 if p * p < mu]
        cases += [([root_mu], [0.25 * T / root_mu]), ([0.0], [0.5 * T / math.sqrt(T)]),
                  (qstar, [0.5 * T / max(c, math.sqrt(T)) for c in qstar])]
    for centers, widths in cases:
        x, w, counts = diagnostics._refined_rows(P, base, centers, widths)
        ref = [oracles.refined_row_rule(P, base, c, h) for c, h in zip(centers, widths)]
        assert counts.tolist() == [len(r[0]) for r in ref]
        assert np.array_equal(x, np.concatenate([r[0] for r in ref]))
        assert np.array_equal(w, np.concatenate([r[1] for r in ref]))


@pytest.mark.parametrize("V, mu, cap_mib",
                         [(GaussianPotential(d=2, a=1.0, ell=1.0), 1.0, 6.0),
                          (ExponentialPotential(d=2, a=1.0, ell=1.0), 0.01, 8.0)],
                         ids=["gaussian", "exponential"])
def test_dt_d2_memory_peak_at_low_temperature(V, mu, cap_mib):
    # The inside rows' moments go through one buffer of about 2^18 entries,
    # group by group, and cos(y X) is built with the tables, so one call at
    # T/mu = 1e-3 (tables built first) peaks at 4.2 and 6.4 MiB (4.4 and
    # 5.9 with barycentric Lagrange matrices in the buffer; the moments' C
    # maps all rows at once); with every inside row's Lagrange matrix laid
    # at once it peaked at 71 and 280 MiB on one grid of [0, P].
    diagnostics._d2_tables(V, mu)
    tracemalloc.start()
    try:
        dt_form_d2(V, 1e-3 * mu, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cap_mib * 2.0 ** 20, peak / 2.0 ** 20


def test_panel_width_meets_its_gauss_bound():
    # The bound stated at _PANEL_RC on the 16-point rule's error for
    # e^(ikq) on a panel of half-width h, per unit h, at the top k h =
    # _PANEL_RC: 2.2e-16 at 8, within the library's 1e-16 target; at 10 it
    # is 2.7e-13.  The rule's own error on cos(k h x) over [-1, 1] follows
    # it: 4.2e-16 at 8 (rounding) and 1.3e-13 at 10.
    f = math.factorial
    bound = lambda kh: 2.0 ** 33 * f(16) ** 4 * kh ** 32 / (33 * f(32) ** 3)
    x, w = gauss_panels([-1.0, 1.0])
    error = lambda kh: abs(w @ np.cos(kh * x) - 2.0 * math.sin(kh) / kh)
    assert bound(diagnostics._PANEL_RC) <= 1e-15
    assert error(diagnostics._PANEL_RC) <= 1e-15
    assert bound(10.0) > 1e-15 and error(10.0) > 1e-15


@pytest.mark.parametrize("V", [GAUSS1, StepPotential(d=1, a=1.0, R=1.0),
                               ExponentialPotential(d=1, a=1.0, ell=1.0), _table(1)],
                         ids=["gaussian", "step", "exponential", "tabulated"])
def test_dt_d1_half_panel_width_leaves_the_form(monkeypatch, V):
    # The panel width _PANEL_RC / rc is converged in d = 1 too: halving it
    # moves no form at T/mu = 0.1 or 1e-2 by more than 1e-13 (measured at
    # most 2.5e-16).  The four kinds cost about 0.2 s together.
    temps = (0.1, 1e-2)
    forms = [dt_form_d1(V, T, 1.0) for T in temps]
    monkeypatch.setattr(diagnostics, "_PANEL_RC", 0.5 * diagnostics._PANEL_RC)
    for T, form in zip(temps, forms):
        assert dt_form_d1(V, T, 1.0) == pytest.approx(form, rel=1e-13, abs=0.0), T


@D2_TABLE_CASES
def test_dt_d2_half_panel_width_leaves_the_form(monkeypatch, V, mu):
    # The panel width _PANEL_RC / rc is converged: halving it moves no
    # form at T/mu = 0.1 by more than 1e-13 (measured at most 3.6e-15, the
    # Gaussian at mu = 100).  The five cases cost about 0.15 s together on
    # a 2-core host.
    form = dt_form_d2(V, 0.1 * mu, mu)
    monkeypatch.setattr(diagnostics, "_PANEL_RC", 0.5 * diagnostics._PANEL_RC)
    assert dt_form_d2(V, 0.1 * mu, mu) == pytest.approx(form, rel=1e-13, abs=0.0)


def test_dt_d2_eightfold_panel_width_moves_the_step(monkeypatch):
    # Eight times the width (64 / rc) under-resolves the step's slowly
    # decaying transform: its form moves by 3.5e-11, more than 1e-11.
    V = StepPotential(d=2, a=1.0, R=1.0)
    form = dt_form_d2(V, 0.1, 1.0)
    monkeypatch.setattr(diagnostics, "_PANEL_RC", 8.0 * diagnostics._PANEL_RC)
    assert dt_form_d2(V, 0.1, 1.0) != pytest.approx(form, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("V, mu", [(GaussianPotential(d=2, a=1.0, ell=1.0), 1.0),
                                   (ExponentialPotential(d=2, a=1.0, ell=1.0), 0.01),
                                   (StepPotential(d=2, a=1.0, R=1.0), 1.0),
                                   (_table(2), 1.0)],
                         ids=["gaussian", "exponential", "step", "tabulated"])
def test_line_integrals_match_quadpack(V, mu):
    # U(y) and A(y) against QUADPACK in x (a warning fails the test), near
    # y = 0, mid-range, near the cutoff and one ulp either side of every
    # interior break.  A jump at the cutoff itself (the step's) is checked
    # at 0.99 of it: closer in, U ~ 2 sqrt(R^2 - y^2) inherits the rounding
    # of R / y in the rule's edge arccosh(R / y).
    rc = V.cutoff_radius()
    y = [1e-9, 0.5 * rc, 0.99 * rc]
    for b in V.breakpoints:
        if b < rc:
            y += [np.nextafter(b, 0.0), np.nextafter(b, rc)]
    y = np.sort(y)
    for yi, *got in zip(y, *diagnostics._line_integral(V, mu, y)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = oracles.line_integrals(V.value, rc, yi, mu, V.breakpoints)
        for g, r in zip(got, ref):
            assert abs(g - r) <= max(1e-12 * abs(r), 1e-15), (yi, g, r)


def test_dt_d2_lagrange_row_on_a_chebyshev_point_is_a_unit_row():
    # The barycentric quotient of quad._lagrange, which W's factor takes onto
    # its grids in one piece of [0, P], divides by zero at a q on a
    # Chebyshev point; that q's column must come out as the point's unit
    # column, with no warning.  Elsewhere, q = 0 and q = P included, the
    # columns interpolate cos(y q) from the points.
    y, P = np.linspace(0.0, 6.0, 40), 11.0
    xi, b = _chebyshev_points(_chebyshev_count(y[-1], P), P)
    n = len(xi)
    q = np.array([0.0, xi[0], 0.37, xi[8], 5.5, xi[22], xi[-1], P])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        L = _lagrange(q, xi, b)
    assert L.shape == (n, len(q)) and np.isfinite(L).all()
    eye = np.eye(n)
    for j, l in ((1, 0), (3, 8), (5, 22), (6, n - 1)):
        assert np.array_equal(L[:, j], eye[l])
    assert np.abs(L.sum(axis=0) - 1.0).max() <= 1e-14
    for j in (0, 2, 4, 7):
        assert np.abs(np.cos(np.outer(y, xi)) @ L[:, j] - np.cos(y * q[j])).max() <= 1e-14


@pytest.mark.parametrize("block", [1 << 12, 1 << 22], ids=["small", "large"])
def test_dt_d2_lagrange_block_leaves_the_form_bit_identical(monkeypatch, block):
    # The moment buffer's size only decides which inside rows share a group;
    # each row's moments over its nodes in each piece must not depend on it.
    # At 2^12 entries every group is one row; at 2^22 all rows share one.
    V = StepPotential(d=2, a=1.0, R=1.0)
    form = dt_form_d2(V, 1e-3, 1.0)
    monkeypatch.setattr(diagnostics, "_MOMENT_BLOCK", block)
    assert dt_form_d2(V, 1e-3, 1.0) == form


@pytest.mark.parametrize("offsets, phase",
                         [(np.zeros(1), 0.0), (np.array([-0.3, 0.0, 0.2, 0.45]), 0.0),
                          (np.array([-0.3, 0.0, 0.2, 0.45]), 0.5 * math.pi)],
                         ids=["offset-0", "offsets", "offsets-sine"])
def test_cos_sums_in_place_is_bit_identical(offsets, phase):
    # Weighting the cosines and sines in place gives the products of the
    # form that allocates a fresh array for each, bit for bit, over several
    # blocks and a partial one.
    rng = np.random.default_rng(3)
    z, g = np.sort(rng.uniform(0.0, 30.0, 1500)), rng.normal(size=1500)
    mid = np.sort(rng.uniform(0.0, 12.0, 900))
    o_z = np.outer(offsets, z) - phase
    cos_o, sin_o = np.cos(o_z).T, np.sin(o_z).T
    rows = diagnostics._BLOCK // len(z)
    assert len(mid) > 2 * rows
    ref = []
    for i in range(0, len(mid), rows):
        m_z = np.outer(mid[i:i + rows], z)
        blk = (np.cos(m_z) * g) @ cos_o
        if phase or offsets.any():
            blk -= (np.sin(m_z) * g) @ sin_o
        ref.append(blk)
    got = diagnostics._cos_sums(mid, offsets, z, g, phase)
    assert np.array_equal(got, np.concatenate(ref))


def test_dt_d2_threads_share_one_table_build():
    # Temperatures of one sweep that start together build the tables once;
    # more threads than cores and a short switch interval make a race likely.
    V = GaussianPotential(d=2, a=1.0, ell=1.5)
    diagnostics._d2_tables.cache_clear()
    start = threading.Barrier(3, timeout=60.0)

    def form(T):
        start.wait()
        return dt_form_d2(V, T, 1.0)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            values = list(pool.map(form, (0.08, 0.04, 1e-2), timeout=120.0))
    finally:
        sys.setswitchinterval(interval)
    assert diagnostics._d2_tables.cache_info().misses == 1
    assert values == [dt_form_d2(V, T, 1.0) for T in (0.08, 0.04, 1e-2)]


def test_dt_d2_log_cubed_growth_constant():
    # A cubic in L = ln(mu/T) fitted to the unit Gaussian's form at
    # T = 1e-3 ... 1e-8 leads with C3 = 4 c0 w^2 / (3 pi sqrt(mu)), the
    # constants from closed forms (oracles.gaussian_d2_growth_c3); measured
    # c3 / C3 - 1 = 2.8e-7.  A form 1e-4 too large moves c3 by 1e-4 and
    # fails.  About 0.7 s.
    V, mu = GaussianPotential(d=2, a=1.0, ell=1.0), 1.0
    temps = mu * 10.0 ** -np.arange(3.0, 9.0)
    forms = np.array([dt_form_d2(V, T, mu) for T in temps])
    c3 = oracles.gaussian_d2_growth_c3(1.0, mu)
    fit = lambda f: np.polyfit(np.log(mu / temps), f, 3)[0] / c3 - 1.0
    assert abs(fit(forms)) <= 1e-5, fit(forms)
    assert abs(fit(forms * (1.0 + 1e-4))) > 1e-5


def test_dt_d2_integrand_symmetric_in_transverse_momenta():
    for p1, p2, q2 in [(0.3, 0.7, 1.1), (1.0, 0.1, 2.0), (0.05, 1.4, 0.2)]:
        a = oracles.d2_integrand(GAUSS2, 1e-2, 1.0, p1, p2, q2)
        b = oracles.d2_integrand(GAUSS2, 1e-2, 1.0, p1, q2, p2)
        assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("mu", [1.0, 100.0])
def test_dt_d2_rejects_a_thermal_layer_below_the_rules_floor(mu):
    # _refined_rows floors its widths at 1e-14 P, so below T = 4e-14 P
    # sqrt(mu) (4.4e-13 for the unit Gaussian at mu = 1) the p1 ladder no
    # longer resolves the thermal layer: form / ln(mu/T)^3, 0.0864 at 1e-12
    # and 0.0813 at 1e-16, jumped to 0.366 at 1e-18 and 1,218 at 1e-20,
    # each returned with exit 0 by dt-growth.  Such a T is refused before
    # any rule is laid, in well under 0.1 s once the tables exist, while
    # T = 1e-8 mu, the lowest the other tests use, keeps its value.
    V = GaussianPotential(d=2, a=1.0, ell=1.0)
    P = diagnostics._d2_tables(V, mu)[0]
    floor = 4e-14 * P * math.sqrt(mu)
    if mu == 1.0:
        assert floor == pytest.approx(4.4e-13, rel=1e-12)
        assert dt_form_d2(V, 1e-8, 1.0) == pytest.approx(596.7530595374463, rel=1e-14)
    for T in (1e-18 * mu, 0.99 * floor):
        start = time.perf_counter()
        with pytest.raises(QuadratureError, match="cannot resolve the thermal layer"):
            dt_form_d2(V, T, mu)
        assert time.perf_counter() - start < 0.1


def test_dt_d2_wrong_dimension_rejected():
    with pytest.raises(ValueError, match="needs a d=2"):
        dt_form_d2(GAUSS3, 1e-2, 1.0)
    with pytest.raises(ValueError, match="needs a d=2"):
        oracles.d2_integrand(GAUSS1, 1e-2, 1.0, 0.1, 0.2, 0.3)


def test_dt_forms_grow_as_temperature_drops():
    v1 = [dt_form_d1(GAUSS1, T, 1.0) for T in (1e-2, 1e-3, 1e-4)]
    assert v1[0] < v1[1] < v1[2]
    v2 = [dt_form_d2(GAUSS2, T, 1.0) for T in (1e-2, 1e-3, 1e-4)]
    assert v2[0] < v2[1] < v2[2]


# ---------------------------------------------------------------------------
# weak-coupling boundary energy, d = 3 (position-space oracle)
# ---------------------------------------------------------------------------

def test_rhs_frozen_term_breakdown():
    for bc, ref in oracles.FROZEN_RHS_GAUSSIAN_MU1.items():
        terms = oracles.rhs_weak_coupling_d3(GAUSS3, 1.0, bc)
        for term, val in ref.items():
            assert terms[term] == pytest.approx(val, abs=5e-7), (bc, term)


def test_rhs_total_reproduces_criterion():
    for bc in ("dirichlet", "neumann"):
        total = math.fsum(oracles.rhs_weak_coupling_d3(GAUSS3, 1.0, bc).values())
        ref = criterion(GAUSS3, 1.0, bc).value
        assert total == pytest.approx(ref, rel=1e-4)


def test_rhs_validation():
    with pytest.raises(ValueError, match="needs a d=3"):
        oracles.rhs_weak_coupling_d3(GAUSS2, 1.0, "neumann")
    with pytest.raises(ValueError, match="must be positive"):
        oracles.rhs_weak_coupling_d3(GAUSS3, 0.0, "neumann")


# ---------------------------------------------------------------------------
# growth fits
# ---------------------------------------------------------------------------

@given(
    c=st.floats(0.1, 10.0),
    ts=st.lists(st.floats(1e-5, 0.5), min_size=3, max_size=6, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_fit_growth_recovers_exact_models(c, ts):
    for basis in ([1.0 / t for t in ts], [math.log(1.0 / t) ** 3 for t in ts]):
        fit_c, dev = fit_growth([c * b for b in basis], basis)
        assert fit_c == pytest.approx(c, rel=1e-12)
        assert dev < 1e-10
