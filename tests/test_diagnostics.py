"""Boundary pairing forms in d = 1, 2, their growth fits, and the
weak-coupling boundary energy oracle against the criterion."""

import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bcs import diagnostics
from bcs.boundary3d import criterion
from bcs.diagnostics import dt_form_d1, dt_form_d2, fit_growth
from bcs.potentials import (ExponentialPotential, GaussianPotential, StepPotential,
                            TabulatedPotential)
from bcs.quad import QuadratureError

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


def test_dt_d2_step_matches_direct_sum():
    # The step's transforms decay like powers of k, so this also checks
    # that the momentum cutoff leaves a negligible tail.
    vhat, vj2 = oracles.step_d2_transforms(1.0, 1.0, 1.0)
    ref = oracles.dt_d2_direct(vhat, vj2, 0.1, 1.0, fermi_width=0.05,
                               p_max=120.0, tail_width=1.0)
    V = StepPotential(d=2, a=1.0, R=1.0)
    assert dt_form_d2(V, 0.1, 1.0) == pytest.approx(ref, rel=1e-7)


@pytest.mark.parametrize("V, mu", [(GaussianPotential(d=2, a=1.0, ell=1.0), 1.0),
                                   (StepPotential(d=2, a=1.0, R=1.0), 1.0),
                                   (_table(2), 1.0),
                                   (ExponentialPotential(d=2, a=1.0, ell=1.0), 0.01)],
                         ids=["gaussian", "step", "tabulated", "exponential"])
def test_dt_d2_vj2_table_matches_position_space_oracle(V, mu):
    # The table's own target: the spline of (V j2)^(s) within 1e-9 of its peak,
    # at 11 evenly spaced s in [0, P], each certified by the oracle (a warning
    # fails the test).
    P, spline = diagnostics._d2_tables(V, mu)[:2]
    peak = np.abs(spline(spline.x)).max()
    for s in np.linspace(0.0, P, 11):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = oracles.wd_position_space(V.value, V.cutoff_radius(), 2, s,
                                            math.sqrt(mu), V.breakpoints)
        assert abs(spline(s) - ref) <= 1e-9 * peak, s


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


def test_dt_d2_integrand_symmetric_in_transverse_momenta():
    for p1, p2, q2 in [(0.3, 0.7, 1.1), (1.0, 0.1, 2.0), (0.05, 1.4, 0.2)]:
        a = oracles.d2_integrand(GAUSS2, 1e-2, 1.0, p1, p2, q2)
        b = oracles.d2_integrand(GAUSS2, 1e-2, 1.0, p1, q2, p2)
        assert a == pytest.approx(b, rel=1e-12)


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
