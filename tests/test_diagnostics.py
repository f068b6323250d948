"""Boundary pairing forms in d = 1, 2, their growth fits, and the
weak-coupling boundary energy oracle against the criterion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bcs import diagnostics
from bcs.boundary3d import criterion
from bcs.diagnostics import GrowthFit, dt_form_d1, dt_form_d2, fit_growth
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


def _table1():
    r = np.linspace(0.0, 8.0, 9)
    v = np.exp(-r) * (1.0 + 0.3 * r)
    v[-1] = 0.0
    return TabulatedPotential(d=1, r_values=tuple(r), v_values=tuple(v))


@pytest.mark.parametrize("V", [StepPotential(d=1, a=1.0, R=1.0),
                               ExponentialPotential(d=1, a=1.0, ell=1.0),
                               _table1()],
                         ids=["step", "exponential", "tabulated"])
def test_dt_d1_matches_brute_oracle_non_gaussian(V):
    mine = dt_form_d1(V, 1e-2, 1.0)
    brute = oracles.dt_d1_brute(V.value, V.cutoff_radius(), 1e-2, 1.0)
    assert mine == pytest.approx(brute, rel=1e-6)


def test_dt_d1_inverse_temperature_fit():
    samples = [(T, dt_form_d1(GAUSS1, T, 1.0)) for T in (1e-2, 1e-3, 1e-4)]
    fit = fit_growth(samples, "inverse_T")
    assert fit.fitted_constant == pytest.approx(oracles.FROZEN_DT1_FIT_C, rel=1e-7)
    assert fit.max_relative_deviation == pytest.approx(
        oracles.FROZEN_DT1_FIT_DEV, abs=1e-8)
    assert fit.max_relative_deviation < 0.2


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
    inv = [(t, c / t) for t in ts]
    fit = fit_growth(inv, "inverse_T")
    assert fit.fitted_constant == pytest.approx(c, rel=1e-12)
    assert fit.max_relative_deviation < 1e-10
    logs = [(t, c * math.log(1.0 / t) ** 3) for t in ts]
    fit = fit_growth(logs, "log_cubed", mu=1.0)
    assert fit.fitted_constant == pytest.approx(c, rel=1e-12)
    assert fit.max_relative_deviation < 1e-10


def test_fit_growth_sorts_samples_by_decreasing_temperature():
    fit = fit_growth([(1e-4, 4e4), (1e-2, 4e2), (1e-3, 4e3)], "inverse_T")
    assert [t for t, _ in fit.samples] == [1e-2, 1e-3, 1e-4]


def test_fit_growth_validation():
    good = [(1e-2, 1.0), (1e-3, 2.0), (1e-4, 3.0)]
    with pytest.raises(ValueError, match="unknown growth model"):
        fit_growth(good, "exponential")
    with pytest.raises(ValueError, match="at least three"):
        fit_growth(good[:2], "inverse_T")
    with pytest.raises(ValueError, match="must be positive"):
        fit_growth([(0.0, 1.0)] + good[:2], "inverse_T")
    with pytest.raises(ValueError, match="must be distinct"):
        fit_growth(good[:2] + [(1e-2, 5.0)], "inverse_T")
    with pytest.raises(ValueError, match="needs its scale mu"):
        fit_growth(good, "log_cubed")
    with pytest.raises(ValueError, match="samples with T < mu"):
        fit_growth(good, "log_cubed", mu=1e-3)


def test_growth_fit_dataclass_validation():
    with pytest.raises(ValueError, match="unknown growth model"):
        GrowthFit(samples=((1e-2, 1.0), (1e-3, 2.0), (1e-4, 3.0)),
                  model="bogus", fitted_constant=1.0,
                  max_relative_deviation=0.0)
    with pytest.raises(ValueError, match="strictly decreasing"):
        GrowthFit(samples=((1e-3, 1.0), (1e-2, 2.0), (1e-4, 3.0)),
                  model="inverse_T", fitted_constant=1.0,
                  max_relative_deviation=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        GrowthFit(samples=((1e-2, 1.0), (1e-3, 2.0), (1e-4, 3.0)),
                  model="inverse_T", fitted_constant=1.0,
                  max_relative_deviation=-0.1)
