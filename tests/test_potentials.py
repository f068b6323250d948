"""Potential models, their transforms, and the Fermi-surface couplings."""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator

import oracles
from bcs.potentials import (
    ExponentialPotential,
    ExtrapolationWarning,
    GaussianPotential,
    StepPotential,
    TabulatedPotential,
    _radial_measure,
    _radial_waves,
    e_mu,
    fourier_hat,
    from_config,
    to_config,
    vmu_spectrum,
)
from bcs.special import j_d


def _tabulated(d=3):
    r = np.linspace(0.0, 12.0, 80)
    v = np.exp(-r) * (1.0 + 0.3 * r)
    v[-1] = 0.0
    return TabulatedPotential(d=d, r_values=tuple(r), v_values=tuple(v))


# ---------------------------------------------------------------------------
# model construction and config round-trips
# ---------------------------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(ValueError, match="d must be"):
        GaussianPotential(d=4)
    with pytest.raises(ValueError, match="ell > 0"):
        GaussianPotential(d=3, ell=0.0)
    with pytest.raises(ValueError, match="ell > 0"):
        ExponentialPotential(d=2, ell=-1.0)
    with pytest.raises(ValueError, match="R > 0"):
        StepPotential(d=1, R=0.0)
    with pytest.raises(ValueError, match="finite amplitude"):
        GaussianPotential(d=3, a=math.inf)
    with pytest.raises(ValueError, match="ell > 0"):
        ExponentialPotential(d=1, ell=math.inf)


def test_constructor_rejects_fields_of_the_wrong_type():
    # d is an integer (Python or numpy) and no bool; every other number is
    # real and no bool; numpy scalars are normalized to Python numbers.
    for bad in (3.7, 3.0, True, "3", None):
        with pytest.raises(TypeError, match="d must be an integer"):
            GaussianPotential(d=bad)
    for kwargs in ({"a": True}, {"a": "1"}, {"ell": None}, {"ell": np.bool_(True)}):
        with pytest.raises(TypeError, match="must be a real number"):
            GaussianPotential(d=3, **kwargs)
    with pytest.raises(TypeError, match="R must be a real number"):
        StepPotential(d=1, R="1")
    V = StepPotential(d=np.int64(2), a=np.float32(0.5), R=np.int32(2))
    assert (type(V.d), type(V.a), type(V.R)) == (int, float, float)
    assert V == StepPotential(2, 0.5, 2.0)
    with pytest.raises(TypeError, match="every sample of r_values"):
        TabulatedPotential(d=3, r_values=(0.0, "1", 2.0, 3.0), v_values=(1.0, 0.5, 0.2, 0.0))
    with pytest.raises(TypeError, match="every sample of v_values"):
        TabulatedPotential(d=3, r_values=(0.0, 1.0, 2.0, 3.0), v_values=(1.0, True, 0.2, 0.0))


def test_zero_amplitude_is_a_valid_potential():
    V = GaussianPotential(d=3, a=0.0)
    assert V.value(1.0) == 0.0
    assert V.is_nonnegative()


def test_tabulated_validation():
    r4 = (0.0, 1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="at least 4 points"):
        TabulatedPotential(d=3, r_values=(0.0, 1.0), v_values=(1.0, 0.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        TabulatedPotential(d=3, r_values=(0.0, 1.0, 1.0, 3.0),
                           v_values=(1.0, 0.5, 0.2, 0.0))
    with pytest.raises(ValueError, match="must be finite"):
        TabulatedPotential(d=3, r_values=r4, v_values=(1.0, 0.5, math.nan, 0.0))
    with pytest.raises(ValueError, match="must be finite"):
        TabulatedPotential(d=3, r_values=(0.0, 1.0, math.nan, 3.0), v_values=(1.0, 0.5, 0.2, 0.0))
    with pytest.raises(ValueError, match="identically zero"):
        TabulatedPotential(d=3, r_values=r4, v_values=(0.0,) * 4)
    with pytest.raises(ValueError, match="has not decayed"):
        TabulatedPotential(d=3, r_values=r4, v_values=(1.0, 0.8, 0.6, 0.5))


def test_tabulated_extrapolation_warns_and_returns_zero():
    V = _tabulated()
    with pytest.warns(ExtrapolationWarning, match="beyond its last node"):
        out = V.value(13.0)
    assert out == 0.0


def test_tabulated_tracks_samples():
    V = _tabulated()
    r = np.asarray(V.r_values)
    np.testing.assert_allclose(V.value(r[:-1]), V.v_values[:-1], rtol=1e-14)
    assert V.is_nonnegative()


def _every_kind_built_several_ways():
    """Each kind from Python numbers and from numpy scalars, and the table
    from tuples, lists and numpy arrays."""
    r = np.linspace(0.0, 8.0, 9)
    v = np.exp(-r) * (1.0 + 0.3 * r)
    v[-1] = 0.0
    return [
        [cls(d, a, length), cls(np.int64(d), *np.array([a, length]))]
        for cls, d, a, length in ((GaussianPotential, 3, 0.7, 1.3),
                                  (ExponentialPotential, 2, -0.2, 0.5),
                                  (StepPotential, 1, 2.0, 0.8))
    ] + [[TabulatedPotential(2, tuple(r.tolist()), tuple(v.tolist())),
          TabulatedPotential(2, list(r), list(v)),
          TabulatedPotential(np.int64(2), r, v)]]


def test_config_round_trip():
    # However it is built, each kind hashes and compares by value, and
    # survives JSON through to_config/from_config.
    for built in _every_kind_built_several_ways():
        assert all(V == built[0] for V in built)
        assert len({hash(V) for V in built}) == 1
        for V in built:
            W = from_config(json.loads(json.dumps(to_config(V))))
            assert type(W) is type(V) and W == V
            assert repr(W) == repr(built[0])


def test_from_config_validation():
    with pytest.raises(ValueError, match="needs a 'kind'"):
        from_config({"d": 3})
    with pytest.raises(ValueError, match="unknown potential kind"):
        from_config({"kind": "yukawa", "d": 3})
    with pytest.raises(ValueError, match="unknown potential kind"):
        from_config({"kind": ["gaussian"], "d": 3})
    with pytest.raises(ValueError, match="unknown potential fields"):
        from_config({"kind": "gaussian", "d": 3, "sigma": 1.0})
    with pytest.raises(ValueError, match="dimension 'd'"):
        from_config({"kind": "gaussian", "a": 1.0})
    # from_config converts nothing: the constructor judges the raw values
    with pytest.raises(TypeError, match="d must be an integer"):
        from_config({"kind": "gaussian", "d": 3.7})
    with pytest.raises(TypeError, match="every sample of v_values"):
        from_config({"kind": "tabulated", "d": 1, "r_values": [0, 1, 2, 3],
                     "v_values": [1, "0.5", 0.2, 0]})


# ---------------------------------------------------------------------------
# transforms and moments
# ---------------------------------------------------------------------------

def test_gaussian_hat_closed_form_all_d():
    for d in (1, 2, 3):
        V = GaussianPotential(d=d, a=0.7, ell=1.3)
        for k in (0.0, 0.3, 1.0, 2.7, 6.0):
            ref = oracles.gaussian_hat_closed(0.7, 1.3, d, k)
            assert abs(fourier_hat(V, k) - ref) < 1e-13


def test_step_hat_closed_form_d3():
    # (2/pi)^(1/2) a (sin kR - kR cos kR) / k^3
    V = StepPotential(d=3, a=1.5, R=0.9)
    for k in (0.4, 1.0, 3.0):
        x = k * V.R
        ref = math.sqrt(2.0 / math.pi) * V.a * (math.sin(x) - x * math.cos(x)) / k ** 3
        assert abs(fourier_hat(V, k) - ref) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dense_table_transforms_track_closed_forms(d):
    # 3,000 samples: every interior knot is a breakpoint of the fixed radial
    # rule, but far more than adaptive quadrature may take as singular points.
    r = np.linspace(0.0, 7.0, 3000)
    v = np.exp(-r * r)
    v[-1] = 0.0
    V = TabulatedPotential(d=d, r_values=tuple(r), v_values=tuple(v))
    assert len(V.breakpoints) == 2998
    G = GaussianPotential(d=d, a=1.0, ell=1.0)
    for k in (0.0, 1.0, 3.0):
        assert fourier_hat(V, k) == pytest.approx(
            oracles.gaussian_hat_closed(1.0, 1.0, d, k), rel=1e-6)
    assert e_mu(V, 1.3) == pytest.approx(e_mu(G, 1.3), rel=1e-6)


def test_hat_small_k_taylor_branch_d3():
    V = ExponentialPotential(d=3, a=1.0, ell=1.0)
    m0 = oracles.moment_position_space(V.value, V.cutoff_radius(), 3, 0)
    assert abs(fourier_hat(V, 0.0) - m0 / (2.0 * math.pi) ** 1.5) < 1e-13
    # sin(kr)/(kr) is exact at small k * cutoff, so the transform stays
    # continuous across k * cutoff = 1e-3.
    rc = V.cutoff_radius()
    k_lo, k_hi = 0.99e-3 / rc, 1.01e-3 / rc
    assert abs(fourier_hat(V, k_lo) - fourier_hat(V, k_hi)) < 1e-9


def test_hat_rejects_negative_k():
    with pytest.raises(ValueError, match="k must be nonnegative"):
        fourier_hat(GaussianPotential(d=3), -0.1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hat_keeps_the_shape_of_k(d):
    V = GaussianPotential(d=d)
    assert isinstance(fourier_hat(V, 0.5), float)
    assert fourier_hat(V, np.array([])).shape == (0,)
    grid = fourier_hat(V, np.full((2, 3), 0.5))
    assert grid.shape == (2, 3) and np.allclose(grid, fourier_hat(V, 0.5), rtol=1e-14, atol=0.0)


@given(st.integers(1, 3), st.floats(0.2, 3.0), st.floats(0.3, 2.0))
@settings(max_examples=60, deadline=None)
def test_hat_at_zero_is_scaled_moment(d, a, ell):
    # Vhat(0) = (2 pi)^(-d/2) * integral of V over R^d = a (ell / sqrt 2)^d.
    V = GaussianPotential(d=d, a=a, ell=ell)
    ref = a * (ell / math.sqrt(2.0)) ** d
    assert abs(fourier_hat(V, 0.0) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_moments_closed_forms():
    # (2 pi)^(d/2) Vhat(0) is the integral of V over R^d:
    # 4 pi int r^2 e^{-r^2} = pi^(3/2), and a pi R^2 for the d = 2 step.
    V = GaussianPotential(d=3, a=1.0, ell=1.0)
    assert abs((2.0 * math.pi) ** 1.5 * fourier_hat(V, 0.0) - math.pi ** 1.5) < 1e-12
    W = StepPotential(d=2, a=2.0, R=1.5)
    assert abs(2.0 * math.pi * fourier_hat(W, 0.0) - math.pi * W.a * W.R ** 2) < 1e-12


# ---------------------------------------------------------------------------
# Fermi-surface couplings
# ---------------------------------------------------------------------------

def test_e_mu_two_routes_agree():
    # Position-side dot product against the oracle's Fermi-sphere average
    # of the closed-form Vhat.
    for d, mu in ((1, 1.0), (2, 1.3), (3, 0.7), (3, 2.0)):
        V = GaussianPotential(d=d, a=1.0, ell=1.0)
        vhat = functools.partial(oracles.gaussian_hat_closed, 1.0, 1.0, d)
        assert abs(e_mu(V, mu) - oracles.e_mu_sphere_average(vhat, d, mu)) < 1e-9


def test_e_mu_d1_closed_form():
    # j_1^2 averages to (1 + cos(2 sqrt(mu) r))/pi, so e_mu collapses to
    # (Vhat(0) + Vhat(2 sqrt(mu))) / sqrt(2 pi).
    V = ExponentialPotential(d=1, a=0.8, ell=1.2)
    mu = 1.6
    ref = (fourier_hat(V, 0.0) + fourier_hat(V, 2.0 * math.sqrt(mu))) / math.sqrt(2.0 * math.pi)
    assert abs(e_mu(V, mu) - ref) < 1e-11


def test_e_mu_validation():
    with pytest.raises(ValueError, match="mu must be positive"):
        e_mu(GaussianPotential(d=3), 0.0)
    with pytest.raises(ValueError, match="mu must be positive"):
        oracles.e_mu_sphere_average(
            functools.partial(oracles.gaussian_hat_closed, 1.0, 1.0, 3), 3, -1.0)


def test_vmu_spectrum_matches_addition_theorem_oracle():
    for d in (2, 3):
        for V in (GaussianPotential(d=d, a=1.0, ell=1.0),
                  StepPotential(d=d, a=1.0, R=1.0),
                  ExponentialPotential(d=d, a=1.0, ell=1.0)):
            rc = V.cutoff_radius()
            spec = vmu_spectrum(V, 1.3, 3)
            for ell in range(4):
                ref = oracles.vmu_position_space(V.value, rc, d, 1.3, ell)
                assert abs(spec[ell] - ref) < 1e-9


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tabulated_transforms_match_knot_aware_oracle(d):
    # The oracle integrates its own PCHIP interpolant of the samples with
    # QUADPACK broken at every knot, where the interpolant has its kinks.
    V = _tabulated(d)
    r, v = np.asarray(V.r_values), np.asarray(V.v_values)
    interp = PchipInterpolator(r, v)
    value = lambda x: float(interp(x))
    rc, knots = float(r[-1]), r[1:-1]
    m0 = oracles.moment_position_space(value, rc, d, 0, knots)
    assert abs(fourier_hat(V, 0.0) - m0 / (2.0 * math.pi) ** (d / 2.0)) < 1e-12
    mu = 1.3
    ref = oracles.wd_position_space(value, rc, d, math.sqrt(mu), math.sqrt(mu), knots)
    assert abs(e_mu(V, mu) - ref) < 1e-12
    if d > 1:
        spec = vmu_spectrum(V, mu, 3)
        for ell in range(4):
            ref = oracles.vmu_position_space(value, rc, d, mu, ell, knots)
            assert abs(spec[ell] - ref) < 1e-12


def test_vmu_spectrum_head_is_e_mu():
    V = StepPotential(d=3, a=1.0, R=1.0)
    spec = vmu_spectrum(V, 1.0, 2)
    assert abs(spec[0] - e_mu(V, 1.0)) < 1e-10


def test_vmu_spectrum_validation():
    V2 = GaussianPotential(d=2)
    with pytest.raises(ValueError, match="no angular harmonics"):
        vmu_spectrum(GaussianPotential(d=1), 1.0, 2)
    with pytest.raises(ValueError, match="mu must be positive"):
        vmu_spectrum(V2, 0.0, 2)
    with pytest.raises(ValueError, match="ell_max"):
        vmu_spectrum(V2, 1.0, -1)


# ---------------------------------------------------------------------------
# J = j_d(k r) on the radial rule, written in place over the product k r
# ---------------------------------------------------------------------------

# Every entry within _WAVES_C eps (1 + |k r|) of j_d on the exact product
# k r; the measured worst is 0.6 in d = 1 and 1.3 in d = 3 (the step; sin
# divided by k and then by r), and j_d on the rounded product reads 0.6 and
# 0.9.  The |k r| term is the rounding of the argument, which every route
# has: ulp(960) = 1.1e-13.
_WAVES_C = 4.0


def _waves_case(kind, d):
    """A potential of each kind, and k from 0 (the d = 3 limit) through
    1e-8 to the k_max that puts |k r| near 1,000 at the cutoff."""
    V = {"gaussian": GaussianPotential(d=d), "exponential": ExponentialPotential(d=d),
         "step": StepPotential(d=d), "tabulated": _tabulated(d)}[kind]
    k_max = 1000.0 / V.cutoff_radius()
    return V, np.concatenate([[0.0, 1e-8, 1e-3], np.linspace(0.0, k_max, 101)[1:]]), k_max


def _waves_error(J, k, r, d):
    """max |J - j_d(k r)| / (eps (1 + |k r|)), j_d from sinl / cosl on the
    long-double product k r."""
    kr = np.multiply.outer(np.asarray(k, np.longdouble), np.asarray(r, np.longdouble))
    c = np.sqrt(np.longdouble(2.0) / np.longdouble(math.pi))
    if d == 1:
        ref = c * np.cos(kr)
    else:
        with np.errstate(invalid="ignore"):
            ref = np.where(kr == 0.0, c, c * np.sin(kr) / kr)
    return float(np.max(np.abs(J - ref) / (np.finfo(float).eps * (1.0 + kr))))


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("kind", ["gaussian", "exponential", "step", "tabulated"])
def test_radial_waves_within_the_argument_rounding(kind, d):
    # The k = 0 row, the first panel's nodes (the lowest below 2e-3) and
    # |k r| up to 1,000, on the rule and masses of _radial_measure; j_d on
    # the rounded product k r meets the same bound.
    V, k, k_max = _waves_case(kind, d)
    J, m = _radial_waves(V, k, k_max)
    r, m_rule = _radial_measure(V, k_max)
    assert np.array_equal(m, m_rule) and J.shape == (len(k), len(r))
    assert r[0] < 1e-2 and np.max(np.multiply.outer(k, r)) > 990.0
    assert _waves_error(J, k, r, d) <= _WAVES_C
    assert _waves_error(j_d(np.multiply.outer(k, r), 1.0, d), k, r, d) <= _WAVES_C


@pytest.mark.parametrize("kind", ["gaussian", "exponential", "step", "tabulated"])
def test_radial_waves_d2_is_j_d_on_the_product(kind):
    # In d = 2 J is J0 of the outer product k r, the k = 0 row included,
    # bit for bit.
    V, k, k_max = _waves_case(kind, 2)
    J, m = _radial_waves(V, k, k_max)
    r = _radial_measure(V, k_max)[0]
    assert np.array_equal(J, j_d(np.multiply.outer(k, r), 1.0, 2))


@pytest.mark.parametrize("V, shape", [
    (GaussianPotential(d=3), (3180, 320)), (ExponentialPotential(d=1), (3180, 1920)),
    (GaussianPotential(d=2), (3180, 320))],
    ids=["chain", "exponential1", "gaussian2"])
def test_radial_waves_allocate_no_second_matrix(V, shape):
    # The chain's J (the unit Gaussian in d = 3, k to 2 p_max = 26) and the
    # exponential's in d = 1: sin or cos written over the product k r, with
    # only vectors beside it (peaks read 1.02 and 1.00 J).  The Gaussian's
    # in d = 2 is J0 written over the product, a block of 16,384 points at
    # a time (reads 1.14 J).  The build may add a quarter.
    k = np.linspace(0.0, 13.0, shape[0])
    _radial_waves(V, k[:2], 26.0)  # Gauss-Legendre nodes are cached on first use
    tracemalloc.start()
    try:
        J, m = _radial_waves(V, k, 26.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert J.shape == shape
    assert peak <= 1.25 * J.nbytes
