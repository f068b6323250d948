"""Half-space boundary terms t_1..t_4, the profile m_3, and the criterion."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import oracles
from bcs import boundary3d, special
from bcs.boundary3d import (
    TABLE1_REFERENCE,
    _TERM_SIGNS,
    _criterion_rule,
    _term_sums,
    criterion,
    criterion_sweep,
    derivatives_at_zero,
    m3,
    m3_profile,
    normalize_bc,
    t1,
    t2,
    t3,
    t4,
    table1_values,
)
from bcs.potentials import (
    ExponentialPotential,
    GaussianPotential,
    StepPotential,
    TabulatedPotential,
    _radial_measure,
)
from bcs.special import si_cin


def test_t1_frozen_high_precision_values():
    for x, ref in oracles.FROZEN_T1.items():
        assert t1(x) == pytest.approx(ref, abs=2e-12)


def test_t4_frozen_high_precision_values():
    for x, ref in oracles.FROZEN_T4.items():
        assert t4(x) == pytest.approx(ref, abs=2e-12)


def test_t4_sphere_product_oracle():
    # Entirely different route: double integral over two sphere polar angles.
    for x in (0.5, 1.0, 3.0):
        assert t4(x) == pytest.approx(oracles.t4_sphere_product(x), abs=1e-9)


# 250 points: crosses the block boundaries of t1's rule, both switches
# between the rule and the envelope table (x = 1/4 and 2^30), those of
# si_cin (x = 2 and 64) and the ends of every table octave, and spans 0 to
# large x.
_OCTAVE_EDGES = 2.0 ** np.arange(-2, 32)
_XS = np.concatenate([[0.0, 1e-300, 1e-12, 1e-7], np.geomspace(1e-5, 1.0, 40),
                      np.linspace(0.05, 30.0, 100), [100.0, 1e3, 1e6, 1e9],
                      _OCTAVE_EDGES, np.nextafter(_OCTAVE_EDGES, 0.0),
                      np.nextafter(_OCTAVE_EDGES, np.inf)])


def test_terms_and_profiles_elementwise_equal_scalar_calls():
    # The array calls come first and build their table octaves at once,
    # the one-point calls after them read those tables.
    special._laplace_octave.cache_clear()
    si, cin = si_cin(_XS)
    for f in (t1, t2, t3, t4):
        assert f(_XS).tolist() == [f(float(x)) for x in _XS], f.__name__
        assert type(f(1.0)) is float
    assert list(zip(si.tolist(), cin.tolist())) == [si_cin(float(x)) for x in _XS]
    for bc in ("dirichlet", "neumann"):
        assert m3(_XS, bc).tolist() == [m3(float(x), bc) for x in _XS]
    assert m3(_XS[:6].reshape(2, 3), "neumann").shape == (2, 3)


def _table_check_points():
    """Both ends of every octave [2^j, 2^(j+1)) from 1/4 to 4096 and the
    midpoints between its 12 Chebyshev nodes in log2 x, where the
    envelope table's interpolation error peaks."""
    theta = (np.arange(12) + 0.5) * math.pi / 12
    cells = np.concatenate(([-1.0], np.cos(0.5 * (theta[1:] + theta[:-1]))))
    xs = [2.0 ** (j + 0.5 * (cells + 1.0)) for j in range(-2, 12)]
    edges = 2.0 ** np.arange(-1, 13)
    return np.concatenate(xs + [np.nextafter(edges, 0.0)])


def test_t1_table_between_its_nodes_matches_turned_path_oracle():
    # The oracle integrates the turned path adaptively and shares no code
    # with the table; above a few 10^4 it loses accuracy, so the check
    # stops at 4096.  The table's error target is 1e-14.
    xs = _table_check_points()
    ref = np.array([oracles.t1_turned(x) for x in xs])
    np.testing.assert_allclose(t1(xs), ref, rtol=1e-13, atol=0.0)


def _octaves_reached(xs, lo, hi):
    """Octaves j, [2^j, 2^(j+1)), that the xs in [lo, hi) reach."""
    return set((np.frexp(xs[(xs >= lo) & (xs < hi)])[1] - 1).tolist())


def test_t1_table_built_once_under_threads():
    # A threaded criterion sweep builds each table octave it reaches once
    # (t1's, and the ones si_cin reads for t4 at 2x) and equals the serial
    # sweep bit for bit; a barrier and a short switch interval make a race
    # on the first build likely.
    V = GaussianPotential(d=3, a=1.0, ell=1.0)
    mus = (0.5, 2.0)
    start = threading.Barrier(len(mus), timeout=60.0)

    def crit(mu):
        start.wait()
        return criterion(V, mu, "neumann")

    xs = np.concatenate([math.sqrt(mu) * _radial_measure(V, _criterion_rule(V, mu)[0])[0]
                         for mu in mus])
    pairs = (len(_octaves_reached(xs, 0.25, 2.0 ** 30))
             + len(_octaves_reached(2.0 * xs, 2.0, 64.0)))
    special._laplace_octave.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(mus)) as pool:
            threaded = list(pool.map(crit, mus, timeout=120.0))
    finally:
        sys.setswitchinterval(interval)
    info = special._laplace_octave.cache_info()
    assert pairs > 2
    assert info.misses == info.currsize == pairs
    assert threaded == [criterion(V, mu, "neumann") for mu in mus]


def test_t1_builds_only_the_octaves_its_points_reach():
    special._laplace_octave.cache_clear()
    xs = np.geomspace(1.0, 8.0, 24, endpoint=False)
    first = t1(xs)
    assert special._laplace_octave.cache_info().misses == 3
    assert t1(xs).tolist() == first.tolist()
    assert special._laplace_octave.cache_info().misses == 3


def test_t1_small_x_taylor():
    x = np.geomspace(1e-12, 1e-4, 41)
    taylor = 2.0 - (2.0 / math.pi) * x - (4.0 / 9.0) * x * x
    assert np.max(np.abs(t1(x) - taylor)) < 1e-12


def test_t1_and_m3_frozen_values_as_arrays():
    xs = np.array(list(oracles.FROZEN_T1))
    np.testing.assert_allclose(t1(xs), list(oracles.FROZEN_T1.values()),
                               rtol=0.0, atol=2e-12)
    for bc in ("dirichlet", "neumann"):
        keys = [x for b, x in oracles.FROZEN_M3 if b == bc]
        refs = [oracles.FROZEN_M3[(bc, x)] for x in keys]
        np.testing.assert_allclose(m3(np.array(keys), bc), refs, rtol=0.0, atol=5e-12)


@pytest.mark.parametrize("bad", [-0.5, math.inf, math.nan])
def test_array_arguments_rejected_elementwise(bad):
    xs = np.array([0.5, bad, 2.0])
    for f in (t1, t2, t3, t4, lambda x: m3(x, "neumann")):
        with pytest.raises(ValueError, match="finite and >= 0"):
            f(xs)
        with pytest.raises(ValueError, match="finite and >= 0"):
            f(bad)


def test_terms_at_origin():
    assert t1(0.0) == pytest.approx(2.0, abs=1e-12)
    assert t2(0.0) == pytest.approx(0.0, abs=1e-12)
    assert t3(0.0) == pytest.approx(-2.0, abs=1e-12)
    assert t4(0.0) == pytest.approx(0.0, abs=1e-12)


def test_t2_t3_closed_forms():
    for x in (0.3, 1.0, 4.0):
        assert t2(x) == pytest.approx(
            -2.0 / math.pi * math.sin(x) ** 2 / x, abs=1e-14)
        assert t3(x) == pytest.approx(
            -2.0 * (math.sin(x) / x) ** 2, abs=1e-14)


def test_m3_frozen_values_both_conditions():
    for (bc, x), ref in oracles.FROZEN_M3.items():
        assert m3(x, bc) == pytest.approx(ref, abs=5e-12)


def test_m3_neumann_boundary_value_is_4():
    assert m3(0.0, "neumann") == pytest.approx(4.0, abs=1e-10)


def test_m3_dirichlet_vanishes_at_origin():
    assert m3(0.0, "dirichlet") == pytest.approx(0.0, abs=1e-10)


def test_m3_neumann_attains_frozen_minimum():
    xs = [x for x, _ in m3_profile(20.0, 0.05, "neumann")]
    vals = [v for _, v in m3_profile(20.0, 0.05, "neumann")]
    i = int(np.argmin(vals))
    assert vals[i] == pytest.approx(oracles.FROZEN_M3N_MIN_0_20, abs=1e-9)
    assert 0.0 < xs[i] < 20.0


def test_m3_profile_grid_and_threads():
    rows = m3_profile(2.0, 0.5, "dirichlet")
    assert [x for x, _ in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert rows == m3_profile(2.0, 0.5, "dirichlet")
    with pytest.raises(ValueError, match="step must be positive"):
        m3_profile(2.0, 0.0, "dirichlet")
    with pytest.raises(ValueError, match="x_max"):
        m3_profile(-1.0, 0.5, "dirichlet")


@pytest.mark.parametrize("x_max, step, name", [
    (math.inf, 0.5, "x_max"), (math.nan, 0.5, "x_max"),
    (2.0, math.inf, "step"), (2.0, math.nan, "step"),
])
def test_m3_profile_rejects_non_finite_arguments(x_max, step, name):
    # Unchecked, an infinite or NaN x_max makes int() of the row count fail
    # with an unrelated error, and step = inf samples x = 0 * inf = nan.
    with pytest.raises(ValueError, match=f"^{name} must be .* and finite$"):
        m3_profile(x_max, step, "dirichlet")


def test_mtilde_sphere_average_is_scaled_profile():
    # The pointwise line-integral oracle, averaged over directions, must
    # reproduce the term-sum route at chemical potential mu, which is
    # m3(sqrt(mu) r) / sqrt(mu).  The density depends only on |r1| and rho,
    # so the sphere average is a single polar integral over u in [0, 1].
    u, w = np.polynomial.legendre.leggauss(16)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    for r, mu in [(0.5, 1.0), (1.0, 2.0)]:
        for bc in ("dirichlet", "neumann"):
            avg = sum(
                wi * oracles.mtilde_direct(
                    (r * ui, r * math.sqrt(1.0 - ui * ui), 0.0), mu, bc)
                for ui, wi in zip(u, w))
            ref = m3(math.sqrt(mu) * r, bc) / math.sqrt(mu)
            assert avg == pytest.approx(ref, abs=1e-4)


def test_normalize_bc():
    assert normalize_bc("D") == "dirichlet"
    assert normalize_bc("Neumann") == "neumann"
    assert normalize_bc("n") == "neumann"
    with pytest.raises(ValueError, match="unknown boundary condition"):
        normalize_bc("robin")


# ---------------------------------------------------------------------------
# boundary-value table
# ---------------------------------------------------------------------------

def test_table_matches_reference_constants():
    rows = table1_values()
    for name, (v_ref, d1_ref, d2_ref) in TABLE1_REFERENCE.items():
        val, d1, d2 = rows[name]
        assert val == pytest.approx(v_ref, abs=1e-6), name
        if d1_ref is not None:
            assert d1 == pytest.approx(d1_ref, abs=1e-5), name
        if d2_ref is not None:
            assert d2 == pytest.approx(d2_ref, abs=1e-4), name


def test_derivatives_at_zero_on_polynomial():
    f = lambda x: 2.0 - 3.0 * x + 0.5 * x * x + 0.25 * x ** 3
    v, d1, d2 = derivatives_at_zero(f)
    assert v == 2.0
    assert d1 == pytest.approx(-3.0, abs=1e-9)
    assert d2 == pytest.approx(1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# boundary criterion
# ---------------------------------------------------------------------------

def test_criterion_gaussian_frozen_values():
    V = GaussianPotential(d=3, a=1.0, ell=1.0)
    rep_d = criterion(V, 1.0, "dirichlet")
    ref_d = oracles.FROZEN_CRITERION_GAUSSIAN_MU1["dirichlet"]
    assert rep_d.value == pytest.approx(ref_d["value"], abs=1e-8)
    assert rep_d.sign == "positive"
    for term, ref in ref_d["per_term"].items():
        assert rep_d.per_term[term] == pytest.approx(ref, abs=5e-6)
    rep_n = criterion(V, 1.0, "neumann")
    ref_n = oracles.FROZEN_CRITERION_GAUSSIAN_MU1["neumann"]
    assert rep_n.value == pytest.approx(ref_n["value"], abs=1e-8)
    assert rep_n.sign == "positive"


def test_criterion_zero_potential_is_inconclusive():
    rep = criterion(GaussianPotential(d=3, a=0.0), 1.0, "neumann")
    assert rep.value == 0.0
    assert rep.sign == "inconclusive"


def test_criterion_validation():
    with pytest.raises(ValueError, match="specific to d=3"):
        criterion(GaussianPotential(d=2), 1.0, "neumann")
    with pytest.raises(ValueError, match="must be positive"):
        criterion(GaussianPotential(d=3), -1.0, "neumann")


def _criterion_case(kind):
    """A potential of each kind, its profile for the oracle (a table's own
    PCHIP interpolant) and the closed-form r-weighted Fourier transform the
    momentum-side oracle needs."""
    if kind == "gaussian":
        V = GaussianPotential(d=3, a=1.0, ell=1.0)
        return V, V.value, oracles.gaussian_r_fourier(1.0, 1.0)
    if kind == "exponential":
        V = ExponentialPotential(d=3, a=1.0, ell=1.0)
        return V, V.value, oracles.exponential_r_fourier(1.0, 1.0)
    if kind in ("step", "step1"):
        R = 2.0 if kind == "step" else 1.0
        V = StepPotential(d=3, a=1.0, R=R)
        return V, V.value, oracles.step_r_fourier(1.0, R)
    if kind == "shell":
        # 81 knots of a Gaussian shell at r = 1 on [0, 2], samples below
        # 1e-14 and the last one set to 0: its Neumann value turns negative.
        r = np.linspace(0.0, 2.0, 81)
        v = np.exp(-(r - 1.0) ** 2 / (2.0 * 0.15 ** 2))
        v[v < 1e-14] = 0.0
        v[-1] = 0.0
    else:
        r = np.linspace(0.0, 6.0, 40)
        v = np.exp(-r * r)
    interp = PchipInterpolator(r, v)
    return (TabulatedPotential(d=3, r_values=tuple(r), v_values=tuple(v)),
            lambda x: float(interp(x)), oracles.pchip_r_fourier(r, v))


@pytest.mark.parametrize("mu", [0.5, 2.0])
@pytest.mark.parametrize("kind", ["gaussian", "exponential", "step", "tabulated"])
def test_criterion_matches_momentum_side_oracle(kind, mu):
    V, value, c_plus = _criterion_case(kind)
    terms = oracles.criterion_terms_momentum_side(value, V.cutoff_radius(), mu,
                                                  c_plus, V.breakpoints)
    signs = {"dirichlet": (1.0, 1.0, 1.0, 1.0), "neumann": (1.0, 1.0, -1.0, -1.0)}
    for bc, sg in signs.items():
        rep = criterion(V, mu, bc)
        ref = {f"t{j}": s * terms[f"t{j}"] for j, s in enumerate(sg, start=1)}
        for name, val in ref.items():
            assert rep.per_term[name] == pytest.approx(val, abs=1e-12), (bc, name)
        diff = abs(rep.value - math.fsum(ref.values()))
        assert diff < 1e-12, bc
        assert diff <= rep.error_estimate, bc
        assert rep.sign == "positive"


def _value_of(sums, mu, bc):
    """The criterion's value from _term_sums, summed as criterion sums it."""
    pref = 4.0 * math.pi / math.sqrt(mu)
    return math.fsum(pref * s * v for s, v in zip(_TERM_SIGNS[bc], sums))


@pytest.mark.parametrize("mu", [1e-4, 0.25, 2.0, 100.0])
@pytest.mark.parametrize("kind", ["gaussian", "exponential", "step", "step1",
                                  "tabulated", "shell"])
def test_criterion_rule_resolves_below_its_estimate(kind, mu):
    # The estimate is the roundoff floor alone, so doubling the rule to 32
    # nodes per panel must move the value by less than it.
    V = _criterion_case(kind)[0]
    coarse, fine = _term_sums(V, [mu], 16)[0][0], _term_sums(V, [mu], 32)[0][0]
    for bc in ("neumann", "dirichlet"):
        rep = criterion(V, mu, bc)
        assert rep.value == _value_of(coarse, mu, bc), bc
        assert abs(_value_of(fine, mu, bc) - rep.value) <= rep.error_estimate, bc


# Shuffled, from 1e-4 to 100.
_SWEEP_MUS = [2.0, 1e-4, 100.0, 0.25, 13.0, 0.03, 1.0]


@pytest.mark.parametrize("kind", ["gaussian", "exponential", "step", "step1",
                                  "tabulated", "shell"])
def test_criterion_sweep_equals_one_mu_calls(kind):
    V = _criterion_case(kind)[0]
    for bc in ("neumann", "dirichlet"):
        assert criterion_sweep(V, _SWEEP_MUS, bc) == [criterion(V, mu, bc) for mu in _SWEEP_MUS]


def test_criterion_sweep_in_groups_equals_one_group(monkeypatch):
    # The unit Gaussian's rules hold 112 (mu <= 2), 176 (mu = 13) and 496
    # (mu = 100) nodes.  A cap of 300 splits the sweep into groups of
    # consecutive mus, mu = 100 past it on its own; the reports do not
    # change.
    V = _criterion_case("gaussian")[0]
    whole = criterion_sweep(V, _SWEEP_MUS, "neumann")
    groups = []

    def spy(V, mus, n):
        groups.append(list(mus))
        return _term_sums(V, mus, n)

    monkeypatch.setattr(boundary3d, "_MAX_CRITERION_NODES", 300)
    monkeypatch.setattr(boundary3d, "_term_sums", spy)
    assert criterion_sweep(V, _SWEEP_MUS, "neumann") == whole
    assert groups == [[2.0, 1e-4], [100.0], [0.25, 13.0], [0.03, 1.0]]


def test_undersized_criterion_rule_misses_its_estimate():
    # 8 nodes per panel do not resolve k_max = 4 sqrt(mu) on the unit
    # Gaussian: they miss by 5.1 times the estimate at mu = 0.5 and by 32
    # times at mu = 2.
    V = GaussianPotential(d=3, a=1.0, ell=1.0)
    for mu in (0.5, 2.0):
        rep = criterion(V, mu, "neumann")
        undersized = _value_of(_term_sums(V, [mu], 8)[0][0], mu, "neumann")
        assert abs(undersized - rep.value) > 4.0 * rep.error_estimate, mu


def test_criterion_negative_on_a_shell_table():
    # The shell's Neumann value is negative for mu in about (2.66, 6.37) and
    # positive on either side, while its Dirichlet value stays positive.
    # Tier-1 cost about 0.15 s, two thirds of it the momentum-side oracle.
    V, value, c_plus = _criterion_case("shell")
    rep = criterion(V, 4.0, "neumann")
    assert rep.value == pytest.approx(-0.3203627523732, abs=1e-13)
    assert rep.sign == "negative"
    terms = oracles.criterion_terms_momentum_side(value, V.cutoff_radius(), 4.0,
                                                  c_plus, V.breakpoints)
    ref = {name: s * terms[name]
           for name, s in zip(("t1", "t2", "t3", "t4"), _TERM_SIGNS["neumann"])}
    for name, val in ref.items():
        assert rep.per_term[name] == pytest.approx(val, abs=1e-12), name
    assert rep.value == pytest.approx(math.fsum(ref.values()), abs=1e-12)
    for mu, bc in [(2.5, "neumann"), (7.0, "neumann"), (2.5, "dirichlet"),
                   (4.0, "dirichlet"), (7.0, "dirichlet")]:
        assert criterion(V, mu, bc).sign == "positive", (mu, bc)


def test_criterion_memory_peak_at_large_mu():
    # The unit Gaussian at mu = 1e6 runs one 16-node pass over 48,560 nodes
    # and peaks at 7.9 MiB (t1's table built first); with a second pass at
    # 32 nodes for the error estimate it peaked at 15.8 MiB.
    V = GaussianPotential(d=3, a=1.0, ell=1.0)
    criterion(V, 1.0, "neumann")
    tracemalloc.start()
    try:
        criterion(V, 1e6, "neumann")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2 ** 20, peak / 2 ** 20
