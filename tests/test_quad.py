"""The fixed Gauss-Legendre panel rule, the two panel layouts every module
builds its edges from, and the oracles' tail routes against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import oracles
from bcs.potentials import (ExponentialPotential, GaussianPotential, StepPotential,
                            TabulatedPotential, radial_edges)
from bcs.quad import _MAX_NODES, QuadratureError, _ladder, _subdivide, gauss_panels, gauss_rows


# ---------------------------------------------------------------------------
# finite intervals: the fixed panel rule
# ---------------------------------------------------------------------------

def _graded(c, left, right):
    """Panel edges on [c - left, c + right] halving 60 times toward c from
    both sides."""
    steps = 0.5 ** np.arange(60)
    return np.concatenate([c - left * steps, [c], (c + right * steps)[::-1]])


def test_finite_smooth_matches_richardson_oracle():
    f = lambda t: math.exp(-t) * math.cos(3.0 * t)
    x, w = gauss_panels(np.linspace(0.0, 2.0, 5))
    ref = oracles.midpoint_richardson(f, 0.0, 2.0)
    assert abs(float(np.dot(w, np.exp(-x) * np.cos(3.0 * x))) - ref) < 1e-12


def test_finite_endpoint_singularity_never_evaluated():
    # 1/sqrt(x) on (0, 1] integrates to 2; a node at an edge would raise.
    x, w = gauss_panels(_graded(0.0, 0.0, 1.0)[60:])
    assert np.all(x > 0.0)
    assert abs(float(np.dot(w, 1.0 / np.sqrt(x))) - 2.0) < 1e-9


def test_finite_interior_singular_point_split():
    # 1/sqrt|x - c| on [0, 1], in y = x - c so that the panels can halve
    # toward the singular edge y = 0 without running out of floating point
    c = 0.3
    y, w = gauss_panels(_graded(0.0, c, 1.0 - c))
    assert np.all(y != 0.0)
    exact = 2.0 * (math.sqrt(c) + math.sqrt(1.0 - c))
    assert abs(float(np.dot(w, 1.0 / np.sqrt(np.abs(y)))) - exact) < 1e-8


@given(
    coeffs=st.lists(st.floats(-5, 5), min_size=1, max_size=32),
    a=st.floats(-3, 3),
    width=st.floats(0.1, 4),
    cuts=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_finite_polynomials_near_exact(coeffs, a, width, cuts):
    # 16 nodes a panel integrate every polynomial of degree <= 31 exactly,
    # however the interval is split.
    edges = [a, *sorted(a + width * c for c in cuts), a + width]
    x, w = gauss_panels(edges)
    assert len(x) == len(w) == 16 * (len(edges) - 1)
    approx = float(np.dot(w, np.polynomial.polynomial.polyval((x - a) / width, coeffs)))
    exact = width * math.fsum(c / (k + 1) for k, c in enumerate(coeffs))
    assert abs(approx - exact) <= 1e-13 * width * (1.0 + sum(map(abs, coeffs)))


def test_gauss_rows_match_gauss_panels_row_by_row():
    # Rows of edges laid back to back, each row starting below the last edge
    # of the one before it, give every row's split gauss_panels rule
    # concatenated, bit for bit, and each row's node count; single-panel
    # rows included.
    rng = np.random.default_rng(5)
    for width in (0.7, 10.0):
        for _ in range(20):
            rows = [rng.uniform(-1.0, -0.5) + np.concatenate(
                        [[0.0], np.cumsum(rng.uniform(0.6, 2.0, rng.integers(1, 7)))])
                    for _ in range(rng.integers(1, 6))]
            x, w, counts = gauss_rows(np.concatenate(rows), width)
            ref = [gauss_panels(_subdivide(e, np.ceil(np.diff(e) / width))) for e in rows]
            assert np.array_equal(x, np.concatenate([r[0] for r in ref]))
            assert np.array_equal(w, np.concatenate([r[1] for r in ref]))
            assert counts.tolist() == [len(r[0]) for r in ref]


# ---------------------------------------------------------------------------
# panel layouts: even splits and doubling ladders
# ---------------------------------------------------------------------------

def _looped_split(edges, counts):
    """Reference: each panel through np.linspace, the last edge appended."""
    return np.concatenate([np.linspace(lo, hi, max(1, int(n)), endpoint=False)
                           for lo, hi, n in zip(edges[:-1], edges[1:], counts)]
                          + [edges[-1:]])


def test_subdivide_matches_linspace_per_panel():
    rng = np.random.default_rng(7)
    edges = np.concatenate([[-1.3e-9], np.cumsum(rng.uniform(1e-3, 3.0, 12)) - 0.7])
    for counts in ([1] * 12, [3] * 12, rng.integers(-2, 9, 12), [0] * 12):
        assert np.array_equal(_subdivide(edges, counts), _looped_split(edges, counts))
    for n in (1, 4, 7, 0, -3):
        assert np.array_equal(_subdivide(edges, n), _looped_split(edges, [n] * 12))
    # one panel split n ways is np.linspace with n + 1 points
    assert np.array_equal(_subdivide([0.1, 2.9], 5), np.linspace(0.1, 2.9, 6))


def test_subdivide_refuses_a_layout_past_the_node_cap():
    # At 16 nodes a panel, 2^20 panels fill the cap and one more passes it.
    # A count that a huge mu made infinite, NaN or huge is refused the same
    # way, before any edge is allocated (mu = 1e30 asked numpy for 2.79 PiB).
    assert len(_subdivide([0.0, 1.0], _MAX_NODES // 16)) == _MAX_NODES // 16 + 1
    for edges, counts in (([0.0, 1.0, 2.0], [_MAX_NODES // 16, 1]), ([0.0, 1.0], math.inf),
                          ([0.0, 1.0], [math.nan]), ([0.0, 1.0, 2.0], 1e20)):
        with pytest.raises(QuadratureError, match=r"nodes is past the cap of 16777216 nodes$"):
            _subdivide(edges, counts)


def test_ladder_matches_doubling_loop():
    def looped(width, reach):
        out, off = [], width
        while off < reach:
            out.append(off)
            off *= 2.0
        return np.array(out)

    # reach an exact power-of-two multiple of width, one ulp above it,
    # equal to width and below it, as well as the T / mu ladders of the shell
    cases = [(0.3, 0.3 * 2.0 ** 20), (0.3, 0.3 * 2.0 ** 20 * (1.0 + 2.0 ** -52)),
             (1.0, 1.0), (1.0, 0.5), (2.0 ** -60, 1.0),
             (1e-16, 0.5), (1e-3, 0.5), (7.1e-12, 3.3e-4)]
    for width, reach in cases:
        assert np.array_equal(_ladder(width, reach), looped(width, reach)), (width, reach)


def _table(d):
    r = np.linspace(0.0, 8.0, 9)
    v = np.exp(-r) * (1.0 + 0.3 * r)
    v[-1] = 0.0
    return TabulatedPotential(d=d, r_values=tuple(r), v_values=tuple(v))


def test_radial_edges_match_linspace_loop():
    for V in (GaussianPotential(d=3, a=1.0, ell=0.7), ExponentialPotential(d=2, a=1.0, ell=1.3),
              StepPotential(d=1, a=1.0, R=1.0), _table(3)):
        for k_max in (0.0, 2.0, 13.7, 250.0):
            rc = V.cutoff_radius()
            h = min(V.range_scale, 8.0 / k_max) if k_max > 0.0 else V.range_scale
            knots = [0.0, *sorted(b for b in V.breakpoints if 0.0 < b < rc), rc]
            ref = [0.0]
            for lo, hi in zip(knots, knots[1:]):
                ref.extend(np.linspace(lo, hi, int(math.ceil((hi - lo) / h)) + 1)[1:])
            assert np.array_equal(radial_edges(V, k_max), np.asarray(ref)), (V, k_max)


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
