"""Birman-Schwinger discretization, spectra, and the critical temperature."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import linalg, special
from scipy.optimize import brentq

import oracles
from bcs.bs_solver import (
    SolverError,
    Tc0Result,
    _bs_scale,
    _newton,
    _top2,
    _w_lagrange,
    _w_table,
    build_grid,
    ground_state,
    position_profile,
    tc0,
)
from bcs.kernels import KernelParams, bt_log_slope, m_mu
from bcs.potentials import (ExponentialPotential, GaussianPotential, StepPotential,
                            TabulatedPotential, _radial_measure, _radial_waves, e_mu)
from bcs.quad import _chebyshev_count, _chebyshev_points

GAUSS3 = GaussianPotential(d=3, a=1.0, ell=1.0)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_brackets_fermi_surface():
    g = build_grid(KernelParams(T=1e-4, mu=1.7), GAUSS3)
    assert g.shifted[0] < 0.0 < g.shifted[-1]
    assert np.all(np.diff(g.shifted) > 0)
    np.testing.assert_allclose(g.nodes ** 2 - 1.7, g.shifted, atol=1e-12)
    assert g.p_max >= 4.0 * math.sqrt(2.0 * 1.7)
    # weights resolve the total length of the momentum interval
    assert float(np.sum(g.weights)) == pytest.approx(g.p_max, rel=1e-10)


def test_grid_refinement_doubles_panels():
    g0 = build_grid(KernelParams(T=1e-3, mu=1.0), GAUSS3, refine_level=0)
    g1 = build_grid(KernelParams(T=1e-3, mu=1.0), GAUSS3, refine_level=1)
    assert len(g1) == 2 * len(g0)


def test_grid_innermost_panel_tracks_temperature():
    # The innermost panels [-w, 0] and [0, w], w = min(T, 1e-3 mu), put
    # their 10 Gauss nodes each inside the thermal layer |p^2 - mu| < T.
    mu = 1.0
    for T in (1e-2, 1e-5, 1e-8, 1e-16):
        a = build_grid(KernelParams(T=T, mu=mu), GAUSS3).shifted
        inner = a[np.abs(a) < min(T, 1e-3 * mu)]
        assert np.count_nonzero(inner < 0) == np.count_nonzero(inner > 0) == 10


# ---------------------------------------------------------------------------
# interaction matrix elements
# ---------------------------------------------------------------------------

def _w_factor(V, p, P=None):
    """(L, Z) of W = (L Z) (L Z)^T on the nodes p, its table laid on [0, P],
    P = p[-1] unless given (tc0 lays it on [0, grid.p_max])."""
    P = float(p[-1]) if P is None else P
    Z = _w_table(V, P)
    return _w_lagrange(p, len(Z), P), Z


def _dense_w(V, p):
    """Y Y^T, Y = L Z, the n x n W that the library only applies."""
    L, Z = _w_factor(V, p)
    Y = L @ Z
    return Y @ Y.T


def _full_table(V, P):
    """Wc, the kernel table on the Chebyshev points of [0, P] that _w_table
    factors, with every eigenvalue kept."""
    X = _chebyshev_points(_chebyshev_count(V.cutoff_radius(), P), P)[0]
    Jc, m = _radial_waves(V, X, 2.0 * P)
    return (Jc * m) @ Jc.T


@functools.cache
def _dense_top_pair(kind, d):
    """The level-0 grid at T = 1e-3, mu = 1 of each kind and d, its s and L,
    and scipy's dense eigh of diag(s) L Wc L^T diag(s) there, Wc the full
    table: its top two eigenvalues (ascending) and top eigenvector."""
    V, _ = _potential(kind, d)
    par = KernelParams(T=1e-3, mu=1.0)
    grid = build_grid(par, V, refine_level=0)
    s, Wc = _bs_scale(grid, par, d), _full_table(V, grid.p_max)
    L = _w_lagrange(grid.nodes, len(Wc), grid.p_max)
    S = s[:, None] * (L @ Wc @ L.T) * s[None, :]
    vals, vecs = linalg.eigh(S, subset_by_index=[len(S) - 2, len(S) - 1])
    return V, grid, s, L, vals, vecs[:, -1]


# Two oracles for w_d(p, q): the momentum-side angular average of a closed
# Vhat, and the position-side product of radial waves.
def test_angular_average_matches_position_oracle():
    pts = [(0.3, 0.3), (0.5, 1.2), (1.0, 1.0), (2.0, 0.7), (3.0, 2.5)]
    for d in (1, 2, 3):
        V = GaussianPotential(d=d, a=1.0, ell=1.0)
        vhat = functools.partial(oracles.gaussian_hat_closed, 1.0, 1.0, d)
        rc = V.cutoff_radius()
        for p, q in pts:
            ref = oracles.wd_position_space(V.value, rc, d, p, q)
            assert oracles.angular_average_vhat(vhat, d, p, q) == pytest.approx(ref, abs=1e-9)


def test_angular_average_step_potential():
    V = StepPotential(d=3, a=1.0, R=1.0)
    vhat = functools.partial(oracles.step_hat_closed, 1.0, 1.0, 3)
    rc = V.cutoff_radius()
    for p, q in [(0.5, 0.5), (1.0, 2.0)]:
        ref = oracles.wd_position_space(V.value, rc, 3, p, q)
        assert oracles.angular_average_vhat(vhat, 3, p, q) == pytest.approx(ref, abs=1e-7)


def _potential(kind, d):
    """A potential of each kind and its radial transform Vhat from the
    oracles: closed forms, and for the table a Gauss rule on its pieces."""
    if kind == "gaussian":
        return (GaussianPotential(d=d, a=1.0, ell=1.0),
                functools.partial(oracles.gaussian_hat_closed, 1.0, 1.0, d))
    if kind == "exponential":
        return (ExponentialPotential(d=d, a=1.0, ell=1.0),
                functools.partial(oracles.exponential_hat_closed, 1.0, 1.0, d))
    if kind == "step":
        return (StepPotential(d=d, a=1.0, R=1.0),
                functools.partial(oracles.step_hat_closed, 1.0, 1.0, d))
    r = np.linspace(0.0, 8.0, 5)
    v = np.exp(-r) * (1.0 + 0.3 * r)
    v[-1] = 0.0
    return (TabulatedPotential(d=d, r_values=tuple(r), v_values=tuple(v)),
            oracles.table_hat(r, v, d))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["gaussian", "exponential", "step", "tabulated"])
def test_w_matrix_matches_angular_average(kind, d):
    # Regression: the generic d = 3 branch once returned exactly half of w_3;
    # only the Gaussian, which takes the closed form there, escaped.
    V, vhat = _potential(kind, d)
    p = np.array([0.3, 0.9, 1.4])
    W = _dense_w(V, p)
    for i, pi in enumerate(p):
        for j, pj in enumerate(p):
            ref = oracles.angular_average_vhat(vhat, d, float(pi), float(pj))
            assert W[i, j] == pytest.approx(ref, rel=1e-6), (i, j)


def test_w_matrix_matches_gaussian_closed_form():
    p = build_grid(KernelParams(T=1e-5, mu=1.0), GAUSS3).nodes
    assert len(p) == 850
    ref = oracles.gaussian_w3_closed(1.0, 1.0, p[:, None], p[None, :])
    err = np.max(np.abs(_dense_w(GAUSS3, p) - ref))
    assert err <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_w_matrix_high_momentum_diagonal(d):
    # p = 13 is the grid's p_max for a unit-range potential at mu = 1.
    V = ExponentialPotential(d=d, a=1.0, ell=1.0)
    p = np.array([6.5, 13.0])
    W = _dense_w(V, p)
    for i, pi in enumerate(p):
        ref = oracles.wd_position_space(V.value, V.cutoff_radius(), d, pi, pi)
        assert W[i, i] == pytest.approx(ref, rel=1e-8), pi


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["gaussian", "exponential", "step", "tabulated"])
def test_w_table_interpolates_radial_waves_within_the_argument_rounding(kind, d, monkeypatch):
    # W's factor reads j_d(p r), r <= rc, off its Chebyshev table in p:
    # L j_d(X r) at the nodes of a level-1 grid, X on [0, p_max] as in tc0,
    # against numpy's cos and scipy's j0 and spherical_jn(0, .) of p r,
    # within 4 eps (8 + |p r|): the rounding of p r (p r reaches 479 for the
    # exponential) and the interpolation's own, a few eps times its Lebesgue
    # constant (below 5 for the exponential's 358 points).  Worst reads 2.3,
    # the exponential in d = 2.  Half the table's count leaves errors of 1e-6
    # to 2.
    from bcs import bs_solver
    V, _ = _potential(kind, d)
    grid = build_grid(KernelParams(T=1e-3, mu=1.0), V, refine_level=1)
    p, P = grid.nodes, grid.p_max
    r = _radial_measure(V, 2.0 * P)[0]
    c = math.sqrt(2.0 / math.pi)

    def error():
        L = _w_factor(V, p, P)[0]
        table = _radial_waves(V, _chebyshev_points(L.shape[1], P)[0], 2.0 * P)[0]
        worst = 0.0
        for rows in np.array_split(np.arange(len(p)), 8):
            pr = np.multiply.outer(p[rows], r)
            ref = (c * np.cos(pr) if d == 1 else special.j0(pr) if d == 2
                   else c * special.spherical_jn(0, pr))
            err = np.abs(L[rows] @ table - ref) / (np.finfo(float).eps * (8.0 + pr))
            worst = max(worst, float(err.max()))
        return worst
    assert error() <= 4.0
    count = bs_solver._chebyshev_count
    monkeypatch.setattr(bs_solver, "_chebyshev_count", lambda Y, P: count(Y, P) // 2)
    assert error() > 4.0


def test_w_factor_matches_its_table_to_rounding():
    # Y Y^T is symmetric by construction; what the factor can get wrong is
    # the table it stands for.  On the quick-start chain's closure grid,
    # x.(s Y Y^T s y) and x.(s L Wc L^T s y), Wc with every eigenvalue kept,
    # agree to rounding of a_T: the eigenvalues that _w_table drops are
    # below 1e-16 of its top one.
    par = KernelParams(T=1.0245186418036e-16, mu=1.0)
    grid = build_grid(par, GAUSS3, refine_level=1)
    assert len(grid) == 3180
    s, (L, Z) = _bs_scale(grid, par, 3), _w_factor(GAUSS3, grid.nodes, grid.p_max)
    Y, Wc = L @ Z, _full_table(GAUSS3, grid.p_max)
    a_T = _top2(s, Y)[0]
    rng = np.random.default_rng(11)
    for _ in range(8):
        x, y = rng.normal(size=(2, len(grid)))
        xY, yY, xL, yL = (s * x) @ Y, (s * y) @ Y, (s * x) @ L, (s * y) @ L
        assert abs(xY @ yY - xL @ Wc @ yL) <= 1e-15 * np.linalg.norm(x) * np.linalg.norm(y) * a_T


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_top_eigenvalue_matches_jacobi_oracle():
    # _top2 is the one a_T route; with s = 1 it solves W = Y Y^T itself,
    # here S = Y Y^T + I given by Y = [A I].
    rng = np.random.default_rng(7)
    A = rng.normal(size=(12, 12))
    S = A @ A.T + np.eye(12)
    a, second, u = _top2(np.ones(12), np.hstack([A, np.eye(12)]))
    ref = oracles.jacobi_eigenvalues(S)
    assert a == pytest.approx(ref[0], rel=1e-12)
    assert second == pytest.approx(ref[1], rel=1e-12)
    assert np.linalg.norm(S @ u - a * u) < 1e-12 * a
    assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-14)


def test_direct_top2_with_more_table_points_than_nodes():
    # The direct solve _top2 on a factor Y = L Z with more columns than rows
    # (nc = 30 table points on n = 12 nodes, as the exponential's nc = 1,449
    # on 820 nodes at mu = 100 before the rank cutoff) leaves the Gram matrix
    # B^T B singular: the top pair and vector still match dense eigh of the
    # n x n matrix diag(s) L Wc L^T diag(s), Wc = Z Z^T.
    rng = np.random.default_rng(5)
    n, nc = 12, 30
    s, L, Z = rng.uniform(0.5, 2.0, n), rng.normal(size=(n, nc)), rng.normal(size=(nc, nc))
    S = s[:, None] * (L @ (Z @ Z.T) @ L.T) * s[None, :]
    vals, vecs = np.linalg.eigh(S)
    top, second, u = _top2(s, L @ Z)
    assert top == pytest.approx(vals[-1], rel=1e-13)
    assert second == pytest.approx(vals[-2], rel=1e-13)
    assert np.linalg.norm(u) == pytest.approx(1.0, rel=1e-13)
    assert np.linalg.norm(u - math.copysign(1.0, u @ vecs[:, -1]) * vecs[:, -1]) <= 1e-12


def test_top2_meets_the_rank_cutoffs_target(monkeypatch):
    # The factor keeps the eigenvalues of Wc above _RANK_EPS = 1e-16 of its
    # top one g_1.  The truncation moves no eigenvalue of diag(s) L Wc L^T
    # diag(s) by more than _RANK_EPS g_1 |diag(s) L|^2 (Weyl), at most
    # 1.04e-14 a_T on these grids (the exponential in d = 3); the negative
    # eigenvalues it also drops are eigh's roundoff, Wc being positive
    # semidefinite, at most 3.7e-16 g_1.  Target: the top pair and vector of
    # _top2 on Y = L Z within 1e-14 of scipy's dense eigh of the full table
    # on a level-0 grid, every kind in d = 1, 2 and 3.  Measured 2.2e-15;
    # the cutoff at 1e-12 reads 8.7e-13 (the exponential in d = 3) and fails.
    from bcs import bs_solver
    cases = [_dense_top_pair(kind, d) for kind in ("gaussian", "exponential", "step", "tabulated")
             for d in (1, 2, 3)]

    def worst():
        err = 0.0
        for V, grid, s, L, (a2, a1), v in cases:
            top, second, u = _top2(s, L @ _w_table(V, grid.p_max))
            err = max(err, abs(top - a1) / a1, abs(second - a2) / a1,
                      float(np.linalg.norm(u - math.copysign(1.0, u @ v) * v)))
        return err
    assert worst() <= 1e-14
    monkeypatch.setattr(bs_solver, "_RANK_EPS", 1e-12)
    assert worst() > 1e-14


def test_a_t0_grid_doubling_stability():
    par = KernelParams(T=1e-3, mu=1.0)
    a0, a1 = (_top2(_bs_scale(g, par, 3), np.matmul(*_w_factor(GAUSS3, g.nodes, g.p_max)))[0]
              for g in (build_grid(par, GAUSS3, refine_level=level) for level in (0, 1)))
    assert abs(a1 - a0) <= 1e-5 * abs(a1)


# ---------------------------------------------------------------------------
# critical temperature
# ---------------------------------------------------------------------------

def test_tc0_frozen_regression_and_monotonicity():
    solved = {}
    for lam, ref in oracles.FROZEN_TC0_GAUSSIAN.items():
        res = tc0(GAUSS3, 1.0, 3, lam, t_min_factor=1e-12)
        assert res.T_c == pytest.approx(ref, rel=1e-6)
        assert res.closure <= 1e-8
        solved[lam] = res.T_c
    lams = sorted(solved)
    assert all(solved[a] < solved[b] for a, b in zip(lams, lams[1:]))


def test_tc0_weak_coupling_ratio_is_stable():
    # T_c ~ C exp(-1/(lam e_mu)): the prefactor drifts only slowly with lam.
    em = e_mu(GAUSS3, 1.0)
    pref = {lam: tc * math.exp(1.0 / (lam * em))
            for lam, tc in oracles.FROZEN_TC0_GAUSSIAN.items()}
    vals = list(pref.values())
    assert max(vals) / min(vals) < 1.5


@pytest.mark.parametrize("V, frozen", [
    (StepPotential(d=3, a=1.0, R=1.0), oracles.FROZEN_TC0_STEP_D3_LAM05),
    (ExponentialPotential(d=3, a=1.0, ell=1.0), None),
], ids=["step", "exponential"])
def test_tc0_non_gaussian_d3(V, frozen):
    # Weak coupling: lam e_mu m_mu(T_c) = 1 + O(lam).  Measured 0.907 (step)
    # and 0.995 (exponential); a W at half its value gave 1.996 or no bracket.
    lam = 0.5
    res = tc0(V, 1.0, 3, lam)
    assert res.closure <= 1e-8
    ratio = e_mu(V, 1.0) * m_mu(KernelParams(T=res.T_c, mu=1.0), 3) * lam
    assert 0.85 <= ratio <= 1.05
    if frozen is not None:
        assert res.T_c == pytest.approx(frozen, rel=1e-6)


def test_tc0_validation_and_bracket_errors():
    with pytest.raises(ValueError, match="lam must be positive"):
        tc0(GAUSS3, 1.0, 3, 0.0)
    with pytest.raises(ValueError, match="dimension disagrees"):
        tc0(GAUSS3, 1.0, 2, 0.5)
    with pytest.raises(SolverError, match="no pairing instability"):
        tc0(GaussianPotential(d=3, a=0.0), 1.0, 3, 0.5)
    with pytest.raises(SolverError, match="not bracketed above"):
        tc0(GAUSS3, 1.0, 3, 0.28)  # T_c ~ 3.6e-9 sits below the default floor
    with pytest.raises(SolverError, match="exceeds t_max_factor"):
        tc0(GaussianPotential(d=3, a=8.0), 1.0, 3, 2.0, t_max_factor=1.0)


def test_tc0_finds_roots_anywhere_inside_the_window():
    # A ladder of powers of two from T = mu stopped at 2^-26 = 1.49e-8 and
    # at 4 mu, so it rejected both of these roots although each lies inside
    # its window.
    res = tc0(GAUSS3, 1.0, 3, 0.3)
    ref = tc0(GAUSS3, 1.0, 3, 0.3, t_min_factor=1e-12)
    assert 1e-8 < res.T_c < 1.5e-8
    assert res.T_c == pytest.approx(ref.T_c, rel=1e-6)
    assert res.closure <= 1e-8
    hot = tc0(GaussianPotential(d=3, a=8.0), 1.0, 3, 2.0, t_max_factor=6.0)
    assert hot.T_c == pytest.approx(5.0257, rel=1e-4)
    assert hot.closure <= 1e-8
    hotter = tc0(GaussianPotential(d=3, a=8.0), 1.0, 3, 2.5, t_max_factor=60.0)
    assert 6.5 < hotter.T_c < 7.0
    assert hotter.closure <= 1e-8
    with pytest.raises(ValueError, match="t_min_factor < t_max_factor"):
        tc0(GAUSS3, 1.0, 3, 0.5, t_min_factor=1.0, t_max_factor=0.5)
    with pytest.raises(ValueError, match="t_max_factor \\* mu must be finite"):
        tc0(GAUSS3, 1.0, 3, 0.5, t_max_factor=math.inf)


def _count_calls(monkeypatch, **names):
    """Counts, by keyword, of the calls to the bs_solver functions named."""
    from bcs import bs_solver
    counts = dict.fromkeys(names, 0)

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for key, name in names.items():
        monkeypatch.setattr(bs_solver, name, counted(key, getattr(bs_solver, name)))
    return counts


def test_tc0_builds_one_w_per_refine_level(monkeypatch):
    # The quick-start chain: T_c ~ 1e-16 mu.  One kernel table factor Z,
    # laid with the level-0 search grid, and one Lagrange matrix L for that
    # grid and one for the closure grid; every temperature only rescales W.
    # Every temperature of the search and the closure is one _top2 solve,
    # and temperature_evals counts them all.  The search brackets T_c by its
    # window alone and never evaluates m_mu's shell rule.
    from bcs import bs_solver, kernels
    assert not hasattr(bs_solver, "_shell_rule")
    counts = _count_calls(monkeypatch, table="_w_table", L="_w_lagrange", solve="_top2")
    rule, shell_rule = [0], kernels._shell_rule

    def counted_rule(*args):
        rule[0] += 1
        return shell_rule(*args)
    monkeypatch.setattr(kernels, "_shell_rule", counted_rule)
    res = tc0(GAUSS3, 1.0, 3, 0.15, t_min_factor=1e-18)
    assert res.T_c == pytest.approx(1.0245186418036e-16, rel=1e-6)  # bench/references.json
    assert counts["L"] == 2
    assert counts["table"] == 1
    assert res.temperature_evals == counts["solve"]
    assert res.temperature_evals <= 12
    assert rule[0] == 0
    assert len(res.grid) == 3180


def test_tc0_raises_at_once_when_the_closure_misses_tol(monkeypatch):
    # One search on the level-0 grid and one closure solve on the level-1
    # grid: a closure above tol raises there and names it, with no second
    # search on a finer grid: only the last solve runs on the closure grid.
    from bcs import bs_solver
    solves, top2 = [], bs_solver._top2

    def sized(s, Y):
        solves.append(len(s))
        return top2(s, Y)
    monkeypatch.setattr(bs_solver, "_top2", sized)
    counts = _count_calls(monkeypatch, table="_w_table", L="_w_lagrange")
    with pytest.raises(SolverError, match=r"closure \|lam\*a-1\| = .* misses tol = 1e-20"):
        tc0(GAUSS3, 1.0, 3, 0.5, tol=1e-20)
    assert counts == {"table": 1, "L": 2}
    assert solves[:-1] == [solves[0]] * (len(solves) - 1) < [solves[-1]]


@pytest.mark.parametrize("V, mu, lam, window", [
    (GAUSS3, 1.0, 0.15, {"t_min_factor": 1e-18}),
    (GaussianPotential(d=3, a=8.0), 1.0, 2.0, {"t_max_factor": 6.0}),
    (GaussianPotential(d=3, a=8.0), 1.0, 2.5, {"t_max_factor": 60.0}),
    (ExponentialPotential(d=1), 10.0, 0.4, {"t_min_factor": 1e-12}),
], ids=["chain", "hot", "hotter", "exponential1"])
def test_tc0_lays_one_table_and_two_grids(V, mu, lam, window, monkeypatch):
    # The table depends on (V, mu) alone, and the window's lower end fixes
    # the one search grid wherever T_c lies in it: one table, one L for the
    # search grid and one for the closure grid.
    counts = _count_calls(monkeypatch, grid="build_grid", table="_w_table", L="_w_lagrange")
    res = tc0(V, mu, V.d, lam, **window)
    assert counts == {"grid": 2, "table": 1, "L": 2}
    assert res.closure <= 1e-14


@pytest.mark.parametrize("V, lam, window, solves, match", [
    (GAUSS3, 0.28, {}, 1, "not bracketed above"),
    (GaussianPotential(d=3, a=8.0), 2.0, {"t_max_factor": 1.0}, 2, "exceeds t_max_factor"),
], ids=["below-t_min", "above-t_max"])
def test_tc0_rejects_a_window_without_the_root_on_one_grid(V, lam, window, solves, match,
                                                           monkeypatch):
    # The sign of f at ln t_min, then at ln t_max, on the one search grid
    # decides: the root below the window is rejected by the first solve,
    # the one above it by the second.
    counts = _count_calls(monkeypatch, grid="build_grid", table="_w_table", solve="_top2")
    with pytest.raises(SolverError, match=match):
        tc0(V, 1.0, V.d, lam, **window)
    assert counts == {"grid": 1, "table": 1, "solve": solves}


@pytest.mark.parametrize("mu, lam, name", [
    (-1.0, 0.5, "mu"), (0.0, 0.5, "mu"), (math.nan, 0.5, "mu"), (math.inf, 0.5, "mu"),
    (1.0, -0.5, "lam"), (1.0, math.nan, "lam"), (1.0, math.inf, "lam"),
])
def test_tc0_rejects_bad_mu_and_lam_before_any_grid(mu, lam, name, monkeypatch):
    counts = _count_calls(monkeypatch, grid="build_grid")
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
        tc0(GAUSS3, mu, 3, lam)
    assert counts == {"grid": 0}


def test_tc0_rejects_a_sign_changing_potential(monkeypatch):
    # B^T B, B = diag(s) Y, shares the top of diag(s) W diag(s) only when
    # W = Y Y^T has no negative eigenvalues; this table's W has some (power
    # iteration once read lam a = -6.70 on it at T = 1e-8 mu, where dense
    # eigh reads 4.86).  So tc0 refuses such a V before building anything.
    r = np.linspace(0.0, 8.0, 161)
    v = np.exp(-r * r) - 10.0 * np.exp(-(r - 3.0) ** 2 / 0.05)
    v[-1] = 0.0
    V = TabulatedPotential(d=3, r_values=tuple(r), v_values=tuple(v))
    counts = _count_calls(monkeypatch, grid="build_grid", table="_w_table")
    with pytest.raises(ValueError, match="nonnegative potential"):
        tc0(V, (math.pi / 3.0) ** 2, 3, 2.0)
    assert counts == {"grid": 0, "table": 0}


@pytest.mark.parametrize("V, lam, t_min, evals", [
    (GAUSS3, 0.5, 1e-8, 4), (StepPotential(d=1, a=1.0, R=1.0), 0.5, 1e-8, 5),
    (GAUSS3, 0.15, 1e-18, 3),
], ids=["gaussian3", "step1", "chain"])
def test_tc0_computes_slopes_only_inside_newton(V, lam, t_min, evals, monkeypatch):
    # The checks of f at the window's ends need only its sign, and their
    # values start _newton at the secant point; only _newton's evaluations
    # compute bt_log_slope, 4, 5 and 3 per tc0 on a bulk sweep row of each
    # kind and the quick-start chain.
    assert _slopes_and_newton_evals(V, lam, t_min, monkeypatch) == (evals, evals)


@pytest.mark.parametrize("k", [-4, -2, -1, 1, 2, 4])
def test_tc0_newton_evals_ignore_the_last_bits_of_w(k, monkeypatch):
    # Z scaled by 1 + k eps (W by 1 + 2 k eps) moves only the last bits of
    # f = lam a - 1, below _newton's floor, so the counts above hold.  With the stop at
    # xtol = 1e-14 alone the chain read 6 at k = -2 (and 3 to 6 for |k| up
    # to 16, the Gaussian 4 or 5, where the floor keeps 3 and 4).
    from bcs import bs_solver
    table = bs_solver._w_table
    monkeypatch.setattr(bs_solver, "_w_table",
                        lambda V, P: table(V, P) * (1.0 + k * np.finfo(float).eps))
    assert [_slopes_and_newton_evals(V, lam, t_min, monkeypatch)[1] for V, lam, t_min in (
        (GAUSS3, 0.5, 1e-8), (StepPotential(d=1, a=1.0, R=1.0), 0.5, 1e-8),
        (GAUSS3, 0.15, 1e-18))] == [4, 5, 3]


def _slopes_and_newton_evals(V, lam, t_min, monkeypatch):
    """bt_log_slope calls and _newton's evaluations of f in one tc0."""
    from bcs import bs_solver
    slopes, steps = [0], [0]

    def counted_slope(*args):
        slopes[0] += 1
        return bt_log_slope(*args)

    def counted_newton(f, a, b, xtol, f_a, f_b):
        def g(x):
            steps[0] += 1
            return f(x)
        return _newton(g, a, b, xtol, f_a, f_b)
    monkeypatch.setattr(bs_solver, "bt_log_slope", counted_slope)
    monkeypatch.setattr(bs_solver, "_newton", counted_newton)
    tc0(V, 1.0, V.d, lam, t_min_factor=t_min)
    return slopes[0], steps[0]


def test_tc0_allocates_nothing_n_by_n():
    # One 3180^2 float array is 77 MiB: the quick-start chain's tc0 peaks
    # far below that, and its result, which carries W's factor, holds less.
    # The closure grid's L (3180 x 82, 2 MiB) lives only while Y = L Z
    # (3180 x 30, 0.7 MiB) is formed, and the search grid's Y is released
    # before, so the peak reads 2.8 MiB.  The result holds Y, 0.83 MiB in
    # all.
    tracemalloc.start()
    try:
        res = tc0(GAUSS3, 1.0, 3, 0.15, t_min_factor=1e-18)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.grid) == 3180
    assert peak <= 3 * 2 ** 20
    assert held <= 2 ** 20


# ---------------------------------------------------------------------------
# ground state
# ---------------------------------------------------------------------------

def test_ground_state_solves_eigenvalue_equation():
    state = ground_state(GAUSS3, 1.0, 3, 0.6, tc=tc0(GAUSS3, 1.0, 3, 0.6))
    assert state.eval_eq_residual <= 1e-6
    assert state.closure <= 1e-8
    assert state.spectral_gap > 1e-3


def test_ground_state_normalization():
    state = ground_state(GAUSS3, 1.0, 3, 0.6, tc=tc0(GAUSS3, 1.0, 3, 0.6))
    g = state.grid
    meas = g.weights * g.nodes ** 2
    W = _dense_w(GAUSS3, g.nodes)
    ip = 4.0 * math.pi * float((meas * state.phi_hat) @ W @ (meas * state.phi_hat))
    assert ip == pytest.approx(4.0 * math.pi * e_mu(GAUSS3, 1.0), rel=1e-10)


def test_ground_state_reuses_the_closure_grid_and_w(monkeypatch):
    # tc0 hands its closure grid and W's factor over; ground_state builds
    # neither again, and gives what a run on a fresh tc0 result gives, bit
    # for bit.
    from bcs import bs_solver
    fresh = ground_state(GAUSS3, 1.0, 3, 0.6, tc=tc0(GAUSS3, 1.0, 3, 0.6))
    tc = tc0(GAUSS3, 1.0, 3, 0.6)

    def forbidden(*args, **kwargs):
        raise AssertionError("ground_state must not build a grid or W")
    for name in ("build_grid", "_w_table", "_w_lagrange"):
        monkeypatch.setattr(bs_solver, name, forbidden)
    state = ground_state(GAUSS3, 1.0, 3, 0.6, tc=tc)
    assert np.array_equal(state.phi_hat, fresh.phi_hat)
    assert state.spectral_gap == fresh.spectral_gap
    assert state.eval_eq_residual == fresh.eval_eq_residual
    with pytest.raises(ValueError, match="disagree"):
        ground_state(GAUSS3, 1.1, 3, 0.6, tc=tc)


def test_ground_state_takes_the_closure_solve_of_tc(monkeypatch):
    # ground_state builds no grid or W and runs no eigen-solver: its top
    # eigenpair and gap are those of tc0's closure solve, bit for bit.
    from bcs import bs_solver
    tc = tc0(GAUSS3, 1.0, 3, 0.6)

    def forbidden(*args, **kwargs):
        raise AssertionError("ground_state must not build or solve again")
    for name in ("_top2", "build_grid", "_w_table", "_w_lagrange"):
        monkeypatch.setattr(bs_solver, name, forbidden)
    state = ground_state(GAUSS3, 1.0, 3, 0.6, tc=tc)
    assert state.closure == tc.closure
    assert state.spectral_gap == tc.spectral_gap
    assert state.eval_eq_residual <= 1e-6


def test_ground_state_rejects_a_tc_of_another_problem():
    # A Gaussian's tc handed over with a step potential used to return the
    # Gaussian's ground state labelled as the step's.
    tc = tc0(GAUSS3, 1.0, 3, 0.6)
    step = StepPotential(d=3, a=1.0, R=1.0)
    with pytest.raises(ValueError, match="requested V disagree"):
        ground_state(step, 1.0, 3, 0.6, tc=tc)
    with pytest.raises(ValueError, match="requested d disagree"):
        ground_state(GAUSS3, 1.0, 2, 0.6, tc=tc)
    with pytest.raises(ValueError, match="requested lam disagree"):
        ground_state(GAUSS3, 1.0, 3, 0.5, tc=tc)
    # an equal potential built anew is the same problem, a table built from
    # numpy arrays included: its samples are stored as float tuples
    state = ground_state(GaussianPotential(d=3, a=1.0, ell=1.0), 1.0, 3, 0.6, tc=tc)
    assert state.T_c == tc.T_c
    V, _ = _potential("tabulated", 1)
    tc = tc0(V, 1.0, 1, 0.5)
    r, v = np.asarray(V.r_values), np.asarray(V.v_values)
    state = ground_state(TabulatedPotential(d=1, r_values=r, v_values=v), 1.0, 1, 0.5, tc=tc)
    assert state.T_c == tc.T_c


def test_ground_state_is_reproducible_without_dense_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("ground_state must not run a dense eigh")
    monkeypatch.setattr(linalg, "eigh", forbidden)
    tc = tc0(GAUSS3, 1.0, 3, 0.6)
    first = ground_state(GAUSS3, 1.0, 3, 0.6, tc=tc)
    second = ground_state(GAUSS3, 1.0, 3, 0.6, tc=tc)
    assert np.array_equal(first.phi_hat, second.phi_hat)
    assert first.spectral_gap == second.spectral_gap


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["gaussian", "exponential", "step", "tabulated"])
def test_ground_state_top_pair_matches_dense_eigh(kind, d):
    # On a small grid the _top2 pair equals the dense spectrum: with
    # lam = 1/a_1 the closure is the relative error of the top eigenvalue.
    # ground_state solves nothing, so the hand-built tc carries the pair.
    V, grid, s, L, (a2, a1), _ = _dense_top_pair(kind, d)
    Y = L @ _w_table(V, grid.p_max)
    top, second, u = _top2(s, Y)
    lam = 1.0 / a1
    tc = Tc0Result(T_c=1e-3, lam=lam, closure=abs(lam * top - 1.0),
                   spectral_gap=(top - second) / top, temperature_evals=0,
                   V=V, grid=grid, Y=Y, a_T=top, u=u)
    state = ground_state(V, 1.0, d, lam, tc=tc)
    assert state.closure <= 1e-12
    assert state.spectral_gap == pytest.approx((a1 - a2) / a1, rel=1e-12)
    assert state.eval_eq_residual <= 1e-10


# ---------------------------------------------------------------------------
# the root search
# ---------------------------------------------------------------------------

def _assert_lands_on_brentq(f, a, b, xtol):
    """_newton lands within brentq's own stop, xtol + 4 eps |x|, of the root
    that scipy's brentq finds on f's values."""
    root = _newton(f, a, b, xtol, f(a)[0], f(b)[0])
    ref = brentq(lambda x: f(x)[0], a, b, xtol=xtol)
    assert abs(root - ref) <= xtol + 4.0 * 2.0 ** -52 * abs(ref), (root, ref)


def _record_searches(monkeypatch):
    """The (f, a, b, xtol) of every root search tc0 runs from here on."""
    from bcs import bs_solver
    calls = []

    def recorded(f, a, b, xtol, f_a, f_b):
        calls.append((f, a, b, xtol))
        return _newton(f, a, b, xtol, f_a, f_b)
    monkeypatch.setattr(bs_solver, "_newton", recorded)
    return calls


def test_newton_matches_brentq_on_the_temperature_search(monkeypatch):
    # The one root search of each tc0, on its window, replayed on the same
    # function of log T.
    calls = _record_searches(monkeypatch)
    for lam, t_min in ((0.6, 1e-8), (0.15, 1e-18)):
        tc0(GAUSS3, 1.0, 3, lam, t_min_factor=t_min)
    assert {c[3] for c in calls} == {1e-14}
    assert len(calls) == 2
    for f, a, b, xtol in calls:
        _assert_lands_on_brentq(f, a, b, xtol)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: (1.0 - x, -1.0), 1.0, 2.0),                          # root at the left end
    (lambda x: (2.0 - x, -1.0), 1.0, 2.0),                          # root at the right end
    (lambda x: (0.5 - x ** 20, -20.0 * x ** 19), 0.0, 1.0),         # flat, then steep
    (lambda x: (1.0 - 3.0 * x, -3.0), -1.0, 2.0),                   # linear
    (lambda x: (-math.expm1(40.0 * (x - 0.97)), -40.0 * math.exp(40.0 * (x - 0.97))),
     0.0, 1.0),
], ids=["left-end", "right-end", "flat-steep", "linear", "exp-wall"])
@pytest.mark.parametrize("xtol", [1e-3, 1e-14], ids=["coarse", "fine"])
def test_newton_matches_brentq_on_analytic_functions(f, a, b, xtol):
    _assert_lands_on_brentq(f, a, b, xtol)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["gaussian", "exponential", "step", "tabulated"])
def test_search_slope_matches_central_difference(kind, d, monkeypatch):
    # The slope of the last search's f at T_c, lam a_T sum u_i^2 g_i with
    # _top2's u, against a central difference of f's value with step 1e-4
    # in log T.  f is exact to a few eps of a_T, as dense eigh's; those last
    # bits over the step are the difference's error, worst in d = 3.
    calls = _record_searches(monkeypatch)
    V, _ = _potential(kind, d)
    x = math.log(tc0(V, 1.0, d, 0.5).T_c)
    f, h = calls[-1][0], 1e-4
    slope = f(x)[1]
    assert (f(x + h)[0] - f(x - h)[0]) / (2.0 * h) == pytest.approx(slope, rel=1e-9)


def test_newton_returns_an_exact_zero():
    # f is 0.0 on [0.2, 0.4]: the Newton step from the secant point of its
    # ends, 0.5, lands on 0.4, which is returned, not bisected away from.
    def f(x):
        f.calls += 1
        return (0.6 - 3.0 * x, -3.0) if x < 0.2 else (0.4 - x, -1.0) if x > 0.4 else (0.0, 0.0)
    f.calls = 0
    assert _newton(f, 0.0, 1.0, 1e-14, 0.6, -0.6) == 0.4
    assert f.calls == 2


@pytest.mark.parametrize("seed", range(8))
def test_newton_stops_on_noisy_values(seed):
    # _newton keeps its safeguard for an f whose last bits are noise.
    # Noise of 1e-13 in lam a_T - 1 (power iteration's, before every solve
    # was exact) is 3e-12 in log T at the chain's slope of 0.03, far above
    # xtol = 1e-14.  A linear f with that noise and slope still ends within
    # the step budget, within xtol + 1e-13 / 0.03 of the root.  Seed 0 alternates the sign
    # of the noise, the rest draw it.
    rng = np.random.default_rng(seed)
    sign = iter(np.resize([1.0, -1.0], 100) if seed == 0 else rng.uniform(-1.0, 1.0, 100))
    root, xtol = -36.8, 1e-14

    def f(x):
        return -0.03 * (x - root) + 1e-13 * next(sign), -0.03
    a, b = root - 1.0, root + 2.0
    assert abs(_newton(f, a, b, xtol, f(a)[0], f(b)[0]) - root) <= xtol + 1e-13 / 0.03


def test_newton_raises_instead_of_returning_an_iterate(monkeypatch):
    from bcs import bs_solver
    with pytest.raises(SolverError, match="NaN"):
        _newton(lambda x: (0.75 - x, -1.0) if x <= 0.5 or x == 1.0 else (math.nan, -1.0),
                0.0, 1.0, 1e-14, 0.75, -0.25)
    monkeypatch.setattr(bs_solver, "_NEWTON_STEPS", 3)
    with pytest.raises(SolverError, match="did not converge in 3 steps"):
        _newton(lambda x: (0.5 - x ** 20, -20.0 * x ** 19), 0.0, 1.0, 1e-14, 0.5, -0.5)


def test_position_profile_shape_and_origin():
    state = ground_state(GAUSS3, 1.0, 3, 0.6, tc=tc0(GAUSS3, 1.0, 3, 0.6))
    r = np.array([0.0, 0.5, 1.0, 2.0])
    prof = position_profile(state, r)
    assert prof.shape == r.shape
    assert np.all(np.isfinite(prof))
    # the s-wave profile is positive and maximal at the origin
    assert prof[0] > 0.0
    assert prof[0] >= np.max(prof)
