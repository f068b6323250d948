"""Translation-invariant Birman-Schwinger problem in the s-wave sector.

The operator V^(1/2) B_T(p, 0) |V|^(1/2) is discretized on a radial momentum
grid whose panels condense geometrically onto the Fermi surface in the shifted
variable u = p^2 - mu, so temperatures down to 1e-16 mu stay resolved.  Its
top eigenvalue a_T fixes the critical temperature through lam * a_T = 1.
The s-wave kernel w_d(p, q) = sum_k m_k j_d(p r_k) j_d(q r_k), with
m = V w r^(d-1) on the fixed radial rule r_k of potentials.radial_edges,
is band-limited in p and q since r_k <= rc.  So W = L Wc L^T for every
potential and d: Wc is the kernel on the quad._chebyshev_count(rc, P)
Chebyshev points X of [0, P], P = p_max, set by V and mu alone, and L is
the barycentric Lagrange matrix of X onto a grid.  Wc, positive semidefinite
for V >= 0, has a numerical rank k far below its size nc (30 of 82 points
for the chain), so tc0 factors it once, Wc = Z Z^T (nc x k), and each grid
holds Y = L Z (n x k): W = Y Y^T.  The matrix is diag(s) W diag(s); W is
never formed, and the temperature enters through s alone.  tc0 searches
its whole temperature window on one grid laid at the window's lower end.
Every a_T, in the search and at the closure, is one exact solve, _top2:
the k x k Gram matrix of diag(s) Y shares its nonzero spectrum.
ground_state takes the closure's grid, Y, top eigenpair and gap from tc0
and solves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelParams, _fermi_shell_edges, bt_log_slope, bt_radial_shifted
from .potentials import RadialPotential, _radial_waves, e_mu
from .quad import _chebyshev_count, _chebyshev_points, _lagrange, _subdivide, gauss_panels
from .special import j_d


# Gauss nodes per grid panel.
_PANEL_NODES = 10
# The eigenvalues of W's table kept in its factor, relative to the top one.
_RANK_EPS = 1e-16
# The root search's step budget.
_NEWTON_STEPS = 100
# The roundoff floor of f = lam a - 1 near its root: below it the last bits
# of f are noise, so _newton takes that Newton step and returns.
_F_FLOOR = 16.0 * np.finfo(float).eps


class SolverError(Exception):
    """Eigenvalue problem or temperature search failed its contract."""


@dataclass(frozen=True)
class SWaveDiscretization:
    """Radial momentum grid with Fermi-surface-exact shifted coordinates.

    ``shifted`` holds a_i = p_i^2 - mu computed in the u variable where the
    panels were laid out, so near-surface values keep full precision even
    when p_i - sqrt(mu) is below machine epsilon.
    """

    mu: float
    nodes: np.ndarray
    weights: np.ndarray
    shifted: np.ndarray
    p_max: float

    def __post_init__(self):
        p, w, a = self.nodes, self.weights, self.shifted
        if p.ndim != 1 or p.shape != w.shape or p.shape != a.shape:
            raise ValueError("nodes, weights and shifted must be matching 1-d arrays")
        if p[0] <= 0 or np.any(np.diff(p) < 0):
            raise ValueError("nodes must be positive and nondecreasing")
        # strict ordering lives in the shifted coordinate: p values within
        # machine epsilon of the Fermi momentum legitimately tie
        if np.any(np.diff(a) <= 0):
            raise ValueError("shifted coordinates must be strictly increasing")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(float(np.sum(w)) - self.p_max) > 1e-8 * self.p_max:
            raise ValueError("weights do not resolve the identity up to p_max")
        if a[0] >= 0 or a[-1] <= 0 or np.any(a == 0.0):
            raise ValueError("Fermi surface must lie strictly between grid shells")

    def __len__(self):
        return len(self.nodes)


def build_grid(params: KernelParams, V: RadialPotential, *,
               refine_level: int = 0) -> SWaveDiscretization:
    """Lay out the radial grid for the given temperature and potential range.

    The Fermi shell |p^2 - mu| < mu/2 is paneled in u = p^2 - mu on the
    edges of kernels._fermi_shell_edges at min(T, 1e-3 mu), which double
    from that innermost width out to mu/2 on either side of u = 0; outside
    the shell plain p panels at most sqrt(mu) / 4 wide run down to 0 and up
    to p_max, at least 12 / V.range_scale past the Fermi momentum.
    refine_level = k splits every panel into 2^k equal parts (quad._subdivide),
    and every panel takes _PANEL_NODES Gauss nodes.  The low side, the shell
    and the high side follow each other in ascending order.
    """
    T, mu = params.T, params.mu
    sq_mu = math.sqrt(mu)
    p_max = max(4.0 * math.sqrt(2.0 * mu), sq_mu + 12.0 / V.range_scale)
    parts = 2 ** refine_level

    u, u_w = gauss_panels(
        _subdivide(_fermi_shell_edges(min(T, 1e-3 * mu), mu)[0], parts), _PANEL_NODES)
    (lo, lo_w), (hi, hi_w) = [
        gauss_panels(_subdivide([a, b], math.ceil((b - a) / (0.25 * sq_mu)) * parts), _PANEL_NODES)
        for a, b in ((0.0, math.sqrt(0.5 * mu)), (math.sqrt(1.5 * mu), p_max))]
    p = np.sqrt(mu + u)
    return SWaveDiscretization(
        mu=mu, nodes=np.concatenate([lo, p, hi]),
        weights=np.concatenate([lo_w, u_w / (2.0 * p), hi_w]),
        shifted=np.concatenate([lo * lo - mu, u, hi * hi - mu]), p_max=p_max)


def _w_table(V: RadialPotential, P: float) -> np.ndarray:
    """Z, nc x k, with Wc = Z Z^T up to _RANK_EPS: Wc = Jc diag(m) Jc^T, with
    Jc, m = _radial_waves(V, X, 2 P), is the kernel w_d on the nc =
    quad._chebyshev_count(rc, P) Chebyshev points X of [0, P].  The radial
    rule stops at rc = V.cutoff_radius(), so X interpolates j_d(q r) in q on
    [0, P] to 1e-16.  Wc is positive semidefinite for V >= 0: Z = U_k g_k^(1/2)
    keeps its eigenpairs above _RANK_EPS times the top one, g_1, and drops
    the rest, eigh's roundoff below 0 included.  By Weyl the cutoff moves no
    eigenvalue of diag(s) L Wc L^T diag(s) by more than _RANK_EPS g_1
    |diag(s) L|^2, at most 1.04e-14 a_T on the four kinds' level-0 grids."""
    X = _chebyshev_points(_chebyshev_count(V.cutoff_radius(), P), P)[0]
    Jc, m = _radial_waves(V, X, 2.0 * P)
    g, U = np.linalg.eigh((Jc * m) @ Jc.T)
    keep = g > _RANK_EPS * g[-1]
    return U[:, keep] * np.sqrt(g[keep])


def _w_lagrange(p: np.ndarray, nc: int, P: float) -> np.ndarray:
    """L, the barycentric Lagrange matrix of the nc Chebyshev points of [0, P]
    onto p <= P, so W = L Wc L^T on p: n x nc, 2 MiB for the chain."""
    _, K, s = _lagrange(p, np.zeros(1), *_chebyshev_points(nc, P))
    K /= s
    return K.T


def _bs_scale(grid: SWaveDiscretization, params: KernelParams, d: int) -> np.ndarray:
    """s_i = sqrt(w_i) p_i^((d-1)/2) sqrt(B_i): the Birman-Schwinger matrix
    is diag(s) W diag(s)."""
    B = bt_radial_shifted(grid.shifted, params)
    return np.sqrt(grid.weights) * grid.nodes ** (0.5 * (d - 1)) * np.sqrt(B)


def _top2(s: np.ndarray, Y: np.ndarray):
    """Top two eigenvalues and the unit top eigenvector of B B^T, B =
    diag(s) Y, the matrix diag(s) W diag(s) with W = Y Y^T.  The k x k Gram
    matrix B^T B shares its nonzero spectrum, so one eigh of it gives the
    pair exactly, and B^T B y = a y makes B y / sqrt(a) the unit
    eigenvector.  No iteration, tolerance or start vector; 2 n k^2 + O(k^3)
    flops."""
    B = s[:, None] * Y
    theta, y = np.linalg.eigh(B.T @ B)
    return float(theta[-1]), float(theta[-2]), B @ y[:, -1] / math.sqrt(theta[-1])


def _newton(f, lo: float, hi: float, xtol: float, f_lo: float, f_hi: float) -> float:
    """Root in [lo, hi] of f(x) -> (value, slope), which falls through zero
    there: the caller checked the ends, f(lo) = f_lo >= 0 >= f(hi) = f_hi
    and f_lo > f_hi.  Newton steps start from the secant point of those two
    values.  Once |f| <= _F_FLOOR its last bits are noise: the search takes
    that Newton step (if it stays in the bracket) and returns.  Otherwise a
    step that would leave the bracket, or is over half the step before last,
    bisects instead, so the search ends at the first step at most xtol long
    even when f is noisy, at the latest once the bracket closes to xtol;
    with noise e in f that point is within xtol + e / |slope| of the root.
    SolverError on NaN and after _NEWTON_STEPS steps."""
    x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    steps = (hi - lo, hi - lo)  # the last two steps
    for _ in range(_NEWTON_STEPS):
        fx, slope = f(x)
        if math.isnan(fx) or math.isnan(slope):
            raise SolverError(f"root search met NaN at x = {x!r}")
        lo, hi = (x, hi) if fx > 0.0 else (lo, x)
        step = -fx / slope if slope else math.inf
        if abs(fx) <= _F_FLOOR:
            return x + step if lo <= x + step <= hi else x
        if not (lo <= x + step <= hi and abs(step) <= 0.5 * abs(steps[0])):
            step = 0.5 * (lo + hi) - x
        x, steps = x + step, (steps[1], step)
        if abs(step) <= xtol:
            return x
    raise SolverError(f"root search did not converge in {_NEWTON_STEPS} steps")


@dataclass(frozen=True)
class Tc0Result:
    """tc0's T_c with how the search reached it, and what ground_state takes
    over: the closure grid, W = Y Y^T on it as its factor, the top eigenpair."""
    T_c: float
    lam: float
    closure: float          # |lam * a_T - 1| on the level-1 closure grid
    spectral_gap: float     # (a_T - a_2) / a_T there
    temperature_evals: int  # eigen-solves, one per temperature tried and per closure
    V: RadialPotential = field(repr=False, compare=False)
    grid: SWaveDiscretization = field(repr=False, compare=False)
    Y: np.ndarray = field(repr=False, compare=False)
    a_T: float = field(repr=False, compare=False)
    u: np.ndarray = field(repr=False, compare=False)


def tc0(V: RadialPotential, mu: float, d: int, lam: float, *,
        t_min_factor: float = 1e-8, t_max_factor: float = 1e3,
        tol: float = 1e-8) -> Tc0Result:
    """Critical temperature of the translation-invariant problem at coupling lam.

    mu, lam and the window must be positive and finite, else ValueError; so
    must V be nonnegative: B^T B, B = diag(s) Y, shares the top of diag(s) W
    diag(s) only when W = Y Y^T, positive semidefinite as for V >= 0.  The search
    brackets T_c by its window [t_min, t_max] = [t_min_factor, t_max_factor]
    mu: it builds one level-0 grid at t_min, which resolves every T of the
    window, and Y = L Z on it, Z the table factor; a temperature only
    rescales W, so each one is a _top2 solve.  f = lam a_T - 1 must fall
    through zero on the window, else SolverError names the end that misses.
    _newton finds the root on that grid in log T, from the secant point of
    the window ends' values, with the Hellmann-Feynman slope lam a_T sum
    u_i^2 g_i (u the unit top eigenvector, g = d ln B_T / d ln T).  The
    closure |lam a_Tc - 1| is one more _top2 solve on the level-1 grid,
    counted in temperature_evals; it must meet tol, else SolverError names
    it.  The result carries that grid, Y, top eigenpair and gap; nothing is
    n x n."""
    if d != V.d:
        raise ValueError("potential dimension disagrees with requested d")
    for name, value in (("mu", mu), ("lam", lam)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    t_min, t_max = t_min_factor * mu, t_max_factor * mu
    if not 0.0 < t_min < t_max:
        raise ValueError("need 0 < t_min_factor < t_max_factor")
    if t_max == math.inf:
        raise ValueError("t_max_factor * mu must be finite")
    if not V.is_nonnegative():
        raise ValueError("tc0 needs a nonnegative potential: B^T B shares the top of "
                         "diag(s) W diag(s) only when W has no negative eigenvalues")
    if e_mu(V, mu) <= 0:
        raise SolverError("Fermi-surface coupling e_mu is not positive; no pairing instability")

    temperature_evals = 0
    grid = build_grid(KernelParams(T=t_min, mu=mu), V)
    Z = _w_table(V, grid.p_max)
    Y = _w_lagrange(grid.nodes, len(Z), grid.p_max) @ Z

    def f(ln_t, slope=True):
        """lam a_T - 1 in log T on the search grid, with its slope unless
        slope=False."""
        nonlocal temperature_evals
        temperature_evals += 1
        params = KernelParams(T=math.exp(ln_t), mu=mu)
        a, _, u = _top2(_bs_scale(grid, params, d), Y)
        if not slope:
            return lam * a - 1.0
        return lam * a - 1.0, lam * a * float((u * u) @ bt_log_slope(grid.shifted, params))

    lo, hi = math.log(t_min), math.log(t_max)
    if (f_lo := f(lo, slope=False)) <= 0.0:
        raise SolverError(f"T_c not bracketed above t_min_factor*mu = {t_min:.3e}; "
                          "the coupling may be too weak for the allowed range")
    if (f_hi := f(hi, slope=False)) >= 0.0:
        raise SolverError(f"T_c exceeds t_max_factor*mu = {t_max:.3e}")
    T_c = math.exp(_newton(f, lo, hi, 1e-14, f_lo, f_hi))
    del f, grid, Y  # the search grid and its Y go before the closure grid is built

    grid = build_grid(KernelParams(T=T_c, mu=mu), V, refine_level=1)
    Y = _w_lagrange(grid.nodes, len(Z), grid.p_max) @ Z
    a, second, u = _top2(_bs_scale(grid, KernelParams(T=T_c, mu=mu), d), Y)
    closure = abs(lam * a - 1.0)
    if closure > tol:
        raise SolverError(f"closure |lam*a-1| = {closure:.3e} on the level-1 grid "
                          f"misses tol = {tol}")
    return Tc0Result(T_c=T_c, lam=lam, closure=closure, spectral_gap=(a - second) / a,
                     temperature_evals=temperature_evals + 1,
                     V=V, grid=grid, Y=Y, a_T=a, u=u)


@dataclass(frozen=True)
class GroundState:
    mu: float
    d: int
    lam: float
    T_c: float
    grid: SWaveDiscretization
    phi_hat: np.ndarray
    spectral_gap: float
    eval_eq_residual: float
    closure: float


def ground_state(V: RadialPotential, mu: float, d: int, lam: float, *,
                 tc: Tc0Result) -> GroundState:
    """Normalized s-wave ground state at the critical temperature.

    phi_hat solves phi = lam B_T (V phi)^ on the grid; it is scaled so
    <phi, V phi> = |S^(d-1)| e_mu and signed positive at the Fermi surface.
    It takes the closure grid, Y, and the top eigenpair and spectral gap of
    tc0's closure solve from tc, which must be the result of
    tc0 on the same V, mu, d and lam: a tc that disagrees on V, mu, d or
    lam raises ValueError.  Nothing is built and no eigen-solver runs here,
    so closure and spectral_gap are tc's bit for bit.  Raises SolverError
    when the top of the spectrum is nearly degenerate.
    """
    grid = tc.grid
    for name, agree in (("V", V == tc.V), ("d", d == V.d), ("lam", lam == tc.lam),
                        ("mu", abs(grid.mu - mu) <= 1e-15 * mu)):
        if not agree:
            raise ValueError(f"tc and the requested {name} disagree")
    s = _bs_scale(grid, KernelParams(T=tc.T_c, mu=mu), d)
    u = -tc.u if float(np.sum(grid.weights * tc.u)) < 0 else tc.u
    if tc.spectral_gap < 1e-8:
        raise SolverError(f"near-degenerate ground state: relative gap {tc.spectral_gap:.2e}")

    # s^2 = B meas, so phi = sqrt(B / meas) u = s u / meas
    meas = grid.weights * grid.nodes ** (d - 1)
    B = s * s / meas
    phi = s * u / meas

    # <phi, V phi> / |S^(d-1)| = (meas phi) W (meas phi)
    Wx = tc.Y @ ((meas * phi) @ tc.Y)
    scale = math.sqrt(e_mu(V, mu) / float((meas * phi) @ Wx))
    phi, rhs = scale * phi, lam * B * Wx * scale
    eval_res = float(np.max(np.abs(phi - rhs)) / np.max(np.abs(phi)))
    return GroundState(mu=mu, d=d, lam=lam, T_c=tc.T_c, grid=grid, phi_hat=phi,
                       spectral_gap=tc.spectral_gap, eval_eq_residual=eval_res,
                       closure=tc.closure)


def position_profile(state: GroundState, r) -> np.ndarray:
    """Position-space radial profile of the ground state.

    Phi(r) = sum_i w_i p_i^(d-1) phi_hat_i j_d(r; p_i^2), the inverse radial
    Fourier transform of the s-wave density phi_hat.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    p = state.grid.nodes
    coef = state.grid.weights * p ** (state.d - 1) * state.phi_hat
    return coef @ j_d(np.multiply.outer(p, r), 1.0, state.d)
