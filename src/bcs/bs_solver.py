"""Translation-invariant Birman-Schwinger problem in the s-wave sector.

The operator V^(1/2) B_T(p, 0) |V|^(1/2) is discretized on a radial momentum
grid whose panels condense geometrically onto the Fermi surface in the shifted
variable u = p^2 - mu, so temperatures down to 1e-16 mu stay resolved.  Its
top eigenvalue a_T fixes the critical temperature through lam * a_T = 1.
The s-wave kernel w_d(p, q) is a position-space radial transform taken on
the fixed Gauss-Legendre rule of potentials.radial_edges, one matrix
product for every potential and every d.

The matrix is diag(s) W diag(s): W depends only on the grid, and the
temperature enters through the scaling s alone.  tc0 therefore builds W
once per refine level on a grid laid out for the lowest temperature it
tries, starting from the weak-coupling prediction lam e_mu m_mu(T) = 1,
and hands the closure grid and its W to ground_state, which takes the top
two eigenpairs by Lanczos on the product v -> s W (s v) without forming
the matrix or building W again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as _opt
from scipy.sparse import linalg as _sla

from .kernels import KernelParams, _fermi_shell_edges, bt_radial_shifted, m_mu
from .potentials import _SPHERE_AREA, RadialPotential, _radial_measure, e_mu
from .quad import _subdivide, gauss_panels
from .special import j_d


# Gauss nodes per grid panel.
_PANEL_NODES = 10
# Refine levels tc0 may go through, and the relative tolerance and step
# budget of the power iteration.
_MAX_REFINE = 3
_POWER_TOL = 1e-13
_POWER_STEPS = 600


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


def _w_matrix(V: RadialPotential, p: np.ndarray) -> np.ndarray:
    """w_d(p_i, p_j) = int V(r) j_d(r; p_i^2) j_d(r; p_j^2) r^(d-1) dr.

    One product J diag(V w r^(d-1)) J^T on the fixed radial rule for every
    potential and every d; the panels resolve the product's frequencies up
    to 2 p_max.  Symmetrized bit for bit, so diag(s) W diag(s) is too.
    """
    r, m = _radial_measure(V, 2.0 * float(p[-1]))
    J = j_d(np.multiply.outer(p, r), 1.0, V.d)
    W = (J * m) @ J.T
    return 0.5 * (W + W.T)


def _bs_scale(grid: SWaveDiscretization, params: KernelParams, d: int) -> np.ndarray:
    """s_i = sqrt(w_i) p_i^((d-1)/2) sqrt(B_i): the Birman-Schwinger matrix
    is diag(s) W diag(s)."""
    B = bt_radial_shifted(grid.shifted, params)
    return np.sqrt(grid.weights) * grid.nodes ** (0.5 * (d - 1)) * np.sqrt(B)


def _power_top(s: np.ndarray, W: np.ndarray, v0: np.ndarray | None):
    """Top eigenvalue and eigenvector of diag(s) W diag(s) by warm-started
    power iteration, the one route to a_T.  One product per step: the
    Rayleigh quotient's product is the next unnormalized iterate.  Raises
    SolverError when _POWER_STEPS steps do not converge."""
    n = len(s)
    v = np.ones(n) / math.sqrt(n) if v0 is None else v0
    u = s * (W @ (s * v))
    lam = 0.0
    for _ in range(_POWER_STEPS):
        nrm = np.linalg.norm(u)
        if nrm == 0.0:
            raise SolverError("matrix annihilated the iterate; potential too weak")
        u /= nrm
        su = s * (W @ (s * u))
        new = float(u @ su)
        if (abs(new - lam) <= _POWER_TOL * max(abs(new), 1e-300)
                and float(np.abs(u @ v)) > 0.999999):
            return new, u
        lam, v, u = new, u, su
    raise SolverError(f"power iteration did not converge in {_POWER_STEPS} steps")


@dataclass(frozen=True)
class Tc0Result:
    T_c: float
    lam: float
    closure: float          # |lam * a_T - 1| on the final refined grid
    refine_level: int
    w_builds: int           # W matrices built, the closure grids included
    temperature_evals: int  # top-eigenvalue solves, one per temperature tried
    # the potential, the closure grid and its W, on which ground_state solves
    V: RadialPotential = field(repr=False, compare=False)
    grid: SWaveDiscretization = field(repr=False, compare=False)
    W: np.ndarray = field(repr=False, compare=False)


def _predicted_tc(lam_em: float, mu: float, d: int, t_min: float, t_max: float) -> float:
    """Weak-coupling prediction: the root of lam e_mu m_mu(T) = 1 in log T,
    clamped to [t_min, t_max].  m_mu falls monotonically in T."""
    def g(ln_t):
        return lam_em * m_mu(KernelParams(T=math.exp(ln_t), mu=mu), d) - 1.0

    lo, hi = math.log(t_min), math.log(t_max)
    if g(lo) <= 0.0:
        return t_min
    if g(hi) >= 0.0:
        return t_max
    return math.exp(_opt.brentq(g, lo, hi, xtol=1e-3))


def tc0(V: RadialPotential, mu: float, d: int, lam: float, *,
        t_min_factor: float = 1e-8, t_max_factor: float = 1e3,
        tol: float = 1e-8) -> Tc0Result:
    """Critical temperature of the translation-invariant problem at coupling lam.

    The search stays inside [t_min_factor mu, t_max_factor mu].  Its first
    bracket is [T_pred/4, 4 T_pred] around the weak-coupling prediction
    lam e_mu m_mu(T_pred) = 1; an end that misses moves out by a factor 4,
    never past the window.  Each refine level builds one grid at the
    bracket's lower end, which resolves every higher T, and one W; a
    temperature only rescales it (diag(s) W diag(s)) and reuses the
    previous top eigenvector as the power-iteration start.  Brent's method
    in log T finds the root on that grid, and the closure |lam a_Tc - 1|
    must meet tol on the next finer grid, else the next level searches
    [T_c/2, 2 T_c].  The result carries that closure grid and its W.
    """
    if d != V.d:
        raise ValueError("potential dimension disagrees with requested d")
    if lam <= 0:
        raise ValueError("lam must be positive")
    t_min, t_max = t_min_factor * mu, t_max_factor * mu
    if not 0.0 < t_min < t_max:
        raise ValueError("need 0 < t_min_factor < t_max_factor")
    em = e_mu(V, mu)
    if em <= 0:
        raise SolverError("Fermi-surface coupling e_mu is not positive; no pairing instability")

    w_builds = temperature_evals = 0

    def level_matrix(level, T):
        nonlocal w_builds
        w_builds += 1
        g = build_grid(KernelParams(T=T, mu=mu), V, refine_level=level)
        return g, _w_matrix(V, g.nodes)

    def top(grid, W, T, v0=None):
        nonlocal temperature_evals
        temperature_evals += 1
        return _power_top(_bs_scale(grid, KernelParams(T=T, mu=mu), d), W, v0)

    def on_grid(level, T_lo):
        """lam a_T - 1 as a function of log T on one grid built at T_lo,
        each solve warm-started from the previous eigenvector."""
        grid, W = level_matrix(level, T_lo)
        seen, v = {}, None

        def f(ln_t):
            nonlocal v
            if ln_t not in seen:
                a, v = top(grid, W, math.exp(ln_t), v)
                seen[ln_t] = lam * a - 1.0
            return seen[ln_t]
        return f

    def root(level, T_lo, T_hi):
        """Brent root in log T; only moving the lower end down rebuilds W."""
        f = on_grid(level, T_lo)
        while f(math.log(T_lo)) <= 0.0:
            if T_lo <= t_min:
                raise SolverError(
                    f"T_c not bracketed above t_min_factor*mu = {t_min:.3e}; "
                    "the coupling may be too weak for the allowed range")
            T_lo, T_hi = max(0.25 * T_lo, t_min), T_lo
            f = on_grid(level, T_lo)
        while f(math.log(T_hi)) >= 0.0:
            if T_hi >= t_max:
                raise SolverError(f"T_c exceeds t_max_factor*mu = {t_max:.3e}")
            T_lo, T_hi = T_hi, min(4.0 * T_hi, t_max)
        return math.exp(_opt.brentq(f, math.log(T_lo), math.log(T_hi),
                                    xtol=1e-14, rtol=8.9e-16))

    T_pred = _predicted_tc(lam * em, mu, d, t_min, t_max)
    T_lo, T_hi = max(0.25 * T_pred, t_min), min(4.0 * T_pred, t_max)
    for level in range(_MAX_REFINE + 1):
        T_star = root(level, T_lo, T_hi)
        fine = min(level + 1, _MAX_REFINE)
        grid, W = level_matrix(fine, T_star)
        a, _ = top(grid, W, T_star)
        closure = abs(lam * a - 1.0)
        if closure <= tol:
            return Tc0Result(T_c=T_star, lam=lam, closure=closure, refine_level=fine,
                             w_builds=w_builds, temperature_evals=temperature_evals,
                             V=V, grid=grid, W=W)
        T_lo, T_hi = max(0.5 * T_star, t_min), min(2.0 * T_star, t_max)
    raise SolverError(f"closure |lam*a-1| stayed above {tol} after {_MAX_REFINE} refinements")


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
    It solves on the closure grid and W of tc, which must be the result of
    tc0 on the same V, mu, d and lam: its W is symmetric bit for bit and is
    not checked again, and a tc that disagrees on V, mu, d or lam raises
    ValueError.  The top two eigenpairs of diag(s) W diag(s) come from
    Lanczos (ARPACK eigsh) on the product v -> s W (s v), which never forms
    the matrix; a fixed start vector makes repeated calls bit-identical.
    Raises SolverError when the top of the spectrum is nearly degenerate.
    """
    grid, W = tc.grid, tc.W
    for name, agree in (("V", V == tc.V), ("d", d == V.d), ("lam", lam == tc.lam),
                        ("mu", abs(grid.mu - mu) <= 1e-15 * mu)):
        if not agree:
            raise ValueError(f"tc and the requested {name} disagree")
    params = KernelParams(T=tc.T_c, mu=mu)
    s = _bs_scale(grid, params, d)
    n = len(s)
    op = _sla.LinearOperator((n, n), matvec=lambda v: s * (W @ (s * v)), dtype=float)
    try:
        vals, vecs = _sla.eigsh(op, k=2, which="LA", v0=np.ones(n) / math.sqrt(n))
    except _sla.ArpackNoConvergence as exc:
        raise SolverError(f"Lanczos did not converge: {exc}") from None
    top, second = float(vals[1]), float(vals[0])
    u = vecs[:, 1]
    if float(np.sum(grid.weights * u)) < 0:
        u = -u
    gap = (top - second) / top
    if gap < 1e-8:
        raise SolverError(f"near-degenerate ground state: relative gap {gap:.2e}")

    # s^2 = B meas, so phi = sqrt(B / meas) u = s u / meas
    meas = grid.weights * grid.nodes ** (d - 1)
    B = s * s / meas
    phi = s * u / meas

    ip = _SPHERE_AREA[d] * float((meas * phi) @ W @ (meas * phi))
    target = _SPHERE_AREA[d] * e_mu(V, mu)
    phi = phi * math.sqrt(target / ip)

    rhs = lam * B * (W @ (meas * phi))
    eval_res = float(np.max(np.abs(phi - rhs)) / np.max(np.abs(phi)))
    return GroundState(mu=mu, d=d, lam=lam, T_c=tc.T_c, grid=grid, phi_hat=phi,
                       spectral_gap=gap, eval_eq_residual=eval_res,
                       closure=abs(lam * top - 1.0))


def position_profile(state: GroundState, r) -> np.ndarray:
    """Position-space radial profile of the ground state.

    Phi(r) = sum_i w_i p_i^(d-1) phi_hat_i j_d(r; p_i^2), the inverse radial
    Fourier transform of the s-wave density phi_hat.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    p = state.grid.nodes
    coef = state.grid.weights * p ** (state.d - 1) * state.phi_hat
    return coef @ j_d(np.multiply.outer(p, r), 1.0, state.d)
