"""Independent reference routes and frozen reference values.

Nothing in this module imports the package under test.  Each oracle is a
separate numerical route to a quantity the library also computes, built
from elementary scipy/numpy calls, so agreement is evidence rather than
tautology.  The FROZEN_* literals were produced by these oracles (or, where
noted, by the mpmath generators at the bottom at 30 digits) and are pinned
so regressions show up as plain numeric diffs.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import integrate, interpolate, special


# ---------------------------------------------------------------------------
# quadrature oracles
# ---------------------------------------------------------------------------

def midpoint_richardson(f, a, b, n0: int = 32, levels: int = 8) -> float:
    """Composite midpoint sums on doubling grids, Richardson-extrapolated.

    Endpoint-free, so mild integrable endpoint singularities are fine.  The
    midpoint rule has an even error expansion, giving 4^k extrapolation
    weights.
    """
    estimates = []
    n = n0
    for _ in range(levels):
        x = a + (b - a) * (np.arange(n) + 0.5) / n
        estimates.append((b - a) / n * math.fsum(f(t) for t in x))
        n *= 2
    row = list(estimates)
    for k in range(1, len(row)):
        fac = 4.0 ** k
        row = [(fac * row[i + 1] - row[i]) / (fac - 1.0)
               for i in range(len(row) - 1)]
    return row[0]


def brute_semiinfinite(f, a: float, rel_tol: float = 1e-12,
                       max_blocks: int = 64) -> float:
    """Semi-infinite integral by doubling blocks until increments vanish."""
    total = 0.0
    left = a
    width = max(1.0, abs(a))
    for _ in range(max_blocks):
        val, _ = integrate.quad(f, left, left + width, limit=200)
        total += val
        if abs(val) <= rel_tol * max(abs(total), 1e-300):
            return total
        left += width
        width *= 2.0
    raise RuntimeError("semi-infinite brute force did not settle")


def fourier_tail(amplitude, omega: float, start: float, kind: str) -> float:
    """Oscillatory tail integral via QUADPACK's Fourier transform routine.

    kind "cos"/"sin" integrate amplitude(x) * trig(omega x) on [start, inf);
    "sin2" uses sin^2 = (1 - cos(2 omega x))/2 and requires the amplitude
    itself to be integrable.
    """
    if kind == "sin2":
        plain = brute_semiinfinite(amplitude, start)
        osc, _ = integrate.quad(amplitude, start, np.inf, weight="cos",
                                wvar=2.0 * omega, limlst=200)
        return 0.5 * (plain - osc)
    if kind not in ("cos", "sin"):
        raise ValueError(f"unknown kind {kind!r}")
    val, _ = integrate.quad(amplitude, start, np.inf, weight=kind,
                            wvar=omega, limlst=200)
    return val


def euler_alternating_sum(terms) -> float:
    """Sum an alternating series by the Euler transformation.

    For terms (-1)^j a_j with a_j positive decreasing, the identity
    sum = sum_k D^k a_0 / 2^(k+1) with D a_j = a_j - a_{j+1} converges
    geometrically.  The first few raw terms are summed directly.
    """
    head_n = min(8, len(terms) // 2)
    head = math.fsum(terms[:head_n])
    tail = terms[head_n:]
    if not tail:
        return head
    sign = math.copysign(1.0, tail[0]) if tail[0] != 0.0 else 1.0
    row = [abs(t) for t in tail]
    total = 0.0
    k = 0
    while row and k < 48:
        total += row[0] / 2.0 ** (k + 1)
        row = [row[i] - row[i + 1] for i in range(len(row) - 1)]
        k += 1
    return head + sign * total


def euler_half_period_tail(amplitude, omega: float, start: float,
                           kind: str, n_terms: int = 40) -> float:
    """Oscillatory tail by half-period blocks plus the Euler transform.

    A hand-rolled third route, independent of both the package and QUADPACK:
    integrals over consecutive half-periods of the trig factor alternate in
    sign once the amplitude decays monotonically.
    """
    if kind == "sin2":
        plain = brute_semiinfinite(amplitude, start)
        return 0.5 * (plain - euler_half_period_tail(
            amplitude, 2.0 * omega, start, "cos", n_terms))
    trig = math.cos if kind == "cos" else math.sin
    shift = 0.5 * math.pi if kind == "cos" else 0.0
    # first zero of trig(omega x) at or after start
    n0 = math.ceil((omega * start - shift) / math.pi)
    z = (shift + n0 * math.pi) / omega
    head, _ = integrate.quad(lambda x: amplitude(x) * trig(omega * x),
                             start, z, limit=200)
    terms = []
    for j in range(n_terms):
        z_next = (shift + (n0 + j + 1) * math.pi) / omega
        val, _ = integrate.quad(lambda x: amplitude(x) * trig(omega * x),
                                z, z_next, limit=200)
        terms.append(val)
        z = z_next
    return head + euler_alternating_sum(terms)


# ---------------------------------------------------------------------------
# linear algebra oracle
# ---------------------------------------------------------------------------

def jacobi_eigenvalues(A, tol: float = 1e-13, max_sweeps: int = 100):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(A, dtype=float, copy=True)
    n = A.shape[0]
    if A.shape != (n, n) or not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("need a symmetric square matrix")
    scale = max(1.0, float(np.abs(A).max()))
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(np.tril(A, -1) ** 2)))
        if off <= tol * scale:
            return np.sort(np.diag(A))[::-1]
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) <= 1e-300:
                    continue
                theta = 0.5 * (A[q, q] - A[p, p]) / A[p, q]
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
    raise RuntimeError("Jacobi sweeps did not converge")


# ---------------------------------------------------------------------------
# special function oracles
# ---------------------------------------------------------------------------

def si_quadrature(x: float) -> float:
    val, _ = integrate.quad(lambda t: math.sin(t) / t if t else 1.0, 0.0, x,
                            limit=200)
    return val


def cin_quadrature(x: float) -> float:
    val, _ = integrate.quad(
        lambda t: (1.0 - math.cos(t)) / t if t else 0.0, 0.0, x, limit=200)
    return val


def j0_power_series(x: float, terms: int = 60) -> float:
    """Bessel J0 from its power series; accurate to ~1e-12 for |x| <= 12."""
    z = -0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, terms):
        term *= z / (k * k)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def first_j0_zero_bisect() -> float:
    """First positive zero of J0 by bisection on the power series."""
    lo, hi = 2.0, 3.0
    flo = j0_power_series(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = j0_power_series(mid)
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# potential-side oracles
# ---------------------------------------------------------------------------

def gaussian_hat_closed(a: float, ell: float, d: int, k: float) -> float:
    """Closed-form radial Fourier transform of a * exp(-(r/ell)^2)."""
    return a * (0.5 * ell * ell) ** (0.5 * d) * math.exp(-0.25 * (k * ell) ** 2)


def exponential_hat_closed(a: float, ell: float, d: int, k: float) -> float:
    """Closed-form radial Fourier transform of a * exp(-r/ell): Laplace
    transforms of cos(kr), r J0(kr) and r sin(kr)/k at s = 1/ell."""
    x = 1.0 + (k * ell) ** 2
    if d == 1:
        return math.sqrt(2.0 / math.pi) * a * ell / x
    if d == 2:
        return a * ell * ell / x ** 1.5
    return math.sqrt(2.0 / math.pi) * 2.0 * a * ell ** 3 / (x * x)


def step_hat_closed(a: float, R: float, d: int, k: float) -> float:
    """Closed-form radial Fourier transform of a on [0, R]."""
    x = k * R
    if d == 1:
        return math.sqrt(2.0 / math.pi) * a * R * (math.sin(x) / x if x else 1.0)
    if d == 2:
        return a * R * R * (special.j1(x) / x if x else 0.5)
    # (sin x - x cos x) / x^3 cancels below x = 0.01, where three terms of
    # its series are exact to rounding
    if x < 1e-2:
        c = 1.0 / 3.0 - x * x / 30.0 + x ** 4 / 840.0
    else:
        c = (math.sin(x) - x * math.cos(x)) / x ** 3
    return math.sqrt(2.0 / math.pi) * a * R ** 3 * c


def _table_rule(r, v, d: int, n: int):
    """Nodes and masses V(r) w r^(d-1) of an n-point Gauss rule on every
    piece between knots of the monotone cubic through (r, v), where the
    interpolant is one cubic; zero beyond the last sample."""
    pp = interpolate.PchipInterpolator(np.asarray(r, float), np.asarray(v, float))
    x, w = np.polynomial.legendre.leggauss(n)
    lo, h = pp.x[:-1, None], np.diff(pp.x)[:, None]
    nodes = (lo + 0.5 * h * (x + 1.0)).ravel()
    return nodes, (0.5 * h * w).ravel() * pp(nodes) * nodes ** (d - 1)


def table_hat(r, v, d: int):
    """k -> radial Fourier transform of the monotone cubic through (r, v),
    zero beyond the last sample, on 48 Gauss points per knot interval."""
    nodes, mass = _table_rule(r, v, d, 48)

    def vhat(k):
        z = k * nodes
        if d == 1:
            j = math.sqrt(2.0 / math.pi) * np.cos(z)
        elif d == 2:
            j = special.j0(z)
        else:
            j = math.sqrt(2.0 / math.pi) * np.sinc(z / math.pi)
        return float(mass @ j)
    return vhat


def table_d2_transforms(r, v, mu: float):
    """Vhat(k) = int V J0(k r) r dr and (V j2)^(s) = int V J0(sqrt(mu) r)
    J0(s r) r dr of the monotone cubic through (r, v) in d = 2, elementwise,
    on 32 Gauss points per knot interval: for arguments up to 24 on unit
    intervals, 24, 32 and 48 points give the same d = 2 form to 1.4e-15.
    Each distinct argument is transformed once."""
    nodes, mass = _table_rule(r, v, 2, 32)

    def transform(m):
        def f(k):
            k = np.asarray(k, dtype=float)
            uk, inv = np.unique(k, return_inverse=True)
            out = np.concatenate([special.j0(np.outer(uk[i:i + 4096], nodes)) @ m
                                  for i in range(0, len(uk), 4096)])
            return out[inv].reshape(k.shape)
        return f
    return transform(mass), transform(mass * special.j0(math.sqrt(mu) * nodes))


def angular_average_vhat(vhat, d: int, p: float, q: float) -> float:
    """w_d(p, q) from the momentum side: the average of Vhat(|p - q|) over
    the angle between two momenta of lengths p and q, by QUADPACK over the
    angle (its cosine in d = 3); the d = 1 "angle" is the two-point average
    over relative signs.  ``vhat`` is the radial transform as a callable."""
    if p < 0 or q < 0:
        raise ValueError("momenta must be nonnegative")
    if d == 1:
        return (vhat(abs(p - q)) + vhat(p + q)) / math.sqrt(2.0 * math.pi)
    # |p - q|^2 written without the cancellation of p^2 + q^2 - 2pq cos
    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
    if d == 2:
        val, _ = integrate.quad(lambda th: vhat(math.sqrt(
            (p - q) ** 2 + 4.0 * p * q * math.sin(0.5 * th) ** 2)), 0.0, math.pi, **opts)
        return val / math.pi
    val, _ = integrate.quad(lambda s: vhat(math.sqrt(
        (p - q) ** 2 + 2.0 * p * q * (1.0 - s))), -1.0, 1.0, **opts)
    return val / math.sqrt(2.0 * math.pi)


def e_mu_sphere_average(vhat, d: int, mu: float) -> float:
    """Fermi-surface coupling from the momentum side: w_d(sqrt(mu), sqrt(mu)),
    the Fermi-sphere average of Vhat over pair separations."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return angular_average_vhat(vhat, d, math.sqrt(mu), math.sqrt(mu))


def gaussian_w3_closed(a: float, ell: float, p, q):
    """w_3(p, q) for V = a exp(-r^2/ell^2) in d = 3, elementwise in p, q > 0.

    The angular integral of the Gaussian Vhat is an exponential difference,
    written through expm1 so that p q -> 0 stays stable.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    ell2 = ell * ell
    pref = a * (0.5 * ell2) ** 1.5 / math.sqrt(2.0 * math.pi)
    c = 0.5 * ell2 * p * q
    return pref * np.exp(-0.25 * ell2 * (p - q) ** 2) * (-np.expm1(-2.0 * c)) / c


def _tight_quad(f, rc: float, points) -> float:
    """Integral of f over [0, rc], tight enough to check library values at
    machine precision, with panel breaks at ``points``.

    The absolute tolerance is 1e-13 of the integral of |f|, taken by a
    coarse midpoint sum on 256 points: the rounding floor of the integrand
    scales with its size, so a fixed absolute tolerance sits below it for
    large or cancelling integrands and QUADPACK cannot certify it.
    """
    pts = [x for x in (() if points is None else points) if 0.0 < x < rc]
    scale = rc / 256 * math.fsum(abs(f(x)) for x in (np.arange(256) + 0.5) * (rc / 256))
    val, _ = integrate.quad(f, 0.0, rc, points=pts or None, limit=400,
                            epsabs=1e-13 * scale, epsrel=1e-13)
    return val


def wd_position_space(value, rc: float, d: int, p: float, q: float,
                      points=None) -> float:
    """Angular average of Vhat over momenta of lengths p and q, but computed
    from the position side (trig/Bessel product identities), so it shares no
    code path with the momentum-space implementation.

    ``value`` is the radial profile callable; ``rc`` its support radius;
    ``points`` the radii where it has kinks (a table's knots).
    """
    if d == 1:
        f = lambda r: value(r) * math.cos(p * r) * math.cos(q * r)
        pref = 2.0 / math.pi
    elif d == 2:
        f = lambda r: value(r) * special.j0(p * r) * special.j0(q * r) * r
        pref = 1.0
    elif d == 3:
        f = lambda r: value(r) * math.sin(p * r) * math.sin(q * r)
        pref = 2.0 / (math.pi * p * q)
    else:
        raise ValueError("d must be 1, 2 or 3")
    return pref * _tight_quad(f, rc, points)


def vmu_position_space(value, rc: float, d: int, mu: float, ell: int,
                       points=None) -> float:
    """Angular-momentum component of the Fermi-surface interaction from the
    Bessel addition theorem: products of (spherical) Bessel functions in
    position space replace the momentum-side projection integrals.
    ``points`` are the radii where ``value`` has kinks (a table's knots).
    """
    root_mu = math.sqrt(mu)
    if d == 2:
        f = lambda r: value(r) * special.jv(ell, root_mu * r) ** 2 * r
        pref = 1.0
    elif d == 3:
        f = lambda r: value(r) * special.spherical_jn(ell, root_mu * r) ** 2 * r * r
        pref = 2.0 / math.pi
    else:
        raise ValueError("d must be 2 or 3")
    return pref * _tight_quad(f, rc, points)


def moment_position_space(value, rc: float, d: int, n: int, points=None) -> float:
    """Integral of V(|x|) |x|^n over R^d as a radial integral times the
    area of the unit sphere; ``points`` as in vmu_position_space."""
    area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[d]
    return area * _tight_quad(lambda r: value(r) * r ** (n + d - 1), rc, points)


def line_integrals(value, rc: float, y: float, mu: float, points=None):
    """U(y), the integral of V(sqrt(x^2 + y^2)) over the whole x line, and
    A(y), the same of V(r) J0(sqrt(mu) r), by QUADPACK in x on
    [0, sqrt(rc^2 - y^2)], broken where r crosses ``points``."""
    xs = [math.sqrt(b * b - y * y) for b in points or () if b > y]
    u = lambda x: value(math.hypot(x, y))
    a = lambda x: u(x) * special.j0(math.sqrt(mu) * math.hypot(x, y))
    x_max = math.sqrt(rc * rc - y * y)
    return 2.0 * _tight_quad(u, x_max, xs), 2.0 * _tight_quad(a, x_max, xs)


def m_mu_substitution(T: float, mu: float, d: int) -> float:
    """Fermi-shell mass via the substitution u = (t^2 - mu)/(2T).

    m = int_0^{mu/2T} tanh(u)/(2u) [(mu+2Tu)^w + (mu-2Tu)^w] du with
    w = (d-2)/2; for d = 2 this is the plain tanh(u)/u integral.
    """
    w = 0.5 * (d - 2)
    upper = 0.5 * mu / T

    def f(u):
        ratio = math.tanh(u) / u if u > 1e-8 else 1.0 - u * u / 3.0
        return 0.5 * ratio * ((mu + 2.0 * T * u) ** w + (mu - 2.0 * T * u) ** w)

    pts = [10.0 ** k for k in range(0, int(math.log10(upper)) + 1)] \
        if upper > 1.0 else []
    val, _ = integrate.quad(f, 0.0, upper, points=pts or None,
                            limit=400)
    return val


# ---------------------------------------------------------------------------
# kernel oracles: direct textbook formulas, and the log-space kernel K_T
# with the tanh mean inequality.  The library computes only the diagonal
# B_T(p, 0) = 1 / K(a, a); criterion 09 checks the inequalities here and
# ties this K_T to it.
# ---------------------------------------------------------------------------

def kt_direct(a: float, b: float, T: float) -> float:
    denom = math.tanh(0.5 * a / T) + math.tanh(0.5 * b / T)
    num = a + b
    if num == 0.0:
        # 0/0 along b -> -a; expanding tanh gives 2T cosh^2(a/2T)
        return 2.0 * T * math.cosh(0.5 * a / T) ** 2
    return num / denom


def bt_direct(a: float, b: float, T: float) -> float:
    num = math.tanh(0.5 * a / T) + math.tanh(0.5 * b / T)
    den = a + b
    if den == 0.0:
        return 0.5 / (T * math.cosh(0.5 * a / T) ** 2)
    return num / den


_LN2 = math.log(2.0)


def _kt_exponent(x, y):
    """log(K(a,b)/2T) for x = a/2T, y = b/2T, elementwise, grouped so the
    O(|x|) linear parts of log cosh and log sinh cancel exactly instead of
    in floating point.
    """
    t1 = np.log1p(np.exp(-2.0 * np.abs(x))) - _LN2
    t2 = np.log1p(np.exp(-2.0 * np.abs(y))) - _LN2
    z = np.abs(x + y)
    small = z < 1e-4
    zs = np.where(small, 1.0, z)
    # log(sinh z / z) - |z|; log(1 - e^-2z) through expm1 below 2z = ln 2,
    # where log1p(-e^-2z) loses digits in forming 1 - e^-2z
    e = -2.0 * zs
    log1mexp = np.where(e > -_LN2, np.log(-np.expm1(e)), np.log1p(-np.exp(e)))
    t3 = np.where(small, z * z / 6.0 - z ** 4 / 180.0 - z,
                  log1mexp - _LN2 - np.log(zs))
    # |x| + |y| - |x + y|: zero for equal signs, else twice the smaller magnitude
    s = np.where((x >= 0.0) == (y >= 0.0), 0.0, 2.0 * np.minimum(np.abs(x), np.abs(y)))
    return t1 + t2 - t3 + s


def kt(a, b, T: float):
    """K(a, b) in shifted variables at temperature T, elementwise, in log
    space.  kt(0, 0, T) is exactly 2 T.

    Returns inf when the near-cancelling tanh sum drives the kernel past
    floating-point range; the kernel really is that large there.
    """
    inv = 0.5 / T
    with np.errstate(over="ignore"):
        out = 2.0 * T * np.exp(_kt_exponent(a * inv, b * inv))
    return out if out.ndim else float(out)


def bt(p_sq: float, q_sq: float, pq_dot: float, T: float, mu: float) -> float:
    """B_T(p, q) = 1 / K(|p+q|^2 - mu, |p-q|^2 - mu) for vectors p, q.

    Arguments are |p|^2, |q|^2 and the inner product p.q; the Cauchy-Schwarz
    constraint on pq_dot is enforced.  Underflows to 0 for huge momenta.
    """
    if p_sq < 0 or q_sq < 0:
        raise ValueError("squared momenta must be nonnegative")
    if pq_dot * pq_dot > p_sq * q_sq * (1.0 + 1e-12) + 1e-300:
        raise ValueError("pq_dot violates |p.q| <= |p||q|")
    a = p_sq + q_sq + 2.0 * pq_dot - mu
    b = p_sq + q_sq - 2.0 * pq_dot - mu
    inv = 0.5 / T
    return float(np.exp(-_kt_exponent(a * inv, b * inv))) / (2.0 * T)


def _x_over_tanh(x):
    """x / tanh(x), elementwise, with the removable singularity filled in."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-5
    xs = np.where(small, 1.0, x)
    direct = xs / np.tanh(xs)
    x2 = x * x
    series = 1.0 + x2 / 3.0 - x2 * x2 / 45.0
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def tanh_inequality_gap(x, y):
    """lhs - rhs of (x+y)/(tanh x + tanh y) >= (x/tanh x + y/tanh y)/2.

    Elementwise over real x, y; the lhs is evaluated through the same
    log-space route as kt, so the y = -x line is a removable limit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        lhs = np.exp(_kt_exponent(x, y))
    rhs = 0.5 * (_x_over_tanh(x) + _x_over_tanh(y))
    out = lhs - rhs
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# boundary-profile oracles
# ---------------------------------------------------------------------------

def t4_sphere_product(x: float) -> float:
    """t4 from its double sphere-surface integral.

    Averaging exp(-i x transverse dot) over the two azimuths yields a J0
    factor, leaving (8/pi)(sin x/x) times a double integral over the polar
    cosines u, v in [0, 1].
    """
    def inner(u, v):
        amp = math.sin(x * u * v) / u if u > 1e-12 else x * v
        return amp * special.j0(
            x * math.sqrt((1.0 - u * u) * (1.0 - v * v)))

    val, _ = integrate.dblquad(inner, 0.0, 1.0, 0.0, 1.0,
                               epsabs=1e-11, epsrel=1e-11)
    return 8.0 / math.pi * (math.sin(x) / x) * val


def t1_turned(x: float) -> float:
    """t1 from its k path turned onto k = 1 + iy, by adaptive quadrature.

    With sin^2 = (1 - cos)/2 and int_1^inf arcoth(k)/k dk = pi^2/8,
    t1(x) = (2/(pi x)) [pi^2/8 - Re(i e^{2ix} L)], where
    L = int_0^inf e^{-2xy} atanh(1/(1+iy))/(1+iy) dy; the integrand has a
    log singularity at y = 0 and decays on the scale 1/x, where the path
    is split.  Good to about 1e-15 relative up to x of a few thousand.
    """
    def part(y, take):
        k = 1.0 + 1j * y
        return take(math.exp(-2.0 * x * y) * cmath.atanh(1.0 / k) / k)

    opts = dict(epsabs=1e-16, epsrel=1e-13, limit=400)
    L = 0j
    for take, unit in ((lambda z: z.real, 1.0), (lambda z: z.imag, 1j)):
        near, _ = integrate.quad(part, 0.0, 1.0 / x, args=(take,), **opts)
        far, _ = integrate.quad(part, 1.0 / x, math.inf, args=(take,), **opts)
        L += unit * (near + far)
    return 2.0 / (math.pi * x) * (math.pi ** 2 / 8.0 - (1j * cmath.exp(2j * x) * L).real)


def gaussian_r_fourier(a: float, ell: float):
    """b -> int_0^inf r a exp(-(r/ell)^2) exp(i b r) dr for Im b >= 0, from
    the Faddeeva function: a (ell^2/2) (1 + i sqrt(pi) z w(z)), z = b ell/2."""
    def c_plus(b):
        z = 0.5 * b * ell
        return 0.5 * a * ell * ell * (1.0 + 1j * math.sqrt(math.pi) * z * special.wofz(z))
    return c_plus


def exponential_r_fourier(a: float, ell: float):
    """b -> int_0^inf r a exp(-r/ell) exp(i b r) dr = a / (1/ell - i b)^2."""
    return lambda b: a / (1.0 / ell - 1j * b) ** 2


def step_r_fourier(a: float, R: float):
    """b -> int_0^R r a exp(i b r) dr = a (e^{ibR} (R/(ib) + 1/b^2) - 1/b^2)."""
    return lambda b: a * (np.exp(1j * b * R) * (R / (1j * b) + 1.0 / b ** 2) - 1.0 / b ** 2)


def pchip_r_fourier(r, v):
    """b -> int r P(r) exp(i b r) dr for the monotone cubic P through (r, v).

    On each piece r P(r) is a quartic p(u) in u = r - r_i.  Pieces with
    |b| h < 8 take a 24-point Gauss rule, exact for p e^{ibu} there; the
    others sum the terminating integration by parts
    [e^{ibu} sum_n (-1)^n p^(n)(u) / (ib)^(n+1)] over the piece.
    """
    pp = interpolate.PchipInterpolator(np.asarray(r, float), np.asarray(v, float))
    x0, h = pp.x[:-1], np.diff(pp.x)
    c = pp.c[::-1]  # ascending powers of u
    derivs = [np.array([x0 * c[0], c[0] + x0 * c[1], c[1] + x0 * c[2],
                        c[2] + x0 * c[3], c[3]])]
    for _ in range(4):
        d = derivs[-1]
        derivs.append(d[1:] * np.arange(1, len(d))[:, None])
    at_h = [np.sum(d * h ** np.arange(len(d))[:, None], axis=0) for d in derivs]
    nodes, weights = np.polynomial.legendre.leggauss(24)
    u = 0.5 * h * (nodes[:, None] + 1.0)
    pu = sum(coef * u ** j for j, coef in enumerate(derivs[0]))

    def c_plus(b):
        gauss = 0.5 * h * np.sum(weights[:, None] * pu * np.exp(1j * b * u), axis=0)
        with np.errstate(all="ignore"):
            e = np.exp(1j * b * h)
            parts = sum((-1) ** n * (dh * e - d[0]) / (1j * b) ** (n + 1)
                        for n, (dh, d) in enumerate(zip(at_h, derivs)))
        piece = np.where(np.abs(b) * h < 8.0, gauss, parts)
        return complex(np.sum(np.exp(1j * b * x0) * piece))
    return c_plus


def _profile_terms_2_to_4(x: float):
    """t2, t3, t4 at one x > 0 from their closed forms; Cin through Ci."""
    s, c = math.sin(x), math.cos(x)
    si, ci = special.sici(2.0 * x)
    cin = np.euler_gamma + math.log(2.0 * x) - ci
    return (-2.0 / math.pi * s * s / x, -2.0 * (s / x) ** 2,
            4.0 * s / (math.pi * x * x) * (s * si - c * cin))


def criterion_terms_momentum_side(value, rc: float, mu: float, c_plus,
                                  points=None) -> dict:
    """The four unsigned terms 4 pi mu^(-1/2) int V(r) t_j(sqrt(mu) r) r^2 dr.

    t2..t4 are position-side integrals of their closed forms.  For t1,
    doing the r integral first gives (16/mu) int_1^inf arcoth(k)/k I(sqrt(mu) k) dk
    with I(q) = int V r sin^2(q r) dr = (m1 - Re c_plus(2q))/2, where
    m1 = int V r dr and c_plus(b) = int V r e^{ibr} dr.  Since
    int_1^inf arcoth(k)/k dk = pi^2/8, what is left is the oscillatory
    int_1^inf arcoth(k)/k c_plus(2 sqrt(mu) k) dk; its integrand is analytic
    for Re k > 1, Im k > 0 and decays like |k|^-4 there, so the path turns
    onto k = 1 + iy, where it decays without oscillating.
    ``value`` is the radial profile, ``rc`` its support radius and
    ``points`` its kinks (a table's knots).
    """
    root_mu = math.sqrt(mu)
    pref = 4.0 * math.pi / root_mu
    out = {}
    for j in range(3):
        out[f"t{j + 2}"] = pref * _tight_quad(
            lambda r: value(r) * _profile_terms_2_to_4(root_mu * r)[j] * r * r
            if r > 0.0 else 0.0, rc, points)
    m1 = _tight_quad(lambda r: value(r) * r, rc, points)

    def turned(y):
        k = 1.0 + 1j * y
        return (cmath.atanh(1.0 / k) / k * c_plus(2.0 * root_mu * k)).imag

    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=400)
    near, _ = integrate.quad(turned, 0.0, 1.0, **opts)
    far, _ = integrate.quad(turned, 1.0, math.inf, **opts)
    out["t1"] = 16.0 / mu * (math.pi ** 2 / 16.0 * m1 + 0.5 * (near + far))
    return out


_BC_SIGN = {"dirichlet": 1.0, "neumann": -1.0}


def _j3(r, mu: float):
    """sqrt(2/pi) sin(sqrt(mu) r) / (sqrt(mu) r), elementwise."""
    return math.sqrt(2.0 / math.pi) * np.sinc(math.sqrt(mu) * np.asarray(r, float) / math.pi)


def mtilde_direct(r, mu: float, bc: str) -> float:
    """Boundary density at one point r (a 3-vector) from its defining line
    integral over the normal coordinate z, without the spherical reduction.

    With rho the transverse distance, the line splits at |z| = |r1|.
    Outside, j3^2 = (2/(pi mu)) sin^2(sqrt(mu) s)/s^2 with
    s = sqrt(z^2 + rho^2) is integrated in z while s < s0 and in s beyond,
    where the tail is sin^2(sqrt(mu) s) / (s sqrt(s^2 - rho^2)) on
    [s0, inf), the "sin2" case of fourier_tail.  Inside, the reflected combination
    j3^2 - (j3 -+ j3(|r|))^2 is kept literally, and the point term
    -+(pi/sqrt(mu)) j3(|r|)^2 carries the sign (upper: Dirichlet).  Its
    average over directions is m3(sqrt(mu) |r|)/sqrt(mu).
    """
    sgn = _BC_SIGN[bc]
    r1, r2, r3 = (float(c) for c in r)
    rho = math.hypot(r2, r3)
    rn = math.hypot(r1, rho)
    root_mu = math.sqrt(mu)
    jr = float(_j3(rn, mu))
    point = -sgn * (math.pi / root_mu) * jr * jr
    opts = dict(epsabs=1e-12, epsrel=1e-11, limit=200)
    s0 = rn + max(rn, rho, 4.0 * math.pi / root_mu)
    near, _ = integrate.quad(
        lambda z: math.sin(root_mu * math.hypot(z, rho)) ** 2 / (z * z + rho * rho),
        abs(r1), math.sqrt((s0 - rho) * (s0 + rho)), **opts)
    tail = fourier_tail(lambda s: 1.0 / (s * math.sqrt((s - rho) * (s + rho))),
                        root_mu, s0, "sin2")
    outside = 4.0 / (math.pi * mu) * (near + tail)

    def window(z):
        jz = float(_j3(math.hypot(z, rho), mu))
        return jz * jz - (jz - sgn * jr) ** 2

    inside, _ = integrate.quad(window, 0.0, abs(r1), **opts)
    return outside + 2.0 * inside + point


def rhs_weak_coupling_d3(V, mu: float, bc: str) -> dict:
    """Zero-coupling limit of the d = 3 half-space boundary energy, split
    into its position-space terms: the full-line wave term, the reflected
    window |z1| < |r1|, and the point term with the boundary sign.  Their
    sum is the boundary criterion's value, reached without the profile
    terms t1..t4.

    The full-line integral of j3^2 at transverse offset y/sqrt(mu) is
    g(y)/sqrt(mu) with g(y) = (1/y) int_0^{2y} J0(t) dt (scipy's itj0y0),
    averaged over the polar angle; the window is a 2-d integral over the
    polar angle and the normal coordinate.  Both angular integrals are
    Gauss-Legendre tensor rules; the radial integrals are QUADPACK, broken
    at V.breakpoints.  ``V`` needs d, value, cutoff_radius and breakpoints.
    """
    if V.d != 3:
        raise ValueError("rhs_weak_coupling_d3 needs a d=3 potential")
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"chemical potential must be positive, got {mu}")
    sgn = _BC_SIGN[bc]
    root_mu = math.sqrt(mu)
    rc = V.cutoff_radius()
    x, w = np.polynomial.legendre.leggauss(max(48, int(4.0 * root_mu * rc) + 16))
    ang, w_ang = 0.25 * math.pi * (x + 1.0), 0.25 * math.pi * w
    t, w_t = 0.5 * (x + 1.0), 0.5 * w
    cos_a, sin_a = np.cos(ang), np.sin(ang)

    def full_line(r):
        y = root_mu * r * cos_a
        return float(w_ang @ (special.itj0y0(2.0 * y)[0] / y * cos_a))

    def window(r):
        r1, rho = r * sin_a[:, None], r * cos_a[:, None]
        f = (_j3(np.hypot(r1 * t, rho), mu) - sgn * _j3(r, mu)) ** 2
        return float(w_ang @ (cos_a * 2.0 * r * sin_a * (f @ w_t)))

    def radial(f):
        return _tight_quad(lambda r: V.value(r) * r * r * f(r) if r > 0.0 else 0.0,
                           rc, V.breakpoints)

    pref = 4.0 * math.pi
    point = radial(lambda r: float(_j3(r, mu)) ** 2)
    return {"full_line": pref / root_mu * radial(full_line),
            "window": -pref * radial(window),
            "point": -sgn * math.pi / root_mu * pref * point}


# ---------------------------------------------------------------------------
# boundary pairing form, d = 1, brute double quadrature
# ---------------------------------------------------------------------------

def dt_d1_brute(value, rc: float, T: float, mu: float) -> float:
    """d=1 pairing form by two nested QUADPACK calls plus a tail estimate."""
    root_mu = math.sqrt(mu)

    def w(p):
        val, _ = integrate.quad(
            lambda r: value(r) * math.cos(root_mu * r),
            0.0, rc, weight="cos", wvar=p, limit=400)
        return 2.0 / math.pi * val

    def b(p):
        z = p * p - mu
        if abs(z) < 1e-8 * max(T, 1.0):
            return 0.5 / T
        return math.tanh(0.5 * z / T) / z

    v_integral, _ = integrate.quad(value, 0.0, rc, limit=400)
    vhat0 = math.sqrt(2.0 / math.pi) * v_integral
    abs_w, _ = integrate.quad(lambda r: abs(value(r)), 0.0, rc, limit=400)
    w_bound = 2.0 / math.pi * abs_w

    pts = sorted({root_mu} | {math.sqrt(mu + s * T * 10.0 ** k)
                              for s in (1.0, -1.0) for k in range(0, 7)
                              if mu + s * T * 10.0 ** k > 0})
    upper = 40.0 * max(root_mu, 1.0)
    inner, _ = integrate.quad(lambda p: (b(p) * w(p)) ** 2, 0.0, upper,
                              points=[p for p in pts if p < upper], limit=800)
    # Past the cut, |b w| <= w_bound / (p^2 - mu), so the remaining mass is
    # below 4 w_bound^2 / (3 u^3) once u^2 >= 2 mu.  Widen the cut until that
    # crude bound is negligible against the shell contribution.
    target = 1e-10 * abs(inner)
    wide = max(upper,
               2.0 * (4.0 * w_bound ** 2 / (3.0 * target)) ** (1.0 / 3.0))
    if wide > upper:
        ext, _ = integrate.quad(lambda p: (b(p) * w(p)) ** 2, upper, wide,
                                limit=400)
        inner += ext
    if 4.0 * w_bound ** 2 / (3.0 * wide ** 3) > target:
        raise RuntimeError("tail cut too low for the brute d=1 form")
    return 2.0 * vhat0 * inner


# ---------------------------------------------------------------------------
# boundary pairing form, d = 2
# ---------------------------------------------------------------------------

def _b_shifted(a, T):
    """B_T(p, 0) = tanh(a/2T)/a in a = p^2 - mu, elementwise."""
    a = np.asarray(a, dtype=float)
    small = np.abs(a) < 1e-8 * T
    safe = np.where(small, 1.0, a)
    return np.where(small, 0.5 / T, np.tanh(0.5 * safe / T) / safe)


def d2_integrand(V, T: float, mu: float, p1: float, p2: float, q2: float) -> float:
    """Pointwise integrand of the d=2 pairing form's transverse double
    integral, the even-reflected kernel included, from scalar QUADPACK
    transforms: (V j2)^(s) = int V J0(sqrt(mu) r) J0(s r) r dr and
    Vhat(k) = int V J0(k r) r dr.  Symmetric under p2 <-> q2."""
    if V.d != 2:
        raise ValueError("d2_integrand needs a d=2 potential")
    rc = V.cutoff_radius()
    root_mu = math.sqrt(mu)

    def transform(f):
        return integrate.quad(lambda r: V.value(r) * f(r) * r, 0.0, rc,
                              limit=400)[0]

    def vj2(s):
        return transform(lambda r: special.j0(root_mu * r) * special.j0(s * r))

    def vhat(k):
        return transform(lambda r: special.j0(k * r))

    wp = vj2(math.hypot(p1, p2))
    wq = vj2(math.hypot(p1, q2))
    bp = float(_b_shifted(p1 * p1 + p2 * p2 - mu, T))
    bq = float(_b_shifted(p1 * p1 + q2 * q2 - mu, T))
    kern = vhat(abs(p2 - q2)) + vhat(p2 + q2)
    return wp * bp * kern * bq * wq


def gaussian_d2_transforms(a: float, mu: float):
    """Closed forms for a * exp(-r^2) in d = 2: Vhat(k) = (a/2) e^(-k^2/4)
    and (V j2)^(s) = (a/2) e^(-(s^2 + mu)/4) I0(sqrt(mu) s / 2)."""
    root_mu = math.sqrt(mu)

    def vhat(k):
        return 0.5 * a * np.exp(-0.25 * k * k)

    def vj2(s):
        return 0.5 * a * np.exp(-0.25 * (s - root_mu) ** 2) \
            * special.i0e(0.5 * root_mu * s)
    return vhat, vj2


def step_d2_transforms(a: float, R: float, mu: float):
    """Closed forms for a on [0, R] in d = 2: Vhat(k) = a R J1(kR)/k and,
    by Lommel's integral with alpha = sqrt(mu),
    (V j2)^(s) = a R (s J0(alpha R) J1(sR) - alpha J1(alpha R) J0(sR))
    / (s^2 - alpha^2), whose s -> alpha limit is
    a R^2 (J0(alpha R)^2 + J1(alpha R)^2) / 2."""
    alpha = math.sqrt(mu)
    j0a, j1a = special.j0(alpha * R), special.j1(alpha * R)

    def vhat(k):
        k = np.asarray(k, dtype=float)
        safe = np.where(k < 1e-8, 1.0, k)
        return np.where(k < 1e-8, 0.5 * a * R * R, a * R * special.j1(safe * R) / safe)

    def vj2(s):
        s = np.asarray(s, dtype=float)
        den = s * s - alpha * alpha
        near = np.abs(den) < 1e-6
        safe = np.where(near, 1.0, den)
        lommel = a * R * (s * j0a * special.j1(s * R)
                          - alpha * j1a * special.j0(s * R)) / safe
        return np.where(near, 0.5 * a * R * R * (j0a * j0a + j1a * j1a), lommel)
    return vhat, vj2


def exponential_d2_transforms(a: float, ell: float, mu: float):
    """Closed forms for a * exp(-r/ell) in d = 2, with p = 1/ell:
    Vhat(k) = a p / (p^2 + k^2)^(3/2), and (V j2)^(s) = -a d/dp of
    Gradshteyn-Ryzhik 6.612.3, integral of e^(-pt) J0(alpha t) J0(s t) dt
    = 2 K(m) / (pi sqrt(R)) with R = p^2 + (alpha + s)^2, m = 4 alpha s / R
    and alpha = sqrt(mu).  With dK/dm = (E - (1 - m) K) / (2 m (1 - m)),
    that is a 2 p E(m) / (pi sqrt(R) (p^2 + (alpha - s)^2))."""
    p, alpha = 1.0 / ell, math.sqrt(mu)

    def vhat(k):
        return a * p / (p * p + np.square(k)) ** 1.5

    def vj2(s):
        R = p * p + (alpha + s) ** 2
        return 2.0 * a * p * special.ellipe(4.0 * alpha * s / R) \
            / (math.pi * np.sqrt(R) * (p * p + (alpha - s) ** 2))
    return vhat, vj2


def dt_d2_direct(vhat, vj2, T: float, mu: float, fermi_width: float,
                 p_max: float, tail_width: float) -> float:
    """d=2 pairing form as a direct momentum-side sum.

    One grid of 16-point Gauss-Legendre panels serves p1, p2 and q2:
    panels ``fermi_width`` wide on [0, 1.5 sqrt(mu)], which must resolve the
    thermal layer (B_T is analytic within about pi T / 2 of the real axis
    there), then ``tail_width`` wide up to ``p_max``.  The n x n kernel
    Vhat(|p2 - q2|) + Vhat(p2 + q2) is built once and every p1 row is the
    quadratic form u K u with u = (V j2)^(|p|) B_T(|p|^2 - mu).
    """
    inner = 1.5 * math.sqrt(mu)
    n_in = int(math.ceil(inner / fermi_width))
    n_out = int(math.ceil((p_max - inner) / tail_width))
    edges = np.concatenate([np.linspace(0.0, inner, n_in + 1),
                            np.linspace(inner, p_max, n_out + 1)[1:]])
    x, w = np.polynomial.legendre.leggauss(16)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    g = (mid[:, None] + half[:, None] * x).ravel()
    wg = (half[:, None] * w).ravel()
    kern = vhat(np.abs(g[:, None] - g[None, :])) + vhat(g[:, None] + g[None, :])
    s_sq = g[:, None] ** 2 + g[None, :] ** 2
    u = vj2(np.sqrt(s_sq)) * _b_shifted(s_sq - mu, T) * wg[None, :]
    rows = np.einsum("ij,ij->i", u @ kern, u)
    return 4.0 * float(np.dot(wg, rows))


def refined_row_rule(length: float, base: float, center: float, width: float):
    """One row of the d = 2 form's p1 or q rule, laid panel by panel: edges 0,
    center -/+ width 2^k for every k >= 0 with width 2^k < 2 base (width
    floored at 1e-14 length) that lie inside (0, length), and length; every
    panel cut into ceil(its length / base) equal parts by np.linspace, and
    the 16-point Gauss-Legendre rule on each part."""
    width, off = max(width, 1e-14 * length), []
    while width < 2.0 * base:
        off.append(width)
        width *= 2.0
    pts = [center - o for o in reversed(off)] + [center] + [center + o for o in off]
    edges = [0.0] + [p for p in pts if 0.0 < p < length] + [length]
    x, w = np.polynomial.legendre.leggauss(16)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        cuts = np.linspace(lo, hi, max(1, math.ceil((hi - lo) / base)), endpoint=False)
        for a, b in zip(cuts, [*cuts[1:], hi]):
            nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
            weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def gaussian_d2_growth_c3(a: float, mu: float) -> float:
    """Leading coefficient C3 of the d = 2 form's growth C3 ln(mu/T)^3 for
    a exp(-r^2): C3 = 4 c0 w^2 / (3 pi sqrt(mu)), with c0 = a pi / 2, half
    the plane integral of V, and w = (V j2)^(sqrt(mu)) = (a/2) e^(-mu/2)
    I0(mu/2) (gaussian_d2_transforms at s = sqrt(mu))."""
    c0 = 0.5 * math.pi * a
    w = 0.5 * a * math.exp(-0.5 * mu) * float(special.i0(0.5 * mu))
    return 4.0 * c0 * w * w / (3.0 * math.pi * math.sqrt(mu))


# ---------------------------------------------------------------------------
# frozen reference values
# ---------------------------------------------------------------------------

# t1 at selected x, mpmath dps=30 (generator below): smooth half pi^2/8 via
# the arcoth series, cosine half by period-blocked mp.quad with an exact
# Ci/Si-recursion remainder.
FROZEN_T1 = {
    1e-8: 1.9999999936338022,
    0.5: 1.591094769794477,
    1.0: 1.0966184078327017,
    2.0: 0.36844299880822422,
    3.7: 0.23509212082850681,
    5.0: 0.15463100383021168,
    10.0: 0.083506470296880936,
    17.3: 0.046175028329126705,
    30.0: 0.026167521804626258,
}

# t4 at selected x from the Si/Cin closed form under mpmath dps=30.
FROZEN_T4 = {
    0.5: 0.59362905099461945,
    1.0: 0.95682565301517995,
    2.0: 0.71621729630861947,
    3.7: -0.064037051713091572,
    10.0: -0.014673582514914435,
    30.0: 0.0031996446379113554,
}

# int_2^inf arcoth(k)/k dk via the exact series sum_j 2^-(2j+1)/(2j+1)^2.
FROZEN_ARCOTH_TAIL_FROM_2 = 0.5153273666943293

# First positive zero of J0 (power series + bisection, checked against the
# oracle above).
FROZEN_J0_ZERO = 2.404825557695773

# Boundary profile point values (production m3 at the proof's scaling).
FROZEN_M3 = {
    ("dirichlet", 0.5): 0.05328040286552888,
    ("neumann", 0.5): 2.543603853931172,
    ("dirichlet", 2.0): 0.408063833528117,
    ("neumann", 2.0): -0.197548948657316,
    ("dirichlet", 10.0): 0.04407237524666809,
    ("neumann", 10.0): 0.08525789904022911,
}
FROZEN_M3N_MIN_0_20 = -0.2016561419824925

# Low-temperature constants of the Fermi-shell mass: m_mu(T) -> ln(mu/T) + c_d
# at mu = 1.  Exact closed forms from splitting off int_0^x tanh(u)/u du
# = ln x + gamma + ln(4/pi) + o(1) and integrating the remainder
# ((1+a)^w + (1-a)^w - 2)/(2a), w = (d-2)/2, by the u = sqrt(1 -/+ a)
# substitutions:
#   c_2 = gamma + ln(2/pi)
#   c_1 = c_2 + 2 ln 2 - ln(1 + sqrt 2)
#   c_3 = c_2 + sqrt 2 - 2 + 2 ln 2 - ln(1 + sqrt 2)
FROZEN_MMU_CONSTANTS = {
    1: 0.6305537337124256,
    2: 0.12563295961207804,
    3: 0.04476729608552077,
}

# Boundary criterion for the unit Gaussian at mu = 1 (value and per-term).
FROZEN_CRITERION_GAUSSIAN_MU1 = {
    "dirichlet": {
        "value": 1.2071650021,
        "per_term": {"t1": 5.656600, "t2": -2.152318,
                     "t3": -7.039709, "t4": 4.742592},
    },
    "neumann": {"value": 5.8013987440},
}

# d=1 pairing form, Gaussian(a=1, ell=1), mu=1: T * value is nearly constant.
FROZEN_DT1 = {
    1e-2: 1.79830183e+01,
    1e-3: 1.79557243e+02,
    1e-4: 1.79527934e+03,
}
FROZEN_DT1_FIT_C = 0.17952825393315186
FROZEN_DT1_FIT_DEV = 0.0016817907268220657

# d=2 pairing form, Gaussian(a=1, ell=4), mu=1 (the shipped growth example):
# value / ln(mu/T)^3 drifts by under 9% per decade.
FROZEN_DT2_L4 = {
    1e-2: 1848.7424749160807,
    1e-3: 5711.01146702832,
    1e-4: 12903.824358167283,
}
FROZEN_DT2_L4_RATIOS = {
    1e-2: 18.929509738441762,
    1e-3: 17.32615526471992,
    1e-4: 16.5154877007787,
}
# d=2 pairing form for the unit Gaussian at T/mu = 1e-2.  The spline-free
# value is 19.16315095291 (dt_d2_direct with the closed-form transforms
# agrees to 1e-13): 7.7e-9 relative below this literal and 8.7e-9 below the
# 19.16315111922 that the earlier spline-interpolated kernel returned; that
# gap was the splines' error.  The literal and its 1e-8 tolerance are kept.
FROZEN_DT2_L1_T1E2 = 1.91631511e+01

# Weak-coupling right-hand side for the unit Gaussian in d=3 at mu=1,
# split into its three contributions (full-line, window, point).
FROZEN_RHS_GAUSSIAN_MU1 = {
    "dirichlet": {"full_line": 8.31712344, "window": -0.07024924,
                  "point": -7.03970921},
    "neumann": {"full_line": 8.31712344, "window": -9.55543392,
                "point": 7.03970921},
}

# Critical temperatures for the unit Gaussian, d=3, mu=1 (closure 1e-8).
FROZEN_TC0_GAUSSIAN = {
    0.3: 1.3499754917466779e-08,
    0.4: 1.44842574137898e-06,
    0.5: 2.3968613152042694e-05,
    0.6: 0.00015577003575280911,
}

# Critical temperature for the step a = 1, R = 1, d = 3, mu = 1, lam = 0.5
# (closure 1e-8), solved with W from the angular average of a spline of
# Vhat; the fixed-rule W reproduces it to 1e-12.
FROZEN_TC0_STEP_D3_LAM05 = 3.022182120174296e-05


# ---------------------------------------------------------------------------
# offline generators (audit trail; mpmath is NOT a test dependency)
# ---------------------------------------------------------------------------

def _generate_frozen_t1(xs=tuple(FROZEN_T1)):  # pragma: no cover
    """Regenerate FROZEN_T1 with mpmath at 30 digits.

    Writing sin^2 = (1 - cos)/2 splits t1(x) = (2/(pi x)) (pi^2/8 - C(x))
    where the smooth half is exactly pi^2/8 and C(x) is the cosine half,
    summed over half-period blocks with alternating-series acceleration.
    Below x = 1e-4 the Taylor expansion at zero is already at full float
    precision.  Run manually when auditing; mpmath is not a dependency.
    """
    import mpmath as mp
    mp.mp.dps = 30
    out = {}
    for x in xs:
        if x < 1e-4:
            out[x] = float(2 - mp.mpf(2) / mp.pi * x - mp.mpf(4) / 9 * x ** 2)
            continue
        z = mp.mpf(x)
        omega = 2 * z

        def block(i):
            lo = 1 + i * mp.pi / omega
            return mp.quad(lambda k: mp.cos(omega * k) * mp.atanh(1 / k) / k,
                           [lo, lo + mp.pi / omega])

        cosine = mp.nsum(block, [0, mp.inf], method="a")
        out[x] = float(2 / (mp.pi * z) * (mp.pi ** 2 / 8 - cosine))
    return out


def _generate_frozen_t4(xs=tuple(FROZEN_T4)):  # pragma: no cover
    """Regenerate FROZEN_T4 with mpmath at 30 digits from the closed form."""
    import mpmath as mp
    mp.mp.dps = 30
    out = {}
    for x in xs:
        z = mp.mpf(x)
        cin = mp.euler + mp.log(2 * z) - mp.ci(2 * z)
        val = 4 * mp.sin(z) / (mp.pi * z * z) * (mp.sin(z) * mp.si(2 * z)
                                                 - mp.cos(z) * cin)
        out[x] = float(val)
    return out
