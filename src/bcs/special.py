"""Special functions on numpy alone, each to 1e-15 (relative for Si and
Cin, absolute for the Bessel functions): the sine integral Si and the
entire cosine integral Cin, J0, the squares of the Bessel functions J_l and
j_l, the radial profiles j_d of the Fermi-sphere surface measure in
d = 1, 2, 3 on arrays of any shape, and the per-octave Chebyshev
tables of Laplace-type integrals that Si, Cin and the boundary term t1 read.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate

from .quad import gauss_panels

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)

# Each octave of laplace_envelope's tables is built once, under this lock,
# so threads share it.
_TABLE_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def _to_power(terms: int) -> np.ndarray:
    """Column k holds T_k in the power basis: T_k = 2t T_(k-1) - T_(k-2)."""
    p = np.eye(terms)
    for k in range(2, terms):
        p[:, k] = np.append(0.0, 2.0 * p[:-1, k - 1]) - p[:, k - 2]
    return p


@lru_cache(maxsize=None)
def _laplace_octave(h, j: int, terms: int):
    """Power-basis coefficients in t of the Chebyshev interpolant of
    E(x) = int_0^inf e^-u h(u/x) du on the octave [2^j, 2^(j+1)), where
    log2 x = j + (1 + t)/2.  E at a node comes from 16-point Gauss panels
    in u that shrink by 4 toward a log singularity of h at 0.  The
    coefficients decay like the Chebyshev ones, so Horner's rule in t
    loses nothing."""
    u, w = gauss_panels(np.concatenate(([0.0], 4.0 ** np.arange(-22, 2),
                                        np.arange(8.0, 41.0, 4.0))))
    mass = np.exp(-u) * w

    def envelope(t):
        v = h(u / 2.0 ** (j + 0.5 + 0.5 * t)[:, None])
        return np.stack((v.real @ mass, v.imag @ mass), axis=1)  # real BLAS: fast

    c = _to_power(terms) @ chebinterpolate(envelope, terms - 1)
    return c[:, 0] + 1j * c[:, 1]


def laplace_envelope(h, octaves: range, terms: int, x):
    """E(x) = int_0^inf e^-u h(u/x) du for x in the octaves, each tabled on
    first use (_laplace_octave): one Horner sum a point, taking one degree
    at a time, so the work arrays stay O(points)."""
    m, e = np.frexp(x)
    j, t = e - 1 - octaves[0], 2.0 * np.log2(m) + 1.0
    coef = np.zeros((terms, len(octaves)), dtype=complex)
    with _TABLE_LOCK:  # bincount, as np.unique would load numpy.ma
        for i in np.flatnonzero(np.bincount(j, minlength=len(octaves))):
            coef[:, i] = _laplace_octave(h, octaves[i], terms)
    out = np.take(coef[-1], j)
    for c in coef[-2::-1]:
        out *= t
        out += np.take(c, j)
    return out


# Si(x) = sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!) and Cin(x) =
# sum_k (-1)^(k+1) x^(2k) / (2k (2k)!): eleven terms each reach full
# relative precision below 2, and one fewer leaves Si 1.2e-15 short at 2.
_SI_SERIES = [(-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(11)]
_CIN_SERIES = [(-1) ** (k + 1) / (2 * k * math.factorial(2 * k)) for k in range(1, 12)]
_SICI_SERIES_END = 2.0
# x (f - i g) - 1 is tabled with 13 Chebyshev terms an octave on [2, 64)
# (12 leave Cin 1.1e-15 off); above, its asymptotic series
# sum_{n >= 1} n! (-i/x)^n stops at n = 17, and 18!/64^18 is 2.0e-17.
_SICI_OCTAVES = range(1, 6)
_SICI_CHEB = 13
_SICI_ASYMPTOTIC = [float(math.factorial(n)) for n in range(17, 0, -1)] + [0.0]


def _sici_kernel(y):
    """h(y) = 1/(1 + iy) - 1, so the table holds x (f - i g) - 1, which
    is small, and its rounding is relative to that."""
    return -1j * y / (1.0 + 1j * y)


def _sici_series(x):
    """(Si, Cin) below 2 from in-place Horner sums of their power series
    in x^2, which stay relative as x -> 0."""
    x2 = x * x
    si, cin = np.full_like(x2, _SI_SERIES[-1]), np.full_like(x2, _CIN_SERIES[-1])
    for a, b in zip(_SI_SERIES[-2::-1], _CIN_SERIES[-2::-1]):
        si *= x2
        si += a
        cin *= x2
        cin += b
    return si * x, cin * x2


def _sici_auxiliary(x):
    """(Si, Cin) from 2 up through f and g, with x (f - i g) - 1 from its
    table below 64 and from its asymptotic series above."""
    dev = np.empty(x.size, dtype=complex)
    tabled = x < 2.0 ** (_SICI_OCTAVES[-1] + 1)
    if tabled.any():
        dev[tabled] = laplace_envelope(_sici_kernel, _SICI_OCTAVES, _SICI_CHEB, x[tabled])
    if not tabled.all():
        dev[~tabled] = np.polyval(_SICI_ASYMPTOTIC, -1j / x[~tabled])
    f, g = (1.0 + dev.real) / x, -dev.imag / x
    s, c = np.sin(x), np.cos(x)
    return 0.5 * math.pi - f * c - g * s, np.euler_gamma + np.log(x) - f * s + g * c


def si_cin(x):
    """(Si(x), Cin(x)) for finite x >= 0, elementwise, to 1e-15 relative:
    Si(x) = integral of sin(t)/t and Cin(x) = integral of (1 - cos t)/t
    over [0, x].  Below 2 both take their power series (gamma + log(x) -
    Ci(x) would cancel there); above, the auxiliary pair f, g.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x < math.inf)):  # NaN fails both
        raise ValueError("Si and Cin are evaluated on finite x >= 0 only")
    si, cin = np.empty_like(x), np.empty_like(x)
    low = x < _SICI_SERIES_END
    si[low], cin[low] = _sici_series(x[low])
    high = ~low
    if high.any():
        si[high], cin[high] = _sici_auxiliary(x[high])
    return (si, cin) if x.ndim else (float(si), float(cin))


def _miller_start(ell_max: int, z_max: float) -> int:
    """Order where bessel_squares seeds its recurrence: past both ell_max
    and z_max by 8 z_max^(1/3) + 16, where J_n(z) has decayed by 1e-17
    from its size at n = z."""
    return int(max(ell_max, z_max) + 8.0 * z_max ** (1.0 / 3.0)) + 16


def bessel_squares(ell_max: int, z, d: int) -> np.ndarray:
    """Rows J_l(z)^2 (d = 2) or j_l(z)^2 (d = 3), l = 0..ell_max, at z > 0.

    Miller's backward recurrence from _miller_start, normalized by
    J_0^2 + 2 sum J_n^2 = 1 or sum (2n + 1) j_n^2 = 1, so the sign of the
    seed never matters.  Values past 2^400 are scaled down by exact powers
    of two, point by point.
    """
    z = np.asarray(z, dtype=float)
    start = _miller_start(ell_max, float(z.max()))
    shift = 0.5 if d == 3 else 0.0
    two_over_z = 2.0 / z
    rows = np.empty((ell_max + 1, z.size))
    f_hi, f, norm = np.zeros_like(z), np.ones_like(z), np.zeros_like(z)
    for n in range(start, 0, -1):
        norm += (2 * n + 1 if d == 3 else 2) * f * f
        if n <= ell_max:
            rows[n] = f
        f_hi, f = f, (n + shift) * two_over_z * f - f_hi
        if np.abs(f).max() > 2.0 ** 400:
            s = np.where(np.abs(f) > 2.0 ** 400, 2.0 ** -400, 1.0)
            f *= s
            f_hi *= s
            norm *= s * s
            rows[n:] *= s
    norm += f * f
    rows[0] = f
    rows *= rows
    rows /= norm
    return rows


# J0 below _J0_SWITCH: sum_k c_k T_k(2 (x/X)^2 - 1) with c_k = e_k (-1)^k
# J_k(X/2)^2 (e_0 = 1, else 2; Neumann's addition theorem, DLMF 10.23.7),
# 30 terms to |c_k| < 1e-17.  Above it, the Hankel expansion with 20 terms,
# the next below 1e-17 at X = 25.
_J0_SWITCH = 25.0
_J0_CHEB = 30


def _hankel_series(terms: int):
    """Coefficients, highest power first, of P(x) and x Q(x) in 1/x^2:
    J0(x) = (P (cos x + sin x) + Q (cos x - sin x)) / sqrt(pi x),
    from a_k = -a_(k-1) (2k - 1)^2 / (8k), P + iQ = sum_k a_k (i/x)^k."""
    a = [1.0]
    for k in range(1, terms):
        a.append(-a[-1] * (2 * k - 1) ** 2 / (8.0 * k))
    signed = [v * (-1) ** (k // 2) for k, v in enumerate(a)]
    return signed[0::2][::-1], signed[1::2][::-1]


_HANKEL_P, _HANKEL_Q = _hankel_series(20)


@lru_cache(maxsize=None)
def _j0_chebyshev(switch: float, terms: int) -> np.ndarray:
    """The c_k of the J0 series on [0, switch], from bessel_squares."""
    sq = bessel_squares(terms - 1, np.array([0.5 * switch]), 2)[:, 0]
    c = 2.0 * sq
    c[1::2] *= -1.0
    c[0] = sq[0]
    return c


def _j0_flat(x: np.ndarray) -> np.ndarray:
    """J0 of a flat array of x >= 0.  The Chebyshev sum runs in Reinsch's
    form, in u = (2x/X)^2 = 2 (t + 1), which keeps its accuracy at t = -1,
    where the plain Clenshaw sum lost 5e-15 near x = 0."""
    out = np.empty_like(x)
    near = x < _J0_SWITCH
    u = (x[near] * (2.0 / _J0_SWITCH)) ** 2
    c = _j0_chebyshev(_J0_SWITCH, _J0_CHEB)
    b = d = 0.0
    for ck in c[:0:-1]:
        d = ck + u * b - d
        b = d - b
    out[near] = c[0] + 0.5 * u * b - d
    far = ~near
    if far.any():
        xf = x[far]
        w = 1.0 / (xf * xf)
        p, q = np.polyval(_HANKEL_P, w), np.polyval(_HANKEL_Q, w) / xf
        s, co = np.sin(xf), np.cos(xf)
        out[far] = (p * (co + s) + q * (co - s)) / np.sqrt(math.pi * xf)
    return out


# Points per J0 block: its work arrays, about ten of 128 kB, stay in cache.
_J0_BLOCK = 16384


def _j0(x: np.ndarray) -> np.ndarray:
    """J0 of a contiguous array of x >= 0 of any shape, in place, a block
    of _J0_BLOCK points at a time, so no work array grows with x."""
    flat = x.reshape(-1)
    for block in np.split(flat, range(_J0_BLOCK, flat.size, _J0_BLOCK)):
        block[:] = _j0_flat(block)
    return x


def j_d(r, mu: float, d: int):
    """Radial profile of the plane-wave average over the Fermi sphere.

    j_1 = sqrt(2/pi) cos(sqrt(mu) r), j_2 = J0(sqrt(mu) r),
    j_3 = sqrt(2/pi) sin(sqrt(mu) r)/(sqrt(mu) r), elementwise in r of any
    shape; a scalar r gives a float.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    r = np.asarray(r, dtype=float)
    z = np.sqrt(mu) * np.atleast_1d(r)  # a fresh array, so the routes may overwrite it
    if d == 1:
        out = _SQRT_2_OVER_PI * np.cos(z, out=z)
    elif d == 2:
        out = _j0(np.abs(z, out=z))
    elif d == 3:
        out = _SQRT_2_OVER_PI * _sinc(z)
    else:
        raise ValueError(f"d must be 1, 2 or 3, got {d}")
    return out if r.ndim else float(out[0])


def _sinc(z):
    """sin(z)/z with its limit 1 at z = 0; the quotient is accurate to an
    ulp down to the smallest z, so no series branch is needed."""
    z = np.asarray(z, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(z == 0.0, 1.0, np.sin(z) / z)
