"""Sine integral, the entire cosine integral Cin, and the radial profiles j_d
of the Fermi-sphere surface measure in d = 1, 2, 3."""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


# Cin(x) = sum_k (-1)^(k+1) x^(2k) / (2k (2k)!); eight terms reach full
# precision below x = 0.5, and the sum stays relative as x -> 0.
_CIN_SERIES = [(-1) ** (k + 1) / (2 * k * math.factorial(2 * k)) for k in range(1, 9)]


def si_cin(x):
    """(Si(x), Cin(x)) for x >= 0, elementwise, from one sici call:
    Si(x) = integral of sin(t)/t and Cin(x) = integral of (1 - cos t)/t
    over [0, x].

    Cin takes the power series below x = 0.5 (the gamma + log(x) - Ci(x)
    form cancels catastrophically there) and the Ci relation above.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("Si and Cin are evaluated on x >= 0 only")
    si, ci = _sp.sici(x)
    small = x < 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        cin = np.asarray(np.euler_gamma + np.log(x) - ci)
    x2 = x[small] ** 2
    cin[small] = x2 * np.polynomial.polynomial.polyval(x2, _CIN_SERIES)
    return (si, cin) if x.ndim else (float(si), float(cin))


def j_d(r, mu: float, d: int):
    """Radial profile of the plane-wave average over the Fermi sphere.

    j_1 = sqrt(2/pi) cos(sqrt(mu) r), j_2 = J0(sqrt(mu) r),
    j_3 = sqrt(2/pi) sin(sqrt(mu) r)/(sqrt(mu) r), elementwise in r.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    z = np.sqrt(mu) * np.asarray(r, dtype=float)
    if d == 1:
        out = _SQRT_2_OVER_PI * np.cos(z)
    elif d == 2:
        out = _sp.j0(z)
    elif d == 3:
        out = _SQRT_2_OVER_PI * _sinc(z)
    else:
        raise ValueError(f"d must be 1, 2 or 3, got {d}")
    return out if out.ndim else float(out)


def _sinc(z):
    """sin(z)/z with its limit 1 at z = 0; the quotient is accurate to an
    ulp down to the smallest z, so no series branch is needed."""
    z = np.asarray(z, dtype=float)
    with np.errstate(invalid="ignore"):
        return np.where(z == 0.0, 1.0, np.sin(z) / z)
