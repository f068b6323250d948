"""The two-body BCS kernel K_T, its reciprocal relative-coordinate form B_T,
and the Fermi-shell mass m_mu, all evaluated in log space so that T can be
driven to the 1e-16 mu scale without overflow or cancellation.

Momentum arguments enter as a = p^2 - mu, b = q^2 - mu; the kernel is
K(a, b) = (a + b) / (tanh(a/2T) + tanh(b/2T)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quad import gauss_panels

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class KernelParams:
    """Temperature and chemical potential, both positive."""

    T: float
    mu: float

    def __post_init__(self):
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError("T must be positive and finite")
        if not (self.mu > 0 and math.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")


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


def kt(a, b, params: KernelParams):
    """K(a, b) in shifted variables, elementwise.  kt(0, 0, params) is
    exactly 2 T.

    Returns inf when the near-cancelling tanh sum drives the kernel past
    floating-point range; the kernel really is that large there.
    """
    inv = 0.5 / params.T
    with np.errstate(over="ignore"):
        out = 2.0 * params.T * np.exp(_kt_exponent(a * inv, b * inv))
    return out if out.ndim else float(out)


def bt(p_sq: float, q_sq: float, pq_dot: float, params: KernelParams) -> float:
    """B_T(p, q) = 1 / K(|p+q|^2 - mu, |p-q|^2 - mu) for vectors p, q.

    Arguments are |p|^2, |q|^2 and the inner product p.q; the Cauchy-Schwarz
    constraint on pq_dot is enforced.  Underflows to 0 for huge momenta.
    """
    if p_sq < 0 or q_sq < 0:
        raise ValueError("squared momenta must be nonnegative")
    if pq_dot * pq_dot > p_sq * q_sq * (1.0 + 1e-12) + 1e-300:
        raise ValueError("pq_dot violates |p.q| <= |p||q|")
    a = p_sq + q_sq + 2.0 * pq_dot - params.mu
    b = p_sq + q_sq - 2.0 * pq_dot - params.mu
    inv = 0.5 / params.T
    return float(np.exp(-_kt_exponent(a * inv, b * inv))) / (2.0 * params.T)


def bt_radial_shifted(a, params: KernelParams):
    """B_T(p, 0) = tanh(a/2T)/a on the momentum axis, elementwise in a = p^2 - mu.

    The a -> 0 limit 1/(2T) is taken by series, so Fermi-surface nodes are safe.
    Both branches run on every entry and np.where keeps one; the series
    overflows (and gives inf - inf) on the large entries it does not keep,
    which happens for T below about 1e-150 mu.
    """
    a = np.asarray(a, dtype=float)
    z = a * (0.5 / params.T)
    small = np.abs(z) < 1e-6
    zs = np.where(small, 1.0, z)
    with np.errstate(over="ignore", invalid="ignore"):
        direct = np.tanh(zs) / zs
        z2 = z * z
        series = 1.0 - z2 / 3.0 + 2.0 * z2 * z2 / 15.0
    out = np.where(small, series, direct) * (0.5 / params.T)
    return out if out.ndim else float(out)


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


def _fermi_shell_edges(T: float, mu: float):
    """Panel edges over 0 < t < sqrt(2 mu) for the fixed rules of m_mu and
    diagnostics.dt_form_d1; build_grid panels its Fermi shell on the a edges.

    Inside the Fermi shell |t^2 - mu| < mu/2 the edges lie in the shifted
    variable a = t^2 - mu: 0, then +/- T doubling out to +/- mu/2, the last
    step possibly shorter.  Each is exact in a, so the thermal layer stays
    resolved when T << mu; in t the edges would round onto sqrt(mu) once T
    is below about 1e-13 mu.  Outside the shell the edges lie in t, four
    panels a side.  Returns the a edges and the two lists of t edges.
    """
    half = 0.5 * mu
    ladder = T * 2.0 ** np.arange(max(0, math.ceil(math.log2(half / T))))
    edges = np.concatenate([[0.0], ladder, [half]])
    sides = [np.linspace(lo, hi, 5)
             for lo, hi in ((0.0, math.sqrt(half)), (math.sqrt(mu + half), math.sqrt(2.0 * mu)))]
    return np.concatenate([-edges[:0:-1], edges]), sides


def m_mu(params: KernelParams, d: int) -> float:
    """Fermi-shell mass: integral of B_T(t, 0) t^(d-1) over 0 < t < sqrt(2 mu).

    One fixed Gauss-Legendre evaluation on the panels of _fermi_shell_edges:
    in a = t^2 - mu inside the Fermi shell, in t outside it, where the
    integrand stays smooth at both endpoints for every d (in a, d = 1 would
    carry an integrable 1/sqrt singularity at a = -mu).
    """
    if d not in (1, 2, 3):
        raise ValueError(f"d must be 1, 2 or 3, got {d}")
    mu = params.mu
    a_edges, t_edges = _fermi_shell_edges(params.T, mu)
    a, wa = gauss_panels(a_edges)
    # dt = da / 2t, so t^(d-1) dt = (mu + a)^((d-2)/2) da / 2
    total = 0.5 * np.dot(wa, bt_radial_shifted(a, params) * (mu + a) ** (0.5 * d - 1.0))
    for edges in t_edges:
        t, wt = gauss_panels(edges)
        total += np.dot(wt, bt_radial_shifted(t * t - mu, params) * t ** (d - 1))
    return float(total)
