"""The reciprocal BCS kernel on the momentum axis and the Fermi-shell mass.

Momentum arguments enter as a = p^2 - mu.  The two-body kernel is
K(a, b) = (a + b) / (tanh(a/2T) + tanh(b/2T)); the solve chain needs only
B_T(p, 0) = 1 / K(a, a) = tanh(a/2T)/a, its slope d ln B_T / d ln T for the
temperature search, and its integral m_mu over the Fermi shell, all
evaluated so that T can be driven to the 1e-16 mu scale without overflow or
cancellation.  The full kernel K(a, b) and the tanh mean inequality are
proof tools and live with the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quad import _ladder, _subdivide, gauss_panels


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


def bt_radial_shifted(a, params: KernelParams):
    """B_T(p, 0) = tanh(a/2T)/a on the momentum axis, elementwise in a = p^2 - mu.

    The quotient tanh(z)/z, z = a/2T, is accurate to an ulp down to the
    smallest z, so only z = 0 takes the limit, 1/(2T), as special._sinc does.
    """
    z = np.asarray(a, dtype=float) * (0.5 / params.T)
    with np.errstate(invalid="ignore"):
        out = np.where(z == 0.0, 1.0, np.tanh(z) / z) * (0.5 / params.T)
    return out if out.ndim else float(out)


def bt_log_slope(a, params: KernelParams) -> np.ndarray:
    """g = d ln B_T(p, 0) / d ln T = -y / sinh(y), y = |a| / T, elementwise;
    -1 at a = 0.  y stops at 700, where |g| < 1e-300, so sinh never overflows."""
    with np.errstate(over="ignore"):
        y = np.minimum(np.abs(np.asarray(a, dtype=float)) / params.T, 700.0)
    return np.where(y > 0.0, -y / np.sinh(np.where(y > 0.0, y, 1.0)), -1.0)


def _fermi_shell_edges(T: float, mu: float):
    """Panel edges over 0 < t < sqrt(2 mu) for _shell_rule; build_grid
    panels its Fermi shell on the a edges.

    Inside the Fermi shell |t^2 - mu| < mu/2 the edges lie in the shifted
    variable a = t^2 - mu: 0, then +/- T doubling out to +/- mu/2, the last
    step possibly shorter.  Each is exact in a, so the thermal layer stays
    resolved when T << mu; in t the edges would round onto sqrt(mu) once T
    is below about 1e-13 mu.  Outside the shell the edges lie in t, four
    panels a side.  Returns the a edges and the two lists of t edges.
    """
    half = 0.5 * mu
    edges = np.concatenate([[0.0], _ladder(T, half), [half]])
    sides = [_subdivide([lo, hi], 4)
             for lo, hi in ((0.0, math.sqrt(half)), (math.sqrt(mu + half), math.sqrt(2.0 * mu)))]
    return np.concatenate([-edges[:0:-1], edges]), sides


def _shell_rule(T: float, mu: float, width: float = math.inf):
    """Nodes t, weights and exact shifted values a = t^2 - mu of the fixed
    Gauss-Legendre rule over 0 < t < sqrt(2 mu) on the panels of
    _fermi_shell_edges, each split where it is wider than ``width`` in t.

    The shell panels run in a, with dt = da / 2t, so their a stays exact
    and the integrand stays smooth at both ends for every power of t (in a,
    t^0 would carry an integrable 1/sqrt singularity at a = -mu).
    """
    a_edges, t_edges = _fermi_shell_edges(T, mu)
    if width < math.inf:  # an infinite width splits nothing
        a_edges = _subdivide(a_edges, np.ceil(np.diff(np.sqrt(mu + a_edges)) / width))
        t_edges = [_subdivide(e, np.ceil(np.diff(e) / width)) for e in t_edges]
    (a, wa), *sides = [gauss_panels(e) for e in (a_edges, *t_edges)]
    t = np.sqrt(mu + a)
    return (np.concatenate([t] + [s for s, _ in sides]),
            np.concatenate([0.5 * wa / t] + [w for _, w in sides]),
            np.concatenate([a] + [s * s - mu for s, _ in sides]))


def m_mu(params: KernelParams, d: int) -> float:
    """Fermi-shell mass: integral of B_T(t, 0) t^(d-1) over 0 < t < sqrt(2 mu),
    one dot product on _shell_rule."""
    if d not in (1, 2, 3):
        raise ValueError(f"d must be 1, 2 or 3, got {d}")
    t, w, a = _shell_rule(params.T, params.mu)
    return float(np.dot(w, bt_radial_shifted(a, params) * t ** (d - 1)))
