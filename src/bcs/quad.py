"""1-D quadrature: adaptive finite panels with singular breaks, and a fixed
Gauss-Legendre panel rule for vectorized integrands."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate


class QuadratureError(Exception):
    """Integral could not be computed under the requested contract."""


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and limits for a single integration request.

    Parameters
    ----------
    abs_tol, rel_tol : float
        Target absolute/relative accuracy; the result aims for
        ``|value - exact| <= max(abs_tol, rel_tol * |value|)``.
    max_evals : int
        Budget of integrand evaluations (rounded down to whole panels).
    singular_points : tuple of float
        Interior abscissae where the integrand is singular but integrable.
        Panels are split there and no node is ever placed on them.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_evals: int = 50_000
    singular_points: tuple = ()

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_evals < 21:
            raise ValueError("max_evals below minimum panel size (21)")


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate and cost of one integration."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool = True
    message: str = ""

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")
        if self.evaluations < 1:
            raise ValueError("evaluations must be at least 1")


def _checked(f):
    """Wrap an integrand so a NaN evaluation aborts with the offending abscissa."""

    def g(x):
        v = f(x)
        if math.isnan(v):
            raise QuadratureError(f"integrand returned NaN at x={x!r}")
        return v

    return g


def integrate_finite(f, a: float, b: float, spec: QuadSpec | None = None) -> QuadResult:
    """Integrate ``f`` over the finite interval [a, b].

    Uses adaptive Gauss-Kronrod panels (all nodes interior, so endpoint or
    break-point singularities are never evaluated).  Interior singular points
    from ``spec`` become mandatory panel boundaries.

    Returns a non-converged QuadResult carrying the best estimate when the
    evaluation budget runs out; raises QuadratureError on NaN.
    """
    spec = spec or QuadSpec()
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    g = _checked(f)
    pts = sorted(p for p in spec.singular_points if a < p < b)
    limit = max(10, spec.max_evals // 21)
    out = integrate.quad(
        g, a, b,
        epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=limit, points=pts or None, full_output=True,
    )
    value, err, info = out[0], out[1], out[2]
    evals = int(info["neval"])
    if len(out) > 3:
        return QuadResult(value, err, evals, converged=False,
                          message=f"accuracy not reached: {out[3]}")
    return QuadResult(value, err, evals)


@lru_cache(maxsize=64)
def _gl(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_panels(edges, n: int = 16):
    """Nodes and weights of the n-point Gauss-Legendre rule on every panel
    between consecutive ``edges``, concatenated in order."""
    x, w = _gl(n)
    e = np.asarray(edges, dtype=float)
    mid, half = 0.5 * (e[1:] + e[:-1])[:, None], 0.5 * np.diff(e)[:, None]
    return (half * x + mid).ravel(), (half * w).ravel()
