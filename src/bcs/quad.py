"""1-D quadrature: the fixed Gauss-Legendre panel rule that every integral in
the library runs on, and the error its callers raise when a fixed rule
cannot meet its contract."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class QuadratureError(Exception):
    """Integral could not be computed under the requested contract."""


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
