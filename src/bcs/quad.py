"""1-D quadrature: the fixed Gauss-Legendre panel rule that every integral in
the library runs on, the two panel layouts every caller builds its edges
from (_subdivide, _ladder), and the error its callers raise when a fixed
rule cannot meet its contract."""

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


def _subdivide(edges, counts):
    """``edges`` with panel i split into max(1, counts[i]) equal parts (one
    scalar count splits every panel alike), at lo_i + k * (width_i / n_i),
    the points np.linspace places, so each panel keeps its own ends."""
    e = np.asarray(edges, dtype=float)
    n = np.empty(len(e) - 1, dtype=int)
    n[:] = np.maximum(1, counts)
    i = np.repeat(np.arange(len(n)), n)
    k = np.arange(len(i)) - (np.cumsum(n) - n)[i]
    return np.append(k * (np.diff(e) / n)[i] + e[i], e[-1])


def _ladder(width: float, reach: float):
    """width * 2^k for every k >= 0 with width * 2^k < reach, ascending:
    offsets that halve from reach down to width toward a thin layer."""
    steps = width * 2.0 ** np.arange(np.ceil(np.log2(reach / width)) + 1)
    return steps[steps < reach]
