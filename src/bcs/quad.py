"""1-D quadrature: the fixed Gauss-Legendre panel rule that every integral in
the library runs on, alone or on rows laid back to back (gauss_rows), the two
panel layouts every caller builds its edges from (_subdivide, _ladder), the
Chebyshev points that interpolate band-limited functions (_chebyshev_count,
_chebyshev_points) with the barycentric Lagrange matrix W's factor takes onto
its grids (_lagrange; the d = 2 pairing form reaches the same points through
Chebyshev moments instead), and the error its callers raise when a fixed rule
cannot meet its contract or a layout would pass _MAX_NODES."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


class QuadratureError(Exception):
    """Integral could not be computed under the requested contract."""


# The most nodes one panel layout may hold at 16 a panel (2^24 nodes, 128 MiB each for the
# nodes and weights): a layout sized by an input such as a huge mu is refused before its
# edges are allocated.
_MAX_NODES = 1 << 24


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


def gauss_rows(edges, width: float):
    """Nodes, weights and node count of each row of edges laid back to back,
    every row starting below the last edge of the one before: the 16-point
    gauss_panels on each panel split into parts at most ``width`` wide
    (_subdivide), but none on the panels of negative width between rows."""
    e = _subdivide(edges, np.ceil(np.diff(edges) / width))
    x, w = gauss_panels(e)
    back = np.diff(e) < 0.0
    keep = np.repeat(~back, 16)
    return x[keep], w[keep], 16 * np.bincount(np.cumsum(back)[~back], minlength=back.sum() + 1)


def _subdivide(edges, counts):
    """``edges`` with panel i split into max(1, counts[i]) equal parts (one
    scalar count splits every panel alike), at lo_i + k * (width_i / n_i),
    the points np.linspace places, so each panel keeps its own ends.  Raises
    QuadratureError before laying more than _MAX_NODES nodes."""
    e = np.asarray(edges, dtype=float)
    n = np.empty(len(e) - 1)
    n[:] = np.maximum(1, counts)
    if not 16.0 * n.sum() <= _MAX_NODES:
        raise QuadratureError(f"a rule of {16.0 * n.sum():.4g} nodes is past the cap of "
                              f"{_MAX_NODES} nodes")
    n = n.astype(int)
    i = np.repeat(np.arange(len(n)), n)
    k = np.arange(len(i)) - (np.cumsum(n) - n)[i]
    return np.append(k * (np.diff(e) / n)[i] + e[i], e[-1])


def _ladder(width: float, reach: float):
    """width * 2^k for every k >= 0 with width * 2^k < reach, ascending:
    offsets that halve from reach down to width toward a thin layer."""
    steps = width * 2.0 ** np.arange(np.ceil(np.log2(reach / width)) + 1)
    return steps[steps < reach]


def _chebyshev_count(Y: float, P: float) -> int:
    """The smallest n with 2 (Y P / 4)^n / n! <= 1e-16, which bounds the error
    of cos(q y), y <= Y, interpolated at n Chebyshev points in [0, P], and of
    any f(q) with |f^(n)| <= Y^n, such as j_d(q r) for r <= Y."""
    x = 0.25 * Y * P
    return next(n for n in range(1, 1 << 30)
                if math.lgamma(n + 1) - n * math.log(x) >= math.log(2e16))


def _chebyshev_points(n: int, width: float):
    """The n first-kind Chebyshev points xi of [0, width], ascending, and
    their barycentric weights b."""
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    return 0.5 * width * (1.0 - np.cos(theta)), np.sin(theta) * (-1.0) ** np.arange(n)


def _lagrange(q, xi, b):
    """The barycentric Lagrange matrix L of the points xi, with weights b, onto q:
    L[l, j] = K[l, j] / sum_m K[m, j], K[l, j] = b_l / (q_j - xi_l), and a q on a point
    takes that point's unit column."""
    at = np.searchsorted(xi, q).clip(max=len(xi) - 1)
    hit = xi[at] == q
    K = np.subtract(q, xi[:, None])
    with np.errstate(divide="ignore"):
        np.divide(b[:, None], K, out=K)
    K[:, hit] = at[hit] == np.arange(len(xi))[:, None]
    K /= K.sum(axis=0)
    return K
