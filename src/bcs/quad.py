"""1-D quadrature: adaptive finite panels with singular breaks, a fixed
Gauss-Legendre panel rule for vectorized integrands, semi-infinite
integrals of declared algebraic decay, and oscillatory tails summed over
half-periods."""

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


@dataclass(frozen=True)
class Decay:
    """Declared tail behavior of a semi-infinite integrand.

    Use the ``algebraic`` constructor; ``power`` is the exponent p in
    ``|f| ~ x**-p`` (p > 1).
    """

    kind: str
    power: float = 0.0

    @staticmethod
    def algebraic(power: float) -> "Decay":
        if power <= 1.0:
            raise ValueError("algebraic decay needs power > 1 for integrability")
        return Decay("algebraic", power=power)


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


def integrate_semiinfinite(f, a: float, decay: Decay,
                           spec: QuadSpec | None = None) -> QuadResult:
    """Integrate ``f`` over [a, infinity) given its declared algebraic decay.

    The tail, which must not oscillate, is mapped through ``x = a + t/(1-t)``.

    Raises QuadratureError("tail not resolved ...") when the samples are
    inconsistent with the declared decay.
    """
    spec = spec or QuadSpec()
    g = _checked(f)
    if decay.kind != "algebraic":
        raise ValueError(f"unknown decay kind {decay.kind!r}")

    # Consistency probe: an algebraic tail must at least be shrinking.
    x1 = abs(a) + 10.0
    s1 = max(abs(g(x1 * (1 + 0.05 * k))) for k in range(4))
    s2 = max(abs(g(4 * x1 * (1 + 0.05 * k))) for k in range(4))
    if s2 > s1 + spec.abs_tol and s1 > 0:
        raise QuadratureError("tail not resolved: samples grow where algebraic decay was declared")

    # The map must stretch with the start point: an algebraic tail from a
    # large `a` carries its mass at x ~ a, which a unit-scale substitution
    # would compress into an unresolvable layer at t = 1.
    stretch = max(1.0, abs(a))

    def mapped(t):
        if t >= 1.0:
            return 0.0
        return g(a + stretch * t / (1.0 - t)) * stretch / (1.0 - t) ** 2

    limit = max(10, spec.max_evals // 21)
    out = integrate.quad(mapped, 0.0, 1.0, epsabs=spec.abs_tol,
                         epsrel=spec.rel_tol, limit=limit, full_output=True)
    value, err, evals = out[0], out[1], int(out[2]["neval"])
    if len(out) == 3 and err <= max(spec.abs_tol, spec.rel_tol * abs(value)):
        return QuadResult(value, err, evals + 8)
    return QuadResult(value, err, evals + 8, converged=False,
                      message="accuracy not reached: substitution stalled")


def _trig_zeros_start(kind, omega, start):
    """First zero of the trig factor at or beyond ``start``."""
    if kind == "cos":
        m = math.ceil((start * omega / math.pi) - 0.5)
        z = (m + 0.5) * math.pi / omega
    else:
        m = math.ceil(start * omega / math.pi)
        z = m * math.pi / omega
    while z <= start:
        z += math.pi / omega
    return z


def _averaged_alternating_sum(terms):
    """van Wijngaarden iterated averaging of an alternating series' partial sums."""
    rows = [np.cumsum(np.asarray(terms, dtype=float))]
    while len(rows[-1]) > 1 and len(rows) < 40:
        prev = rows[-1]
        rows.append(0.5 * (prev[:-1] + prev[1:]))
    best = float(rows[-1][-1])
    prev_best = float(rows[-2][-1]) if len(rows) > 1 else best
    return best, abs(best - prev_best)


def integrate_oscillatory_tail(amplitude, omega: float, start: float,
                               spec: QuadSpec | None = None, *,
                               kind: str = "cos",
                               decay: Decay | None = None) -> QuadResult:
    """Integrate ``amplitude(k) * trig(omega*k)`` over [start, infinity).

    ``kind`` selects the trig factor: "cos", "sin", or "sin2" (sin squared).
    The amplitude must be monotone decaying beyond ``start``.  cos/sin tails
    are summed between consecutive trig zeros, an alternating series whose
    truncation error is bounded by the first omitted term, then accelerated
    by iterated averaging.  "sin2" reduces via sin^2 = (1 - cos(2wk))/2 and
    needs the amplitude's ``decay`` declared for its non-oscillatory half.
    """
    spec = spec or QuadSpec()
    if omega < 1e-8:
        raise QuadratureError("frequency too small for oscillatory summation")
    if kind not in ("cos", "sin", "sin2"):
        raise ValueError(f"unknown trig kind {kind!r}")
    g = _checked(amplitude)

    halfper = math.pi / omega
    probes = [abs(g(start + j * max(halfper, 1e-3))) for j in range(6)]
    for u, v in zip(probes, probes[1:]):
        if v > u * (1 + 1e-9) + 1e-300:
            raise QuadratureError("amplitude not decaying beyond the tail start")

    if kind == "sin2":
        if decay is None:
            raise ValueError("sin2 tails need the amplitude decay declared")
        smooth = integrate_semiinfinite(g, start, decay, spec)
        osc = integrate_oscillatory_tail(g, 2.0 * omega, start, spec, kind="cos")
        return QuadResult(0.5 * smooth.value - 0.5 * osc.value,
                          0.5 * smooth.error_estimate + 0.5 * osc.error_estimate,
                          smooth.evaluations + osc.evaluations + 6,
                          smooth.converged and osc.converged,
                          smooth.message or osc.message)

    trig = math.cos if kind == "cos" else math.sin

    def integrand(k):
        return g(k) * trig(omega * k)

    inner = QuadSpec(abs_tol=1e-3 * spec.abs_tol, rel_tol=0.1 * spec.rel_tol,
                     max_evals=spec.max_evals)
    z = _trig_zeros_start(kind, omega, start)
    head = integrate_finite(integrand, start, z, inner) if z > start + 1e-300 * halfper \
        else QuadResult(0.0, 0.0, 1)

    terms = []
    qerr = 0.0
    evals = head.evaluations
    lo = z
    total, accel_err = 0.0, math.inf
    for m in range(512):
        hi = lo + halfper
        r = integrate_finite(integrand, lo, hi, inner)
        terms.append(r.value)
        qerr += r.error_estimate
        evals += r.evaluations
        lo = hi
        if abs(r.value) < 0.02 * spec.abs_tol and m >= 4:
            total, accel_err = _averaged_alternating_sum(terms)
            break
        if m >= 15 and (m & 15) == 15:
            total, accel_err = _averaged_alternating_sum(terms)
            if accel_err < 0.05 * max(spec.abs_tol,
                                      spec.rel_tol * abs(head.value + total)):
                break
    else:
        total, accel_err = _averaged_alternating_sum(terms)
    err = head.error_estimate + qerr + max(4.0 * accel_err, abs(total) * 1e-15)
    return QuadResult(head.value + total, err, evals + 6)
