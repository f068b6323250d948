"""Half-space boundary criterion in three dimensions.

The boundary density splits into four closed-form terms t1..t4 whose signed
sums give the Dirichlet and Neumann profiles m3.  The criterion weighs a
radial potential against m3; its sign decides whether the half-space
supports pairing at a higher temperature than the bulk.  mtilde_direct
evaluates the underlying line integral without the spherical reduction and
is kept purely as a cross-check for the closed forms.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .potentials import RadialPotential, to_config
from .quad import Decay, QuadSpec, integrate_finite, integrate_oscillatory_tail
from .special import cosine_integral_cin, j_d, sine_integral

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

# Signs with which t1..t4 enter each profile.
_TERM_SIGNS = {
    DIRICHLET: (1.0, 1.0, 1.0, 1.0),
    NEUMANN: (1.0, 1.0, -1.0, -1.0),
}


def normalize_bc(bc) -> str:
    b = str(bc).strip().lower()
    if b in ("d", DIRICHLET):
        return DIRICHLET
    if b in ("n", NEUMANN):
        return NEUMANN
    raise ValueError(f"unknown boundary condition {bc!r}; use 'dirichlet' or 'neumann'")


def _check_x(x: float) -> float:
    x = float(x)
    if not (x >= 0.0) or math.isinf(x):
        raise ValueError(f"profile argument must be finite and >= 0, got {x}")
    return x


def t1(x: float) -> float:
    """First profile term, (4/(pi x)) int_1^inf sin^2(xk) arcoth(k)/k dk.

    Evaluated in the substituted variable u = xk, where the integrand is
    sin^2(u) arcoth(u/x)/u: the arcoth log singularity sits at the left
    endpoint u = x and the oscillation has unit frequency for every x.
    Octave-doubling panels cover [x, pi] so no single quadrature call
    spans several decades (long flat stretches defeat the error
    estimator), and the tail beyond is summed with the sin^2 splitting.
    Uniformly accurate from x near 0 up to large x.
    """
    x = _check_x(x)
    if x == 0.0:
        return 2.0
    if x < 5e-9:
        # First Taylor step; the second derivative stays bounded (about
        # -8/9 at zero) so the remainder here is below 1e-17.
        return 2.0 - (2.0 / math.pi) * x

    # All panel contributions are positive, so relative accuracy controls
    # and the absolute floor only needs to scale out the 1/x prefactor.
    spec = QuadSpec(abs_tol=max(1e-17, 1e-14 * min(1.0, x)), rel_tol=1e-13,
                    max_evals=60000)

    def g(u):
        return math.sin(u) ** 2 * math.atanh(min(1.0, x / u)) / u

    def amp(u):
        return math.atanh(x / u) / u

    # Panels stop no earlier than 2x so the tail never starts on the
    # singular endpoint itself.
    stop = max(2.0 * x, math.pi)
    total = 0.0
    lo = x
    while lo < stop:
        hi = min(2.0 * lo, stop)
        total += integrate_finite(g, lo, hi, spec).value
        lo = hi
    tail = integrate_oscillatory_tail(amp, 1.0, lo, spec, kind="sin2",
                                      decay=Decay.algebraic(2))
    total += tail.value
    return 4.0 / (math.pi * x) * total


def t2(x: float) -> float:
    """Second profile term, -(2/pi) sin^2(x)/x."""
    x = _check_x(x)
    if x == 0.0:
        return 0.0
    return -(2.0 / math.pi) * math.sin(x) ** 2 / x


def t3(x: float) -> float:
    """Third profile term, -2 sin^2(x)/x^2."""
    x = _check_x(x)
    if x == 0.0:
        return -2.0
    return -2.0 * (math.sin(x) / x) ** 2


def t4(x: float) -> float:
    """Fourth profile term, (4 sin x/(pi x^2))(sin x Si(2x) - cos x Cin(2x))."""
    x = _check_x(x)
    if x < 1e-6:
        # Odd at the origin with vanishing second derivative; the linear
        # term is exact to O(x^3) here.
        return 4.0 * x / math.pi
    s = math.sin(x)
    c = math.cos(x)
    bracket = s * sine_integral(2.0 * x) - c * cosine_integral_cin(2.0 * x)
    return 4.0 * s / (math.pi * x * x) * bracket


_TERMS = (t1, t2, t3, t4)


def t_j(x: float, j: int) -> float:
    """Dispatch to t1..t4 by index."""
    if j not in (1, 2, 3, 4):
        raise ValueError(f"term index must be in 1..4, got {j}")
    return _TERMS[j - 1](x)


def m3(x: float, bc) -> float:
    """Boundary profile at unit chemical potential: signed sum of t1..t4."""
    signs = _TERM_SIGNS[normalize_bc(bc)]
    return math.fsum(s * f(x) for s, f in zip(signs, _TERMS))


def m3_scaled(r: float, mu: float, bc) -> float:
    """Profile at chemical potential mu via the exact rescaling of m3."""
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"chemical potential must be positive, got {mu}")
    root_mu = math.sqrt(mu)
    return m3(root_mu * float(r), bc) / root_mu


def m3_profile(x_max: float, step: float, bc, threads: int = 1):
    """Sample m3 on the uniform grid 0, step, 2*step, ..., <= x_max.

    Returns a list of (x, m3(x)) pairs.  Samples are independent, so the
    evaluation optionally fans out over a thread pool.
    """
    if not (step > 0.0):
        raise ValueError("step must be positive")
    if x_max < 0.0:
        raise ValueError("x_max must be nonnegative")
    n = int(math.floor(x_max / step + 1e-9)) + 1
    xs = [i * step for i in range(n)]
    b = normalize_bc(bc)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            vals = list(pool.map(lambda x: m3(x, b), xs))
    else:
        vals = [m3(x, b) for x in xs]
    return list(zip(xs, vals))


_MT_SPEC = QuadSpec(abs_tol=1e-11, rel_tol=1e-10, max_evals=60000)


def mtilde_direct(r, mu: float, bc) -> float:
    """Boundary density at a single point, from its defining line integral.

    ``r`` is a 3-vector.  The integral over the first coordinate splits at
    +-|r1|: inside, the reflected combination |j3 -+ j3(|r|)|^2 is kept
    literally; outside, substituting the radial distance turns the tail
    into sin^2(sqrt(mu) s) against a monotone algebraic weight.  The upper
    sign (Dirichlet) subtracts the point term (pi/sqrt(mu)) j3(|r|)^2.

    Much slower than m3 and only sensible as a cross-check: the spherical
    average of this quantity is m3_scaled.
    """
    b = normalize_bc(bc)
    sgn = 1.0 if b == DIRICHLET else -1.0
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"chemical potential must be positive, got {mu}")
    r1, r2, r3 = (float(c) for c in r)
    rho = math.hypot(r2, r3)
    rn = math.hypot(r1, rho)
    root_mu = math.sqrt(mu)
    jr = j_d(rn, mu, 3)
    point_term = -sgn * (math.pi / root_mu) * jr * jr

    if root_mu * rn < 1e-12:
        # Degenerate at the origin: the indicator window is empty and the
        # remaining full-line integral of j3^2 is 2/sqrt(mu) exactly.
        return 2.0 / root_mu + point_term

    # Outside the window: 2 int_{|r|}^inf sin^2(rt mu s) / (s sqrt(s^2-rho^2)) ds
    # times 2/(pi mu), with an inverse-square-root endpoint when r1 = 0.
    def outer_weight(s):
        return 1.0 / (s * math.sqrt((s - rho) * (s + rho)))

    def outer_integrand(s):
        return math.sin(root_mu * s) ** 2 * outer_weight(s)

    s0 = rn + max(rn, rho, 4.0 * math.pi / root_mu)
    fin = integrate_finite(outer_integrand, rn, s0, _MT_SPEC)
    tail = integrate_oscillatory_tail(outer_weight, root_mu, s0, _MT_SPEC,
                                      kind="sin2", decay=Decay.algebraic(2))
    outside = 4.0 / (math.pi * mu) * (fin.value + tail.value)

    if r1 == 0.0:
        return outside + point_term

    def window_integrand(z):
        jz = j_d(math.hypot(z, rho), mu, 3)
        return jz * jz - (jz - sgn * jr) ** 2

    win = integrate_finite(window_integrand, 0.0, abs(r1), _MT_SPEC)
    return outside + 2.0 * win.value + point_term


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the boundary criterion for one potential.

    ``value`` is the full-space integral of V against the boundary density
    at chemical potential mu; it equals the sum of ``per_term``.  The sign
    verdict stays ``inconclusive`` until |value| clears three times the
    error estimate, since the criterion demands a strict inequality.
    """

    value: float
    error_estimate: float
    sign: str
    per_term: dict = field(repr=False)
    inputs: dict = field(repr=False)

    def __post_init__(self):
        if self.error_estimate < 0.0:
            raise ValueError("error estimate must be nonnegative")
        if self.sign not in ("positive", "negative", "inconclusive"):
            raise ValueError(f"bad sign label {self.sign!r}")
        gap = abs(self.value - math.fsum(self.per_term.values()))
        if gap > max(self.error_estimate, 1e-12):
            raise ValueError("per-term contributions do not add up to the value")


def criterion(V: RadialPotential, mu: float, bc) -> CriterionReport:
    """Evaluate 4 pi mu^{-1/2} int V(r) m3(sqrt(mu) r) r^2 dr, term by term.

    Each t_j is integrated against V separately so the report shows which
    term drives the sign.  The error estimate combines the outer quadrature
    errors with a relative allowance for the inner t1 quadrature.
    """
    b = normalize_bc(bc)
    if V.d != 3:
        raise ValueError("the boundary criterion is specific to d=3 potentials")
    if not (mu > 0.0 and math.isfinite(mu)):
        raise ValueError(f"chemical potential must be positive, got {mu}")
    root_mu = math.sqrt(mu)
    rc = V.cutoff_radius(1e-16)
    spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-10, max_evals=60000,
                    singular_points=V.jumps)
    pref = 4.0 * math.pi / root_mu
    signs = _TERM_SIGNS[b]
    per_term = {}
    err = 0.0
    for j, (f, s) in enumerate(zip(_TERMS, signs), start=1):
        res = integrate_finite(lambda rr: V.value(rr) * f(root_mu * rr) * rr * rr,
                               0.0, rc, spec)
        per_term[f"t{j}"] = pref * s * res.value
        err += pref * (res.error_estimate + 1e-10 * abs(res.value))
    value = math.fsum(per_term.values())
    if value > 3.0 * err:
        sign = "positive"
    elif value < -3.0 * err:
        sign = "negative"
    else:
        sign = "inconclusive"
    inputs = {"potential": to_config(V), "mu": mu, "bc": b}
    return CriterionReport(value=value, error_estimate=err, sign=sign,
                           per_term=per_term, inputs=inputs)


def derivatives_at_zero(f, h_values=(1e-2, 5e-3, 2.5e-3)):
    """Right-sided (value, f'(0+), f''(0+)) estimates for a profile function.

    One-sided difference stencils at the given steps, extrapolated to
    h = 0 by Neville's scheme.  The profiles live on x >= 0 and t1 jumps
    across the origin, so central stencils are not an option.
    """
    hs = sorted(float(h) for h in h_values)
    if len(hs) < 2 or hs[0] <= 0:
        raise ValueError("need at least two positive steps")
    f0 = f(0.0)
    fh = {h: f(h) for h in hs}
    fh.update((2.0 * h, f(2.0 * h)) for h in hs if 2.0 * h not in fh)

    def _neville(nodes, vals):
        p = list(vals)
        for level in range(1, len(p)):
            for i in range(len(p) - level):
                x0, x1 = nodes[i], nodes[i + level]
                p[i] = (x0 * p[i + 1] - x1 * p[i]) / (x0 - x1)
        return p[0]

    d1 = _neville(hs, [(fh[h] - f0) / h for h in hs])
    d2 = _neville(hs, [(fh[2.0 * h] - 2.0 * fh[h] + f0) / h ** 2 for h in hs])
    return f0, d1, d2


# Reference values for the populated entries of the profile table: value,
# first and second one-sided derivative at zero for each term and profile.
# None marks entries that have no reference.
TABLE1_REFERENCE = {
    "t1": (2.0, -2.0 / math.pi, -8.0 / 9.0),
    "t2": (0.0, -2.0 / math.pi, 0.0),
    "t3": (-2.0, 0.0, 4.0 / 3.0),
    "t4": (0.0, 4.0 / math.pi, 0.0),
    "m3_dirichlet": (0.0, 0.0, 4.0 / 9.0),
    "m3_neumann": (4.0, None, None),
}


def table1_values(funcs=None):
    """Numerical value/derivative estimates for every TABLE1_REFERENCE row.

    ``funcs`` may override the four term functions (same signature as t1),
    which the self-test harness uses to check that the comparison actually
    bites.  Returns {row: (value, d1, d2)} with the Neumann derivative
    slots set to None to mirror the reference table.
    """
    fs = _TERMS if funcs is None else tuple(funcs)
    if len(fs) != 4:
        raise ValueError("expected exactly four term functions")
    out = {}
    for name, f in zip(("t1", "t2", "t3", "t4"), fs):
        out[name] = derivatives_at_zero(f)
    for bc in (DIRICHLET, NEUMANN):
        signs = _TERM_SIGNS[bc]

        def prof(x, _signs=signs):
            return math.fsum(s * f(x) for s, f in zip(_signs, fs))

        val, d1, d2 = derivatives_at_zero(prof)
        if bc == NEUMANN:
            out["m3_neumann"] = (val, None, None)
        else:
            out["m3_dirichlet"] = (val, d1, d2)
    return out
