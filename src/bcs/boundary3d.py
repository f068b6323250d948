"""Half-space boundary criterion in three dimensions.

The boundary density splits into four closed-form terms t1..t4 whose signed
sums give the Dirichlet and Neumann profiles m3.  The terms and m3 are
elementwise in x; t1 reads per-octave Chebyshev tables of its envelope on
[1/4, 2^30), each built on first use, and one fixed Gauss rule elsewhere.
The criterion weighs a radial potential against m3 on the fixed radial rule
of potentials, a mu sweep at once; its sign decides whether the half-space
supports pairing at a higher temperature than the bulk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .potentials import RadialPotential, _radial_measure, _radial_panels
from .quad import gauss_panels
from .special import _sinc, laplace_envelope, si_cin

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


def _check_x(x):
    x = np.asarray(x, dtype=float)
    ok = (x >= 0.0) & (x < math.inf)
    if not ok.all():
        raise ValueError(f"profile argument must be finite and >= 0, got {x[~ok].flat[0]}")
    return x


def _float_or_array(out):
    return out if out.ndim else float(out)


@lru_cache(maxsize=1)
def _t1_rule():
    """Nodes s = 1 - t and t, ln((1+t)/(1-t)), and weights w/(2t) of the
    t1 rule: 16-point Gauss panels in s shrinking by 4 toward the log
    singularity at s = 0, the last one [0, 2^-50].  Built on first use, so
    importing the module makes no LAPACK call."""
    s, w = gauss_panels(np.concatenate(([0.0], 4.0 ** np.arange(-25, 1))))
    return s, 1.0 - s, np.log((2.0 - s) / s), w / (2.0 * (1.0 - s))


# Points per t1 block: enough to spread the fixed cost of si_cin's numpy
# calls over many points, while each (points x nodes) temporary stays at
# 106 kB.
_BLOCK = 32

# t1's tables: _CHEB Chebyshev coefficients in log2 x on each octave
# [2^j, 2^(j+1)), j in _OCTAVES, each built when an x first reaches it.
_OCTAVES = range(-2, 30)
_CHEB = 12


def _t1_kernel(y):
    """h(y) = f(y/2)/2, f(y) = atanh(1/k)/k at k = 1 + iy: x L(x) =
    int_0^inf e^-u h(u/x) du, the integral laplace_envelope tables."""
    k = 1.0 + 0.5j * y
    return (np.log(k + 1.0) - np.log(0.5 * y) - 0.5j * math.pi) / (4.0 * k)


def _t1_tabled(x):
    """t1 on [1/4, 2^30) from the envelope tables of x L(x)."""
    env = laplace_envelope(_t1_kernel, _OCTAVES, _CHEB, x)
    wave = np.cos(2.0 * x) * env.imag + np.sin(2.0 * x) * env.real
    return 2.0 / (math.pi * x) * (math.pi ** 2 / 8.0 + wave / x)


def t1(x):
    """First profile term, (4/(pi x)) int_1^inf sin^2(xk) arcoth(k)/k dk.

    On [1/4, 2^30), sin^2 = (1 - cos)/2 and the cosine half's path turned
    onto k = 1 + iy give t1(x) = (2/(pi x)) [pi^2/8 - Re(i e^{2ix} L(x))],
    L(x) = int_0^inf e^{-2xy} atanh(1/(1+iy))/(1+iy) dy; L does not
    oscillate, and x L(x) comes from its table to 1e-14 relative.  Elsewhere
    arcoth(k)/k = int_0^1 dt/(k^2 - t^2), k integral first, gives
    t1(x) = (2/(pi x)) D(2x), D(w) = int_0^1 [2 sin^2(wt/2) ln((1+t)/(1-t))
                    + cos(wt) (Cin(w(1+t)) - Cin(w(1-t)))
                    + sin(wt) (pi - Si(w(1-t)) - Si(w(1+t)))] / (2t) dt:
    smooth but for a log singularity at t = 1 and cancelling only to O(w)
    as w -> 0, so one fixed rule gives near 1e-14 relative.  Elementwise.
    """
    x = _check_x(x)
    s, t, log_ratio, weight = _t1_rule()
    flat = x.ravel()
    out = np.empty_like(flat)
    tabled = (flat >= 0.25) & (flat < 2.0 ** (_OCTAVES[-1] + 1))
    if tabled.any():
        out[tabled] = _t1_tabled(flat[tabled])
    rest = np.flatnonzero(~tabled)
    for lo in range(0, rest.size, _BLOCK):
        idx = rest[lo:lo + _BLOCK]
        # t1 is 2 to the last bit below the floor, which keeps 2/(pi x) finite.
        xb = np.maximum(flat[idx], np.finfo(float).tiny)[:, None]
        w = 2.0 * xb
        a, wt = w * s, w * t
        si_a, cin_a = si_cin(a)
        si_b, cin_b = si_cin(w + wt)
        num = (2.0 * np.sin(0.5 * wt) ** 2 * log_ratio
               + np.cos(wt) * (cin_b - cin_a)
               + np.sin(wt) * (math.pi - si_a - si_b))
        out[idx] = 2.0 / (math.pi * xb[:, 0]) * (num * weight).sum(axis=1)
    return _float_or_array(np.where(x == 0.0, 2.0, out.reshape(x.shape)))


def t2(x):
    """Second profile term, -(2/pi) sin^2(x)/x, elementwise."""
    x = _check_x(x)
    return _float_or_array(-(2.0 / math.pi) * np.sin(x) * _sinc(x))


def t3(x):
    """Third profile term, -2 sin^2(x)/x^2, elementwise."""
    x = _check_x(x)
    return _float_or_array(-2.0 * _sinc(x) ** 2)


def t4(x):
    """Fourth profile term, (4 sin x/(pi x^2))(sin x Si(2x) - cos x Cin(2x)),
    elementwise."""
    x = _check_x(x)
    s, c = np.sin(x), np.cos(x)
    si, cin = si_cin(2.0 * x)
    bracket = s * si - c * cin
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 4.0 * s / (math.pi * x * x) * bracket
    # Odd at the origin with vanishing second derivative; the linear term
    # is exact to O(x^3) below 1e-6.
    return _float_or_array(np.where(x < 1e-6, 4.0 * x / math.pi, out))


_TERMS = (t1, t2, t3, t4)


def m3(x, bc):
    """Boundary profile at unit chemical potential: signed sum of t1..t4,
    elementwise in x."""
    signs = _TERM_SIGNS[normalize_bc(bc)]
    return sum(s * f(x) for s, f in zip(signs, _TERMS))


def m3_profile(x_max: float, step: float, bc):
    """Sample m3 on the uniform grid 0, step, 2*step, ..., <= x_max.

    Returns a list of (x, m3(x)) pairs of floats from one array evaluation.
    """
    if not 0.0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    if not 0.0 <= x_max < math.inf:
        raise ValueError("x_max must be nonnegative and finite")
    n = int(math.floor(x_max / step + 1e-9)) + 1
    xs = [i * step for i in range(n)]
    return list(zip(xs, m3(np.array(xs), bc).tolist()))


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

    def __post_init__(self):
        if self.error_estimate < 0.0:
            raise ValueError("error estimate must be nonnegative")
        if self.sign not in ("positive", "negative", "inconclusive"):
            raise ValueError(f"bad sign label {self.sign!r}")
        gap = abs(self.value - math.fsum(self.per_term.values()))
        if gap > max(self.error_estimate, 1e-12):
            raise ValueError("per-term contributions do not add up to the value")


# Gauss nodes per panel of the criterion's radial rule, one pass per call.
_CRITERION_NODES = 16
_MAX_CRITERION_NODES = 10 ** 6  # nodes of one t_j call in criterion_sweep


def _criterion_rule(V: RadialPotential, mu: float):
    """k_max = 4 sqrt(mu) of the criterion's radial rule, radial_edges(V, k_max),
    and its node count, _CRITERION_NODES per panel, from the panel layout alone."""
    k_max = 4.0 * math.sqrt(mu)
    return k_max, _CRITERION_NODES * int(_radial_panels(V, k_max)[1].sum())


def _term_sums(V: RadialPotential, mus, n: int):
    """For each mu, m @ t_j(sqrt(mu) r), j = 1..4, on the _criterion_rule panels
    with n nodes each and |m| @ (|t1| + ... + |t4|), their roundoff scale;
    each t_j runs once on the nodes of all the mus."""
    rules = [_radial_measure(V, _criterion_rule(V, mu)[0], n) for mu in mus]
    terms = [f(np.concatenate([math.sqrt(mu) * r for mu, (r, _) in zip(mus, rules)]))
             for f in _TERMS]
    size, ends = sum(np.abs(t) for t in terms), np.cumsum([0] + [r.size for r, _ in rules])
    return [([float(m @ t[a:b]) for t in terms], float(np.abs(m) @ size[a:b]))
            for (_, m), a, b in zip(rules, ends, ends[1:])]


def criterion_sweep(V: RadialPotential, mus, bc) -> list:
    """Evaluate 4 pi mu^{-1/2} int V(r) m3(sqrt(mu) r) r^2 dr at each mu, term by term.

    Each t_j is weighed against V separately on the fixed radial rule of
    potentials._radial_measure (_criterion_rule), so the report shows which
    term drives the sign.  The error estimate is the roundoff floor, 1e-14
    times the integral of |V| (|t1| + ... + |t4|).  No per-call check is
    needed: radial_edges keeps panels within min(range_scale, 8 / k_max),
    so 16 nodes resolve frequencies up to k_max = 4 sqrt(mu); a test checks
    the 32-node rule against this estimate for every potential kind.  Each
    t_j runs once per group of consecutive mus of at most _MAX_CRITERION_NODES
    nodes (a mu past it alone is a group of its own).
    """
    signs = _TERM_SIGNS[normalize_bc(bc)]
    if V.d != 3:
        raise ValueError("the boundary criterion is specific to d=3 potentials")
    groups, nodes = [], math.inf
    for mu in mus:
        if not (mu > 0.0 and math.isfinite(mu)):
            raise ValueError(f"chemical potential must be positive, got {mu}")
        count = _criterion_rule(V, mu)[1]
        if nodes + count > _MAX_CRITERION_NODES:
            groups.append([])
            nodes = 0
        groups[-1].append(mu)
        nodes += count
    reports = []
    for group in groups:
        for mu, (sums, scale) in zip(group, _term_sums(V, group, _CRITERION_NODES)):
            pref = 4.0 * math.pi / math.sqrt(mu)
            per_term = {f"t{j}": pref * s * v for j, s, v in zip((1, 2, 3, 4), signs, sums)}
            value = math.fsum(per_term.values())
            err = pref * (1e-14 * scale)
            if value > 3.0 * err:
                sign = "positive"
            elif value < -3.0 * err:
                sign = "negative"
            else:
                sign = "inconclusive"
            reports.append(CriterionReport(value=value, error_estimate=err, sign=sign,
                                           per_term=per_term))
    return reports


def criterion(V: RadialPotential, mu: float, bc) -> CriterionReport:
    """The criterion at one mu: criterion_sweep(V, [mu], bc)[0]."""
    return criterion_sweep(V, [mu], bc)[0]


# Steps of the one-sided stencils in derivatives_at_zero, ascending.
_STEPS = (2.5e-3, 5e-3, 1e-2)


def derivatives_at_zero(f):
    """Right-sided (value, f'(0+), f''(0+)) estimates for a profile function.

    One-sided difference stencils at the steps _STEPS, extrapolated to
    h = 0 by Neville's scheme.  The profiles live on x >= 0 and t1 jumps
    across the origin, so central stencils are not an option.
    """
    xs = sorted({0.0, *_STEPS, *(2.0 * h for h in _STEPS)})  # f is elementwise: one call
    fh = dict(zip(xs, f(np.array(xs)).tolist()))
    f0 = fh[0.0]

    def _neville(nodes, vals):
        p = list(vals)
        for level in range(1, len(p)):
            for i in range(len(p) - level):
                x0, x1 = nodes[i], nodes[i + level]
                p[i] = (x0 * p[i + 1] - x1 * p[i]) / (x0 - x1)
        return p[0]

    d1 = _neville(_STEPS, [(fh[h] - f0) / h for h in _STEPS])
    d2 = _neville(_STEPS, [(fh[2.0 * h] - 2.0 * fh[h] + f0) / h ** 2 for h in _STEPS])
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


def table1_values():
    """Numerical value/derivative estimates for every TABLE1_REFERENCE row.

    Returns {row: (value, d1, d2)} with the Neumann derivative slots set to
    None to mirror the reference table.  derivatives_at_zero is linear in
    its samples, so each profile row is the signed sum of the term rows.
    """
    names = ("t1", "t2", "t3", "t4")
    out = {name: derivatives_at_zero(f) for name, f in zip(names, _TERMS)}
    for bc in (DIRICHLET, NEUMANN):
        row = [math.fsum(s * out[t][k] for s, t in zip(_TERM_SIGNS[bc], names)) for k in range(3)]
        out["m3_" + bc] = tuple(row) if bc == DIRICHLET else (row[0], None, None)
    return out
