"""Low-temperature growth diagnostics for the boundary pairing forms.

dt_form_d1 and dt_form_d2 evaluate the quadratic form that measures how
strongly a boundary enhances pairing at temperature T in one and two
dimensions, where it diverges like 1/T and ln(mu/T)^3; fit_growth fits
the constant of that growth law to a sampled sweep.  The forms build no
rule of their own for what the library already has: the d = 1 outer rule
inside the Fermi shell is kernels._shell_rule, the d = 1 transform of V j1
is a dot product with potentials._radial_measure, and a cosine transform
at many momenta is one blocked product (_cos_sums): in d = 1 that
transform at every outer node, and in d = 2 both the even-reflected kernel
Vhat(|p - q|) + Vhat(p + q) and the transform of V j2 with its slope,
cosine transforms of the line integrals of V and V j2 on one rule in the
transverse coordinate y.  The d = 1 form stops its momentum tail on an
explicit bound.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from .kernels import KernelParams, _shell_rule, bt_radial_shifted
from .potentials import RadialPotential, _radial_measure, fourier_hat, radial_edges
from .quad import QuadratureError, _ladder, _subdivide, gauss_panels
from .special import j_d


# _cos_sums runs its products in blocks of about this many matrix entries.
_BLOCK = 1 << 19
# dt_form_d1 stops once the bound on its untaken tail is below _TAIL_TOL of
# the accumulated value.  The cost of an octave [P, 2 P] grows like (P rc)^2
# for the cutoff radius rc, so it gives up once P rc passes _MAX_P_RC.
_TAIL_TOL = 1e-13
_MAX_P_RC = 4096.0
# Threads sweeping temperatures of one (V, mu) pair build its d = 2 tables once.
_D2_LOCK = threading.Lock()


def _cos_sums(mid, offsets, z, g, phase=0.0):
    """sum_k g_k cos((m + o) z_k - phase) for every midpoint m and offset o,
    as an array of shape (len(mid), len(offsets)); phase pi/2 gives sines.

    cos((m + o) z - phase) = cos(m z) cos(o z - phase) - sin(m z) sin(o z - phase),
    so sines and cosines are needed only at the midpoints and the offsets;
    the products run in blocks of midpoints.  A single offset 0 at phase 0
    needs no sines.
    """
    o_z = np.outer(offsets, z) - phase
    cos_o, sin_o = np.cos(o_z).T, np.sin(o_z).T
    rows = max(1, _BLOCK // len(z))
    out = []
    for i in range(0, len(mid), rows):
        m_z = np.outer(mid[i:i + rows], z)
        if phase or offsets.any():
            sin_m = np.sin(m_z)
            sin_m *= g
        np.cos(m_z, out=m_z)
        m_z *= g
        blk = m_z @ cos_o
        if phase or offsets.any():
            blk -= sin_m @ sin_o
        out.append(blk)
    return np.concatenate(out)


def _cos_transform(V: RadialPotential, mu: float, k_max: float, mid, offsets):
    """w(p) = (2/pi) integral of V(r) cos(sqrt(mu) r) cos(p r) dr at every
    p = mid + offset, on the radial measure sized to the frequency k_max, as
    an array of shape (len(mid), len(offsets))."""
    r, m = _radial_measure(V, k_max)
    return _cos_sums(mid, offsets, r, math.sqrt(2.0 / math.pi) * m * j_d(r, mu, 1))


def dt_form_d1(V: RadialPotential, T: float, mu: float) -> float:
    """Boundary pairing form for a d=1 potential; grows like 1/T.

    Evaluates 2 Vhat(0) times the integral of (B_T(p, 0) w(p))^2 over p > 0,
    where w is the transform of V j1 (_cos_transform), on fixed Gauss panels
    at most 4 / cutoff_radius() wide in p, so that they resolve w^2.  Up to
    sqrt(2 mu) the rule is kernels._shell_rule at that width; beyond it the
    rule takes octaves [P, 2 P] of equal panels, each with the radial
    measure sized to its upper end, so w on an octave is one blocked matrix
    product.  There |B_T| <= 1 / (P^2 - mu), and Plancherel gives the
    integral of w^2 over p > 0 as the integral of (V(r) j1(r))^2, so the
    untaken tail is at most what is left of that after [0, P], over
    (P^2 - mu)^2.  The octaves stop when this bound is below _TAIL_TOL of
    the value, and raise QuadratureError once P rc passes _MAX_P_RC.
    """
    if V.d != 1:
        raise ValueError("dt_form_d1 needs a d=1 potential")
    params = KernelParams(T=float(T), mu=float(mu))
    mu = params.mu
    root_mu = math.sqrt(mu)
    rc = V.cutoff_radius()
    width = 4.0 / rc

    # up to sqrt(2 mu) every node is its own midpoint
    mid, wp, shifted = _shell_rule(params.T, mu, width)
    offsets = np.zeros(1)
    x, wx = gauss_panels([-1.0, 1.0])

    r, m = _radial_measure(V, 2.0 * root_mu)
    rest = float(m @ (V.value(r) * j_d(r, mu, 1) ** 2))
    total = 0.0
    p_hi = math.sqrt(2.0 * mu)
    while True:
        w = _cos_transform(V, mu, p_hi + root_mu, mid, offsets).ravel()
        total += float(np.dot(wp, (bt_radial_shifted(shifted, params) * w) ** 2))
        rest -= float(np.dot(wp, w * w))
        if max(rest, 0.0) <= _TAIL_TOL * total * (p_hi * p_hi - mu) ** 2:
            return 2.0 * fourier_hat(V, 0.0) * total
        if p_hi * rc > _MAX_P_RC:
            raise QuadratureError(
                f"dt_form_d1 tail bound still above tolerance at p = {p_hi:g}")
        # the octave [p_hi, 2 p_hi] in n equal panels of half-width h
        n = int(math.ceil(p_hi / width))
        h = 0.5 * p_hi / n
        mid, offsets = p_hi + h * np.arange(1, 2 * n, 2), h * x
        wp = np.tile(h * wx, n)
        shifted = (mid[:, None] + offsets).ravel() ** 2 - mu
        p_hi *= 2.0


def _refined_edges(length, base, center, width):
    """Panel edges on [0, length] at most ``base`` apart, with a ladder of
    edges at center +/- width * 2^k (quad._ladder, out to 2 base) so the
    panels close down onto a thermal layer of that width at ``center``
    without a global fine grid."""
    off = _ladder(max(width, 1e-14 * length), 2.0 * base)
    pts = np.concatenate([center - off[::-1], [center], center + off])
    edges = np.concatenate([[0.0], pts[(pts > 0.0) & (pts < length)], [length]])
    return _subdivide(edges, np.ceil(np.diff(edges) / base))


def _line_integral(V: RadialPotential, mu: float, y: np.ndarray) -> np.ndarray:
    """U(y) = integral of V(sqrt(x^2 + y^2)) over the x line, and A(y), the
    same of V(r) J0(sqrt(mu) r), as rows of an array, 0 < y < cutoff.

    Runs in s with x = y sinh s, r = y cosh s, on the images of the radial
    panels sized for J0, each split into parts at most half a unit of s wide.
    """
    r_edges = radial_edges(V, math.sqrt(mu))
    out = np.empty((2, len(y)))
    for i, yi in enumerate(y):
        s_edges = np.arccosh(np.append(1.0, r_edges[r_edges > yi] / yi))
        s, ws = gauss_panels(_subdivide(s_edges, np.ceil(np.diff(s_edges) / 0.5)))
        c = np.cosh(s)
        wc, v = ws * c, V.value(yi * c)
        out[:, i] = np.dot(wc, v), np.dot(wc, v * j_d(yi * c, mu, 2))
    return 2.0 * y * out


def _transverse_rule(V: RadialPotential, mu: float, k_max: float):
    """Nodes y and weights of the measures U(y) dy and A(y) dy on [0, cutoff]
    (_line_integral), exact enough for integrands with frequencies in y up
    to k_max, and a mask of the panels _d2_tables groups by width: the plain
    ones but for the plain half of the first panel, which as a group of one
    would cost _cos_sums 34 sines and cosines a q node instead of 16 cosines.

    U and A carry y^2 log y terms at 0 unless V is smooth in r^2, and a jump
    of V or of its n-th derivative at b gives them a (b - y)^(n + 1/2) end.
    So the first panel, halved, runs in t with y = h t^2, and the panel
    [a, b] below each break and below the cutoff runs in t with
    y = b - (b - a) t^2; both ends are smooth in t.
    """
    edges = radial_edges(V, k_max)
    edges = _subdivide(edges, [2] + [1] * (len(edges) - 2))
    y, wy = gauss_panels(edges)
    grouped = np.arange(len(edges) - 1) > 1
    ends = np.flatnonzero(np.isin(edges[1:], (*V.breakpoints, edges[-1])))
    for k, side in [(0, 0), *((k, 1) for k in ends)]:
        # t runs from the singular end c of the panel to its other end o
        c, o = edges[k + side], edges[k + 1 - side]
        blk = slice(16 * k, 16 * k + 16)
        t = (y[blk] - c) / (o - c)
        wy[blk] *= 2.0 * t
        y[blk] = c + (o - c) * t * t
        grouped[k] = False
    return edges, y, wy * _line_integral(V, mu, y), grouped


@lru_cache(maxsize=4)
def _d2_tables(V: RadialPotential, mu: float):
    """Momentum cutoff, V j2 transform table (_hermite) and the transverse
    rule it is read from, shared by every dt_form_d2 temperature for one (V, mu) pair.

    The rule comes whole, for the rows that share one q grid, and in
    groups for the others, in the layout _cos_sums takes: the nodes of its
    ungrouped panels as midpoints with the single offset 0, and its grouped
    panels by width as midpoints and offsets.
    """
    root_mu = math.sqrt(mu)
    rc = V.cutoff_radius()
    rs = V.range_scale

    # Push the cutoff until the transform envelope, damped by the two
    # off-shell kernel factors, is negligible against the on-shell scale.
    # The envelope's tail beyond P is about P times its value there when it
    # decays like a power of k (the step's does, like k^(-11/2)).
    probe = 0.5 * np.arange(11) / rs
    vref = np.abs(fourier_hat(V, probe)).max()
    P = root_mu + 5.0 / rs
    while np.abs(fourier_hat(V, P + probe)).max() \
            * (mu / (P * P - mu)) ** 2 * P * rs > 1e-8 * vref:
        P += 5.0 / rs
        if P > root_mu + 400.0 / rs:
            raise QuadratureError(
                "transform tail not negligible within the momentum cutoff cap")

    # w(s) = (V j2)^(s), the integral of A(y) cos(s y) / pi over y > 0 by the
    # projection-slice theorem, and its exact slope, that of -A(y) y sin(s y) / pi,
    # at the nodes k h in blocks of about sqrt(n): fine enough for the cubic Hermite
    # table to keep its error, at most h^4/384 max |w''''|, below 1e-9 of its peak
    h = 0.35 / rc / 16.0
    n = int(math.ceil((math.sqrt(2.0) * P + 2.0 * h) / h)) + 1
    edges, y, (uy, ay), grouped = _transverse_rule(V, mu, max(2.0 * P, (n - 1) * h + root_mu))
    b = math.isqrt(n) + 1
    table = (h, *(_cos_sums(h * np.arange(0, n, b), h * np.arange(b), y, g, phase).ravel()[:n]
                  for g, phase in ((ay / math.pi, 0.0), (-y * ay / math.pi, 0.5 * math.pi))))

    uy *= 2.0 / math.pi
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    alone = np.repeat(~grouped, 16)
    groups = [(y[alone], np.zeros(1), uy[alone][:, None])]
    for width in np.unique(np.round(half[grouped] / rc, 12)):
        k = np.flatnonzero(grouped & (np.round(half / rc, 12) == width))
        offsets = gauss_panels([-half[k[0]], half[k[0]]])[0]
        groups.append((mid[k], offsets, uy.reshape(-1, 16)[k]))
    return P, table, y, uy, groups


def _hermite(table, s):
    """Cubic Hermite interpolant at s >= 0 of the values f and slopes df at
    the nodes k h in table = (h, f, df): index floor(s / h), four products."""
    h, f, df = table
    x = s / h
    k = np.minimum(x.astype(np.intp), len(f) - 2)
    t = x - k
    t1 = 1.0 - t
    return (t1 * t1 * ((1.0 + 2.0 * t) * f[k] + h * t * df[k])
            + t * t * ((3.0 - 2.0 * t) * f[k + 1] - h * t1 * df[k + 1]))


def dt_form_d2(V: RadialPotential, T: float, mu: float) -> float:
    """Boundary pairing form for a d=2 potential; grows like ln(mu/T)^3.

    Iterated integral over p1 of a transverse double integral over (p2, q2)
    of u(p2) [Vhat(|p2 - q2|) + Vhat(p2 + q2)] u(q2), where u carries the
    transform of V j2 and B_T.  The kernel is the cosine transform
    (2/pi) * integral of U(y) cos(p2 y) cos(q2 y) dy of the line integral
    U(y) of V, so the double integral is (2/pi) sum_m U_m c_m^2 with
    c_m = sum_j u_j cos(q_j y_m) on a fixed transverse rule.  The q nodes
    are Gauss panels refined geometrically toward the Fermi circle
    crossing; every p1 outside the Fermi circle shares one q grid, so those
    rows go through a matrix product in blocks.
    """
    if V.d != 2:
        raise ValueError("dt_form_d2 needs a d=2 potential")
    params = KernelParams(T=float(T), mu=float(mu))
    T, mu = params.T, params.mu
    root_mu = math.sqrt(mu)
    with _D2_LOCK:
        P, w_table, y, uy, groups = _d2_tables(V, mu)
    base = min(4.0 / V.cutoff_radius(), 0.25 * root_mu)
    sqrt_T = math.sqrt(T)

    p1_nodes, p1_weights = gauss_panels(_refined_edges(P, base, root_mu, 0.25 * T / root_mu))

    def u_rows(p1, q, wq):
        s_sq = p1[:, None] ** 2 + q * q
        return _hermite(w_table, np.sqrt(s_sq)) * bt_radial_shifted(s_sq - mu, params) * wq

    total = 0.0
    inside = p1_nodes * p1_nodes < mu
    for p1, w1 in zip(p1_nodes[inside], p1_weights[inside]):
        qstar = math.sqrt(mu - p1 * p1)
        q, wq = gauss_panels(_refined_edges(P, base, qstar, 0.5 * T / max(qstar, sqrt_T)))
        u = u_rows(np.array([p1]), q, wq)[0]
        row = 0.0
        for m, offsets, w in groups:
            c = _cos_sums(m, offsets, q, u)
            row += float(np.sum(w * c * c))
        total += float(w1) * row
    q, wq = gauss_panels(_refined_edges(P, base, 0.0, 0.5 * T / sqrt_T))
    cos_yq = np.cos(np.outer(y, q))
    p1_out, w1_out = p1_nodes[~inside], p1_weights[~inside]
    for i0 in range(0, len(p1_out), 48):
        c = cos_yq @ u_rows(p1_out[i0:i0 + 48], q, wq).T
        total += float(np.dot(uy @ (c * c), w1_out[i0:i0 + 48]))
    return 4.0 * total


def fit_growth(values, basis):
    """Least-squares constant c of value ~ c * basis through the origin, and
    the worst sample's relative departure from c * basis."""
    c = math.fsum(v * b for v, b in zip(values, basis)) / math.fsum(b * b for b in basis)
    devs = [abs(v - c * b) / abs(c * b) if c * b != 0.0
            else (0.0 if v == 0.0 else math.inf) for v, b in zip(values, basis)]
    return c, max(devs)
