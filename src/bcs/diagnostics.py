"""Low-temperature growth diagnostics for the boundary pairing forms.

dt_form_d1_sweep (dt_form_d1 at one T) and dt_form_d2 evaluate the quadratic
form that measures how strongly a boundary enhances pairing at temperature T
in one and two dimensions, where it diverges like 1/T and ln(mu/T)^3;
fit_growth fits the constant of that growth law to a sampled sweep.  The
forms build no rule of their own for what the library already has: the d = 1
outer rule inside the Fermi shell is kernels._shell_rule, the d = 1 transform
of V j1 is a dot product with potentials._radial_measure, and a cosine
transform at many momenta is one blocked product (_cos_sums): in d = 1 at
every outer node, once per octave for a whole temperature sweep, and in d = 2
for the V j2 table, kept as cubic Hermite coefficients in the power basis,
from the line integral of V j2 on a rule in the transverse coordinate y.  On
that rule the d = 2 kernel Vhat(|p - q|) + Vhat(p + q) is the cosine transform
of the line integral of V, read at Chebyshev points on pieces of the q range
through each piece's Chebyshev moments (_moments) and one fixed matrix.  Many
rows' rules (the line integral's in y, the form's in q) are laid as one
(quad.gauss_rows).  The d = 1 form stops its momentum tail on an explicit
bound; both forms raise QuadratureError where their rules cannot hold T.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from .kernels import KernelParams, _shell_rule, bt_radial_shifted
from .potentials import RadialPotential, _radial_measure, fourier_hat, radial_edges
from .quad import (QuadratureError, _chebyshev_count, _chebyshev_points, _subdivide, gauss_panels,
                   gauss_rows)
from .special import j_d


# Blocks of this many matrix entries: _cos_sums's products, dt_form_d2's moments.
_BLOCK, _MOMENT_BLOCK = 1 << 19, 1 << 18
# dt_form_d1_sweep stops a T once the bound on its untaken tail is below
# _TAIL_TOL of the accumulated value.  The cost of an octave [P, 2 P] grows
# like (P rc)^2 for the cutoff radius rc, so it gives up once P rc passes
# _MAX_P_RC.
_TAIL_TOL = 1e-13
_MAX_P_RC = 4096.0
# Both forms lay their momentum panels _PANEL_RC / rc wide.  Away from the
# Fermi surface their integrands carry frequencies k <= 2 rc (products of two
# transforms of functions on [0, rc]), and the 16-point rule integrates e^(ikq)
# on a panel of half-width h = _PANEL_RC / (2 rc), so kh <= _PANEL_RC, to within
# 2^33 (16!)^4 (kh)^32 / (33 (32!)^3) h = 2.2e-16 h, the library's 1e-16 target.
_PANEL_RC = 8.0
# _refined_rows floors its layer widths at _WIDTH_FLOOR of the row's length.
_WIDTH_FLOOR = 1e-14
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


def dt_form_d1(V: RadialPotential, T: float, mu: float) -> float:
    """Boundary pairing form for a d=1 potential; grows like 1/T: dt_form_d1_sweep at one T."""
    return dt_form_d1_sweep(V, [T], mu)[0]


def _add_bt_squares(total: float, wp, shifted, params: KernelParams, w) -> float:
    """total plus the sum of wp (B_T w)^2 over a rule; QuadratureError where that overflows."""
    with np.errstate(over="ignore"):
        total += float(np.dot(wp, (bt_radial_shifted(shifted, params) * w) ** 2))
    if math.isinf(total):
        raise QuadratureError(f"dt_form_d1: (B_T w)^2 overflows at T = {params.T!r}")
    return total


def dt_form_d1_sweep(V: RadialPotential, temps, mu: float) -> list:
    """Boundary pairing form for a d=1 potential at each T of temps; grows like 1/T.

    Evaluates 2 Vhat(0) times the integral of (B_T(p, 0) w(p))^2 over p > 0,
    where w(p) = (2/pi) integral of V(r) cos(sqrt(mu) r) cos(p r) dr, the
    transform of V j1 (_cos_sums), on fixed Gauss panels at most _PANEL_RC /
    cutoff_radius() wide in p, which resolve w^2 (the bound at _PANEL_RC).
    Up to sqrt(2 mu) the rule is kernels._shell_rule at that width, one per T;
    beyond it the rule takes octaves [P, 2 P] of equal panels, each with the
    radial measure sized to its upper end, so w on an octave is one blocked
    matrix product.  The octaves do not depend on T, so each is laid and
    transformed once for every T still open.  There |B_T| <= 1 / (P^2 - mu),
    and Plancherel gives the integral of w^2 over p > 0 as the integral of
    (V(r) j1(r))^2, so the untaken tail is at most what is left of that after
    [0, P], over (P^2 - mu)^2.  Each T stops at the octave where this bound is
    below _TAIL_TOL of its value, bit for bit where a lone dt_form_d1 stops.
    QuadratureError is raised once P rc passes _MAX_P_RC with a T open, or
    where (B_T w)^2 overflows, below about T = 1e-154 mu.
    """
    if V.d != 1:
        raise ValueError("dt_form_d1 needs a d=1 potential")
    params = [KernelParams(T=float(T), mu=float(mu)) for T in temps]
    mu = float(mu)
    root_mu = math.sqrt(mu)
    rc = V.cutoff_radius()
    width = _PANEL_RC / rc
    x, wx = gauss_panels([-1.0, 1.0])

    def weights(p_hi):  # the radial rule sized to p_hi and its weights for w
        r, m = _radial_measure(V, p_hi + root_mu)
        return r, math.sqrt(2.0 / math.pi) * m * j_d(r, mu, 1)

    r, m = _radial_measure(V, 2.0 * root_mu)
    rest = float(m @ (V.value(r) * j_d(r, mu, 1) ** 2))
    p_hi = math.sqrt(2.0 * mu)
    r, g = weights(p_hi)
    totals, rests = [], []
    for par in params:  # up to sqrt(2 mu) every node is its own midpoint
        mid, wp, shifted = _shell_rule(par.T, mu, width)
        w = _cos_sums(mid, np.zeros(1), r, g).ravel()
        totals.append(_add_bt_squares(0.0, wp, shifted, par, w))
        rests.append(rest - float(np.dot(wp, w * w)))
    vhat0 = fourier_hat(V, 0.0)
    values = [None] * len(params)
    while True:
        for i, (total, rest) in enumerate(zip(totals, rests)):
            if values[i] is None and max(rest, 0.0) <= _TAIL_TOL * total * (p_hi * p_hi - mu) ** 2:
                values[i] = 2.0 * vhat0 * total
        pending = [i for i, v in enumerate(values) if v is None]
        if not pending:
            return values
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
        w = _cos_sums(mid, offsets, *weights(p_hi)).ravel()
        taken = float(np.dot(wp, w * w))
        for i in pending:
            totals[i] = _add_bt_squares(totals[i], wp, shifted, params[i], w)
            rests[i] -= taken


def _refined_rows(length, base, centers, widths):
    """quad.gauss_rows on [0, length] for rows of panels at most ``base`` wide, with a ladder
    of edges at each center +/- width * 2^k (quad._ladder's offsets) out to 2 base, so panels
    close down onto a thermal layer of that width at the center without a global fine grid."""
    c = np.asarray(centers, dtype=float)[:, None]
    w = np.maximum(widths, _WIDTH_FLOOR * length)
    off = np.multiply.outer(w, 2.0 ** np.arange(np.ceil(np.log2(2.0 * base / w.min())) + 1))
    off[off >= 2.0 * base] = np.inf
    pts = np.hstack([np.zeros_like(c), c - off[:, ::-1], c, c + off, np.full_like(c, length)])
    keep = (pts > 0.0) & (pts < length)
    keep[:, [0, -1]] = True
    return gauss_rows(pts[keep], base)


def _line_integral(V: RadialPotential, mu: float, y: np.ndarray) -> np.ndarray:
    """U(y) = integral of V(sqrt(x^2 + y^2)) over the x line, and A(y), the
    same of V(r) J0(sqrt(mu) r), as rows of an array, 0 < y < cutoff.

    Runs in s with x = y sinh s, r = y cosh s, on the images of the radial
    panels sized for J0, each split into parts at most half a unit of s wide.
    Every y's edges, 0 and then arccosh(r / y) for each radial edge r > y, go
    into one sequence and one rule; the step back to 0 from one y's last edge
    to the next y's first is a panel of negative width (quad.gauss_rows).
    """
    r_edges = radial_edges(V, math.sqrt(mu))
    iy, ir = np.nonzero(r_edges > y[:, None])
    first = np.searchsorted(iy, np.arange(len(y)))
    s, ws, sizes = gauss_rows(np.insert(np.arccosh(r_edges[ir] / y[iy]), first, 0.0), 0.5)
    c = np.cosh(s)
    r = np.repeat(y, sizes) * c
    v = V.value(r) * ws * c
    sums = np.add.reduceat(np.stack((v, v * j_d(r, mu, 2))), np.cumsum(sizes) - sizes, axis=1)
    return 2.0 * y * sums


def _transverse_rule(V: RadialPotential, mu: float, k_max: float):
    """Nodes y and weights of the measures U(y) dy and A(y) dy on [0, cutoff]
    (_line_integral), exact for integrands of frequencies in y up to k_max.

    U and A carry y^2 log y terms at 0 unless V is smooth in r^2, and a jump
    of V or of its n-th derivative at b gives them a (b - y)^(n + 1/2) end.
    So the first panel, halved, runs in t with y = h t^2, and the panel
    [a, b] below each break and below the cutoff runs in t with
    y = b - (b - a) t^2; both ends are smooth in t.
    """
    edges = radial_edges(V, k_max)
    edges = _subdivide(edges, [2] + [1] * (len(edges) - 2))
    y, wy = gauss_panels(edges)
    ends = np.flatnonzero(np.isin(edges[1:], (*V.breakpoints, edges[-1])))
    for k, side in [(0, 0), *((k, 1) for k in ends)]:
        # t runs from the singular end c of the panel to its other end o
        c, o = edges[k + side], edges[k + 1 - side]
        blk = slice(16 * k, 16 * k + 16)
        t = (y[blk] - c) / (o - c)
        wy[blk] *= 2.0 * t
        y[blk] = c + (o - c) * t * t
    return y, wy * _line_integral(V, mu, y)


@lru_cache(maxsize=2)
def _d2_tables(V: RadialPotential, mu: float):
    """Momentum cutoff P, the V j2 transform as cubic Hermite coefficients (_hermite), the
    transverse rule's nodes y and weights, and _chebyshev_grid(y, P), shared read-only by every
    dt_form_d2 temperature and thread for one (V, mu) pair.  Its cos(y X) is most of it:
    40.1 MiB (3,856 x 1,363) for the unit exponential at mu = 1, so the two pairs kept hold at
    most about 80 MiB there."""
    root_mu, rc, rs = math.sqrt(mu), V.cutoff_radius(), V.range_scale

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
    # interpolant to keep its error, at most h^4/384 max |w''''|, below 1e-9 of its peak.
    # The table holds it on each [k h, (k + 1) h] in powers of s / h - k (_hermite).
    h = 0.35 / rc / 16.0
    n = int(math.ceil((math.sqrt(2.0) * P + 2.0 * h) / h)) + 1
    y, (uy, ay) = _transverse_rule(V, mu, max(2.0 * P, (n - 1) * h + root_mu))
    b = math.isqrt(n) + 1
    f, df = (_cos_sums(h * np.arange(0, n, b), h * np.arange(b), y, g, phase).ravel()[:n]
             for g, phase in ((ay / math.pi, 0.0), (-y * ay / math.pi, 0.5 * math.pi)))
    df *= h
    rise, slopes = np.diff(f), df[:-1] + df[1:]
    table = h, np.stack((slopes - 2.0 * rise, 3.0 * rise - df[:-1] - slopes, df[:-1], f[:-1]))
    uy *= 2.0 / math.pi
    grid = _chebyshev_grid(y, P)
    for a in (table[1], y, uy, *grid[1:]):
        a.setflags(write=False)
    return P, table, y, uy, grid


def _hermite(table, s):
    """Cubic Hermite interpolant at s >= 0 of the values f and slopes f' at the nodes k h,
    from the table (h, c) of _d2_tables: c[:, k] holds the cubic on [k h, (k + 1) h] in
    powers of t = s / h - k, from t^3 down (f and h f' at both ends fix it), so at
    k = floor(s / h) it is an in-place Horner sum of four gathers."""
    h, c = table
    t = s / h
    k = np.minimum(t.astype(np.intp), c.shape[1] - 1)
    t -= k
    out = np.take(c[0], k)
    for row in c[1:]:
        out *= t
        out += np.take(row, k)
    return out


def _chebyshev_grid(y, P: float):
    """[0, P] in the most equal pieces k with k n(Y, P / k) <= 2 n(Y, P) (_chebyshev_count's
    bound holds on a piece wherever it sits; past k_max even P / (2 n)'s count breaks this), so
    cos(y X) costs at most twice one grid's: k, the n x n matrix C that takes a piece's
    Chebyshev moments (_moments) to the weights of its n first-kind points, and cos(y X) at
    all k n points X, y <= Y.  C[j, l] = (2 / n) T_j(tau_l), halved at j = 0, at the points'
    tau_l = -cos((l + 1/2) pi / n) in [-1, 1], so by the points' discrete orthogonality the
    column l of C is the Lagrange polynomial of point l in the T_j basis.  It depends on
    (V, mu) alone, so _d2_tables builds it once for every temperature."""
    Y, n = y[-1], _chebyshev_count(y[-1], P)
    k_max = 2 * n // _chebyshev_count(Y, 0.5 * P / n)
    k = max(k for k in range(1, k_max + 1) if k * _chebyshev_count(Y, P / k) <= 2 * n)
    n = _chebyshev_count(Y, P / k)
    starts = (P / k) * np.arange(k)
    j = np.arange(n)
    C = np.cos(np.outer(j, n - 0.5 - j) * (math.pi / n)) * (2.0 / n)
    C[0] *= 0.5
    return k, C, np.cos(np.outer(y, (starts[:, None] + _chebyshev_points(n, P / k)[0]).ravel()))


def _moments(q, P: float, k: int, v, out):
    """Each q's piece of [0, P] in k equal ones (q = P is the last's) and, into the n rows
    of ``out``, v T_j(tau) for j < n, tau the q's place in its piece mapped onto [-1, 1]:
    T_(j + 1) = 2 tau T_j - T_(j - 1) on v T_j, two passes a degree and no division.  Summed
    over a piece's q they are its moments, and times _chebyshev_grid's C those are the sums
    of v times each of the piece's Lagrange polynomials."""
    x = q * (k / P)
    piece = np.minimum(x.astype(np.intp), k - 1)
    x -= piece
    x *= 4.0
    x -= 2.0  # 2 tau
    out[0] = v
    np.multiply(v, x, out=out[1])
    out[1] *= 0.5
    for j in range(2, len(out)):
        np.multiply(x, out[j - 1], out=out[j])
        out[j] -= out[j - 2]
    return piece, out


def dt_form_d2(V: RadialPotential, T: float, mu: float) -> float:
    """Boundary pairing form for a d=2 potential; grows like ln(mu/T)^3.

    Iterated integral over p1 of a transverse double integral over (p2, q2)
    of u(p2) [Vhat(|p2 - q2|) + Vhat(p2 + q2)] u(q2), where u carries the
    transform of V j2 and B_T.  The kernel is (2/pi) times the integral of
    U(y) cos(p2 y) cos(q2 y) dy, U the line integral of V, so the double
    integral is (2/pi) sum_m U_m c_m^2 with c_m = sum_j u_j cos(q_j y_m) on
    a fixed transverse rule.  Each p1 inside the Fermi circle has its own q
    panels, refined toward its crossing, and those outside share one grid.
    Each q goes onto the Chebyshev points of its piece of [0, P], where cos(q y)
    is tabulated once per (V, mu): a row's Chebyshev moments on each piece
    (_moments) times the fixed matrix C give the weights of those points, so c is
    one product for all rows.  Inside, u and the moments are built on the q panels
    of as many rows as one buffer holds, laid back to back (_refined_rows), then
    summed per row and piece at once.  A T whose thermal layer in p1, 0.25 T /
    sqrt(mu) wide, is below the rules' floor of _WIDTH_FLOOR P raises
    QuadratureError before any rule is laid.
    """
    if V.d != 2:
        raise ValueError("dt_form_d2 needs a d=2 potential")
    params = KernelParams(T=float(T), mu=float(mu))
    T, mu = params.T, params.mu
    root_mu, sqrt_T = math.sqrt(mu), math.sqrt(T)
    with _D2_LOCK:
        P, w_table, _, uy, (k, C, cos_y) = _d2_tables(V, mu)
    if 0.25 * T / root_mu < _WIDTH_FLOOR * P:
        raise QuadratureError(
            f"dt_form_d2 cannot resolve the thermal layer at T = {T!r}: it needs "
            f"T >= {4.0 * _WIDTH_FLOOR:g} P sqrt(mu) = {4.0 * _WIDTH_FLOOR * P * root_mu:.3g}")
    n, base = len(C), _PANEL_RC / V.cutoff_radius()

    def u_rows(p1, q, wq):
        s_sq = p1 * p1 + q * q
        return _hermite(w_table, np.sqrt(s_sq)) * bt_radial_shifted(s_sq - mu, params) * wq

    def rows(mom, w1):  # sum of w1 sum_m U_m c_m^2 over rows with piece moments mom
        a = (mom.reshape(-1, n) @ C).reshape(len(mom), k * n)
        return float(np.dot(uy @ np.square(c := cos_y @ a.T, out=c), w1))

    p1_nodes, p1_weights, _ = _refined_rows(P, base, [root_mu], [0.25 * T / root_mu])
    inside = p1_nodes * p1_nodes < mu
    qstar = np.sqrt(mu - p1_nodes[inside] ** 2)
    q, wq, counts = _refined_rows(P, base, qstar, 0.5 * T / np.maximum(qstar, sqrt_T))
    ends = np.cumsum(counts)
    buf = np.empty(n * max(_MOMENT_BLOCK // n, counts.max()))
    mom, i = np.zeros((len(counts) * k, n)), 0  # row r's piece p is mom[r k + p]
    while i < len(counts):  # rows i to j - 1, the most whose moments fit the buffer
        lo = ends[i] - counts[i]
        j = np.searchsorted(ends, lo + len(buf) // n, side="right")
        g = slice(lo, ends[j - 1])
        u = u_rows(np.repeat(p1_nodes[inside][i:j], counts[i:j]), q[g], wq[g])
        piece, M = _moments(q[g], P, k, u, buf[:n * (g.stop - lo)].reshape(n, -1))
        seg = np.repeat(np.arange(i * k, j * k, k), counts[i:j]) + piece
        first = np.flatnonzero(np.diff(seg, prepend=-1))
        mom[seg[first]] = np.add.reduceat(M, first, axis=1).T
        i = j
    total = rows(mom.reshape(len(counts), k * n), p1_weights[inside])
    q, wq, _ = _refined_rows(P, base, [0.0], [0.5 * T / sqrt_T])
    piece, M = _moments(q, P, k, np.ones(len(q)), np.empty((n, len(q))))
    pieces = [slice(*np.searchsorted(piece, [p, p + 1])) for p in range(k)]
    for r in np.split(np.flatnonzero(~inside), range(48, np.count_nonzero(~inside), 48)):
        v = u_rows(p1_nodes[r, None], q, wq)
        total += rows(np.hstack([v[:, g] @ M[:, g].T for g in pieces]), p1_weights[r])
    return 4.0 * total


def fit_growth(values, basis):
    """Least-squares constant c of value ~ c * basis through the origin, and
    the worst sample's relative departure from c * basis."""
    c = math.fsum(v * b for v, b in zip(values, basis)) / math.fsum(b * b for b in basis)
    devs = [abs(v - c * b) / abs(c * b) if c * b != 0.0
            else (0.0 if v == 0.0 else math.inf) for v, b in zip(values, basis)]
    return c, max(devs)
