"""End-to-end acceptance checks for the package's headline numerical claims.

One test per numbered claim, covering the profile table, the shape of the
boundary profiles, agreement between independent evaluation routes, the
limiting regimes (small mu, weak coupling), growth diagnostics, and the
kernel inequality suite.  Each test prints exactly one

    [criterion NN] <label>: PASS|FAIL (<details>)

line on the real terminal before asserting, so a full run doubles as a
checklist.  Tolerances are pinned here and nowhere else; tests with a
stated runtime budget assert the elapsed wall time as well.
"""

import functools
import math
import time

import numpy as np

import oracles
from bcs.boundary3d import criterion, m3, m3_profile, t4, table1_values
from bcs.bs_solver import (
    _bs_scale,
    _top2,
    _w_lagrange,
    _w_table,
    build_grid,
    ground_state,
    position_profile,
    tc0,
)
from bcs.diagnostics import dt_form_d1, dt_form_d2
from bcs.kernels import KernelParams, bt_radial_shifted, m_mu
from bcs.potentials import GaussianPotential, e_mu
from bcs.special import j_d

GAUSS3 = GaussianPotential(d=3, a=1.0, ell=1.0)
BCS = ("dirichlet", "neumann")


def _w_factor(V, p, P):
    """Y = L Z, W = Y Y^T on the nodes p <= P, its table laid on [0, P]."""
    Z = _w_table(V, P)
    return _w_lagrange(p, len(Z), P) @ Z


def _report(capsys, num, label, failures, detail=""):
    status = "FAIL" if failures else "PASS"
    info = "; ".join(failures) if failures else detail
    with capsys.disabled():
        print(f"[criterion {num:02d}] {label}: {status}" + (f" ({info})" if info else ""))
    assert not failures, f"criterion {num:02d} {label}: {info}"


# ---------------------------------------------------------------------------
# 1. profile table at the origin: values and one-sided derivatives
# ---------------------------------------------------------------------------

def test_01_profile_table(capsys):
    t0 = time.perf_counter()
    table = table1_values()
    elapsed = time.perf_counter() - t0

    expected = [
        # (row, slot, reference, tolerance); slot 0 value, 1 first, 2 second
        ("t1", 0, 2.0, 1e-6),
        ("t2", 0, 0.0, 1e-6),
        ("t3", 0, -2.0, 1e-6),
        ("t4", 0, 0.0, 1e-6),
        ("m3_dirichlet", 0, 0.0, 1e-6),
        ("m3_neumann", 0, 4.0, 1e-6),
        ("t1", 1, -2.0 / math.pi, 1e-5),
        ("t2", 1, -2.0 / math.pi, 1e-5),
        ("t3", 1, 0.0, 1e-5),
        ("t4", 1, 4.0 / math.pi, 1e-5),
        ("m3_dirichlet", 1, 0.0, 1e-5),
        ("t1", 2, -8.0 / 9.0, 1e-4),
        ("t2", 2, 0.0, 1e-4),
        ("t3", 2, 4.0 / 3.0, 1e-4),
        ("t4", 2, 0.0, 1e-4),
        ("m3_dirichlet", 2, 4.0 / 9.0, 1e-4),
    ]
    failures = []
    for row, slot, ref, tol in expected:
        got = table[row][slot]
        if abs(got - ref) > tol:
            failures.append(f"{row}[{slot}] = {got:.8g}, want {ref:.8g} +- {tol:g}")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 30 s")
    _report(capsys, 1, "profile table at the origin", failures,
            f"16 entries, {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 2. boundary profiles on [0, 20]: sign structure of both conditions
# ---------------------------------------------------------------------------

def test_02_boundary_profiles(capsys):
    t0 = time.perf_counter()
    prof_d = m3_profile(20.0, 0.05, "dirichlet")
    prof_n = m3_profile(20.0, 0.05, "neumann")
    elapsed = time.perf_counter() - t0

    failures = []
    if len(prof_d) != 401 or len(prof_n) != 401:
        failures.append(f"expected 401 samples, got {len(prof_d)}/{len(prof_n)}")
    min_d = min(v for _, v in prof_d)
    n0 = prof_n[0][1]
    min_n = min(v for x, v in prof_n if x > 0.0)
    if abs(n0 - 4.0) > 1e-6:
        failures.append(f"m3_neumann(0) = {n0:.8g}, want 4")
    if not min_n < 0.0:
        failures.append(f"m3_neumann never negative on (0, 20]: min {min_n:.6g}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 60 s")
    # Nonnegativity of the dirichlet profile is observational: note, never fail.
    warn = "" if min_d >= -1e-6 else f"; WARN min m3_dirichlet = {min_d:.3e} < -1e-6"
    _report(capsys, 2, "boundary profiles", failures,
            f"min m3_dirichlet = {min_d:.3e}, min m3_neumann = {min_n:.4f}, "
            f"{elapsed:.1f} s{warn}")


# ---------------------------------------------------------------------------
# 3. sphere average of the pointwise density equals the radial profile
# ---------------------------------------------------------------------------

def test_03_sphere_average(capsys):
    nodes, weights = np.polynomial.legendre.leggauss(24)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights

    failures = []
    worst = 0.0
    for r, mu in ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0)):
        for bc in BCS:
            # The density is even in the normal coordinate and azimuthally
            # symmetric, so the sphere average reduces to the polar integral.
            avg = float(np.sum(w * [
                oracles.mtilde_direct((r * ui, r * math.sqrt(1.0 - ui * ui), 0.0), mu, bc)
                for ui in u]))
            ref = m3(math.sqrt(mu) * r, bc) / math.sqrt(mu)
            diff = abs(avg - ref)
            worst = max(worst, diff)
            if diff > 1e-4:
                failures.append(f"(r={r}, mu={mu}, {bc}): |avg - profile| = {diff:.3e}")
    _report(capsys, 3, "sphere average vs radial profile", failures,
            f"worst |diff| = {worst:.3e} <= 1e-4")


# ---------------------------------------------------------------------------
# 4. small-mu limits of the criterion against the moment predictions
# ---------------------------------------------------------------------------

def test_04_small_mu_limits(capsys):
    mu = 1e-4
    root_mu = math.sqrt(mu)
    rep_n = criterion(GAUSS3, mu, "neumann")
    rep_d = criterion(GAUSS3, mu, "dirichlet")
    # value = mu^{-1/2} int V m3(sqrt(mu) |x|) dx, so the mu -> 0 anchors are
    # m3_n(0) int V = 4 int V and (1/2) m3_d''(0) mu int V r^2, with the
    # Gaussian's closed forms int V = pi^(3/2) and int V r^2 = (3/2) pi^(3/2).
    ratio_n = root_mu * rep_n.value / (4.0 * math.pi ** 1.5)
    ratio_d = rep_d.value / (root_mu * (2.0 / 9.0) * 1.5 * math.pi ** 1.5)

    failures = []
    if not 0.98 <= ratio_n <= 1.02:
        failures.append(f"neumann ratio {ratio_n:.6f} outside [0.98, 1.02]")
    if not 0.95 <= ratio_d <= 1.05:
        failures.append(f"dirichlet ratio {ratio_d:.6f} outside [0.95, 1.05]")
    _report(capsys, 4, "small-mu limits", failures,
            f"neumann {ratio_n:.4f}, dirichlet {ratio_d:.4f}")


# ---------------------------------------------------------------------------
# 5. weak-coupling mass plateau: e_mu m_mu(T_c(lam)) - 1/lam stays bounded
# ---------------------------------------------------------------------------

def test_05_weak_coupling_mass(capsys):
    t0 = time.perf_counter()
    lams = (0.6, 0.5, 0.4, 0.3)
    em = e_mu(GAUSS3, 1.0)
    devs = []
    for lam in lams:
        res = tc0(GAUSS3, 1.0, 3, lam, t_min_factor=1e-12)
        mm = m_mu(KernelParams(T=res.T_c, mu=1.0), 3)
        devs.append(abs(em * mm - 1.0 / lam))
    elapsed = time.perf_counter() - t0

    failures = []
    spread = max(devs) / min(devs)
    if spread > 2.0:
        failures.append(f"max/min spread {spread:.3f} > 2")
    for (la, da), (lb, db) in zip(zip(lams, devs), zip(lams[1:], devs[1:])):
        if db > 1.05 * da:
            failures.append(f"deviation grows from lam={la} ({da:.4f}) "
                            f"to lam={lb} ({db:.4f})")
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 600 s")
    _report(capsys, 5, "weak-coupling mass plateau", failures,
            f"deviations {[f'{d:.4f}' for d in devs]}, spread {spread:.3f}, "
            f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 6. eigenvalue-problem self-consistency at lam = 0.5
# ---------------------------------------------------------------------------

def test_06_self_consistency(capsys):
    lam = 0.5
    tc = tc0(GAUSS3, 1.0, 3, lam)
    gs = ground_state(GAUSS3, 1.0, 3, lam, tc=tc)
    params = KernelParams(T=tc.T_c, mu=1.0)
    a_vals = []
    for level in (1, 2):  # tc0's closure grid and the one twice as fine
        g = build_grid(params, GAUSS3, refine_level=level)
        a = _top2(_bs_scale(g, params, 3), _w_factor(GAUSS3, g.nodes, g.p_max))[0]
        a_vals.append(a)
    doubling_move = abs(a_vals[1] - a_vals[0]) / abs(a_vals[1])

    failures = []
    if gs.eval_eq_residual > 1e-6:
        failures.append(f"eigenvalue-equation residual {gs.eval_eq_residual:.3e} > 1e-6")
    if tc.closure > 1e-8:
        failures.append(f"|lam a - 1| closure {tc.closure:.3e} > 1e-8")
    if doubling_move > 1e-5:
        failures.append(f"grid doubling moves a_T by {doubling_move:.3e} > 1e-5")
    _report(capsys, 6, "eigenvalue self-consistency", failures,
            f"residual {gs.eval_eq_residual:.1e}, closure {tc.closure:.1e}, "
            f"doubling move {doubling_move:.1e}")


# ---------------------------------------------------------------------------
# 7. ground-state profile convergence toward j_3 as the coupling halves
# ---------------------------------------------------------------------------

def test_07_ground_state_convergence(capsys):
    # The weak-coupling expansion 1/lam = e_mu m_mu(T_c) + O(1), which
    # criterion 05 checks, puts the eigenvector O(1/m_mu(T_c)) = O(lam) away
    # from the Fermi-sphere function j_3: first order, so each halving of lam
    # halves the sup distance, and the distance is proportional to the
    # leading term |lam e_mu m_mu(T_c) - 1| computed without the eigenvector.
    rs = np.array([0.0, 0.5, 1.0, 2.0])
    ref = j_d(rs, 1.0, 3)
    em = e_mu(GAUSS3, 1.0)
    sups, scaled = [], []
    for lam in (0.6, 0.3, 0.15):
        tc = tc0(GAUSS3, 1.0, 3, lam, t_min_factor=1e-18)
        gs = ground_state(GAUSS3, 1.0, 3, lam, tc=tc)
        sup = float(np.max(np.abs(position_profile(gs, rs) - ref)))
        lead = abs(lam * em * m_mu(KernelParams(T=gs.T_c, mu=1.0), 3) - 1.0)
        sups.append(sup)
        scaled.append(sup / lead)
    ratios = [sups[i] / sups[i + 1] for i in range(len(sups) - 1)]
    spread = max(scaled) / min(scaled)

    failures = []
    if not all(a > b for a, b in zip(sups, sups[1:])):
        failures.append(f"sup distances not decreasing: {sups}")
    for r in ratios:
        if not 1.8 <= r <= 2.2:
            failures.append(f"halving ratio {r:.4f} outside [1.8, 2.2]")
    if spread > 1.05:
        failures.append(f"sup / |lam e_mu m_mu - 1| spread {spread:.4f} > 1.05")
    _report(capsys, 7, "ground-state profile convergence", failures,
            f"sups {[f'{s:.3e}' for s in sups]}, ratios {[f'{r:.3f}' for r in ratios]}, "
            f"sup/lead {[f'{c:.3f}' for c in scaled]}, spread {spread:.3f}")


# ---------------------------------------------------------------------------
# 8. pairing-form growth in the expected temperature regimes
# ---------------------------------------------------------------------------

def test_08_pairing_form_growth(capsys):
    Ts = (1e-2, 1e-3, 1e-4)
    v1 = GaussianPotential(d=1, a=1.0, ell=1.0)
    v2 = GaussianPotential(d=2, a=1.0, ell=4.0)
    scaled_d1 = [T * dt_form_d1(v1, T, 1.0) for T in Ts]
    normed_d2 = [dt_form_d2(v2, T, 1.0) / math.log(1.0 / T) ** 3 for T in Ts]

    failures = []
    stability = max(scaled_d1) / min(scaled_d1)
    if stability > 1.2:
        failures.append(f"d=1: T*value varies by factor {stability:.3f} > 1.2")
    d2_ratios = [b / a for a, b in zip(normed_d2, normed_d2[1:])]
    for r in d2_ratios:
        if abs(r - 1.0) > 0.15:
            failures.append(f"d=2: log-cubed ratio {r:.4f} deviates from 1 by > 15%")
    _report(capsys, 8, "pairing-form growth", failures,
            f"d=1 spread {stability:.4f}, d=2 ratios {[f'{r:.3f}' for r in d2_ratios]}")


# ---------------------------------------------------------------------------
# 9. kernel inequality suite
# ---------------------------------------------------------------------------

def test_09_kernel_inequalities(capsys):
    rng = np.random.default_rng(20260814)
    failures = []

    # The inequalities run on the log-space kernel of the oracles; B_T(p, 0)
    # of the library is its diagonal 1 / K(a, a), Fermi-surface nodes included.
    grid = np.linspace(-50.0, 50.0, 41)
    worst_tie = 0.0
    for T in (1e-16, 1e-4, 1e-2, 1.0, 10.0):
        params = KernelParams(T=T, mu=1.0)
        a = np.concatenate([build_grid(params, GAUSS3).shifted, [0.0], grid])
        tie = np.max(np.abs(bt_radial_shifted(a, params) * oracles.kt(a, a, T) - 1.0))
        worst_tie = max(worst_tie, float(tie))
        if tie > 1e-13:
            failures.append(f"B_T(p, 0) differs from 1 / K(a, a) at T={T} by {tie:.3e}")

    # K >= 2T on a broad deterministic grid of shifted arguments.
    for T in (1e-4, 1e-2, 1.0, 10.0):
        floor = 2.0 * T * (1.0 - 1e-13)
        bad = [(a, b) for a in grid for b in grid if oracles.kt(a, b, T) < floor]
        if bad:
            failures.append(f"K < 2T at T={T}: {bad[:3]}")

    # Pointwise kernel lower bound via the tanh mean inequality, 1e6 samples.
    x = rng.uniform(-60.0, 60.0, 1_000_000)
    y = rng.uniform(-60.0, 60.0, 1_000_000)
    gap_min = float(np.min(oracles.tanh_inequality_gap(x, y)))
    if gap_min < -1e-12:
        failures.append(f"tanh inequality gap {gap_min:.3e} < -1e-12")

    # Upper bound 1/max(|p^2 + q^2 - mu|, 2T) on 1e3 random kernel arguments.
    mu = 1.0
    p_sq = rng.uniform(0.0, 8.0, 1000)
    q_sq = rng.uniform(0.0, 8.0, 1000)
    dot = rng.uniform(-1.0, 1.0, 1000) * np.sqrt(p_sq * q_sq)
    Ts = 10.0 ** rng.uniform(-3.0, 0.5, 1000)
    worst_excess = 0.0
    for ps, qs, dd, T in zip(p_sq, q_sq, dot, Ts):
        val = oracles.bt(ps, qs, dd, T, mu)
        bound = 1.0 / max(abs(ps + qs - mu), 2.0 * T)
        worst_excess = max(worst_excess, val / bound - 1.0)
    if worst_excess > 1e-12:
        failures.append(f"reciprocal-kernel bound exceeded by {worst_excess:.3e}")

    # Monotonicity on the momentum axis: B_T(p, 0) strictly decreasing in T.
    # The probe sits near the Fermi surface so tanh(a/2T) stays below its
    # double-precision saturation point over the whole grid; farther out the
    # decrease is real but smaller than one ulp at the small-T end.
    vals = [bt_radial_shifted(0.02, KernelParams(T=T, mu=mu))
            for T in np.geomspace(1e-3, 10.0, 100)]
    if not all(a > b for a, b in zip(vals, vals[1:])):
        failures.append("B_T(p, 0) not strictly decreasing on the 100-point T grid")

    _report(capsys, 9, "kernel inequalities", failures,
            f"min tanh gap {gap_min:.2e}, bound excess {worst_excess:.2e}, "
            f"|B_T(p, 0) K(a, a) - 1| {worst_tie:.1e}")


# ---------------------------------------------------------------------------
# 10. independent-route equivalences
# ---------------------------------------------------------------------------

def test_10_route_equivalences(capsys):
    failures = []

    # The solver's W against the momentum-side angular average of Vhat.
    pts = [(0.3, 0.3), (0.5, 1.2), (1.0, 1.0), (2.0, 0.7), (3.0, 2.5)]
    worst_w = 0.0
    for d in (1, 2, 3):
        V = GaussianPotential(d=d, a=1.0, ell=1.0)
        vhat = functools.partial(oracles.gaussian_hat_closed, 1.0, 1.0, d)
        for p, q in pts:
            Y = _w_factor(V, np.array([min(p, q), max(p, q)]), max(p, q))
            W = Y @ Y.T
            diff = abs(W[0, 1] - oracles.angular_average_vhat(vhat, d, p, q))
            worst_w = max(worst_w, diff)
            if diff > 1e-6:
                failures.append(f"w_{d}({p}, {q}) differs by {diff:.3e}")

    # Weak-coupling right-hand side re-assembles the boundary criterion.
    worst_rhs = 0.0
    for bc in BCS:
        total = math.fsum(oracles.rhs_weak_coupling_d3(GAUSS3, 1.0, bc).values())
        ref = criterion(GAUSS3, 1.0, bc).value
        rel = abs(total - ref) / abs(ref)
        worst_rhs = max(worst_rhs, rel)
        if rel > 1e-4:
            failures.append(f"rhs vs criterion ({bc}): rel diff {rel:.3e}")

    # Closed form of the fourth profile term against its sphere-product form.
    worst_t4 = 0.0
    for xx in (0.5, 1.0, 3.0):
        diff = abs(t4(xx) - oracles.t4_sphere_product(xx))
        worst_t4 = max(worst_t4, diff)
        if diff > 1e-6:
            failures.append(f"t4({xx}) differs from sphere-product form by {diff:.3e}")

    _report(capsys, 10, "independent-route equivalences", failures,
            f"worst: w_d {worst_w:.1e}, rhs {worst_rhs:.1e}, t4 {worst_t4:.1e}")
