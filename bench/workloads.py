"""Workloads of the bcs benchmark: seeded inputs and output checks.

A workload is a fixed sequence of commands.  The seed picks each perturbed
sweep value from a short list of choices inside a fixed range; it never
changes which commands run.  Every choice has a reference recorded by
``record_references.py`` at the commit that introduced the benchmark, so
every output of every run is compared with a reference, whatever the seed.
Tolerances are those of the tier-1 tests for the same quantities.  The
choices in one slot do nearly the same quadrature work, so the seed moves
the inputs without moving the run time.
"""
from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("boundary", "bulk", "growth")

# Per-stage times: the commands of each stage, summed per pass.
STAGES = ("m3_profile_s", "criterion_s", "tc0_s", "ground_state_s",
          "dt_growth_d1_s", "dt_growth_d2_s")

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "references.json")

POTENTIALS = {
    "gaussian3": {"kind": "gaussian", "d": 3, "a": 1.0, "ell": 1.0},
    "step3": {"kind": "step", "d": 3, "a": 1.0, "R": 2.0},
    "exponential3": {"kind": "exponential", "d": 3, "a": 1.0, "ell": 1.0},
    "exponential2": {"kind": "exponential", "d": 2, "a": 1.0, "ell": 1.0},
    "step1": {"kind": "step", "d": 1, "a": 1.0, "R": 1.0},
    "gaussian1": {"kind": "gaussian", "d": 1, "a": 1.0, "ell": 1.0},
    "gaussian2": {"kind": "gaussian", "d": 2, "a": 1.0, "ell": 1.0},
}

# boundary: m3 grid spacing (x_max = 1000 steps, so 1001 points), the four
# slots of every criterion mu sweep, and the vmu-spectrum chemical potential.
M3_STEPS = (0.0198, 0.02, 0.0202)
MU_SLOTS = ((0.24, 0.25, 0.26), (0.48, 0.5, 0.52), (0.96, 1.0, 1.04),
            (1.92, 2.0, 2.08))
CRITERION_CASES = tuple((pot, bc) for pot in ("gaussian3", "step3", "exponential3")
                        for bc in ("neumann", "dirichlet"))
VMU_CASES = ("gaussian3", "exponential2")
VMU_MUS = (0.9, 1.0, 1.1)
VMU_ELL_MAX = 4

# bulk: three coupling slots inside [0.4, 0.6] for both tc0 sweeps, and the
# library quick-start chain at lam = 0.15 whose profile radii are shifted.
TC0_CASES = ("gaussian3", "step1")
LAMBDA_SLOTS = ((0.6, 0.59, 0.58), (0.51, 0.5, 0.49), (0.4, 0.41, 0.42))
CHAIN = {"potential": "gaussian3", "mu": 1.0, "lam": 0.15, "t_min_factor": 1e-18}
PROFILE_RADII = (0.5, 1.0, 2.0, 4.0)
PROFILE_SHIFTS = (0.0, 0.1, 0.2)

# growth: the d = 1 amplitude, and the two d = 2 temperatures beside the
# fixed T = 1e-2 anchor: one above it and one in the costly low-T regime.
D1_CASES = ("gaussian1", "step1")
AMPLITUDES = (0.95, 1.0, 1.05)
D1_T_FACTORS = (1e-2, 1e-3, 1e-4)
D2_T_SLOTS = ((0.1, 0.08, 0.06), (1.1e-3, 1e-3, 9e-4))
D2_ANCHOR = 1e-2

# Tier-1 tolerances for the same quantities.
TOL_M3 = 5e-12            # abs, FROZEN_M3
TOL_M3_ORIGIN = 1e-10     # abs, m3(0) = 4 (Neumann) and 0 (Dirichlet)
TOL_CRITERION = 1e-8      # abs, FROZEN_CRITERION_GAUSSIAN_MU1
TOL_VMU = 1e-9            # abs, addition-theorem oracle
TOL_TC = 1e-6             # rel, FROZEN_TC0_GAUSSIAN
TOL_CLOSURE = 1e-8        # |lam a_T - 1|, the solver's default closure
TOL_EVAL_EQ = 1e-6        # ground-state eigen-equation residual
TOL_DT1 = 1e-8            # rel, FROZEN_DT1
TOL_DT2 = 1e-7            # rel, FROZEN_DT2_L4
TOL_DT2_ANCHOR = 1e-8     # rel, FROZEN_DT2_L1_T1E2

def key(x: float) -> str:
    """Reference-table key of a choice value."""
    return repr(float(x))


def amplitude_potential(name: str, a: float) -> dict:
    return dict(POTENTIALS[name], a=a)


@dataclass
class Command:
    """One timed step of a workload.

    ``cli`` names a bcs subcommand run through ``bcs.cli.main``; ``None``
    marks the library quick-start chain.  ``stage`` names the per-stage
    metric the time adds to.  ``check`` maps the outcome to a list of
    problems; an empty list means the output is correct.
    """

    name: str
    stage: str
    cli: str | None
    config: dict
    check: Callable[[dict], list]
    artifact: bool = False


def load_references() -> dict:
    with open(REFERENCES_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- checks ------------------------------------------------------------------

def _rel_close(got, ref, tol, floor=0.0):
    return abs(got - ref) <= tol * abs(ref) + floor


def cli_problems(outcome) -> list:
    if outcome.get("error"):
        return [outcome["error"]]
    if outcome["rc"] != 0:
        return [f"exit code {outcome['rc']}"]
    if outcome["report"] is None:
        return ["no JSON report on stdout"]
    return []


def _artifact_matches(outcome, header, rows) -> list:
    """The CSV artifact must carry the report's numbers with 17 digits."""
    text = outcome.get("artifact")
    if text is None:
        return ["CSV artifact missing"]
    got_header, *got_rows = csv.reader(io.StringIO(text, newline=""))
    if tuple(got_header) != tuple(header) or len(got_rows) != len(rows):
        return ["CSV artifact shape differs from the report"]
    for got, want in zip(got_rows, rows):
        for g, w in zip(got, want):
            if (g != w) if isinstance(w, str) else (float(g) != w):
                return [f"CSV artifact cell {g!r} differs from report {w!r}"]
    return []


def _check_table1(outcome):
    problems = cli_problems(outcome)
    if problems:
        return problems
    cells = outcome["report"]["results"]["cells"]
    return [f"table1 {row}:{slot} failed" for row, slots in cells.items()
            for slot, cell in slots.items() if not cell["passed"]]


def _check_m3(bc, step, ref):
    def check(outcome):
        problems = cli_problems(outcome)
        if problems:
            return problems
        rows = outcome["report"]["results"]["rows"]
        if len(rows) != len(ref):
            return [f"m3 {bc}: {len(rows)} rows, reference has {len(ref)}"]
        for i, ((x, v), want) in enumerate(zip(rows, ref)):
            if abs(x - i * step) > 1e-12 or abs(v - want) > TOL_M3:
                problems.append(f"m3 {bc} row {i}: ({x!r}, {v!r}) vs {want!r}")
                break
        origin = 4.0 if bc == "neumann" else 0.0
        if abs(rows[0][1] - origin) > TOL_M3_ORIGIN:
            problems.append(f"m3 {bc}(0) = {rows[0][1]!r}, expected {origin}")
        return problems + _artifact_matches(outcome, ("x", "m3"), rows)
    return check


def _check_criterion(case, mus, refs):
    def check(outcome):
        problems = cli_problems(outcome)
        if problems:
            return problems
        sweep = outcome["report"]["results"]["sweep"]
        if [row["mu"] for row in sweep] != list(mus):
            return [f"criterion {case}: mu sweep {sweep!r} not in input order"]
        for row in sweep:
            value, sign = refs[key(row["mu"])]
            if abs(row["value"] - value) > TOL_CRITERION:
                problems.append(f"criterion {case} mu={row['mu']}: {row['value']!r} "
                                f"vs {value!r}")
            if row["sign"] != sign or row["sign"] == "inconclusive":
                problems.append(f"criterion {case} mu={row['mu']}: sign {row['sign']}")
        return problems + _artifact_matches(
            outcome, ("mu", "value", "sign"),
            [(r["mu"], r["value"], r["sign"]) for r in sweep])
    return check


def _check_vmu(case, ref):
    def check(outcome):
        problems = cli_problems(outcome)
        if problems:
            return problems
        got = outcome["report"]["results"]["eigenvalues"]
        if len(got) != len(ref) or any(abs(g - w) > TOL_VMU for g, w in zip(got, ref)):
            problems.append(f"vmu-spectrum {case}: {got!r} vs {ref!r}")
        return problems
    return check


def _check_tc0(case, lambdas, refs):
    def check(outcome):
        problems = cli_problems(outcome)
        if problems:
            return problems
        rows = outcome["report"]["results"]["rows"]
        if [row["lambda"] for row in rows] != list(lambdas):
            return [f"tc0 {case}: rows {rows!r} not in input order"]
        for row in rows:
            if "error" in row:
                problems.append(f"tc0 {case} lambda={row['lambda']}: {row['error']}")
                continue
            tc, emm = refs[key(row["lambda"])]
            if not _rel_close(row["Tc"], tc, TOL_TC):
                problems.append(f"tc0 {case} lambda={row['lambda']}: Tc {row['Tc']!r} "
                                f"vs {tc!r}")
            if not _rel_close(row["e_mu_m_mu_lambda"], emm, TOL_TC):
                problems.append(f"tc0 {case} lambda={row['lambda']}: e_mu m_mu lambda "
                                f"{row['e_mu_m_mu_lambda']!r} vs {emm!r}")
            if not row["residual"] <= TOL_CLOSURE:
                problems.append(f"tc0 {case} lambda={row['lambda']}: closure "
                                f"{row['residual']!r}")
        by_lam = sorted((r["lambda"], r["Tc"]) for r in rows if "Tc" in r)
        if any(a[1] >= b[1] for a, b in zip(by_lam, by_lam[1:])):
            problems.append(f"tc0 {case}: Tc not increasing in lambda")
        return problems + _artifact_matches(
            outcome, ("lambda", "Tc", "residual", "e_mu_m_mu_lambda"),
            [(r["lambda"], r["Tc"], r["residual"], r["e_mu_m_mu_lambda"]) for r in rows])
    return check


def _check_chain(ref, shift):
    def check(outcome):
        if outcome.get("error"):
            return [outcome["error"]]
        problems = []
        if not _rel_close(outcome["T_c"], ref["T_c"], TOL_TC):
            problems.append(f"chain T_c {outcome['T_c']!r} vs {ref['T_c']!r}")
        for name in ("tc_closure", "closure"):
            if not outcome[name] <= TOL_CLOSURE:
                problems.append(f"chain {name} {outcome[name]!r}")
        if not outcome["eval_eq_residual"] <= TOL_EVAL_EQ:
            problems.append(f"chain eigen-equation residual {outcome['eval_eq_residual']!r}")
        prof, want = outcome["profile"], ref["profile"][key(shift)]
        if len(prof) != len(want) or not all(
                _rel_close(g, w, TOL_TC, 1e-12) for g, w in zip(prof, want)):
            problems.append(f"chain profile {prof!r} vs {want!r}")
        if not (prof[0] > 0.0 and prof[0] >= max(prof)):
            problems.append("chain profile is not positive and maximal at the origin")
        return problems
    return check


def _check_dt(case, temps, refs, anchor=None):
    def check(outcome):
        problems = cli_problems(outcome)
        if problems:
            return problems
        samples = outcome["report"]["results"]["samples"]
        if [s["T"] for s in samples] != list(temps):
            return [f"dt-growth {case}: temperatures {samples!r} not in input order"]
        tol = TOL_DT1 if case in D1_CASES else TOL_DT2
        for s in samples:
            want = refs[key(s["T"])]
            t = TOL_DT2_ANCHOR if s["T"] == anchor else tol
            if not _rel_close(s["value"], want, t):
                problems.append(f"dt-growth {case} T={s['T']}: {s['value']!r} vs {want!r}")
        return problems
    return check


# -- command configs ---------------------------------------------------------
# The single source of every command's config, shared by the workloads and by
# record_references.py, which calls them with every choice of a slot at once.

def m3_config(bc: str, step: float, threads: int) -> dict:
    return {"bc": bc, "x_max": round(1000 * step, 10), "step": step, "threads": threads}


def criterion_config(pot: str, bc: str, mus, threads: int) -> dict:
    return {"potential": POTENTIALS[pot], "bc": bc, "mu_sweep": list(mus),
            "threads": threads}


def vmu_config(pot: str, mu: float) -> dict:
    return {"potential": POTENTIALS[pot], "mu": mu, "ell_max": VMU_ELL_MAX}


def tc0_config(pot: str, lambdas) -> dict:
    return {"potential": POTENTIALS[pot], "mu": 1.0, "lambdas": list(lambdas)}


def chain_config(shift: float) -> dict:
    return dict(CHAIN, potential=POTENTIALS[CHAIN["potential"]],
                r=[0.0] + [r + shift for r in PROFILE_RADII])


def dt_config(potential: dict, temps) -> dict:
    return {"potential": potential, "mu": 1.0, "t_factors": list(temps)}


# -- workloads ---------------------------------------------------------------

def commands(workload: str, seed: int, *, threads: int = 1, tiny: bool = False) -> list:
    """The command sequence of one pass.  ``threads`` is the sweep fan-out
    of the boundary workload.  ``tiny`` selects the self-check configs,
    which carry no reference checks beyond a clean exit."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if tiny:
        return _tiny(workload, threads)
    rng = random.Random(f"{workload}:{seed}")
    return {"boundary": _boundary, "bulk": _bulk, "growth": _growth}[workload](
        rng, threads, load_references())


def _boundary(rng, threads, refs):
    cmds = [Command("table1", "", "table1", {"tol": 1e-6}, _check_table1)]
    for bc in ("neumann", "dirichlet"):
        step = rng.choice(M3_STEPS)
        check = _check_m3(bc, step, refs["m3"][bc][key(step)])
        cmds.append(Command(f"m3-profile {bc} step={step}", "m3_profile_s", "m3-profile",
                            m3_config(bc, step, threads), check, artifact=True))
    for pot, bc in CRITERION_CASES:
        mus = [rng.choice(slot) for slot in MU_SLOTS]
        case = f"{pot}/{bc}"
        check = _check_criterion(case, mus, refs["criterion"][case])
        cmds.append(Command(f"criterion {case} mu={mus}", "criterion_s", "criterion",
                            criterion_config(pot, bc, mus, threads), check, artifact=True))
    for pot in VMU_CASES:
        mu = rng.choice(VMU_MUS)
        cmds.append(Command(f"vmu-spectrum {pot} mu={mu}", "", "vmu-spectrum",
                            vmu_config(pot, mu), _check_vmu(pot, refs["vmu"][pot][key(mu)])))
    return cmds


def _bulk(rng, threads, refs):
    cmds = []
    for pot in TC0_CASES:
        lambdas = [rng.choice(slot) for slot in LAMBDA_SLOTS]
        check = _check_tc0(pot, lambdas, refs["tc0"][pot])
        cmds.append(Command(f"tc0 {pot} lambdas={lambdas}", "tc0_s", "tc0",
                            tc0_config(pot, lambdas), check, artifact=True))
    shift = rng.choice(PROFILE_SHIFTS)
    cmds.append(Command(f"tc0 -> ground_state -> position_profile shift={shift}",
                        "ground_state_s", None, chain_config(shift),
                        _check_chain(refs["chain"], shift)))
    return cmds


def _growth(rng, threads, refs):
    cmds = []
    for pot in D1_CASES:
        a = rng.choice(AMPLITUDES)
        case = f"{pot}/a={a!r}"
        check = _check_dt(pot, D1_T_FACTORS, refs["dt"][case])
        cmds.append(Command(f"dt-growth {case}", "dt_growth_d1_s", "dt-growth",
                            dt_config(amplitude_potential(pot, a), D1_T_FACTORS), check))
    temps = [rng.choice(slot) for slot in D2_T_SLOTS] + [D2_ANCHOR]
    check = _check_dt("gaussian2", temps, refs["dt"]["gaussian2"], D2_ANCHOR)
    cmds.append(Command(f"dt-growth gaussian2 t_factors={temps}", "dt_growth_d2_s",
                        "dt-growth", dt_config(POTENTIALS["gaussian2"], temps), check))
    return cmds


def _tiny(workload, threads):
    """Self-check configs: a few seconds each, with known call counts."""
    if workload == "boundary":
        return [
            Command("m3-profile tiny", "m3_profile_s", "m3-profile",
                    {"bc": "neumann", "x_max": 4.0, "step": 2.0, "threads": threads},
                    cli_problems),
            Command("criterion tiny", "criterion_s", "criterion",
                    {"potential": POTENTIALS["gaussian3"], "bc": "neumann", "mu": 1.0},
                    cli_problems),
        ]
    if workload == "bulk":
        return [Command("tc0 tiny", "tc0_s", "tc0",
                        {"potential": POTENTIALS["gaussian3"], "mu": 1.0, "lambdas": [0.6]},
                        cli_problems)]
    return [Command("dt-growth tiny", "dt_growth_d1_s", "dt-growth",
                    {"potential": POTENTIALS["step1"], "mu": 1.0,
                     "t_factors": [1e-4, 1e-5, 1e-6]},
                    cli_problems)]

