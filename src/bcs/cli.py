"""Command-line front end.

Each subcommand reads a JSON run config, dispatches to the library, and
prints a RunReport as one line of sorted-key JSON (``python -m json.tool``
pretty-prints it).  ``--out`` writes the command's primary artifact: a CSV
table where the contract names one (m3-profile, tc0, criterion mu sweeps),
otherwise a copy of the report.  ``main`` builds its parser once a process.
Exit code 0 means every enforced check passed; 1 means at least one
failed; 2 means the config never validated (stderr ``config error:``) or
the library raised while the command ran (stderr ``error:``).
Observational checks are reported but never affect the exit code.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

from . import __version__
from .boundary3d import (_MAX_CRITERION_NODES, NEUMANN, TABLE1_REFERENCE, _criterion_rule,
                         criterion, criterion_sweep, m3_profile, normalize_bc, table1_values)
from .bs_solver import SolverError, tc0_sweep
from .diagnostics import dt_form_d1_sweep, dt_form_d2, fit_growth
from .kernels import KernelParams, m_mu
from .potentials import RadialPotential, e_mu, from_config, to_config, vmu_spectrum
from .quad import QuadratureError

# Largest m3-profile row count and vmu-spectrum ell_max a config may ask for.
_MAX_PROFILE_ROWS = 10 ** 6
_MAX_ELL = 1000


class ConfigError(ValueError):
    """A run configuration failed schema validation."""


@dataclass
class RunReport:
    """Outcome of one CLI command: inputs echoed, results, checks, timing.

    Everything except wall_time_s is a pure function of the config and the
    library version.
    """

    command: str
    inputs: dict
    results: dict
    checks: list
    error_estimates: dict
    wall_time_s: float
    version: str = __version__

    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks if c["enforced"])

    def to_json(self) -> str:
        """One line; the fields are serialized in place, not deep-copied."""
        return json.dumps(vars(self), sort_keys=True) + "\n"


def _check(name: str, passed: bool, enforced: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "enforced": enforced, "detail": detail}


def _write_csv(path: str, header, rows) -> None:
    """CRLF-terminated CSV of tuple rows, numbers with 17 significant
    digits, one %-format per row.  A column keeps the type of its cell in
    the first row; str cells are labels that need no CSV quoting."""
    first = rows[0] if rows else ()
    fmt = ",".join("%s" if isinstance(c, str) else "%.17g" for c in first) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join([fmt % row for row in rows]))


def _checked_keys(command: str, cfg: dict, required, optional) -> None:
    allowed = set(required) | set(optional) | {"out", "threads"}
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {unknown}")
    missing = sorted(set(required) - set(cfg))
    if missing:
        raise ConfigError(f"missing config keys for {command}: {missing}")


def _real(cfg: dict, key: str, *, positive: bool = False,
          nonnegative: bool = False, default=None):
    if key not in cfg or cfg[key] is None:
        return default
    val = cfg[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not math.isfinite(val):
        raise ConfigError(f"config key {key!r} must be a finite number")
    val = float(val)
    if positive and not val > 0.0:
        raise ConfigError(f"config key {key!r} must be positive")
    if nonnegative and val < 0.0:
        raise ConfigError(f"config key {key!r} must be nonnegative")
    return val


def _real_list(cfg: dict, key: str) -> list:
    val = cfg.get(key)
    if not isinstance(val, (list, tuple)) or not val:
        raise ConfigError(f"config key {key!r} must be a nonempty list of numbers")
    out = []
    for x in val:
        if isinstance(x, bool) or not isinstance(x, (int, float)) \
                or not math.isfinite(x):
            raise ConfigError(f"config key {key!r} must hold finite numbers")
        if not x > 0.0:
            raise ConfigError(f"config key {key!r} must hold positive numbers")
        out.append(float(x))
    return out


def _threads(cfg: dict) -> int:
    """The config's ``threads`` count, checked and echoed in the report's
    inputs but unused: every command runs its sweep in order on the
    calling thread, since no sweep ran faster on a thread pool."""
    val = cfg.get("threads", 1)
    if isinstance(val, bool) or not isinstance(val, int) or val < 1:
        raise ConfigError("config key 'threads' must be a positive integer")
    return val


def _bc(cfg: dict) -> str:
    try:
        return normalize_bc(cfg["bc"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _potential(cfg: dict) -> RadialPotential:
    sub = cfg.get("potential")
    if not isinstance(sub, dict):
        raise ConfigError("config key 'potential' must be an object")
    try:
        return from_config(sub)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


# Subcommand name -> (runner, help), in registration order.
_RUNNERS = {}


def _command(name: str, help_text: str, required=(), optional=(), *,
             tol_default=None, tol_nonnegative: bool = False):
    """Register a command body under ``name`` behind the steps every command
    shares.  The runner checks the config keys against ``required`` and
    ``optional`` (``out`` and a worker count that selects nothing are
    accepted everywhere, ``tol`` only by a command with a ``tol_default``),
    reads ``tol`` (default ``tol_default``; positive, or nonnegative when
    ``tol_nonnegative``), that count and ``out``, times the body, echoes
    those three keys into the report's inputs and writes ``out``.

    The body takes (cfg, tol) and returns (inputs, results, checks,
    error_estimates, table); ``out`` receives the CSV ``table`` given as
    (header, rows), or the report itself when ``table`` is None.
    """
    def register(body):
        @functools.wraps(body)
        def run(config: dict | None = None) -> RunReport:
            cfg = dict(config or {})
            _checked_keys(name, cfg, required,
                          (*optional, "tol") if tol_default is not None else optional)
            tol = _real(cfg, "tol", positive=not tol_nonnegative,
                        nonnegative=tol_nonnegative, default=tol_default)
            threads = _threads(cfg)
            out = cfg.get("out")
            start = time.perf_counter()
            inputs, results, checks, estimates, table = body(cfg, tol)
            inputs.update(tol=tol, threads=threads, out=out)
            report = RunReport(name, inputs, results, checks, estimates,
                               time.perf_counter() - start)
            if out and table is not None:
                _write_csv(out, *table)
            elif out:
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(report.to_json())
            return report
        _RUNNERS[name] = (run, help_text)
        return run
    return register


@_command("table1", "check the profile-table values and derivatives", tol_default=1e-6)
def cmd_table1(cfg: dict, tol: float):
    """Recompute every populated profile-table cell and compare to reference.

    ``tol`` is the tolerance on values; first and second derivatives get
    10x and 100x.
    """
    computed = table1_values()
    slot_tol = {"value": tol, "d1": 10.0 * tol, "d2": 100.0 * tol}
    cells = {}
    checks = []
    diffs = []
    for row, refs in TABLE1_REFERENCE.items():
        got = computed[row]
        cells[row] = {}
        for slot, ref, val in zip(("value", "d1", "d2"), refs, got):
            if ref is None:
                continue
            diff = abs(val - ref)
            diffs.append(diff)
            ok = diff <= slot_tol[slot]
            cells[row][slot] = {"computed": val, "reference": ref,
                                "abs_diff": diff, "tol": slot_tol[slot],
                                "passed": ok}
            checks.append(_check(f"{row}:{slot}", ok, True,
                                 f"|computed - reference| = {diff:.3e}"))
    return {}, {"cells": cells}, checks, {"max_abs_diff": max(diffs)}, None


@_command("m3-profile", "sample the boundary profile to CSV",
          ("bc", "x_max", "step"), tol_default=1e-6)
def cmd_m3_profile(cfg: dict, tol: float):
    """Sample the boundary profile on a uniform grid and write `x,m3` CSV.

    Neumann runs enforce the value 4 at x = 0 and a strictly negative
    sample beyond; the Dirichlet nonnegativity check only warns.  ``tol``
    is the slack on both (default 1e-6).
    """
    bc = _bc(cfg)
    x_max = _real(cfg, "x_max", positive=True)
    step = _real(cfg, "step", positive=True)
    if x_max / step + 1e-9 >= _MAX_PROFILE_ROWS:
        raise ConfigError(f"x_max / step asks for more than {_MAX_PROFILE_ROWS} profile rows")
    rows = m3_profile(x_max, step, bc)
    vals = [v for _, v in rows]
    checks = []
    if bc == NEUMANN:
        checks.append(_check(
            "neumann_value_at_zero", abs(vals[0] - 4.0) <= tol, True,
            f"m3(0) = {vals[0]!r}"))
        tail_min = min(vals[1:]) if len(vals) > 1 else math.inf
        checks.append(_check(
            "neumann_attains_negative", tail_min < 0.0, True,
            f"min over (0, x_max] = {tail_min!r}"))
    else:
        low = min(vals)
        checks.append(_check(
            "dirichlet_nonnegative", low >= -tol, False, f"min = {low!r}"))
    inputs = {"bc": bc, "x_max": x_max, "step": step}
    results = {"rows": [[x, v] for x, v in rows], "n_rows": len(rows)}
    return inputs, results, checks, {}, (("x", "m3"), rows)


@_command("criterion", "evaluate the half-space pairing criterion",
          ("potential", "bc"), ("mu", "mu_sweep"))
def cmd_criterion(cfg: dict, tol):
    """Evaluate the half-space pairing criterion at one mu or over a sweep.

    Sweeps write a `mu,value,sign` CSV to ``out`` from one criterion_sweep;
    a single-mu run writes the report itself.  The sign verdict (including
    "inconclusive" for a value inside its own error bar) is a result, not a
    check, so the exit code stays 0.  A mu whose 16-node radial rule
    (_criterion_rule) would pass boundary3d._MAX_CRITERION_NODES nodes is a
    config error, found before any t1 call.
    """
    V = _potential(cfg)
    if V.d != 3:
        raise ConfigError("the boundary criterion needs a d=3 potential")
    bc = _bc(cfg)
    if ("mu" in cfg) == ("mu_sweep" in cfg):
        raise ConfigError("criterion needs exactly one of 'mu' or 'mu_sweep'")
    inputs = {"potential": to_config(V), "bc": bc}
    mus = [_real(cfg, "mu", positive=True)] if "mu" in cfg else _real_list(cfg, "mu_sweep")
    for m in mus:
        if _criterion_rule(V, m)[1] > _MAX_CRITERION_NODES:
            raise ConfigError(f"mu = {m!r} needs more than {_MAX_CRITERION_NODES} criterion nodes")
    if "mu" in cfg:
        mu = mus[0]
        rep = criterion(V, mu, bc)
        inputs["mu"] = mu
        results = {"mu": mu, "value": rep.value, "sign": rep.sign,
                   "per_term": dict(rep.per_term)}
        return inputs, results, [], {"value_error_estimate": rep.error_estimate}, None

    reps = criterion_sweep(V, mus, bc)
    inputs["mu_sweep"] = mus
    results = {"sweep": [{"mu": m, "value": r.value, "sign": r.sign}
                         for m, r in zip(mus, reps)]}
    estimates = {"max_value_error_estimate": max(r.error_estimate for r in reps)}
    table = (("mu", "value", "sign"), [(m, r.value, r.sign) for m, r in zip(mus, reps)])
    return inputs, results, [], estimates, table


@_command("tc0", "critical temperatures over a coupling sweep",
          ("potential", "mu", "lambdas"), ("t_min_factor", "t_max_factor"), tol_default=1e-8)
def cmd_tc0(cfg: dict, tol: float):
    """Critical temperatures over a coupling list, one CSV row per lambda.

    Solver failures are recorded per row and fail the run; so does any
    violation of monotonicity (larger lambda must give larger Tc).  ``tol``
    is the closure tolerance |lambda a_T - 1| passed to the solver.
    """
    V = _potential(cfg)
    mu = _real(cfg, "mu", positive=True)
    lambdas = _real_list(cfg, "lambdas")
    t_min_factor = _real(cfg, "t_min_factor", positive=True, default=1e-8)
    t_max_factor = _real(cfg, "t_max_factor", positive=True, default=1e3)
    em = e_mu(V, mu)

    def as_row(lam: float, r) -> dict:
        if isinstance(r, SolverError):
            return {"lambda": lam, "error": str(r)}
        emm = em * m_mu(KernelParams(T=r.T_c, mu=mu), V.d) * lam
        return {"lambda": lam, "Tc": r.T_c, "residual": r.closure,
                "e_mu_m_mu_lambda": emm, "grid_size": len(r.grid),
                "temperature_evals": r.temperature_evals, "spectral_gap": r.spectral_gap}

    rows = [as_row(lam, r) for lam, r in zip(lambdas, tc0_sweep(
        V, mu, V.d, lambdas, t_min_factor=t_min_factor, t_max_factor=t_max_factor, tol=tol))]
    checks = [_check(f"solved:lambda={row['lambda']:g}", "error" not in row, True,
                     row.get("error", "converged")) for row in rows]
    solved = [r for r in rows if "error" not in r]
    mono = all(a["Tc"] < b["Tc"]
               for i, a in enumerate(solved) for b in solved[i + 1:]
               if a["lambda"] < b["lambda"])
    checks.append(_check("tc_monotone_in_lambda", mono, True,
                         "larger coupling must raise Tc"))

    inputs = {"potential": to_config(V), "mu": mu, "lambdas": lambdas,
              "t_min_factor": t_min_factor, "t_max_factor": t_max_factor}
    estimates = {"max_closure_residual": max((r["residual"] for r in solved), default=None)}
    table = (("lambda", "Tc", "residual", "e_mu_m_mu_lambda"),
             [(r["lambda"], r["Tc"], r["residual"], r["e_mu_m_mu_lambda"])
              for r in solved])
    return inputs, {"rows": rows, "e_mu": em}, checks, estimates, table


@_command("dt-growth", "boundary pairing form growth diagnostics",
          ("potential", "mu", "t_factors"), tol_default=0.25)
def cmd_dt_growth(cfg: dict, tol: float):
    """Boundary pairing form over a temperature sweep plus its growth fit.

    d = 1 potentials fit value ~ C/T from one dt_form_d1_sweep, d = 2 fit
    C ln(mu/T)^3 from one dt_form_d2 call per T.  The fit quality check
    (worst relative deviation <= tol, default 0.25) is observational; the
    numbers themselves are the point.
    """
    V = _potential(cfg)
    if V.d not in (1, 2):
        raise ConfigError("dt-growth needs a d=1 or d=2 potential")
    mu = _real(cfg, "mu", positive=True)
    t_factors = _real_list(cfg, "t_factors")
    if len(t_factors) < 3:
        raise ConfigError("config key 't_factors' needs at least three values")
    if len(set(t_factors)) != len(t_factors):
        raise ConfigError("config key 't_factors' must not repeat values")
    if V.d == 2 and max(t_factors) >= 1.0:
        raise ConfigError("d=2 growth fits need t_factors below 1 (T < mu)")

    temps = [f * mu for f in t_factors]
    if V.d == 1:
        values, model = dt_form_d1_sweep(V, temps, mu), "inverse_T"
        basis = [1.0 / t for t in temps]
    else:
        values, model = [dt_form_d2(V, T, mu) for T in temps], "log_cubed"
        basis = [math.log(mu / t) ** 3 for t in temps]
    c, dev = fit_growth(values, basis)

    checks = [_check("growth_fit_within_tol", dev <= tol, False,
                     f"max relative deviation {dev:.3e}")]
    inputs = {"potential": to_config(V), "mu": mu, "t_factors": t_factors}
    results = {"samples": [{"T": t, "value": v} for t, v in zip(temps, values)],
               "fit": {"model": model, "fitted_constant": c,
                       "max_relative_deviation": dev}}
    estimates = {"fit_max_relative_deviation": dev}
    return inputs, results, checks, estimates, None


@_command("vmu-spectrum", "Fermi-surface angular components of the interaction",
          ("potential", "mu", "ell_max"), tol_default=0.0,
          tol_nonnegative=True)
def cmd_vmu_spectrum(cfg: dict, tol: float):
    """Angular components of the interaction on the Fermi surface.

    Reports v_0..v_ell_max and whether v_0 strictly exceeds every v_ell, odd
    and even (margin ``tol``, default 0); the step can have v_1 > v_0, and for
    pair functions even in the relative coordinate only even ell compete.  The
    verdict is observational.  ell_max = 0 leaves nothing to compare: rejected.
    """
    V = _potential(cfg)
    if V.d not in (2, 3):
        raise ConfigError("vmu-spectrum needs a d=2 or d=3 potential")
    mu = _real(cfg, "mu", positive=True)
    ell_max = cfg.get("ell_max")
    if isinstance(ell_max, bool) or not isinstance(ell_max, int) or not 0 <= ell_max <= _MAX_ELL:
        raise ConfigError(f"config key 'ell_max' must be a nonnegative integer at most {_MAX_ELL}")
    if ell_max == 0:
        raise ConfigError("insufficient data for the dominance verdict: "
                          "ell_max must be at least 1")

    values = [float(v) for v in vmu_spectrum(V, mu, ell_max)]
    highest = max(values[1:])
    dominant = values[0] - highest > tol
    checks = [_check("ground_component_dominates", dominant, False,
                     f"v0 = {values[0]!r}, max higher = {highest!r}")]
    inputs = {"potential": to_config(V), "mu": mu, "ell_max": ell_max}
    results = {"eigenvalues": values, "v0": values[0],
               "max_higher": highest, "nondegenerate": dominant}
    return inputs, results, checks, {}, None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcs",
        description="Boundary superconductivity diagnostics for BCS kernels.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _RUNNERS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a JSON run config")
        p.add_argument("--out", help="write the primary artifact here")
        p.add_argument("--tol", type=float,
                       help="override the command's tolerance")
    return parser


def _load_config(args: argparse.Namespace) -> dict:
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    else:
        cfg = {}
    if args.out is not None:
        cfg["out"] = args.out
    if args.tol is not None:
        cfg["tol"] = args.tol
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _RUNNERS[args.command][0](_load_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_json())
    return 0 if report.passed() else 1


if __name__ == "__main__":
    sys.exit(main())
