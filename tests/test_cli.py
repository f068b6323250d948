"""Command-line interface: schemas, artifacts, exit codes, determinism."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
import time

import pytest

import oracles
from bcs import boundary3d, cli
from bcs.boundary3d import t1, t2, t3, t4
from bcs.cli import cmd_table1, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


GAUSS3 = {"kind": "gaussian", "d": 3, "a": 1.0, "ell": 1.0}


def record_threads(monkeypatch, *names):
    """Wrap each named library function as bcs.cli calls it; the returned
    list collects the thread of every call."""
    idents = []
    for name in names:
        def spy(*args, _fn=getattr(cli, name), **kwargs):
            idents.append(threading.get_ident())
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, spy)
    return idents


def without_timing_and_threads(stdout):
    """The report minus the two fields that may differ between runs that
    differ only in the config's "threads": the wall time and its echo."""
    report = json.loads(stdout)
    report.pop("wall_time_s")
    report["inputs"].pop("threads")
    return report


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def test_table1_passes_and_reports_cells(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "table1", "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["command"] == "table1"
    assert len(report["checks"]) == 16
    assert all(c["passed"] and c["enforced"] for c in report["checks"])
    cell = report["results"]["cells"]["t1"]["value"]
    assert set(cell) == {"computed", "reference", "abs_diff", "tol", "passed"}
    assert report["error_estimates"]["max_abs_diff"] >= 0.0
    assert out.read_text(encoding="utf-8") == stdout


def test_table1_unreachable_tolerance_fails(capsys):
    code, stdout, _ = run(capsys, "table1", "--tol", "1e-13")
    assert code == 1
    report = json.loads(stdout)
    assert any(not c["passed"] for c in report["checks"])


def test_table1_corrupted_term_fails_exactly_its_cells(monkeypatch):
    # Flipping the sign of the third term must fail that row and the two
    # profile rows built from it, and nothing else.  The t3:d1 and
    # m3_dirichlet:d1 slots survive because those references are 0.
    monkeypatch.setattr(boundary3d, "_TERMS", (t1, t2, lambda x: -t3(x), t4))
    report = cmd_table1()
    failed = {c["name"] for c in report.checks if not c["passed"]}
    assert failed == {"t3:value", "t3:d2", "m3_dirichlet:value",
                      "m3_dirichlet:d2", "m3_neumann:value"}
    for c in report.checks:
        row = c["name"].split(":")[0]
        if row in ("t1", "t2", "t4"):
            assert c["passed"], c["name"]


# ---------------------------------------------------------------------------
# m3-profile
# ---------------------------------------------------------------------------

def test_m3_profile_neumann_checks_and_csv(capsys, tmp_path):
    out = tmp_path / "profile.csv"
    cfg = write_config(tmp_path, "cfg.json",
                       {"bc": "neumann", "x_max": 5.0, "step": 0.1})
    code, stdout, _ = run(capsys, "m3-profile", "--config", cfg,
                          "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    names = {c["name"]: c for c in report["checks"]}
    assert names["neumann_value_at_zero"]["enforced"]
    assert names["neumann_attains_negative"]["passed"]
    assert report["results"]["n_rows"] == 51

    raw = out.read_bytes()
    lines = raw.split(b"\r\n")
    assert raw.endswith(b"\r\n")
    assert lines[0] == b"x,m3"
    assert len(lines) == 53  # header + 51 rows + trailing terminator
    # 17-significant-digit round-trip: parsing and reformatting is identity
    for line in lines[1:-1]:
        for field in line.decode().split(","):
            assert format(float(field), ".17g") == field

    code2, _, _ = run(capsys, "m3-profile", "--config", cfg,
                      "--out", str(out))
    assert code2 == 0
    assert out.read_bytes() == raw


def test_m3_profile_dirichlet_warns_only(capsys, tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       {"bc": "dirichlet", "x_max": 2.0, "step": 0.5})
    code, stdout, _ = run(capsys, "m3-profile", "--config", cfg)
    assert code == 0
    (check,) = json.loads(stdout)["checks"]
    assert check["name"] == "dirichlet_nonnegative"
    assert not check["enforced"]


def test_m3_profile_validation(capsys, tmp_path):
    cfg = write_config(tmp_path, "bad_step.json",
                       {"bc": "neumann", "x_max": 2.0, "step": 0.0})
    code, _, err = run(capsys, "m3-profile", "--config", cfg)
    assert code == 2
    assert "config key 'step' must be positive" in err

    cfg = write_config(tmp_path, "typo.json",
                       {"bc": "neumann", "x_max": 2.0, "stepp": 0.5})
    code, _, err = run(capsys, "m3-profile", "--config", cfg)
    assert code == 2
    assert "unknown config keys for m3-profile: ['stepp']" in err

    cfg = write_config(tmp_path, "missing.json", {"bc": "neumann"})
    code, _, err = run(capsys, "m3-profile", "--config", cfg)
    assert code == 2
    assert "missing config keys for m3-profile: ['step', 'x_max']" in err


@pytest.mark.parametrize("x_max, step", [(1e6, 1.0), (1e7, 1e-3), (1e300, 1e-300)])
def test_m3_profile_rejects_more_rows_than_the_bound(capsys, tmp_path, x_max, step):
    # floor(x_max / step) + 1 rows: 1,000,001 is the first count over the
    # bound; the others would ask for 1e10 rows and an infinite count
    cfg = write_config(tmp_path, "huge.json",
                       {"bc": "neumann", "x_max": x_max, "step": step})
    code, stdout, err = run(capsys, "m3-profile", "--config", cfg)
    assert code == 2 and stdout == ""
    assert "x_max / step asks for more than 1000000 profile rows" in err


# ---------------------------------------------------------------------------
# criterion
# ---------------------------------------------------------------------------

def test_criterion_single_mu(capsys, tmp_path):
    out = tmp_path / "crit.json"
    cfg = write_config(tmp_path, "cfg.json",
                       {"potential": GAUSS3, "bc": "dirichlet", "mu": 1.0})
    code, stdout, _ = run(capsys, "criterion", "--config", cfg,
                          "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    ref = oracles.FROZEN_CRITERION_GAUSSIAN_MU1["dirichlet"]
    assert report["results"]["value"] == pytest.approx(ref["value"], abs=1e-8)
    assert report["results"]["sign"] == "positive"
    assert set(report["results"]["per_term"]) == {"t1", "t2", "t3", "t4"}
    assert report["error_estimates"]["value_error_estimate"] >= 0.0
    assert out.read_text(encoding="utf-8") == stdout


def test_criterion_zero_potential_is_inconclusive_not_an_error(capsys, tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       {"potential": {"kind": "gaussian", "d": 3, "a": 0.0},
                        "bc": "neumann", "mu": 1.0})
    code, stdout, _ = run(capsys, "criterion", "--config", cfg)
    assert code == 0
    assert json.loads(stdout)["results"]["sign"] == "inconclusive"


def test_criterion_mu_sweep_csv_in_input_order(capsys, tmp_path, monkeypatch):
    # "threads" selects nothing: 3 and 1 give one report and one CSV, and
    # each sweep is one criterion_sweep call on the calling thread.
    idents = record_threads(monkeypatch, "criterion_sweep")
    out = tmp_path / "sweep.csv"
    reports, tables = [], []
    for threads in (3, 1):
        cfg = write_config(tmp_path, "cfg.json",
                           {"potential": GAUSS3, "bc": "dirichlet",
                            "mu_sweep": [2.0, 0.5, 1.0], "threads": threads})
        code, stdout, _ = run(capsys, "criterion", "--config", cfg,
                              "--out", str(out))
        assert code == 0
        reports.append(without_timing_and_threads(stdout))
        tables.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert tables[0] == tables[1]
    assert idents == [threading.main_thread().ident] * 2
    lines = tables[0].decode("utf-8").splitlines()
    assert lines[0] == "mu,value,sign"
    mus = [float(line.split(",")[0]) for line in lines[1:]]
    assert mus == [2.0, 0.5, 1.0]
    assert all(line.split(",")[2] == "positive" for line in lines[1:])


def test_criterion_validation(capsys, tmp_path):
    cfg = write_config(tmp_path, "d2.json",
                       {"potential": {"kind": "gaussian", "d": 2},
                        "bc": "neumann", "mu": 1.0})
    code, _, err = run(capsys, "criterion", "--config", cfg)
    assert code == 2
    assert "the boundary criterion needs a d=3 potential" in err

    cfg = write_config(tmp_path, "both.json",
                       {"potential": GAUSS3, "bc": "neumann", "mu": 1.0,
                        "mu_sweep": [1.0]})
    code, _, err = run(capsys, "criterion", "--config", cfg)
    assert code == 2
    assert "exactly one of 'mu' or 'mu_sweep'" in err

    cfg = write_config(tmp_path, "neither.json",
                       {"potential": GAUSS3, "bc": "neumann"})
    code, _, err = run(capsys, "criterion", "--config", cfg)
    assert code == 2


@pytest.mark.parametrize("key, value", [("mu", 1e12), ("mu_sweep", [1.0, 1e12])])
def test_criterion_rejects_a_rule_over_the_node_bound(capsys, tmp_path, key, value):
    # mu = 1e12 asks for 16 * 3.0e6 radial nodes on the unit Gaussian; the
    # count comes from the panel layout alone, so the rejection is fast.
    cfg = write_config(tmp_path, "cfg.json",
                       {"potential": GAUSS3, "bc": "neumann", key: value})
    start = time.perf_counter()
    code, stdout, err = run(capsys, "criterion", "--config", cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and stdout == ""
    assert "mu = 1000000000000.0 needs more than 1000000 criterion nodes" in err


def test_criterion_accepts_large_mu_under_the_node_bound(capsys, tmp_path):
    # 48,560 nodes on the unit Gaussian at mu = 1e6
    cfg = write_config(tmp_path, "cfg.json",
                       {"potential": GAUSS3, "bc": "neumann", "mu": 1e6})
    code, stdout, _ = run(capsys, "criterion", "--config", cfg)
    assert code == 0
    assert json.loads(stdout)["results"]["sign"] == "positive"


@pytest.mark.parametrize("field, bad, message", [
    ("d", 3.7, "d must be an integer, got 3.7"),
    ("d", True, "d must be an integer, got True"),
    ("d", "3", "d must be an integer, got '3'"),
    ("a", True, "a must be a real number, got True"),
], ids=["d-float", "d-bool", "d-string", "a-bool"])
def test_potential_fields_must_have_their_exact_type(capsys, tmp_path, field, bad, message):
    cfg = write_config(tmp_path, "cfg.json",
                       {"potential": {**GAUSS3, field: bad}, "bc": "neumann", "mu": 1.0})
    code, stdout, err = run(capsys, "criterion", "--config", cfg)
    assert code == 2 and stdout == ""
    assert err.startswith("config error: ") and message in err


def test_criterion_has_no_tolerance_to_override(capsys, tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       {"potential": GAUSS3, "bc": "neumann", "mu": 1.0})
    code, stdout, _ = run(capsys, "criterion", "--config", cfg)
    assert code == 0
    assert json.loads(stdout)["inputs"]["tol"] is None
    code, _, err = run(capsys, "criterion", "--config", cfg, "--tol", "1e-3")
    assert code == 2
    assert "unknown config keys for criterion: ['tol']" in err


# ---------------------------------------------------------------------------
# tc0
# ---------------------------------------------------------------------------

def test_tc0_sweep_csv_and_closure(capsys, tmp_path):
    out = tmp_path / "tc.csv"
    cfg = write_config(tmp_path, "cfg.json",
                       {"potential": GAUSS3, "mu": 1.0,
                        "lambdas": [0.6, 0.5, 0.4, 0.3],
                        "t_min_factor": 1e-12})
    code, stdout, _ = run(capsys, "tc0", "--config", cfg, "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert all(c["passed"] for c in report["checks"])
    rows = report["results"]["rows"]
    for row in rows:
        assert row["Tc"] == pytest.approx(
            oracles.FROZEN_TC0_GAUSSIAN[row["lambda"]], rel=1e-6)
        assert row["residual"] <= 1e-8
        assert 0.9 < row["e_mu_m_mu_lambda"] < 1.0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "lambda,Tc,residual,e_mu_m_mu_lambda"
    assert len(lines) == 5


def test_tc0_row_failure_fails_run_not_config(capsys, tmp_path):
    # lambda = 0.28 under the default temperature floor: the row errors out,
    # the run exits 1, and the failure names the bracket floor.
    cfg = write_config(tmp_path, "cfg.json",
                       {"potential": GAUSS3, "mu": 1.0, "lambdas": [0.28]})
    code, stdout, _ = run(capsys, "tc0", "--config", cfg)
    assert code == 1
    report = json.loads(stdout)
    (row_check,) = [c for c in report["checks"]
                    if c["name"] == "solved:lambda=0.28"]
    assert not row_check["passed"]
    assert "not bracketed" in row_check["detail"]


def test_tc0_rows_report_solver_trace(capsys, tmp_path):
    out = tmp_path / "tc.csv"
    cfg = write_config(tmp_path, "cfg.json",
                       {"potential": GAUSS3, "mu": 1.0, "lambdas": [0.5]})
    code, stdout, _ = run(capsys, "tc0", "--config", cfg, "--out", str(out))
    assert code == 0
    (row,) = json.loads(stdout)["results"]["rows"]
    assert row["temperature_evals"] >= 3
    assert "w_builds" not in row and "bracket_moves" not in row
    assert row["grid_size"] == 1660
    assert 0.0 < row["spectral_gap"] <= 1.0
    # the trace stays out of the CSV artifact
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "lambda,Tc,residual,e_mu_m_mu_lambda"
    assert lines[1].count(",") == 3


def test_tc0_validation(capsys, tmp_path):
    cfg = write_config(tmp_path, "empty.json",
                       {"potential": GAUSS3, "mu": 1.0, "lambdas": []})
    code, _, err = run(capsys, "tc0", "--config", cfg)
    assert code == 2
    assert "config key 'lambdas' must be a nonempty list of numbers" in err

    cfg = write_config(tmp_path, "neg.json",
                       {"potential": {"kind": "gaussian", "d": 3, "a": -1.0},
                        "mu": 1.0, "lambdas": [0.5]})
    code, _, err = run(capsys, "tc0", "--config", cfg)
    assert code == 2
    assert "tc0 needs a nonnegative potential" in err


def test_tc0_library_error_exits_2_with_error_prefix(capsys, tmp_path):
    # The config validates, but tc0 rejects the temperature window when it
    # runs: exit 2 with the library's message, and no report on stdout.
    cfg = write_config(tmp_path, "cfg.json",
                       {"potential": GAUSS3, "mu": 1.0, "lambdas": [0.5],
                        "t_min_factor": 10.0, "t_max_factor": 1.0})
    code, stdout, err = run(capsys, "tc0", "--config", cfg)
    assert code == 2
    assert err == "error: need 0 < t_min_factor < t_max_factor\n"
    assert stdout == ""


@pytest.mark.parametrize("command, payload", [
    ("tc0", {"potential": GAUSS3, "mu": 1.0, "lambdas": [0.5], "t_min_factor": 1e-320}),
    ("dt-growth", {"potential": {"kind": "gaussian", "d": 1}, "mu": 1.0,
                   "t_factors": [1e-320, 1e-2, 1e-3]}),
], ids=["tc0", "dt-growth"])
def test_subnormal_temperature_exits_2_naming_t(capsys, tmp_path, command, payload):
    # 0.5 mu / T overflows at T = 1e-320: the run stops with the library's
    # reason instead of numpy's "Maximum allowed size exceeded".
    cfg = write_config(tmp_path, "cfg.json", payload)
    code, stdout, err = run(capsys, command, "--config", cfg)
    assert code == 2
    assert err == "error: T = 1e-320 is too small: 1 / T or mu / T overflows\n"
    assert stdout == ""


# ---------------------------------------------------------------------------
# dt-growth
# ---------------------------------------------------------------------------

def test_dt_growth_d1_fit(capsys, tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       {"potential": {"kind": "gaussian", "d": 1},
                        "mu": 1.0, "t_factors": [1e-2, 1e-3, 1e-4]})
    code, stdout, _ = run(capsys, "dt-growth", "--config", cfg)
    assert code == 0
    report = json.loads(stdout)
    fit = report["results"]["fit"]
    assert fit["model"] == "inverse_T"
    assert fit["fitted_constant"] == pytest.approx(
        oracles.FROZEN_DT1_FIT_C, rel=1e-7)
    (check,) = report["checks"]
    assert check["name"] == "growth_fit_within_tol"
    assert check["passed"] and not check["enforced"]


def test_dt_growth_validation(capsys, tmp_path):
    cfg = write_config(tmp_path, "d3.json",
                       {"potential": GAUSS3, "mu": 1.0,
                        "t_factors": [1e-2, 1e-3, 1e-4]})
    code, _, err = run(capsys, "dt-growth", "--config", cfg)
    assert code == 2
    assert "dt-growth needs a d=1 or d=2 potential" in err

    cfg = write_config(tmp_path, "two.json",
                       {"potential": {"kind": "gaussian", "d": 1},
                        "mu": 1.0, "t_factors": [1e-2, 1e-3]})
    code, _, err = run(capsys, "dt-growth", "--config", cfg)
    assert code == 2
    assert "needs at least three values" in err

    cfg = write_config(tmp_path, "rep.json",
                       {"potential": {"kind": "gaussian", "d": 1},
                        "mu": 1.0, "t_factors": [1e-2, 1e-2, 1e-4]})
    code, _, err = run(capsys, "dt-growth", "--config", cfg)
    assert code == 2
    assert "must not repeat" in err

    cfg = write_config(tmp_path, "hot.json",
                       {"potential": {"kind": "gaussian", "d": 2, "ell": 4.0},
                        "mu": 1.0, "t_factors": [2.0, 1e-2, 1e-3]})
    code, _, err = run(capsys, "dt-growth", "--config", cfg)
    assert code == 2
    assert "t_factors below 1" in err


HUGE_MU_CASES = [
    ("dt-growth", {"potential": {"kind": "gaussian", "d": 1}, "mu": 1e30,
                   "t_factors": [1e-2, 1e-3, 1e-4]}),
    ("dt-growth", {"potential": {"kind": "gaussian", "d": 1}, "mu": 1e300,
                   "t_factors": [1e-2, 1e-3, 1e-4]}),
    ("dt-growth", {"potential": {"kind": "gaussian", "d": 2}, "mu": 1e30,
                   "t_factors": [1e-2, 1e-3, 1e-4]}),
    ("tc0", {"potential": GAUSS3, "mu": 1e30, "lambdas": [0.5]}),
]


@pytest.mark.parametrize("command, payload", HUGE_MU_CASES,
                         ids=["dt-growth-d1", "dt-growth-d1-1e300", "dt-growth-d2", "tc0"])
def test_huge_mu_exits_2_naming_the_node_count(capsys, tmp_path, command, payload):
    # A rule sized by mu = 1e30 asked numpy for petabytes (a MemoryError
    # traceback, exit 1), and mu = 1e300 for a negative count; now the
    # layout is refused before it is allocated, by its node count.
    cfg = write_config(tmp_path, "cfg.json", payload)
    start = time.perf_counter()
    code, stdout, err = run(capsys, command, "--config", cfg)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and stdout == ""
    assert err.startswith("error: a rule of ")
    assert err.endswith(" nodes is past the cap of 16777216 nodes\n")


def test_dt_growth_below_the_d2_floor_or_at_d1_overflow_exits_2(capsys, tmp_path):
    # T = 1e-18 mu is below the d = 2 form's floor; T = 1e-160 mu overflows
    # (B_T w)^2 in d = 1.  Each exits 2 with its reason and no report.
    for d, t, reason in ((2, 1e-18, "cannot resolve the thermal layer at T = 1e-18"),
                         (1, 1e-160, "(B_T w)^2 overflows at T = 1e-160")):
        cfg = write_config(tmp_path, "cfg.json", {"potential": {"kind": "gaussian", "d": d},
                                                  "mu": 1.0, "t_factors": [1e-2, 1e-3, t]})
        code, stdout, err = run(capsys, "dt-growth", "--config", cfg)
        assert code == 2 and stdout == ""
        assert err.startswith("error: ") and reason in err


# ---------------------------------------------------------------------------
# vmu-spectrum
# ---------------------------------------------------------------------------

def test_vmu_spectrum_reports_dominance(capsys, tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       {"potential": GAUSS3, "mu": 1.0, "ell_max": 3})
    code, stdout, _ = run(capsys, "vmu-spectrum", "--config", cfg)
    assert code == 0
    report = json.loads(stdout)
    vals = report["results"]["eigenvalues"]
    assert len(vals) == 4
    assert report["results"]["v0"] == vals[0]
    assert report["results"]["nondegenerate"]
    (check,) = report["checks"]
    assert not check["enforced"]


def test_vmu_spectrum_validation(capsys, tmp_path):
    cfg = write_config(tmp_path, "l0.json",
                       {"potential": GAUSS3, "mu": 1.0, "ell_max": 0})
    code, _, err = run(capsys, "vmu-spectrum", "--config", cfg)
    assert code == 2
    assert "insufficient data for the dominance verdict" in err

    cfg = write_config(tmp_path, "d1.json",
                       {"potential": {"kind": "gaussian", "d": 1},
                        "mu": 1.0, "ell_max": 2})
    code, _, err = run(capsys, "vmu-spectrum", "--config", cfg)
    assert code == 2
    assert "needs a d=2 or d=3 potential" in err

    cfg = write_config(tmp_path, "frac.json",
                       {"potential": GAUSS3, "mu": 1.0, "ell_max": 1.5})
    code, _, err = run(capsys, "vmu-spectrum", "--config", cfg)
    assert code == 2
    assert "'ell_max' must be a nonnegative integer" in err


def test_vmu_spectrum_bounds_ell_max(capsys, tmp_path):
    cfg = write_config(tmp_path, "big.json",
                       {"potential": GAUSS3, "mu": 1.0, "ell_max": 1001})
    code, stdout, err = run(capsys, "vmu-spectrum", "--config", cfg)
    assert code == 2 and stdout == ""
    assert "config key 'ell_max' must be a nonnegative integer at most 1000" in err

    cfg = write_config(tmp_path, "edge.json",
                       {"potential": GAUSS3, "mu": 1.0, "ell_max": 1000})
    code, stdout, _ = run(capsys, "vmu-spectrum", "--config", cfg)
    assert code == 0
    assert len(json.loads(stdout)["results"]["eigenvalues"]) == 1001


# ---------------------------------------------------------------------------
# report and config plumbing
# ---------------------------------------------------------------------------

def test_report_is_deterministic_and_key_sorted(capsys, tmp_path, monkeypatch):
    # Each config runs with "threads" 3, then 1, which selects nothing: the
    # reports (tc0's rows, solver trace and gaps included) and the tc0 CSV
    # match, and every library call runs on the calling thread.
    idents = record_threads(monkeypatch, "criterion", "tc0_sweep", "dt_form_d1_sweep")
    out = tmp_path / "artifact"
    for command, payload in (
            ("criterion", {"potential": GAUSS3, "bc": "neumann", "mu": 1.0}),
            ("tc0", {"potential": GAUSS3, "mu": 1.0, "lambdas": [0.6, 0.5]}),
            ("dt-growth", {"potential": {"kind": "gaussian", "d": 1}, "mu": 1.0,
                           "t_factors": [1e-1, 1e-2, 1e-3]})):
        runs = []
        for threads in (3, 1):
            cfg = write_config(tmp_path, "cfg.json", {**payload, "threads": threads})
            _, stdout, _ = run(capsys, command, "--config", cfg, "--out", str(out))
            assert stdout == json.dumps(json.loads(stdout), sort_keys=True) + "\n"
            runs.append((without_timing_and_threads(stdout), out.read_bytes()))
        assert runs[0][0] == runs[1][0]
        if command == "tc0":
            assert runs[0][1].startswith(b"lambda,Tc,") and runs[0][1] == runs[1][1]
    assert idents == [threading.main_thread().ident] * 2 * (1 + 1 + 1)


def test_cli_flags_override_config_keys(capsys, tmp_path):
    inner = tmp_path / "from_config.json"
    outer = tmp_path / "from_flag.json"
    cfg = write_config(tmp_path, "cfg.json", {"out": str(inner)})
    code, _, _ = run(capsys, "table1", "--config", cfg, "--out", str(outer))
    assert code == 0
    assert outer.exists()
    assert not inner.exists()


def test_config_file_errors(capsys, tmp_path):
    code, _, err = run(capsys, "table1", "--config",
                       str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("config error: cannot read config")

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2", encoding="utf-8")
    code, _, err = run(capsys, "table1", "--config", str(bad))
    assert code == 2
    assert "config is not valid JSON" in err

    arr = tmp_path / "arr.json"
    arr.write_text("[]", encoding="utf-8")
    code, _, err = run(capsys, "table1", "--config", str(arr))
    assert code == 2
    assert "config must be a JSON object" in err


def test_threads_must_be_positive_int(capsys, tmp_path):
    cfg = write_config(tmp_path, "cfg.json",
                       {"bc": "neumann", "x_max": 1.0, "step": 0.5,
                        "threads": 0})
    code, _, err = run(capsys, "m3-profile", "--config", cfg)
    assert code == 2
    assert "'threads' must be a positive integer" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("bcs ")


# ---------------------------------------------------------------------------
# output paths: CSV bytes, report content, the per-process parser
# ---------------------------------------------------------------------------

# The exact bytes of two small artifacts, recorded before _write_csv moved
# from one csv.writer call per row to one %-format per row.
M3_NEUMANN_X2_CSV = (
    b"x,m3\r\n0,4\r\n0.25,3.305461222275305\r\n0.5,2.5436038539311721\r\n"
    b"0.75,1.787970054141939\r\n1,1.1051660530038065\r\n1.25,0.54640102271473334\r\n"
    b"1.5,0.14185950783218759\r\n1.75,-0.10134696645181418\r\n2,-0.19754894865731587\r\n")
CRITERION_SWEEP_CSV = (
    b"mu,value,sign\r\n2,1.1324290893653624,positive\r\n"
    b"0.5,1.0590747512047707,positive\r\n1,1.2071650020976894,positive\r\n")


@pytest.mark.parametrize("command, payload, expected", [
    ("m3-profile", {"bc": "neumann", "x_max": 2.0, "step": 0.25}, M3_NEUMANN_X2_CSV),
    ("criterion", {"potential": GAUSS3, "bc": "dirichlet", "mu_sweep": [2.0, 0.5, 1.0]},
     CRITERION_SWEEP_CSV),
], ids=["m3-profile", "criterion-sweep"])
def test_csv_artifacts_keep_their_bytes(capsys, tmp_path, command, payload, expected):
    out = tmp_path / "artifact.csv"
    cfg = write_config(tmp_path, "cfg.json", payload)
    code, _, _ = run(capsys, command, "--config", cfg, "--out", str(out))
    assert code == 0
    assert out.read_bytes() == expected


def test_write_csv_matches_the_csv_module(tmp_path):
    # The old writer: csv.writer with CRLF rows, every number as
    # format(float(x), ".17g"), strings as they are.
    rows = [(-0.0, 5e-324, 1e300, 1.0 / 3.0, "positive"),
            (2, -1e-300, float("inf"), 0.1, "inconclusive")]
    header = ("a", "b", "c", "d", "sign")
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else format(float(c), ".17g") for c in row])
    for table, expected in ((rows, buf.getvalue()), ([], "a,b,c,d,sign\r\n")):
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), header, table)
        assert path.read_bytes() == expected.encode("utf-8")
    assert buf.getvalue().splitlines()[1] == (
        "-0,4.9406564584124654e-324,1.0000000000000001e+300,0.33333333333333331,positive")


OUTPUT_CASES = [
    ("table1", {}),
    ("m3-profile", {"bc": "dirichlet", "x_max": 1.0, "step": 0.25}),
    ("criterion", {"potential": GAUSS3, "bc": "neumann", "mu": 1.0}),
    ("tc0", {"potential": GAUSS3, "mu": 1.0, "lambdas": [0.6]}),
    ("dt-growth", {"potential": {"kind": "gaussian", "d": 1}, "mu": 1.0,
                   "t_factors": [1e-1, 1e-2, 1e-3]}),
    ("vmu-spectrum", {"potential": GAUSS3, "mu": 1.0, "ell_max": 2}),
]


@pytest.mark.parametrize("command, payload", OUTPUT_CASES, ids=[c for c, _ in OUTPUT_CASES])
def test_report_is_one_line_with_the_asdict_content(capsys, tmp_path, command, payload):
    # The report serializes its fields in place; the content equals what
    # the deep copy dataclasses.asdict gives, and stdout is one line.
    report = cli._RUNNERS[command][0](dict(payload))
    assert json.loads(report.to_json()) == json.loads(json.dumps(dataclasses.asdict(report)))
    cfg = write_config(tmp_path, "cfg.json", payload)
    code, stdout, _ = run(capsys, command, "--config", cfg)
    assert code == 0
    assert stdout.endswith("\n") and stdout.count("\n") == 1
    assert without_timing_and_threads(stdout) == without_timing_and_threads(report.to_json())


def test_parser_is_built_once_and_leaks_no_flag(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "profile.csv"
    cfg = write_config(tmp_path, "cfg.json", {"bc": "neumann", "x_max": 2.0, "step": 0.5})
    code, stdout, _ = run(capsys, "m3-profile", "--config", cfg, "--out", str(out), "--tol", "0.5")
    assert code == 0
    assert json.loads(stdout)["inputs"]["out"] == str(out)
    assert json.loads(stdout)["inputs"]["tol"] == 0.5
    out.unlink()
    code, stdout, _ = run(capsys, "m3-profile", "--config", cfg)
    assert code == 0
    assert json.loads(stdout)["inputs"]["out"] is None
    assert json.loads(stdout)["inputs"]["tol"] == 1e-6
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("bcs ")
    for argv in (["no-such-command"], ["table1", "--tol", "x"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()
    code, stdout, _ = run(capsys, "table1")
    assert code == 0 and json.loads(stdout)["inputs"]["tol"] == 1e-6


def test_import_builds_no_parser():
    # A fresh interpreter: importing bcs.cli constructs no ArgumentParser.
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counted(self, *a, **k):\n"
             "    built.append(1)\n"
             "    init(self, *a, **k)\n"
             "argparse.ArgumentParser.__init__ = counted\n"
             "import bcs.cli\n"
             "print(len(built), bcs.cli.build_parser.cache_info().currsize)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.split() == ["0", "0"]
