"""Quick self-check of the benchmark's tracer (about fifteen seconds).

    python3 bench/selfcheck.py

Run from the repository root.  For each workload it runs a tiny config
twice, each time traced in a fresh interpreter, and checks that

- every command exits cleanly and the tracer restored every binding;
- every count (calls, quadrature evaluations, non-converged calls, grid
  sizes) repeats exactly between the two runs;
- known counts land on the right layer, and the layers a workload bypasses
  count zero calls;
- the per-layer metrics ``run.py`` reports are those ``BENCHMARK.json``
  declares.

Exits 1 and names the failing check if any check fails.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import trace_metrics, worker_env  # noqa: E402
from tracer import FIELDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Function-key call counts the tiny configs must produce, and the layers
# each workload must not enter.
EXPECTED_CALLS = {
    "boundary": {"cli.main": 2, "boundary3d.m3": 3, "boundary3d.m3_profile": 1,
                 "boundary3d.criterion": 1},
    "bulk": {"cli.main": 1, "bs_solver.tc0": 1, "kernels.m_mu": 1, "potentials.e_mu": 2},
    "growth": {"cli.main": 1, "diagnostics.dt_form_d1": 3, "diagnostics.fit_growth": 1},
}
BYPASSED = {
    "boundary": ("bs_solver", "kernels", "diagnostics"),
    "bulk": ("boundary3d", "diagnostics"),
    "growth": ("bs_solver", "boundary3d"),
}


def traced_tiny(workload: str, nproc: int, scratch: str) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--threads", str(nproc), "--trace", "1", "--tiny", "--scratch", scratch]
    proc = subprocess.run(argv, env=worker_env(nproc), capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: worker exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(summary: dict) -> dict:
    """Everything in a trace summary except times."""
    keep = [i for i, field in enumerate(FIELDS) if not field.endswith("_s")]
    return {section: {k: [rec[i] for i in keep] for k, rec in recs.items()}
            for section, recs in summary.items()}


def check(workload: str, first: dict, second: dict) -> list:
    failures = []
    for run in (first, second):
        failures += [f"{c['name']}: {p}" for c in run["commands"] for p in c["problems"]]
        if not run["restored"]:
            failures.append("a wrapped binding was not restored")
    if counts(first["trace"]) != counts(second["trace"]):
        failures.append("counts differ between two identical runs")
    functions = first["trace"]["functions"]
    for func, calls in EXPECTED_CALLS[workload].items():
        got = functions.get(func, [0])[0]
        if got != calls:
            failures.append(f"{func}: {got} calls, expected {calls}")
    for layer in BYPASSED[workload]:
        entered = sorted(k for k, rec in functions.items()
                         if k.split(".")[0] == layer and rec[0])
        if entered:
            failures.append(f"{layer} should be bypassed but {entered} ran")
    if not functions.get("quad.integrate_finite", [0])[0]:
        failures.append("no integrate_finite calls were traced")
    return failures


def declared_metrics_match(run: dict) -> list:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    run = dict(run, wall_s=0.0,
               commands=[dict(c, scaled_s=c["seconds"]) for c in run["commands"]])
    reported = set(trace_metrics(run, run))
    if declared == reported:
        return []
    return [f"BENCHMARK.json per_layer differs from run.py: "
            f"{sorted(declared ^ reported)}"]


def main() -> int:
    nproc = len(os.sched_getaffinity(0))
    os.makedirs(os.path.join(os.getcwd(), ".bench_out"), exist_ok=True)
    failed = False
    with tempfile.TemporaryDirectory(dir=os.path.join(os.getcwd(), ".bench_out")) as tmp:
        for workload in WORKLOADS:
            runs = [traced_tiny(workload, nproc, tmp) for _ in range(2)]
            failures = check(workload, *runs) + declared_metrics_match(runs[0])
            failed |= bool(failures)
            print(f"{workload}: {'FAIL' if failures else 'PASS'}")
            for f in failures:
                print(f"  {f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
