"""The bcs benchmark.

    python3 bench/run.py --workload {boundary,bulk,growth} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; it imports ``bcs`` from ``src/`` there and
nothing else.  Every pass runs one workload in a fresh interpreter
(``worker.py``), so the per-process caches (``_vhat_spline``,
``_d2_tables``, ``_fullline_spline``, ``_radial_moment``) start cold as in
a ``bcs`` invocation.

``--trace 0`` times passes with tracing off for about ``--seconds`` (up
to the pass boundary nearest to it, at least one pass) and reports the
end-to-end metrics: medians over the passes, and for ``setup_s`` over ten
set-up-only spawns.  Times are scaled to the reference host speed by the
speed monitor's samples taken while they ran (``speed.py``); the record
keeps the raw times.  ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics: the traced pass gives the layer counts and
self times, the untraced pass the per-stage times, and their difference
the tracing overhead, beside the count of wrapped calls that caused it.

Every output of every pass is checked; a command that exits non-zero,
raises, or prints a value outside its reference tolerance counts as
failed.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the per-pass timings, which are also written
to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
from tracer import FIELDS, LAYERS, PRIVATE_WORK_NOTE  # noqa: E402
from workloads import STAGES, WORKLOADS, commands  # noqa: E402

SETUP_SPAWNS = 10       # set-up-only interpreters per timed run
TIME_LIMIT_S = 170.0    # a run must end within 180 s

# Per-layer metrics named <function key>.<field of tracer.FIELDS>.
FUNCTION_METRICS = (
    "quad.integrate_finite.calls", "quad.integrate_finite.evals",
    "quad.integrate_finite.nonconverged", "quad.integrate_finite.self_s",
    "quad.integrate_oscillatory_tail.calls", "quad.integrate_oscillatory_tail.self_s",
    "quad.integrate_semiinfinite.calls", "quad.integrate_semiinfinite.self_s",
    "potentials.value.calls", "potentials.value.self_s", "potentials.fourier_hat.calls",
    "potentials.fourier_hat.self_s", "potentials.e_mu.calls", "potentials.e_mu.self_s",
    "potentials.vmu_spectrum.self_s", "kernels.bt_radial_shifted.calls",
    "kernels.bt_radial_shifted.self_s", "kernels.m_mu.calls", "kernels.m_mu.self_s",
    "bs_solver.tc0.self_s", "bs_solver.build_grid.calls",
    "bs_solver.ground_state.self_s", "bs_solver.top_eigenvalue.self_s",
    "boundary3d.m3.calls", "boundary3d.m3.self_s", "boundary3d.criterion.self_s",
    "boundary3d.table1_values.self_s", "diagnostics.dt_form_d1.self_s",
    "diagnostics.dt_form_d2.self_s",
)
# bt_radial_shifted calls made through bs_solver's own import binding: one
# per temperature the solver evaluates.
TEMPERATURE_EVALS_BINDING = "bs_solver:bt_radial_shifted"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def worker_env(nproc: int) -> dict:
    """The worker's environment, with the OpenBLAS pool pinned to nproc
    threads (the dense eigh in ground_state is threaded)."""
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(nproc))


def source_identity(checkout: str) -> dict:
    """Git SHA when the checkout is a git work tree, and a digest of src/."""
    sha = None
    if os.path.exists(os.path.join(checkout, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                                 capture_output=True, text=True, timeout=10)
            sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(checkout, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, checkout).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


class Runner:
    """Spawns workers for one benchmark run and keeps its failure tally."""

    def __init__(self, args, checkout: str):
        self.args = args
        self.nproc = len(os.sched_getaffinity(0))
        self.env = worker_env(self.nproc)
        self.scratch = os.path.join(checkout, ".bench_out")
        os.makedirs(self.scratch, exist_ok=True)
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.expected = [c.name for c in commands(args.workload, args.seed,
                                                  threads=self.nproc)]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.versions = None
        self.setups = []    # (raw set-up seconds, spawned, ready) per spawn

    def spawn(self, *extra):
        """Run one worker; return (parsed last line or None, set-up seconds)."""
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--threads", str(self.nproc), "--scratch", self.scratch, *extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None, None
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.problems.append("worker timed out")
            return None, None
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode != 0 or not lines:
                raise ValueError(f"exit code {proc.returncode}")
            result = json.loads(lines[-1])
        except ValueError as exc:
            self.problems.append(f"worker failed ({exc}): {proc.stderr.strip()[-500:]}")
            return None, None
        return result, result["ready"] - spawned

    def setup_sample(self):
        result, setup = self.spawn("--setup-only")
        if result is not None:
            self.versions = result["versions"]
            self.setups.append((setup, result["ready"] - setup, result["ready"]))

    def run_pass(self, trace: bool):
        """One pass; returns the worker result (None if the worker failed)."""
        result, setup = self.spawn("--trace", "1" if trace else "0")
        self.attempted += len(self.expected)
        if result is None:
            self.failed += len(self.expected)
            return None
        result["setup_s"] = setup
        result["raw_wall_s"] = sum(c["seconds"] for c in result["commands"])
        for c in result["commands"]:
            if c["problems"]:
                self.failed += 1
                self.problems.append(f"{c['name']}: {'; '.join(c['problems'])}")
        if trace and not result.get("restored", False):
            self.failed += 1
            self.problems.append("tracer left a wrapped binding behind")
        return result


def apply_speed(samples, passes, setups) -> list:
    """Scale every command of every pass, and every set-up time, to the
    reference speed by the monitor samples taken while it ran; sets each
    pass's ``wall_s`` and returns the scaled set-up times."""
    for p in passes:
        for c in p["commands"]:
            c["probe_s"] = speed.probe_during(samples, *c["span"])
            c["scaled_s"] = speed.scaled(c["seconds"], c["probe_s"])
        p["wall_s"] = sum(c["scaled_s"] for c in p["commands"])
    return [speed.scaled(raw, speed.probe_during(samples, spawned, ready))
            for raw, spawned, ready in setups]


def stage_times(result) -> dict:
    out = dict.fromkeys(STAGES, 0.0)
    for c in result["commands"]:
        if c["stage"]:
            out[c["stage"]] += c["scaled_s"]
    return out


def layer_metrics(summary: dict) -> dict:
    def get(records, key):
        return dict(zip(FIELDS, records.get(key, [0, 0.0, 0.0, 0, 0, 0])))

    functions, bindings = summary["functions"], summary["bindings"]
    metrics = {}
    for layer in LAYERS:
        recs = [get(functions, k) for k in functions if k.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = (sum(r["calls"] for r in recs), "count")
        metrics[f"{layer}.self_s"] = (sum(r["self_s"] for r in recs), "s")
    for name in FUNCTION_METRICS:
        func, field = name.rsplit(".", 1)
        metrics[name] = (get(functions, func)[field], "s" if field == "self_s" else "count")
    metrics["bs_solver.grid_size_max"] = (
        get(functions, "bs_solver.build_grid")["max_len"], "count")
    quad = get(functions, "quad.integrate_finite")
    metrics["quad.integrate_finite.converged_frac"] = (
        1.0 - quad["nonconverged"] / quad["calls"] if quad["calls"] else 1.0, "ratio")
    metrics["bs_solver.temperature_evals"] = (
        get(bindings, TEMPERATURE_EVALS_BINDING)["calls"], "count")
    return metrics


def trace_metrics(plain, traced) -> dict:
    """Per-layer metrics of a ``--trace 1`` run from its untraced and traced
    passes; a pass whose worker failed (None) contributes zeros."""
    empty = {"commands": [], "wall_s": 0.0, "trace": {"functions": {}, "bindings": {}}}
    plain, traced = plain or empty, traced or empty
    metrics = layer_metrics(traced["trace"])
    metrics.update({k: (v, "s") for k, v in stage_times(plain).items()})
    metrics["cli.artifact_bytes"] = (sum(c["bytes"] for c in plain["commands"]), "bytes")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    metrics["trace.wrapped_calls"] = (
        sum(rec[0] for rec in traced["trace"]["bindings"].values()), "count")
    return metrics


def median(values):
    return statistics.median(values) if values else 0.0


def timed_passes(runner, seconds: int) -> list:
    """Untraced passes up to the pass boundary nearest to ``seconds``."""
    passes = []
    start = time.monotonic()
    longest = 0.0
    while True:
        began = time.monotonic()
        result = runner.run_pass(trace=False)
        longest = max(longest, time.monotonic() - began)
        if result is None:
            return passes
        passes.append(result)
        now = time.monotonic()
        elapsed = now - start
        if elapsed + 0.5 * elapsed / len(passes) >= seconds \
                or now + longest > runner.deadline:
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "bcs", "cli.py")):
        print("bench/run.py must run from a checkout holding src/bcs", file=sys.stderr)
        return 2
    runner = Runner(args, checkout)
    monitor = speed.Monitor(os.path.join(
        runner.scratch, f"speed-{args.workload}-seed{args.seed}-trace{args.trace}.txt"))
    try:
        if args.trace == 0:
            for _ in range(SETUP_SPAWNS):
                runner.setup_sample()
            passes = timed_passes(runner, args.seconds)
        else:
            runner.setup_sample()
            plain = runner.run_pass(trace=False)
            traced = runner.run_pass(trace=True)
    finally:
        samples = monitor.stop()
    if args.trace == 0:
        setups = apply_speed(samples, passes, runner.setups)
        metrics = {
            "wall_s": (median([p["wall_s"] for p in passes]), "s"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
        }
    else:
        passes = [p for p in (plain, traced) if p is not None]
        setups = apply_speed(samples, passes, runner.setups)
        metrics = trace_metrics(plain, traced)
    attempted = max(runner.attempted, 1)
    if args.trace == 0:
        metrics["pass_frac"] = ((attempted - runner.failed) / attempted, "ratio")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {"nproc": runner.nproc,
                        "openblas_num_threads": int(runner.env["OPENBLAS_NUM_THREADS"]),
                        **(runner.versions or {}), **source_identity(checkout)},
        "passes": [{"wall_s": p["wall_s"], "raw_wall_s": p["raw_wall_s"],
                    "setup_s": p["setup_s"], "peak_rss_mb": p["peak_rss_mb"],
                    "commands": {c["name"]: {k: c[k] for k in ("seconds", "probe_s",
                                                               "scaled_s")}
                                 for c in p["commands"]}}
                   for p in passes],
        "setup_samples_s": setups,
        "raw_setup_samples_s": [raw for raw, _, _ in runner.setups],
        "speed": {"reference_s": speed.REFERENCE_S, "samples": len(samples),
                  "median_probe_s": median([cpu for _, _, cpu in samples])},
        "problems": runner.problems,
    }
    if args.trace:
        record["note"] = PRIVATE_WORK_NOTE
        if passes and passes[-1].get("trace"):
            record["trace_summary"] = passes[-1]["trace"]
    out_path = os.path.join(runner.scratch, f"{args.workload}-seed{args.seed}"
                                            f"-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    record.pop("trace_summary", None)
    print(json.dumps(record, sort_keys=True))
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.problems and bool(passes),
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
