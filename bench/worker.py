"""One pass of a benchmark workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The first thing it
does is import ``bcs.cli`` from the checkout's ``src``, and the monotonic
clock reading right after that import ends the set-up interval that
``run.py`` started when it spawned the process.  It then runs the
workload's commands in order, times each one, checks every output after
the last command has run, and prints one JSON line with the timings,
problems, peak memory and (when traced) the tracer's summary.  Each
command's row carries the monotonic clock readings around it, which
``run.py`` matches with the speed monitor's samples (``speed.py``).
"""
import os
import sys
import time

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(CHECKOUT, "src"))

import bcs.cli  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import commands  # noqa: E402


def run_cli(cmd, tmp: str, index: int):
    """Run one subcommand through ``bcs.cli.main``; time only that call."""
    cfg_path = os.path.join(tmp, f"config{index}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cmd.config, fh)
    argv = [cmd.cli, "--config", cfg_path]
    out_path = os.path.join(tmp, f"artifact{index}") if cmd.artifact else None
    if out_path:
        argv += ["--out", out_path]
    buf = io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = bcs.cli.main(argv)
    except (Exception, SystemExit):  # a crash fails this command, not the pass
        error = traceback.format_exc(limit=2).strip().splitlines()[-1]
    seconds = time.perf_counter() - start
    text = buf.getvalue()
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    artifact = None
    if out_path and os.path.exists(out_path):
        with open(out_path, encoding="utf-8", newline="") as fh:
            artifact = fh.read()
    nbytes = len(artifact.encode()) if artifact else 0
    return {"rc": rc, "error": error, "report": report, "artifact": artifact,
            "bytes": nbytes}, seconds


def run_chain(cfg: dict):
    """The library quick start: tc0, then ground_state, then position_profile."""
    from bcs import bs_solver, potentials
    V = potentials.from_config(cfg["potential"])
    start = time.perf_counter()
    try:
        res = bs_solver.tc0(V, cfg["mu"], V.d, cfg["lam"], t_min_factor=cfg["t_min_factor"])
        gs = bs_solver.ground_state(V, cfg["mu"], V.d, cfg["lam"], tc=res)
        prof = bs_solver.position_profile(gs, cfg["r"])
    except Exception:  # a solver failure fails this command, not the pass
        seconds = time.perf_counter() - start
        return {"error": traceback.format_exc(limit=2).strip().splitlines()[-1]}, seconds
    seconds = time.perf_counter() - start
    return {"T_c": res.T_c, "tc_closure": res.closure, "closure": gs.closure,
            "eval_eq_residual": gs.eval_eq_residual,
            "profile": [float(v) for v in prof]}, seconds


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    src = os.path.join(CHECKOUT, "src")
    if os.path.commonpath([os.path.abspath(bcs.cli.__file__), src]) != src:
        print(f"bcs imported from {bcs.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    if args.setup_only:
        print(json.dumps({"ready": READY, "versions": versions()}))
        return 0

    cmds = commands(args.workload, args.seed, threads=args.threads, tiny=args.tiny)
    tracer = Tracer() if args.trace else None
    outcomes = []
    spans = []
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        if tracer:
            tracer.install()
        try:
            for i, cmd in enumerate(cmds):
                began = time.monotonic()
                if cmd.cli is None:
                    outcomes.append(run_chain(cmd.config))
                else:
                    outcomes.append(run_cli(cmd, tmp, i))
                spans.append((began, time.monotonic()))
        finally:
            if tracer:
                tracer.uninstall()

    rows = []
    for cmd, (outcome, seconds), span in zip(cmds, outcomes, spans):
        try:
            problems = cmd.check(outcome)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        rows.append({"name": cmd.name, "stage": cmd.stage, "seconds": seconds, "span": span,
                     "bytes": outcome.get("bytes", 0), "problems": problems})
    result = {"ready": READY, "commands": rows,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        result["trace"] = tracer.summary()
        result["restored"] = tracer.restored()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
