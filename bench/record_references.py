"""Record the reference outputs the benchmark checks against.

Runs every seeded choice of every workload once, with the configs that
``workloads.py`` builds and the runners of ``worker.py`` (``bcs.cli.main``,
and the library for the quick-start chain), and writes
``bench/references.json``.  Run it from the repository root, at the commit
whose outputs are to be trusted:

    python3 bench/record_references.py

It asserts that the recorded values reproduce the tier-1 frozen anchors
(``tests/oracles.py``) before writing anything.  m3 profile values are
stored with 13 significant digits, far inside their 5e-12 tolerance.
"""
from __future__ import annotations

import json
import math
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import oracles  # noqa: E402

import worker  # noqa: E402
import workloads as wl  # noqa: E402


def all_choices(slots):
    return sorted({x for slot in slots for x in slot})


def record() -> dict:
    threads = len(os.sched_getaffinity(0))
    refs = {"m3": {}, "criterion": {}, "vmu": {}, "tc0": {}, "dt": {}}
    with tempfile.TemporaryDirectory() as tmp:
        def run_cli(command: str, config: dict) -> dict:
            cmd = wl.Command(command, "", command, config, wl.cli_problems)
            outcome, _ = worker.run_cli(cmd, tmp, 0)
            problems = cmd.check(outcome)
            if problems:
                raise SystemExit(f"{command} {config}: {problems}")
            return outcome["report"]["results"]

        for bc in ("neumann", "dirichlet"):
            refs["m3"][bc] = {
                wl.key(step): [float(f"{v:.13g}") for _, v in
                               run_cli("m3-profile", wl.m3_config(bc, step, threads))["rows"]]
                for step in wl.M3_STEPS}
        mus = all_choices(wl.MU_SLOTS)
        for pot, bc in wl.CRITERION_CASES:
            sweep = run_cli("criterion", wl.criterion_config(pot, bc, mus, threads))["sweep"]
            refs["criterion"][f"{pot}/{bc}"] = {wl.key(r["mu"]): [r["value"], r["sign"]]
                                                for r in sweep}
        for pot in wl.VMU_CASES:
            refs["vmu"][pot] = {
                wl.key(mu): run_cli("vmu-spectrum", wl.vmu_config(pot, mu))["eigenvalues"]
                for mu in wl.VMU_MUS}
        lambdas = all_choices(wl.LAMBDA_SLOTS)
        for pot in wl.TC0_CASES:
            rows = run_cli("tc0", wl.tc0_config(pot, lambdas))["rows"]
            refs["tc0"][pot] = {wl.key(r["lambda"]): [r["Tc"], r["e_mu_m_mu_lambda"]]
                                for r in rows}
        for pot in wl.D1_CASES:
            for a in wl.AMPLITUDES:
                config = wl.dt_config(wl.amplitude_potential(pot, a), wl.D1_T_FACTORS)
                refs["dt"][f"{pot}/a={a!r}"] = {
                    wl.key(s["T"]): s["value"] for s in run_cli("dt-growth", config)["samples"]}
        temps = all_choices(wl.D2_T_SLOTS + ((wl.D2_ANCHOR,),))
        config = wl.dt_config(wl.POTENTIALS["gaussian2"], temps)
        refs["dt"]["gaussian2"] = {
            wl.key(s["T"]): s["value"] for s in run_cli("dt-growth", config)["samples"]}

    chains = {}
    for shift in wl.PROFILE_SHIFTS:
        chains[shift], _ = worker.run_chain(wl.chain_config(shift))
        if "error" in chains[shift]:
            raise SystemExit(f"quick-start chain: {chains[shift]['error']}")
    refs["chain"] = {"T_c": chains[wl.PROFILE_SHIFTS[0]]["T_c"],
                     "profile": {wl.key(s): out["profile"] for s, out in chains.items()}}
    return refs


def check_anchors(refs: dict) -> None:
    """The recorded values reproduce the tier-1 frozen literals."""
    def close(got, want, rel=0.0, abs_=0.0):
        if not math.isclose(got, want, rel_tol=rel, abs_tol=abs_):
            raise SystemExit(f"reference {got!r} disagrees with frozen {want!r}")

    for lam, tc in oracles.FROZEN_TC0_GAUSSIAN.items():
        if wl.key(lam) in refs["tc0"]["gaussian3"]:
            close(refs["tc0"]["gaussian3"][wl.key(lam)][0], tc, rel=wl.TOL_TC)
    for bc, ref in oracles.FROZEN_CRITERION_GAUSSIAN_MU1.items():
        close(refs["criterion"][f"gaussian3/{bc}"][wl.key(1.0)][0], ref["value"],
              abs_=wl.TOL_CRITERION)
    for (bc, x), ref in oracles.FROZEN_M3.items():
        close(refs["m3"][bc][wl.key(0.02)][round(x / 0.02)], ref, abs_=wl.TOL_M3)
    for T, ref in oracles.FROZEN_DT1.items():
        close(refs["dt"]["gaussian1/a=1.0"][wl.key(T)], ref, rel=wl.TOL_DT1)
    close(refs["dt"]["gaussian2"][wl.key(wl.D2_ANCHOR)], oracles.FROZEN_DT2_L1_T1E2,
          rel=wl.TOL_DT2_ANCHOR)


def compact_json(refs: dict) -> str:
    """Indented JSON with every list of plain values on one line."""
    text = json.dumps(refs, indent=1, sort_keys=True)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


def main() -> int:
    refs = record()
    check_anchors(refs)
    with open(wl.REFERENCES_PATH, "w", encoding="utf-8") as fh:
        fh.write(compact_json(refs))
    print(f"wrote {wl.REFERENCES_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
