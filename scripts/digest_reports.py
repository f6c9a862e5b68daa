#!/usr/bin/env python3
"""Run a fixed small set of gaslab commands into a temporary directory and
print one sha256 per output file, plus each command's exit code.

    python3 scripts/digest_reports.py

Every report gaslab writes is byte-deterministic, so two checkouts produce
the same lines exactly when their outputs agree byte for byte: diff the two
printouts.  Each command runs with the temporary directory as its working
directory and relative paths, so no absolute path reaches an output; its
standard output is digested as `<name>.stdout`.

Besides the shipped configs, `gaslab norms` runs once per `NAMED_NORMS` tag
(and with a few non-default keys) on a field that is nonzero at t = 0, so the
tags that read the first time slice see data.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from gaslab.norms import NAMED_NORMS  # noqa: E402

NORM_FIELD = "0.5 + x*(1 - x)*cos(3*t) + 0.2*sin(7*x)"
# (tag, keys) runs beyond each tag at its defaults
NORM_VARIANTS = [("Lqr", {"q": 3, "r": 3}), ("Lqr", {"q": 1.5, "r": "inf"}),
                 ("Lqr", {"q": 2, "r": "inf"}), ("Hm1", {"m": 1}), ("Hm1", {"m": 2}),
                 ("WHst", {"r": "inf"})]


def _config(name):
    with open(os.path.join(ROOT, "configs", name), encoding="utf-8") as fh:
        return json.load(fh)


def _commands():
    """(name, subcommand, config tree, arguments after the config path)."""
    m1 = _config("conservation_m1.json")
    m1["grid"] = {"nx": 128, "nt": 250}
    # every absent-data shortcut of the stepper off: perturbation terms and forces
    perturbed_m1 = json.loads(json.dumps(m1))
    perturbed_m1["perturbation"] = {"beta": "0.05*sin(2*3.141592653589793*x)*cos(3*t)",
                                    "gamma": "0.1*x*(1 - x)",
                                    "beta_e": "0.02*sin(3.141592653589793*x)"}
    perturbed_m1["data"].update(g="0.3*sin(3.141592653589793*chi)*cos(6*t)",
                                f="0.2*(1 + 0.5*cos(chi))")
    # a velocity pulse on a coarse step: its substeps are [2, 4, 4, 4, 2, 2, 1, 1],
    # so the retry path and the halved attempts are under the byte check
    halving_m1 = json.loads(json.dumps(m1))
    halving_m1.update(domain={"X": 1.0, "T": 0.25}, grid={"nx": 32, "nt": 8})
    halving_m1["data"] = {"eta0": 1.0, "u0": "2*sin(2*3.141592653589793*x)", "theta0": 1.0}
    halving_m1["scheme"] = {"store_stride": 1}
    # the same halvings with beta and gamma in (x, t): the inner substep times of a
    # halved step are sampled off the nominal step-end times
    perturbed_halving_m1 = json.loads(json.dumps(halving_m1))
    perturbed_halving_m1["perturbation"] = {
        "beta": "0.05*sin(2*3.141592653589793*x)*cos(3*t)", "gamma": "0.1*x*(1 - x)*(1 + t)"}
    forced_m2 = _config("pulse.json")
    forced_m2["grid"] = {"nx": 128, "nt": 200}
    forced_m2["bc"] = {"m": 2, "p0": "1 + 0.1*sin(6*t)", "uX": "0.03*sin(6*t)",
                       "pi0": "0.02*(1 - cos(6*t))", "piX": 0.0}
    forced_m2["data"].update(g="0.3*sin(3.141592653589793*chi)*cos(6*t)",
                             f="0.2*(1 + 0.5*cos(chi))")
    # kept rows past the dense window and a stride, in two row blocks (107 rows),
    # written every third kept row
    strided_m2 = json.loads(json.dumps(forced_m2))
    strided_m2.update(grid={"nx": 64, "nt": 400},
                      scheme={"store_stride": 4, "dense_steps": 8})
    homog = _config("homog_benchmark.json")
    homog.update(grid={"nx": 512, "nt": 256}, nxi=64,
                 scheme={"store_stride": 4, "dense_steps": 8})
    homog["study"]["eps_list"] = [0.25, 0.125, 0.0625, 0.03125]
    # a forced two-scale run puts the realized and cell-averaged forces, and a
    # constant one, in the Picard loop
    forced_homog = json.loads(json.dumps(homog))
    forced_homog["data"].update(
        g="0.2*sin(3.141592653589793*chi)*(1 + 0.5*step(xi - 0.5))", f="0.3")
    # the homogenize runs hold their --eps-list values in the study table as well,
    # so they print the same lines with the flag or without it
    homog_run = json.loads(json.dumps(homog))
    homog_run["study"]["eps_list"] = [0.125, 0.0625]
    forced_homog_run = json.loads(json.dumps(forced_homog))
    forced_homog_run["study"]["eps_list"] = [0.125]
    # without an nxi key: the data means and the averaged forces share the
    # default 256-node cell quadrature
    forced_homog_default_nxi = json.loads(json.dumps(forced_homog_run))
    del forced_homog_default_nxi["nxi"]
    # the other two bc families at nt = 200: 201 step times, three full row blocks
    # of the Delta items and a 9-row tail, with boundary-series patterns and a
    # finite qe (qe = 2 drops the primitive beta item)
    lipschitz = _config("lipschitz_benchmark.json")
    lipschitz["problem"]["grid"] = {"nx": 64, "nt": 200}
    lipschitz_m1_qe2 = json.loads(json.dumps(lipschitz))
    lipschitz_m1_qe2["problem"]["bc"] = {"m": 1, "u0": 0, "uX": 0, "pi0": 0, "piX": 0}
    lipschitz_m1_qe2["study"]["qe"] = 2
    patterns = lipschitz_m1_qe2["study"]["patterns"]
    del patterns["p0b"], patterns["pXb"]
    patterns.update(u0b="0.1*sin(3*t)", uXb="-0.1*t", pi0b="0.2*t")
    lipschitz_m2_qe3 = json.loads(json.dumps(lipschitz))
    lipschitz_m2_qe3["problem"]["bc"] = {"m": 2, "p0": 1, "uX": 0, "pi0": 0, "piX": 0}
    lipschitz_m2_qe3["study"]["qe"] = 3
    patterns = lipschitz_m2_qe3["study"]["patterns"]
    del patterns["pXb"]
    patterns.update(uXb="0.1*sin(2*t)", piXb="0.1*t")
    norm_runs = [(tag, {}) for tag in sorted(NAMED_NORMS)] + NORM_VARIANTS
    norm_cfgs = [dict(_config("norm_demo.json"), field=NORM_FIELD, norm=dict(keys, tag=tag))
                 for tag, keys in norm_runs]
    return [
        ("solve_pulse_m3", "solve", _config("pulse.json"), ["--stride", "4"]),
        ("solve_m1", "solve", m1, []),
        ("solve_forced_m2", "solve", forced_m2, ["--stride", "2"]),
        ("solve_perturbed_m1", "solve", perturbed_m1, ["--stride", "4"]),
        ("solve_halving_m1", "solve", halving_m1, []),
        ("solve_perturbed_halving_m1", "solve", perturbed_halving_m1, []),
        ("solve_strided_m2", "solve", strided_m2, ["--stride", "3"]),
        ("homogenize", "homogenize", homog_run, ["--eps-list", "0.125,0.0625", "--stride", "2"]),
        ("norms", "norms", _config("norm_demo.json"), []),
        ("study_homog", "study-homog", homog, []),
        # the process-pool path: its report must hash as the serial one does
        ("study_homog_jobs2", "study-homog", homog, ["--jobs", "2"]),
        ("homogenize_forced", "homogenize", forced_homog_run,
         ["--eps-list", "0.125", "--stride", "4"]),
        ("homogenize_forced_default_nxi", "homogenize", forced_homog_default_nxi,
         ["--eps-list", "0.125", "--stride", "4"]),
        ("study_homog_forced", "study-homog", forced_homog, []),
        ("study_lipschitz", "study-lipschitz", _config("lipschitz_benchmark.json"), []),
        ("study_lipschitz_m1_qe2", "study-lipschitz", lipschitz_m1_qe2, []),
        ("study_lipschitz_m2_qe3", "study-lipschitz", lipschitz_m2_qe3, []),
    ] + [(f"norms_{i:02d}_{cfg['norm']['tag']}", "norms", cfg, [])
         for i, cfg in enumerate(norm_cfgs)]


def main():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as work:
        for name, command, cfg, extra in _commands():
            with open(os.path.join(work, name + ".json"), "w", encoding="utf-8") as fh:
                json.dump(cfg, fh, indent=2, sort_keys=True)
            argv = [command, name + ".json"] + extra
            if command != "norms":
                argv += ["--out", name]
            run = subprocess.run([sys.executable, "-m", "gaslab.cli"] + argv, cwd=work,
                                 env=env, stdout=subprocess.PIPE, check=False)
            with open(os.path.join(work, name + ".stdout"), "wb") as fh:
                fh.write(run.stdout)
            print(f"exit {run.returncode}  {name}")
        for dirpath, dirnames, filenames in os.walk(work):
            dirnames.sort()
            for fname in sorted(filenames):
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"{digest}  {os.path.relpath(path, work)}")


if __name__ == "__main__":
    main()
