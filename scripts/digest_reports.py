#!/usr/bin/env python3
"""Run a fixed small set of gaslab commands into a temporary directory and
print one sha256 per output file, plus each command's exit code.

    python3 scripts/digest_reports.py

Every report gaslab writes is byte-deterministic, so two checkouts produce
the same lines exactly when their outputs agree byte for byte: diff the two
printouts.  Each command runs with the temporary directory as its working
directory and relative paths, so no absolute path reaches an output; its
standard output is digested as `<name>.stdout`.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _config(name):
    with open(os.path.join(ROOT, "configs", name), encoding="utf-8") as fh:
        return json.load(fh)


def _commands():
    """(name, subcommand, config tree, arguments after the config path)."""
    m1 = _config("conservation_m1.json")
    m1["grid"] = {"nx": 128, "nt": 250}
    forced_m2 = _config("pulse.json")
    forced_m2["grid"] = {"nx": 128, "nt": 200}
    forced_m2["bc"] = {"m": 2, "p0": "1 + 0.1*sin(6*t)", "uX": "0.03*sin(6*t)",
                       "pi0": "0.02*(1 - cos(6*t))", "piX": 0.0}
    forced_m2["data"].update(g="0.3*sin(3.141592653589793*chi)*cos(6*t)",
                             f="0.2*(1 + 0.5*cos(chi))")
    homog = _config("homog_benchmark.json")
    homog.update(grid={"nx": 512, "nt": 256}, nxi=64,
                 scheme={"store_stride": 4, "dense_steps": 8})
    homog["study"]["eps_list"] = [0.25, 0.125, 0.0625, 0.03125]
    return [
        ("solve_pulse_m3", "solve", _config("pulse.json"), ["--stride", "4"]),
        ("solve_m1", "solve", m1, []),
        ("solve_forced_m2", "solve", forced_m2, ["--stride", "2"]),
        ("homogenize", "homogenize", homog, ["--eps-list", "0.125,0.0625", "--stride", "2"]),
        ("norms", "norms", _config("norm_demo.json"), []),
        ("study_homog", "study-homog", homog, []),
        ("study_lipschitz", "study-lipschitz", _config("lipschitz_benchmark.json"), []),
    ]


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
