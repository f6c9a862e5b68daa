"""Workload inputs and the correctness gate of each gaslab invocation.

A workload is a list of gaslab command lines run back to back; one pass over
the list is one repeat.  Only `solve` draws its inputs from the seed: the two
studies run the shipped configs, because their check is the shipped pass
lines, and record the seed without using it.
"""

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

PI = "3.141592653589793"

# Report columns must match the values recorded at the commit that defined
# the benchmark to this relative tolerance (absolute 1e-12 for zero columns).
# It admits drift at the Picard-tolerance level (tol = 1e-10 on trajectories
# whose differences are >= 1e-5) and nothing larger.
REFERENCE_RTOL = 1e-5
REFERENCE_ATOL = 1e-12

# `gaslab solve` identity bounds: the m = 1 gas-volume identity is exact, so
# its residual is round-off; logvol and stress-representation residuals are
# consistent at scheme order; on seeds 0-2 they read <= 3.6e-6 and <= 5.2e-5.
VOLUME_ROUNDOFF = 1e-12
LOGVOL_BOUND = 1e-4
STRESS_BOUND = 1e-3

SOLVE_NX, SOLVE_NT, SOLVE_STRIDE = 512, 2000, 8


@dataclass
class Invocation:
    """One gaslab command line, the check of its outputs and the output files
    whose bytes must repeat across runs of one commit."""

    name: str
    argv: list
    out_dir: str
    check: object               # out_dir -> list of problems
    digest_files: tuple

    def output_digest(self):
        h = hashlib.sha256()
        for name in self.digest_files:
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()[:20]


# ---------------------------------------------------------------------------
# Studies: shipped configs, shipped pass lines, recorded reference columns

def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def check_study(report, reference):
    def check(out_dir):
        problems = []
        summary_path = os.path.join(out_dir, report + ".summary.txt")
        if not os.path.exists(summary_path):
            return [f"{report}.summary.txt not written"]
        with open(summary_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        verdicts = [ln for ln in lines if ln.startswith(("PASS", "FAIL", "SKIP"))]
        if not verdicts:
            problems.append("no threshold lines in the summary")
        problems += [f"threshold line not PASS: {ln}" for ln in verdicts
                     if not ln.startswith("PASS")]
        if "RESULT: all thresholds met" not in lines:
            problems.append("summary does not read 'RESULT: all thresholds met'")
        header, rows = _read_csv(os.path.join(out_dir, report))
        ref_header, ref_rows = _read_csv(reference)
        if header != ref_header or len(rows) != len(ref_rows):
            return problems + ["report columns or rows differ from the reference"]
        for row, ref in zip(rows, ref_rows):
            for col, v, r in zip(header, row, ref):
                if not abs(v - r) <= REFERENCE_ATOL + REFERENCE_RTOL * abs(r):
                    problems.append(f"{col} = {v!r} at {header[0]} = {row[0]:g}, "
                                    f"reference {r!r}")
        return problems
    return check


def homog_quick_config(root):
    """The shipped homogenization fixture at the laptop-scale grid of
    `scripts/run_studies.py --quick` (nx = nt = 1024, four eps levels, floor
    on), which fits the benchmark's per-run time."""
    with open(os.path.join(root, "configs", "homog_benchmark.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["grid"] = {"nx": 1024, "nt": 1024}
    cfg["scheme"]["store_stride"] = 8
    cfg["study"]["eps_list"] = [0.125, 0.0625, 0.03125, 0.015625]
    return cfg


def study(command, config, report, reference, work):
    out = os.path.join(work, "out")
    return [Invocation(command, [command, config, "--out", out, "--jobs", "1"],
                       out, check_study(report, reference),
                       (report, report + ".summary.txt"))]


# ---------------------------------------------------------------------------
# solve: seed-generated configs, bc families m = 1 and m = 2

def solve_config(seed, m):
    """A `gaslab solve` config with force terms g(chi,x,t), f(chi,x,t) and
    time-dependent boundary expressions.  Amplitudes come from the seed in
    narrow bands, so every seed does about the same work and validates."""
    rng = random.Random(f"gaslab-solve-{seed}-m{m}")

    def amp(lo, hi):
        return f"{rng.uniform(lo, hi):.6f}"

    w = amp(4.0, 8.0)
    if m == 1:
        bc = {"m": 1, "u0": f"{amp(0.02, 0.05)}*sin({w}*t)",
              "uX": f"-{amp(0.02, 0.05)}*sin({w}*t)"}
    elif m == 2:
        bc = {"m": 2, "p0": f"1 + {amp(0.05, 0.2)}*sin({w}*t)",
              "uX": f"{amp(0.02, 0.05)}*sin({w}*t)"}
    else:
        raise ValueError(f"solve workload uses m = 1 or 2, got {m}")
    bc["pi0"] = f"{amp(0.01, 0.05)}*(1 - cos({w}*t))"
    bc["piX"] = f"{amp(0.01, 0.05)}*(1 - cos({w}*t))"
    data = {
        "eta0": f"1 + {amp(0.1, 0.3)}*sin({PI}*x)",
        "u0": "0",
        "theta0": f"1 + {amp(0.05, 0.2)}*x",
        "g": f"{amp(0.1, 0.5)}*sin({PI}*chi)*cos({w}*t)",
        "f": f"{amp(0.1, 0.5)}*(1 + 0.5*sin(2*{PI}*x + t))*(1 + 0.5*cos(chi))",
    }
    return {"domain": {"X": 1.0, "T": 0.5},
            "grid": {"nx": SOLVE_NX, "nt": SOLVE_NT},
            "gas": {"nu": 0.1, "k": 1.0, "cV": 1.0, "lambda": 0.1},
            "bc": bc, "data": data, "N": 10.0, "scheme": {"store_stride": 1}}


def config_bytes(cfg):
    return (json.dumps(cfg, indent=2, sort_keys=True) + "\n").encode()


def check_solve(m, rows):
    def check(out_dir):
        diag_path = os.path.join(out_dir, "diagnostics.csv")
        if not os.path.exists(diag_path):
            return ["diagnostics.csv not written"]
        with open(diag_path, newline="", encoding="utf-8") as fh:
            diag = {k: float(v) for k, v in list(csv.reader(fh))[1:]}
        problems = []
        if m == 1 and not diag["volume_residual"] <= VOLUME_ROUNDOFF:
            problems.append(f"volume residual {diag['volume_residual']:.3e} "
                            f"above round-off {VOLUME_ROUNDOFF:g}")
        for key, bound in (("logvol_residual", LOGVOL_BOUND),
                           ("stress_repr_residual", STRESS_BOUND)):
            if not (math.isfinite(diag[key]) and diag[key] <= bound):
                problems.append(f"{key} {diag[key]:.3e} not finite or above {bound:g}")
        for key in ("min_eta", "min_theta"):
            if not diag[key] > 0.0:
                problems.append(f"positivity margin {key} = {diag[key]:.3e} <= 0")
        with open(os.path.join(out_dir, "snapshots.csv"), "rb") as fh:
            got = fh.read().count(b"\n") - 1
        if got != rows:
            problems.append(f"snapshots.csv has {got} data rows, expected {rows}")
        return problems
    return check


def solve_pair(seed, work):
    invs = []
    # store_stride 1 keeps all nt + 1 steps; the CLI writes every SOLVE_STRIDE-th
    rows = math.ceil((SOLVE_NT + 1) / SOLVE_STRIDE) * SOLVE_NX
    for m in (1, 2):
        cfg_path = os.path.join(work, f"solve_m{m}.json")
        with open(cfg_path, "wb") as fh:
            fh.write(config_bytes(solve_config(seed, m)))
        out = os.path.join(work, f"out_m{m}")
        invs.append(Invocation(
            f"solve m={m}",
            ["solve", cfg_path, "--out", out, "--stride", str(SOLVE_STRIDE)],
            out, check_solve(m, rows), ("diagnostics.csv", "snapshots.csv")))
    return invs


# ---------------------------------------------------------------------------

WHY = {
    "homog": "shipped homogenization fixture at the --quick grid (nx = nt = 1024): "
             "large-array Picard sweeps, the only user of twoscale/homogenize",
    "lipschitz": "shipped Lipschitz study verbatim (6 solves at nx = 256): per-call "
                 "overhead, BoundaryData.at, perturbation callables, compute_delta",
    "solve": "seeded gaslab solve for m = 1 and m = 2 with forces and time-dependent "
             "boundaries: DSL inside the Picard loop, validate, diagnostics, CSV output",
    "homog_fixture": "the headline fixture verbatim (nx = nt = 4096, about 90 s); "
                     "too long for a timed run, run by hand for the baseline record",
}

USES_SEED = {"solve"}


def invocations(workload, root, seed, work):
    """Write the workload's inputs under `work`; return its invocations."""
    here = os.path.dirname(os.path.abspath(__file__))
    ref = os.path.join(here, "reference")
    configs = os.path.join(root, "configs")
    if workload == "homog":
        cfg_path = os.path.join(work, "homog_quick.json")
        with open(cfg_path, "wb") as fh:
            fh.write(config_bytes(homog_quick_config(root)))
        return study("study-homog", cfg_path, "homog_study.csv",
                     os.path.join(ref, "homog_study.csv"), work)
    if workload == "homog_fixture":
        return study("study-homog", os.path.join(configs, "homog_benchmark.json"),
                     "homog_study.csv", os.path.join(ref, "homog_fixture_study.csv"), work)
    if workload == "lipschitz":
        return study("study-lipschitz", os.path.join(configs, "lipschitz_benchmark.json"),
                     "lipschitz_study.csv", os.path.join(ref, "lipschitz_study.csv"), work)
    if workload == "solve":
        return solve_pair(seed, work)
    raise ValueError(f"unknown workload {workload}")
