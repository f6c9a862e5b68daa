#!/usr/bin/env python3
"""gaslab benchmark: end-to-end metrics of the real CLI path, per-layer
metrics from a traced run, and a correctness gate on every process.

    python3 perfbench/run.py --workload homog|lipschitz|solve \\
        --seed N --seconds S --trace 0|1

Each repeat runs the workload's gaslab command lines, each in a fresh
process (`--jobs 1`, BLAS/OpenMP threads pinned to 1), back to back.  Repeats
continue while the next one is expected to finish within S seconds (at least
one; with --trace 1 at least one traced and one untraced, alternating).

--trace 0 prints the end-to-end metrics as medians over the repeats; --trace 1
prints the per-layer metrics as medians over the traced repeats, plus the
tracing overhead (traced minus untraced wall time).  The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; attempted and
failed count gaslab processes, so error_rate = failed / attempted.

Counts that must repeat exactly (tracer.EXACT_COUNTS) and the report bytes
are compared across the repeats of a run and, through a ledger under
.bench_out/ledger keyed by a hash of the code and configs, across runs.
"""

import argparse
import compileall
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

import tracer
import workloads

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

# every process still running this long after the start is killed, so that a
# run ends within 180 s
RUN_CAP_S = 165.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "cell_steps_per_s": "1/s",
              "peak_rss_mb": "MB"}


def per_layer_unit(name):
    for suffix, unit in (("_us", "us"), ("_ns", "ns"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class Process:
    """Outcome of one gaslab process."""

    wall: float
    setup: float                # None when the process never reached a solve
    rss_mb: float
    record: dict                # None when the process wrote no record
    problems: list


def run_process(inv, traced, work, hard_end):
    shutil.rmtree(inv.out_dir, ignore_errors=True)
    record_path = os.path.join(work, "record.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), record_path,
           "1" if traced else "0", "--", *inv.argv]
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_ENV)
    with open(os.path.join(work, "gaslab.log"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, hard_end - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)

    problems = [] if code == 0 else [f"exit code {code}"]
    record = None
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    else:
        problems.append("no record written")
    if code == 0:
        try:
            problems += inv.check(inv.out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"output check raised {exc!r}")
    first = record and record["first_solve"]
    return Process(wall=t1 - t0, setup=first - t0 if first else None,
                   rss_mb=usage.ru_maxrss / 1024.0, record=record,
                   problems=problems)


class Repeat:
    def __init__(self, traced):
        self.traced = traced
        self.procs = []
        self.layers = None

    @property
    def wall(self):
        return sum(p.wall for p in self.procs)


def exact_counts(proc, traced):
    """Counts of one process that must repeat exactly."""
    counts = tracer.solve_counts(proc.record)
    counts.pop("cell_steps")
    if traced:
        lm = tracer.layer_metrics(proc.record)
        counts.update({k: lm[k] for k in tracer.EXACT_COUNTS})
    return counts


def compare(seen, key, value, what):
    """Record value under key on first sight; name it if it later differs."""
    if key not in seen:
        seen[key] = value
        return []
    if seen[key] == value:
        return []
    return [f"{what} differs between runs of one commit: {seen[key]} then {value}"]


def compare_counts(seen, name, counts):
    problems = []
    for k, v in counts.items():
        problems += compare(seen, f"{name}:{k}", v, k)
    return problems


def run_repeat(invs, traced, work, hard_end, seen):
    rep = Repeat(traced)
    for inv in invs:
        proc = run_process(inv, traced, work, hard_end)
        if not proc.problems:
            proc.problems += compare(seen, f"{inv.name}:digest", inv.output_digest(),
                                     f"{inv.name} report bytes")
            proc.problems += compare_counts(seen, inv.name, exact_counts(proc, traced))
        for p in proc.problems:
            print(f"FAIL {inv.name}: {p}")
        rep.procs.append(proc)
    if traced and all(p.record for p in rep.procs):
        total = {}
        for p in rep.procs:
            for k, v in tracer.layer_metrics(p.record).items():
                total[k] = total.get(k, 0) + v
        rep.layers = tracer.finish(total)
    return rep


def code_hash():
    """Identity of the program, its configs and the benchmark."""
    h = hashlib.sha256()
    for pattern in ("src/gaslab/*.py", "configs/*.json", "perfbench/*.py",
                    "perfbench/reference/*"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def ledger_check(path, seen, clean):
    """Compare this run's counts and digests with earlier runs of the same
    code; extend the ledger from a clean run."""
    old = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
    problems = []
    for key, value in seen.items():
        problems += compare(old, key, value, key)
    if clean and not problems:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(old, fh, indent=1, sort_keys=True)
    return problems


def spread(values):
    return f"median of {len(values)}; min {min(values):.6g}, max {max(values):.6g}"


def environment(args, code_id):
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": THREAD_ENV,
        "code": code_id,
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload in workloads.USES_SEED,
        "rss_source": "wait4 ru_maxrss of each gaslab process",
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()
    hard_end = started + RUN_CAP_S

    src = os.path.join(ROOT, "src", "gaslab")
    if not os.path.exists(os.path.join(src, "cli.py")):
        print(f"gaslab sources not found under {os.path.relpath(src, ROOT)}",
              file=sys.stderr)
        return 2
    compileall.compile_dir(src, quiet=1)
    code_id = code_hash()
    work = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        invs = workloads.invocations(args.workload, ROOT, args.seed, work)
        # fill the page cache with the interpreter, numpy and scipy
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                        "import gaslab.cli", os.path.dirname(src)],
                       env=dict(os.environ, **THREAD_ENV), check=True, timeout=60)
        print("env " + json.dumps(environment(args, code_id), sort_keys=True))

        budget_end = time.monotonic() + args.seconds
        seen = {}
        repeats = []
        while True:
            traced = bool(args.trace) and len(repeats) % 2 == 0
            repeats.append(run_repeat(invs, traced, work, hard_end, seen))
            have_both = not args.trace or len(repeats) >= 2
            shortest = min(r.wall for r in repeats)
            if time.monotonic() >= hard_end or (
                    have_both and time.monotonic() + shortest > budget_end):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    procs = [p for r in repeats for p in r.procs]
    attempted = len(procs)
    failed = sum(1 for p in procs if p.problems)
    seed_key = str(args.seed) if args.workload in workloads.USES_SEED else "shipped"
    ledger = os.path.join(OUT, "ledger", f"{code_id}-{args.workload}-{seed_key}.json")
    run_problems = ledger_check(ledger, seen, failed == 0)
    for p in run_problems:
        print(f"FAIL ledger: {p}")

    plain = [r for r in repeats if not r.traced]
    traced_reps = [r for r in repeats if r.traced]
    print(f"workload {args.workload}: {len(plain)} untraced and {len(traced_reps)} traced "
          f"repeats, {attempted} processes, {failed} failed, "
          f"error_rate {failed / attempted:g}")
    metrics = {}
    if not args.trace:
        samples = {
            "wall_s": [r.wall for r in plain],
            "setup_s": [p.setup for r in plain for p in r.procs if p.setup is not None],
            "cell_steps_per_s": [
                sum(tracer.solve_counts(p.record)["cell_steps"] for p in r.procs
                    if p.record) / r.wall for r in plain],
            "peak_rss_mb": [max(p.rss_mb for p in r.procs) for r in plain],
        }
        for name, unit in END_TO_END.items():
            values = samples[name]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
                print(f"  {name:<18} {metrics[name]['value']:.6g} {unit}  ({spread(values)})")
    else:
        layered = [r.layers for r in traced_reps if r.layers]
        for name in (layered[0] if layered else {}):
            values = [lm[name] for lm in layered]
            metrics[name] = {"value": statistics.median(values),
                             "unit": per_layer_unit(name)}
        overhead = (statistics.median(r.wall for r in traced_reps)
                    - statistics.median(r.wall for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        for name, m in metrics.items():
            print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
        print("  not measurable from outside the program: Picard sweeps per step, "
              "the solve_banded share of a solve, the reason a step was retried")

    correct = failed == 0 and not run_problems \
        and (bool(args.trace) or set(metrics) == set(END_TO_END))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
