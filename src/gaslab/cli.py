"""Command-line entry points.

Subcommands: solve, homogenize, norms, study-homog, study-lipschitz.
Exit codes: 0 all requested thresholds met, 1 threshold failure, 2 runtime
error (bad config, solver abort, resolution guard, ...).
"""

import argparse
import inspect
import os
import sys

import numpy as np

from . import config as cfgmod
from . import dsl
from . import homogenize as hmg
from . import studies
from .grid import edges_to_centers
from .norms import NAMED_NORMS
from .problem import sample_field_times, validate
from .solver import (NonFiniteState, NonlinearDivergence, PositivityLoss, diagnostics,
                     solve)
from .twoscale import OscillationSpec


def _row_formatter(x):
    """rows(t, *columns): the CSV lines (t, x[i], columns[0][i], ...) with
    every value as %.17e, the same bytes as f"{v:.17e}" per cell.  x is
    formatted once here, t once per call and the columns by one % operation."""
    x_cells = np.array(["%.17e," % v for v in x.tolist()], dtype=object)

    def rows(t, *columns):
        cells = np.empty((len(x_cells), len(columns) + 1), dtype=object)
        cells[:, 0] = "%.17e," % t + x_cells
        cells[:, 1:] = np.column_stack(columns)
        fmt = ("%s" + ",".join(["%.17e"] * len(columns)) + "\n") * len(x_cells)
        return fmt % tuple(cells.ravel().tolist())

    return rows


def _write_snapshots(path, grid, bundle, stride=1):
    rows = _row_formatter(grid.centers())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,eta,u,theta,sigma,pi\n")
        for n in range(0, len(bundle.times), stride):
            fh.write(rows(bundle.times[n], bundle.eta[n], edges_to_centers(bundle.u[n]),
                          bundle.theta[n], bundle.sigma[n], edges_to_centers(bundle.pi[n])))


def _cmd_solve(args):
    cfg = cfgmod.load_config(args.config)
    spec = cfgmod.build_problem(cfg)
    problems = validate(spec)
    if problems:
        for p in problems:
            print(f"invalid config: {p}", file=sys.stderr)
        return 2
    scheme = cfgmod.build_scheme(cfg)
    sol = solve(spec, scheme)
    rep = diagnostics(sol, spec)
    os.makedirs(args.out, exist_ok=True)
    _write_snapshots(os.path.join(args.out, "snapshots.csv"), spec.grid, sol,
                     stride=args.stride)
    with open(os.path.join(args.out, "diagnostics.csv"), "w", encoding="utf-8") as fh:
        fh.write("quantity,value\n")
        fh.write(f"volume_residual,{rep.volume_residual:.17e}\n")
        fh.write(f"logvol_residual,{rep.logvol_residual:.17e}\n")
        fh.write(f"stress_repr_residual,{rep.stress_repr_residual:.17e}\n")
        fh.write(f"min_eta,{rep.positivity_margins[0]:.17e}\n")
        fh.write(f"min_theta,{rep.positivity_margins[1]:.17e}\n")
    print(f"solve: {len(sol.times)} snapshots -> {args.out}")
    print(f"  volume residual      {rep.volume_residual:.3e}")
    print(f"  logvol residual      {rep.logvol_residual:.3e}")
    print(f"  stress repr residual {rep.stress_repr_residual:.3e}")
    print(f"  positivity margins   eta {sol.min_eta:.4g}, theta {sol.min_theta:.4g}")
    print(f"  picard sweeps        {sol.picard_sweeps.mean():.3f} per step")
    return 0


def _cmd_homogenize(args):
    cfg = cfgmod.load_config(args.config)
    problem = cfgmod.build_two_scale_problem(cfg)
    scheme = cfgmod.build_scheme(cfg)
    eps_list = [float(e) for e in args.eps_list.split(",")] if args.eps_list \
        else [float(e) for e in cfg.get("study", {}).get("eps_list", [0.125])]
    hs = hmg.solve_homogenized(problem, scheme)
    os.makedirs(args.out, exist_ok=True)
    _write_snapshots(os.path.join(args.out, "averaged.csv"), problem.grid,
                     hs.base, stride=args.stride)
    a_eps = float(cfg.get("study", {}).get("a_eps", 0.0))
    rows = _row_formatter(problem.grid.centers())
    for eps in eps_list:
        osc = OscillationSpec(eps=eps, a_eps=a_eps)
        eta_eps = hmg.eta_epsilon(hs, osc)
        path = os.path.join(args.out, f"eta_recon_eps_{eps:g}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x,eta_recon\n")
            for n in range(0, len(hs.base.times), args.stride):
                fh.write(rows(hs.base.times[n], eta_eps[n]))
    print(f"homogenize: averaged run + {len(eps_list)} reconstructions -> {args.out}")
    return 0


def _cmd_norms(args):
    cfg = cfgmod.load_config(args.config)
    grid = cfgmod.build_grid(cfg)
    spec = cfg["norm"]
    tag = spec["tag"]
    if tag not in NAMED_NORMS:
        raise ValueError(f"unknown norm tag '{tag}'; known: {sorted(NAMED_NORMS)}")
    params = inspect.signature(NAMED_NORMS[tag]).parameters
    takes = [name for name, p in params.items()
             if p.kind is p.POSITIONAL_OR_KEYWORD and name not in ("grid", "w", "times")]
    kw = {k: (float("inf") if v == "inf" else v)
          for k, v in spec.items() if k != "tag"}
    for key in kw:
        if key not in takes:
            raise ValueError(f"norm '{tag}' takes no key '{key}'; it takes: {takes}")
    fn = cfgmod.field_entry(cfg["field"], ("x", "t"))
    tt = grid.times()
    w = sample_field_times(fn, tt, grid.centers())
    value = NAMED_NORMS[tag](grid, w, times=tt, **kw)
    print(f"{value:.17e}")
    return 0


def _qe(study):
    """The study's "qe" entry: a number or "inf" (the default)."""
    return float("inf") if str(study.get("qe", "inf")) == "inf" else float(study["qe"])


def _report(table, out_dir, name):
    """Write the study report to out_dir/name, print its summary and return
    the exit code: 0 when every threshold is met, 1 otherwise."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    ok = studies.write_report(table, path)
    with open(path + ".summary.txt", "r", encoding="utf-8") as fh:
        print(fh.read())
    return 0 if ok else 1


def _cmd_study_homog(args):
    cfg = cfgmod.load_config(args.config)
    problem = cfgmod.build_two_scale_problem(cfg)
    scheme = cfgmod.build_scheme(cfg)
    st = cfg.get("study", {})
    eps_list = [float(e) for e in args.eps_list.split(",")] if args.eps_list \
        else [float(e) for e in st["eps_list"]]
    table = studies.run_homog_study(
        problem, eps_list, scheme=scheme,
        a_eps=float(st.get("a_eps", 0.0)), qe=_qe(st),
        t0_frac=float(st.get("t0_frac", 0.2)),
        thresholds=st.get("thresholds"),
        measure_floor_flag=bool(st.get("measure_floor", True)),
        jobs=args.jobs)
    return _report(table, args.out, "homog_study.csv")


def _cmd_study_lipschitz(args):
    cfg = cfgmod.load_config(args.config)
    base = cfgmod.build_problem(cfg["problem"])
    st = cfg["study"]
    scheme = cfgmod.build_scheme(cfg["problem"])
    deltas = [st["delta0"] * 0.5 ** j for j in range(int(st.get("levels", 5)))]
    patterns = st.get("patterns", {})

    def perturb(spec, d):
        return cfgmod.perturbed_spec(spec, patterns, d)

    table = studies.run_lipschitz_study(
        base, perturb, deltas, scheme=scheme, qe=_qe(st),
        t0_frac=float(st.get("t0_frac", 0.2)),
        thresholds=st.get("thresholds"))
    return _report(table, args.out, "lipschitz_study.csv")


FLAGS = {
    "--out": {"default": "out", "help": "output directory"},
    "--jobs": {"type": int, "default": 1, "help": "parallel solves"},
    "--stride": {"type": int, "default": 1, "help": "snapshot stride"},
    "--eps-list": {"help": "comma-separated eps values, overrides the config"},
}

# each subcommand registers the flags it reads; study-lipschitz also accepts
# --jobs, which the benchmark harness passes to both studies, and ignores it
SUBCOMMANDS = {
    "solve": (_cmd_solve, ("--out", "--stride")),
    "homogenize": (_cmd_homogenize, ("--out", "--stride", "--eps-list")),
    "norms": (_cmd_norms, ()),
    "study-homog": (_cmd_study_homog, ("--out", "--jobs", "--eps-list")),
    "study-lipschitz": (_cmd_study_lipschitz, ("--out", "--jobs")),
}


def main(argv=None):
    ap = argparse.ArgumentParser(prog="gaslab")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
        sp.add_argument("config")
        sp.set_defaults(handler=handler)
    args = ap.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, dsl.ExprError, PositivityLoss,
            NonlinearDivergence, NonFiniteState) as exc:  # runtime failures: exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
