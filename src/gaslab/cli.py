"""Command-line entry points.

Subcommands: solve, homogenize, norms, study-homog, study-lipschitz.
Exit codes: 0 all requested thresholds met, 1 threshold failure, 2 runtime
error (bad config, solver abort, resolution guard, ...).
"""

import argparse
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


def _format_rows(t, *columns):
    """CSV rows (t, columns[0][i], columns[1][i], ...) with every value as
    %.17e, built by one % operation; the same bytes as f"{v:.17e}" per cell."""
    rows = np.column_stack((np.full(len(columns[0]), t), *columns))
    fmt = (",".join(["%.17e"] * rows.shape[1]) + "\n") * rows.shape[0]
    return fmt % tuple(rows.ravel().tolist())


def _write_snapshots(path, grid, bundle, stride=1):
    xc = grid.centers()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,eta,u,theta,sigma,pi\n")
        for n in range(0, len(bundle.times), stride):
            fh.write(_format_rows(bundle.times[n], xc, bundle.eta[n],
                                  edges_to_centers(bundle.u[n]), bundle.theta[n],
                                  bundle.sigma[n], edges_to_centers(bundle.pi[n])))


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
    xc = problem.grid.centers()
    for eps in eps_list:
        osc = OscillationSpec(eps=eps, a_eps=a_eps)
        eta_eps = hmg.eta_epsilon(hs, problem.eta0, osc)
        path = os.path.join(args.out, f"eta_recon_eps_{eps:g}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x,eta_recon\n")
            for n in range(0, len(hs.base.times), args.stride):
                fh.write(_format_rows(hs.base.times[n], xc, eta_eps[n]))
    print(f"homogenize: averaged run + {len(eps_list)} reconstructions -> {args.out}")
    return 0


def _cmd_norms(args):
    cfg = cfgmod.load_config(args.config)
    grid = cfgmod.build_grid(cfg)
    spec = cfg["norm"]
    tag = spec["tag"]
    if tag not in NAMED_NORMS:
        print(f"unknown norm tag '{tag}'; known: {sorted(NAMED_NORMS)}",
              file=sys.stderr)
        return 2
    entry = cfg["field"]
    fn = dsl.ExprFn(entry, ("x", "t")) if isinstance(entry, str) \
        else cfgmod.ConstFn(float(entry))
    tt = grid.times()
    w = sample_field_times(fn, tt, grid.centers())
    kw = {k: (float("inf") if v == "inf" else v)
          for k, v in spec.items() if k != "tag"}
    value = NAMED_NORMS[tag](grid, w, times=tt, **kw)
    print(f"{value:.17e}")
    return 0


def _cmd_study_homog(args):
    cfg = cfgmod.load_config(args.config)
    problem = cfgmod.build_two_scale_problem(cfg)
    scheme = cfgmod.build_scheme(cfg)
    st = cfg.get("study", {})
    eps_list = [float(e) for e in args.eps_list.split(",")] if args.eps_list \
        else [float(e) for e in st["eps_list"]]
    qe = float("inf") if str(st.get("qe", "inf")) == "inf" else float(st["qe"])
    table = studies.run_homog_study(
        problem, eps_list, scheme=scheme,
        a_eps=float(st.get("a_eps", 0.0)), qe=qe,
        t0_frac=float(st.get("t0_frac", 0.2)),
        thresholds=st.get("thresholds"),
        measure_floor_flag=bool(st.get("measure_floor", True)),
        jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "homog_study.csv")
    ok = studies.write_report(table, path)
    with open(path + ".summary.txt", "r", encoding="utf-8") as fh:
        print(fh.read())
    return 0 if ok else 1


def _cmd_study_lipschitz(args):
    cfg = cfgmod.load_config(args.config)
    base = cfgmod.build_problem(cfg["problem"])
    st = cfg["study"]
    scheme = cfgmod.build_scheme(cfg["problem"])
    deltas = [st["delta0"] * 0.5 ** j for j in range(int(st.get("levels", 5)))]
    patterns = st.get("patterns", {})
    qe = float("inf") if str(st.get("qe", "inf")) == "inf" else float(st["qe"])

    def perturb(spec, d):
        return cfgmod.perturbed_spec(spec, patterns, d)

    table = studies.run_lipschitz_study(
        base, perturb, deltas, scheme=scheme, qe=qe,
        t0_frac=float(st.get("t0_frac", 0.2)),
        thresholds=st.get("thresholds"))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "lipschitz_study.csv")
    ok = studies.write_report(table, path)
    with open(path + ".summary.txt", "r", encoding="utf-8") as fh:
        print(fh.read())
    return 0 if ok else 1


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--jobs", type=int, default=1, help="parallel solves")
    common.add_argument("--stride", type=int, default=1, help="snapshot stride")
    common.add_argument("--eps-list", default=None,
                        help="comma-separated eps values, overrides the config")
    ap = argparse.ArgumentParser(prog="gaslab")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve", "homogenize", "norms", "study-homog", "study-lipschitz"):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("config")
    args = ap.parse_args(argv)

    handler = {
        "solve": _cmd_solve,
        "homogenize": _cmd_homogenize,
        "norms": _cmd_norms,
        "study-homog": _cmd_study_homog,
        "study-lipschitz": _cmd_study_lipschitz,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, KeyError, OSError, dsl.ExprError, PositivityLoss,
            NonlinearDivergence, NonFiniteState) as exc:  # runtime failures: exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
