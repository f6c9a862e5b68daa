"""Command-line entry points.

Subcommands: solve, homogenize, norms, study-homog, study-lipschitz.
Exit codes: 0 all requested thresholds met, 1 threshold failure, 2 runtime
error (bad config, solver abort, resolution guard, ...).
"""

import argparse
import inspect
import math
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


def _split(v):
    """Veltkamp's split: hi + lo == v exactly, each with at most 26 significant
    bits, so a product of two halves is exact."""
    hi = v * 134217729.0
    hi -= hi - v
    return hi, v - hi


def _pow10(p):
    """(least double >= 10**p, double nearest 10**p, double nearest 10**p minus
    that double), from exact integers: int / int is correctly rounded."""
    num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
    near = num / den
    near_num, near_den = near.as_integer_ratio()
    above = near_num * den >= num * near_den
    return (near if above else math.nextafter(near, math.inf), near,
            (num * near_den - near_num * den) / (den * near_den))


# Tables of _csv_bytes, indexed by a decimal exponent k at k + _K0.  Its fast
# path takes 1e-280 <= |v| <= 1e280, so k + 1 and 17 - k stay in the tables
# and no product below overflows or underflows.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_K0 = 282
_POW10 = np.array([_pow10(p) for p in range(-_K0, _K0 + 18)])
_POW10_FLOOR = _POW10[:2 * _K0 + 1, 0].copy()          # least double >= 10**k
_SCALE, _SCALE_REST = _POW10[:16:-1, 1:].T.copy()       # 10**(17 - k) as nearest + rest
_SCALE_HI, _SCALE_LO = _split(_SCALE)
del _POW10
_DIGIT_PAIRS = np.array([list(b"%02d" % i) for i in range(100)],
                        np.uint8).view(np.uint16).ravel()
# the exponent's sign, hundreds (NUL below 100), tens and units, as one uint32
_EXPONENT_BYTES = np.array([list((b"%+04d" if abs(k) >= 100 else b"%+03d\0") % k)
                            for k in range(-_K0, _K0 + 1)],
                           np.uint8).view(np.uint32).ravel()


def _csv_bytes(block):
    """The CSV lines of a (rows, cols) float block: the bytes of
    ",".join("%.17e" % v for v in row) + "\\n" for each row.

    A cell with 1e-280 <= |v| <= 1e280 is formatted in numpy.  Its exponent
    k = floor(log10|v|) comes from its binary exponent, made exact against the
    least double >= 10**k, and its 18 digits are D = round(|v| * 10**(17 - k)).
    That product is a double-double: Dekker's exact product of |v| with the
    double nearest 10**(17 - k), plus |v| times that double's residual; its
    error is below 2**-44, so D is exact unless the fraction lies within 2**-30
    of one half.  Those cells (every exact tie, which % rounds half to even),
    nan, inf and the other nonzero cells outside that range fall back to
    "%.17e" % v; +0 and -0 are written from the sign bit.  The temporaries
    take about 52 bytes per cell."""
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=float).ravel()
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    fallback = ~fast & (a != 0)
    a[~fast] = 1.0
    # a lies in [2**(e-1), 2**e), so k is the largest k with 10**k <= 2**(e-1)
    # (exact for every double) or one more
    k = np.frexp(a)[1] - 1.0
    k *= math.log10(2)
    k = np.floor(k, out=k).astype(np.intp)
    k += _K0
    k += a >= _POW10_FLOOR[k + 1]
    # ph + pl = a * _SCALE[k] exactly (Dekker's two-product); take with
    # mode="clip" writes into t without a buffered copy
    ph = _SCALE[k]
    ph *= a
    hi, lo = _split(a)
    del a
    t = _SCALE_HI[k]
    pl = hi * t
    pl -= ph
    t *= lo
    pl += t
    np.take(_SCALE_LO, k, out=t, mode="clip")
    t *= hi
    pl += t
    np.take(_SCALE_LO, k, out=t, mode="clip")
    t *= lo
    pl += t
    # the rest of a * 10**(17 - k) beyond ph, to within 2**-44
    np.take(_SCALE_REST, k, out=t, mode="clip")
    hi += lo
    t *= hi
    t += pl
    del lo, pl
    whole = np.floor(t, out=hi)
    t -= whole
    d = ph.astype(np.int64)
    del ph
    d += whole.astype(np.int64)
    del whole, hi
    d += t > 0.5
    t -= 0.5
    fallback |= np.abs(t, out=t) <= 2.0 ** -30
    del t
    up = d == 10 ** 18                  # rounded up to the next power of ten
    d[up] = 10 ** 17
    k += up
    d[~fast] = 0
    k[~fast] = _K0
    del fast, up

    # a cell is 26 bytes: the sign (NUL if none), d.ddddddddddddddddd, e, the
    # exponent's sign, hundreds (NUL below 100), tens and units, and the
    # separator; the NULs are dropped at the end
    cells = np.empty((rows * cols, 26), np.uint8)
    cells[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    cells[:, 20] = ord("e")
    cells[:, 21:25] = _EXPONENT_BYTES[k].view(np.uint8).reshape(-1, 4)
    cells[:, 25] = ord(",")
    del k
    # the digit pairs of D, least significant first, into bytes 2..19; then
    # the leading digit moves to byte 1 to make room for the point
    pairs = cells.view(np.uint16)
    q, r = np.empty_like(d), np.empty_like(d)
    for j in range(9, 0, -1):
        np.floor_divide(d, 100, out=q)
        np.multiply(q, 100, out=r)
        np.subtract(d, r, out=r)
        pairs[:, j] = _DIGIT_PAIRS[r]
        d, q = q, d
    del d, q, r, pairs
    cells[:, 1] = cells[:, 2]
    cells[:, 2] = ord(".")
    cells.reshape(rows, cols, 26)[:, -1, 25] = ord("\n")
    for i in np.flatnonzero(fallback):
        text = b"%.17e" % x[i]
        cells[i, :25] = 0
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)
    raw = cells.tobytes()
    del cells
    return raw.translate(None, b"\0")


def _write_snapshots(path, grid, bundle, stride=1):
    x = grid.centers()
    with open(path, "wb") as fh:
        fh.write(b"t,x,eta,u,theta,sigma,pi\n")
        for n in range(0, len(bundle.times), stride):
            fh.write(_csv_bytes(np.column_stack((
                np.full_like(x, bundle.times[n]), x, bundle.eta[n],
                edges_to_centers(bundle.u[n]), bundle.theta[n], bundle.sigma[n],
                edges_to_centers(bundle.pi[n])))))


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
        fh.write(f"energy_residual,{rep.energy_residual:.17e}\n")
        fh.write(f"min_eta,{sol.min_eta:.17e}\n")
        fh.write(f"min_theta,{sol.min_theta:.17e}\n")
    print(f"solve: {len(sol.times)} snapshots -> {args.out}")
    print(f"  volume residual      {rep.volume_residual:.3e}")
    print(f"  logvol residual      {rep.logvol_residual:.3e}")
    print(f"  stress repr residual {rep.stress_repr_residual:.3e}")
    print(f"  energy residual      {rep.energy_residual:.3e}")
    print(f"  positivity margins   eta {sol.min_eta:.4g}, theta {sol.min_theta:.4g}")
    print(f"  picard sweeps        {sol.picard_sweeps.mean():.3f} per step")
    return 0


def _cmd_homogenize(args):
    cfg = cfgmod.load_config(args.config)
    problem = cfgmod.build_two_scale_problem(cfg)
    scheme = cfgmod.build_scheme(cfg)
    study = cfgmod.read_table(cfg.get("study", {}), cfgmod.HOMOG_STUDY_KEYS, "study")
    eps_list = study.get("eps_list", [0.125]) if args.eps_list is None else args.eps_list
    oscillations = [OscillationSpec(eps=eps) for eps in eps_list]
    hs = hmg.solve_homogenized(problem, scheme)
    os.makedirs(args.out, exist_ok=True)
    _write_snapshots(os.path.join(args.out, "averaged.csv"), problem.grid,
                     hs.base, stride=args.stride)
    x = problem.grid.centers()
    kept = slice(None, None, args.stride)
    for osc in oscillations:
        eta_eps = hmg.eta_epsilon(hs, osc, kept)
        path = os.path.join(args.out, f"eta_recon_eps_{osc.eps:g}.csv")
        with open(path, "wb") as fh:
            fh.write(b"t,x,eta_recon\n")
            for t, eta_row in zip(hs.base.times[kept], eta_eps):
                fh.write(_csv_bytes(np.column_stack((np.full_like(x, t), x, eta_row))))
    print(f"homogenize: averaged run + {len(eps_list)} reconstructions -> {args.out}")
    return 0


def _cmd_norms(args):
    cfg = cfgmod.load_config(args.config)
    top = cfgmod.read_table(cfg, cfgmod.NORM_KEYS, "top-level", tuple(cfgmod.NORM_KEYS))
    grid = cfgmod.build_grid(top)
    # "tag" names the norm; every other key is a keyword argument it takes
    table = top["norm"]
    tag = table.get("tag") if isinstance(table, dict) else None
    norm = NAMED_NORMS.get(tag) if isinstance(tag, str) else None
    if norm is None:
        raise ValueError(f"norm key 'tag' cannot read {tag!r}: known tags are "
                         f"{sorted(NAMED_NORMS)}")
    readers = {name: cfgmod.number_or_inf
               for name, p in inspect.signature(norm).parameters.items()
               if p.kind is p.POSITIONAL_OR_KEYWORD and name not in ("grid", "w", "times")}
    kw = cfgmod.read_table(table, {"tag": str, **readers}, f"norm '{tag}'")
    del kw["tag"]
    tt = grid.times()
    w = sample_field_times(top["field"], tt, grid.centers())
    print(f"{norm(grid, w, times=tt, **kw):.17e}")
    return 0


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
    study = cfgmod.read_table(cfg.get("study", {}), cfgmod.HOMOG_STUDY_KEYS, "study",
                              ("eps_list",))
    table = studies.run_homog_study(problem, scheme=scheme, jobs=args.jobs, **study)
    return _report(table, args.out, "homog_study.csv")


def _cmd_study_lipschitz(args):
    cfg = cfgmod.load_config(args.config)
    top = cfgmod.read_table(cfg, cfgmod.LIPSCHITZ_KEYS, "top-level", ("problem", "study"))
    base = cfgmod.build_problem(top["problem"])
    scheme = cfgmod.build_scheme(top["problem"])
    study = cfgmod.read_table(top["study"], cfgmod.LIPSCHITZ_STUDY_KEYS, "study",
                              ("delta0", "patterns"))
    patterns = study.pop("patterns")

    def perturb(spec, d):
        return cfgmod.perturbed_spec(spec, patterns, d)

    table = studies.run_lipschitz_study(base, perturb, scheme=scheme, **study)
    return _report(table, args.out, "lipschitz_study.csv")


def _positive_int(text):
    """A --stride or --jobs value: an integer of at least 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _eps_list(text):
    """An --eps-list value: comma-separated numbers, read as a config list."""
    try:
        return cfgmod.float_list(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {text!r}: {exc}") from None


FLAGS = {
    "--out": {"default": "out", "help": "output directory"},
    "--jobs": {"type": _positive_int, "default": 1, "help": "parallel solves (>= 1)"},
    "--stride": {"type": _positive_int, "default": 1, "help": "snapshot stride (>= 1)"},
    "--eps-list": {"type": _eps_list,
                   "help": "comma-separated eps values, overrides the config"},
}

# each subcommand registers the flags it reads; study-lipschitz also accepts
# --jobs, which the benchmark harness passes to both studies, and ignores it
SUBCOMMANDS = {
    "solve": (_cmd_solve, ("--out", "--stride")),
    "homogenize": (_cmd_homogenize, ("--out", "--stride", "--eps-list")),
    "norms": (_cmd_norms, ()),
    "study-homog": (_cmd_study_homog, ("--out", "--jobs")),
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
    except (ValueError, OSError, dsl.ExprError, PositivityLoss,
            NonlinearDivergence, NonFiniteState) as exc:  # runtime failures: exit 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
