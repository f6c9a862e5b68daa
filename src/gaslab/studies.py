"""Experiment orchestration: the continuous-dependence study (solution
differences against the itemized data-difference bound Delta) and the
homogenization-error study (averaged problem vs oscillating-data runs across
an eps sweep), with log-log rate fitting and machine-readable reports.

Rates are checked directionally: the bounds guarantee at-least decay rates,
so super-convergence never fails a threshold.  The only band check is the
continuous-dependence bound itself (slope of solution differences against
Delta in [0.9, 1.1]).
"""

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .calculus import i_bracket, mean_omega, primitive_at_edges, time_primitive
from .grid import Grid, du_centers, edges_to_centers
from .norms import (INF, h21star_majorant, h_minus_one, lqr_norm, per_row,
                    space_lq, time_lr, v2star_majorant, w11_time_norm)
from .problem import BoundaryData, require_valid, sample_field_times
from .solver import SchemeParams, solve
from .twoscale import OscillationSpec
from . import homogenize as hmg


class IncompatibleSpecs(ValueError):
    pass


class DegenerateFit(ValueError):
    pass


class ResolutionGuard(ValueError):
    pass


# acceptance-side calibration choices, not constants from any bound
DEFAULT_THRESHOLDS_HOMOG = {
    "eta_C0L2": ("ge", 0.9),
    "u_L2_supHm1": ("ge", 0.9),
    "theta_L2": ("ge", 0.9),
    "xe_Linf": ("ge", 0.9),
    "itsigma_C0L2": ("ge", 0.9),
    "eta_Linf": ("ge", 0.45),
    "u_Linf2": ("ge", 0.45),
    "theta_Linf2": ("ge", 0.45),
    "itsigma_CQ": ("ge", 0.6),
    "zeta_u_CQ": ("ge", 0.2),
    "zeta2_theta_CQ": ("ge", 0.2),
}

DEFAULT_THRESHOLDS_LIPSCHITZ = {
    "eta_C0L2": ("band", 0.9, 1.1),
    "u_L2": ("band", 0.9, 1.1),
    "u_supHm1": ("band", 0.9, 1.1),
    "theta_L2": ("band", 0.9, 1.1),
    "xe_Lqe_inf": ("band", 0.9, 1.1),
    "itsigma_C0L2": ("band", 0.9, 1.1),
    "u_Linf2": ("ge", 0.45),
    "theta_Linf2": ("ge", 0.45),
    "itsigma_CQ": ("ge", 0.6),
    "eta_Linf": ("ge", 0.45),
    "zeta_u_C0L2": ("ge", 0.45),
    "zeta2_theta_C0L2": ("ge", 0.45),
    "zeta_u_CQ": ("ge", 0.2),
    "zeta2_theta_CQ": ("ge", 0.2),
}

LIPSCHITZ_BOUND_COLUMNS = ("eta_C0L2", "u_L2", "u_supHm1", "theta_L2",
                             "xe_Lqe_inf", "itsigma_C0L2")
HOMOG_BOUND_COLUMNS = ("eta_C0L2", "u_L2_supHm1", "theta_L2", "xe_Linf",
                         "itsigma_C0L2")


@dataclass
class ConvergenceTable:
    param: str                     # "eps" or "delta"
    values: list
    columns: dict
    slopes: dict = field(default_factory=dict)
    floors: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    thresholds: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        _require_halving(self.values)


def _require_rows(n):
    if n < 4:
        raise ValueError(f"rate fit needs at least 4 rows, got {n}")


def _require_halving(values):
    v = np.asarray(values, dtype=float)
    if len(v) >= 2 and np.any(np.abs(v[1:] / v[:-1] - 0.5) > 1e-9):
        raise ValueError("sweep values must decrease by factors of 2")


def fit_rate(rows):
    """Least squares of log(e) against log(h) over (h, e) pairs.

    Returns (slope, intercept, half_width) with the confidence half-width
    from the residual variance.  Requires at least 4 rows; raises
    DegenerateFit if any error is at or below the solver-noise floor 1e-13.
    """
    rows = list(rows)
    _require_rows(len(rows))
    h = np.asarray([r[0] for r in rows], dtype=float)
    e = np.asarray([r[1] for r in rows], dtype=float)
    if np.any(e <= 1e-13):
        raise DegenerateFit("errors at the solver-noise floor; no rate to fit")
    lh, le = np.log(h), np.log(e)
    A = np.vstack([lh, np.ones_like(lh)]).T
    (slope, intercept), res, _, _ = np.linalg.lstsq(A, le, rcond=None)
    n = len(rows)
    rss = float(res[0]) if res.size else float(((A @ [slope, intercept] - le) ** 2).sum())
    sxx = float(((lh - lh.mean()) ** 2).sum())
    if n > 2 and sxx > 0:
        se = np.sqrt(rss / (n - 2) / sxx)
    else:
        se = 0.0
    return float(slope), float(intercept), float(1.96 * se)


def _config_hash(source):
    if source is None:
        return "unhashed"
    blob = json.dumps(source, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Delta: the itemized data-difference bound

def compute_E0(grid, u0, theta0, eta0, bc, cV, m):
    """Modified total initial energy at cell centers.

    The boundary interpolant removed from u0 is the volume-weighted affine
    profile between the initial boundary velocities (m = 1), the right
    boundary velocity (m = 2), or zero (m = 3).
    """
    u0 = np.asarray(u0, dtype=float)
    if m == 1:
        ie = primitive_at_edges(grid, np.asarray(eta0, dtype=float))
        V0 = ie[-1]
        u_gamma = ((V0 - ie) * bc.u0_t[0] + ie * bc.uX_t[0]) / V0
    elif m == 2:
        u_gamma = np.full(grid.nx + 1, bc.uX_t[0])
    elif m == 3:
        u_gamma = np.zeros(grid.nx + 1)
    else:
        raise ValueError(f"m must be 1, 2 or 3, got {m}")
    w0 = edges_to_centers(u0 - u_gamma)
    return 0.5 * w0 ** 2 + cV * np.asarray(theta0, dtype=float)


def compute_delta(base, perturbed, qe=INF):
    """Itemize the data-difference bound between two problem specs; the sum
    of the items is Delta.

    Every item is a norm of a data difference (degree-1 homogeneous); dual
    norms enter through their computable majorants.  The force-composition
    items are evaluated along the initial Eulerian map of the perturbed spec,
    held constant in time.

    The bound holds for any split beta = beta1 + beta2 and g_hat - g = g1 + g2;
    the items take beta1 = 0 and g2 = 0, so all of beta enters the beta2
    items and the whole force difference the g1 item.  The I_t I^<1> beta2
    item is dropped for qe = 2, where it is not needed.
    """
    g = base.grid
    if perturbed.grid != g:
        raise IncompatibleSpecs("specs must share the grid")
    if perturbed.gas != base.gas:
        raise IncompatibleSpecs("specs must share the gas parameters")
    if perturbed.bc.m != base.bc.m:
        raise IncompatibleSpecs("specs must share the bc family")
    m = base.bc.m
    cV = base.gas.cV
    tt = g.times()
    xc = g.centers()
    items = {}

    items["eta0_l2"] = float(space_lq(g, perturbed.eta0 - base.eta0, 2.0))
    items["u0_hm1"] = h_minus_one(g, np.asarray(perturbed.u0) - np.asarray(base.u0), m)
    E0b = compute_E0(g, base.u0, base.theta0, base.eta0, base.bc, cV, m)
    E0p = compute_E0(g, perturbed.u0, perturbed.theta0, perturbed.eta0,
                     perturbed.bc, cV, m)
    items["E0_hm13"] = h_minus_one(g, E0p - E0b, 3)

    pert = perturbed.perturbation
    beta_e = pert.beta_e_on(g)
    items["beta_e_lqe"] = float(space_lq(g, beta_e, qe))

    items["ub_w11"] = (w11_time_norm(perturbed.bc.u0_t - base.bc.u0_t, tt)
                       + w11_time_norm(perturbed.bc.uX_t - base.bc.uX_t, tt))
    items["pb_l1"] = float(time_lr(perturbed.bc.p0_t - base.bc.p0_t, tt, 1.0)
                           + time_lr(perturbed.bc.pX_t - base.bc.pX_t, tt, 1.0))
    items["pib_l1"] = float(time_lr(perturbed.bc.pi0_t - base.bc.pi0_t, tt, 1.0)
                            + time_lr(perturbed.bc.piX_t - base.bc.piX_t, tt, 1.0))

    # mass-equation perturbation: all of beta is beta2
    b2 = sample_field_times(pert.beta, tt, xc)
    items["beta1_v2star"] = 0.0  # a column perfbench/reference/lipschitz_study.csv pins
    items["i3beta2_linf2"] = lqr_norm(g, i_bracket(g, b2, 3), INF, 2.0, tt)
    if qe != 2.0:
        it_i1b2 = time_primitive(i_bracket(g, b2, 1), tt)
        items["it_i1beta2_lqe_inf"] = lqr_norm(g, it_i1b2, qe, INF, tt)
    items["mean_beta2_l1"] = float(time_lr(mean_omega(g, b2), tt, 1.0))

    gam = sample_field_times(pert.gamma, tt, xc)
    items["gamma_v2star"] = v2star_majorant(g, gam, tt)

    # force difference g_hat - g = g1 along the perturbed Eulerian map
    e0p = np.asarray(perturbed.eta0, dtype=float)
    chi = edges_to_centers(primitive_at_edges(g, e0p) + beta_e)

    def force_diff(f_hat, f):
        if f_hat is f:
            return np.zeros((len(tt), len(xc)))
        return sample_field_times(f_hat, tt, chi, xc) - sample_field_times(f, tt, chi, xc)

    items["g1_l1"] = lqr_norm(g, force_diff(perturbed.g, base.g), 1.0, 1.0, tt)
    items["ig2_l2"] = 0.0  # a column perfbench/reference/lipschitz_study.csv pins

    fdiff = force_diff(perturbed.f, base.f)
    items["f_h21star"] = h21star_majorant(g, fdiff, m, 1.0 / base.N, tt)

    return items


# ---------------------------------------------------------------------------
# Difference columns shared by both studies

# the zeta columns weight by zeta(t) = min(t / t0, 1), t0 = T0_FRAC * T
T0_FRAC = 0.2


def _zeta(times, T):
    t0 = T0_FRAC * T
    return np.minimum(np.asarray(times) / t0, 1.0)


# study columns, each a per-row space rule on one difference field, weighted
# by zeta**power, followed by a time rule:
#   (name, field, zeta power, space exponent or "qe" or "Hm1", time exponent)
DIFFERENCE_COLUMNS = (
    ("eta_C0L2", "eta", 0, 2.0, INF),
    ("u_L2", "u", 0, 2.0, 2.0),
    ("u_supHm1", "u", 0, "Hm1", INF),
    ("theta_L2", "theta", 0, 2.0, 2.0),
    ("xe_Lqe_inf", "x_e", 0, "qe", INF),
    ("xe_Linf", "x_e", 0, INF, INF),
    ("itsigma_C0L2", "it_sigma", 0, 2.0, INF),
    ("eta_Linf", "eta", 0, INF, INF),
    ("u_Linf2", "u", 0, INF, 2.0),
    ("theta_Linf2", "theta", 0, INF, 2.0),
    ("itsigma_CQ", "it_sigma", 0, INF, INF),
    ("zeta_u_C0L2", "u", 1, 2.0, INF),
    ("zeta2_theta_C0L2", "theta", 2, 2.0, INF),
    ("zeta_u_CQ", "u", 1, INF, INF),
    ("zeta2_theta_CQ", "theta", 2, INF, INF),
)


def difference_columns(grid, diff, times, m, qe):
    """Norm columns of solution differences.

    diff(rows) maps a slice of snapshot rows to a dict of the difference
    blocks of the fields (eta, u, theta, x_e, it_sigma) on those rows; the
    columns are reduced block by block (norms.per_row), so no temporary spans
    the whole trajectory.  u_L2_supHm1 is the sum of u_L2 and u_supHm1.
    """
    z = _zeta(times, grid.T)
    zeta_pow = {1: z, 2: z ** 2}

    def block(rows):
        d = diff(rows)
        out = []
        for _, fld, power, space, _ in DIFFERENCE_COLUMNS:
            y = d[fld] if power == 0 else zeta_pow[power][rows, None] * d[fld]
            if space == "Hm1":
                out.append(h_minus_one(grid, y, m))
            else:
                out.append(space_lq(grid, y, qe if space == "qe" else space))
        return out

    per = per_row(len(times), block)
    cols = {}
    for (col, _, _, _, r), vals in zip(DIFFERENCE_COLUMNS, per):
        cols[col] = float(time_lr(vals, times, r))
        if col == "u_supHm1":
            cols["u_L2_supHm1"] = cols["u_L2"] + cols["u_supHm1"]
    return cols


def _restrict_center(a):
    return 0.5 * (a[:, 0::2] + a[:, 1::2])


def _restrict_edge(a):
    return a[:, ::2]


# the bundle fields difference_columns reads, each with its restriction from
# the (nx, nt) grid to the (nx/2, nt/2) grid of the floor measurement
DIFFERENCE_FIELDS = {"eta": _restrict_center, "u": _restrict_edge, "theta": _restrict_center,
                     "x_e": _restrict_edge, "it_sigma": _restrict_center}


def _bundle_difference(a, b):
    """The diff(rows) reader of difference_columns for bundles a - b."""
    return lambda rows: {name: getattr(a, name)[rows] - getattr(b, name)[rows]
                         for name in DIFFERENCE_FIELDS}


def _fit_columns(columns, values, floors):
    """Log-log slope of each column against the sweep values.  A column at or
    below max(3 x its measured solver floor, 1e-13) is flagged degenerate and
    gets no slope; returns (slopes, flags, decades above the floor)."""
    slopes, flags, decades = {}, [], {}
    for col, vals in columns.items():
        floor = floors.get(col, 0.0)
        if max(vals) <= max(3.0 * floor, 1e-13):
            slopes[col] = None
            flags.append(f"degenerate:{col}")
            continue
        if floor > 0:
            decades[col] = float(np.log10(max(vals) / floor))
        try:
            s, _, hw = fit_rate(zip(values, vals))
            slopes[col] = (s, hw)
        except DegenerateFit:
            slopes[col] = None
            flags.append(f"degenerate:{col}")
    return slopes, flags, decades


def _stack(rows):
    """{column: [row[column] for each row]} over rows with the same keys."""
    return {col: [row[col] for row in rows] for col in rows[0]}


def check_thresholds(table):
    """Evaluate threshold rules against fitted slopes; returns (ok, messages).
    A table whose every threshold is skipped (degenerate columns only) checked
    nothing, so it is not ok."""
    ok = True
    messages = []
    for col, rule in table.thresholds.items():
        fit = table.slopes.get(col)
        if fit is None:
            messages.append(f"SKIP  {col}: degenerate column, no slope fitted")
            continue
        slope = fit[0]
        if rule[0] == "ge":
            passed = slope >= rule[1]
            want = f">= {rule[1]:g}"
        else:
            passed = rule[1] <= slope <= rule[2]
            want = f"in [{rule[1]:g}, {rule[2]:g}]"
        ok = ok and passed
        messages.append(f"{'PASS' if passed else 'FAIL'}  {col}: slope "
                        f"{slope:+.3f} (want {want})")
    if messages and all(m.startswith("SKIP") for m in messages):
        ok = False
    return ok, messages


# ---------------------------------------------------------------------------
# Continuous-dependence study

def run_lipschitz_study(base_spec, perturb, delta0, levels=5, scheme=SchemeParams(),
                        qe=INF, thresholds=None):
    """Solve the base problem and a family of perturbed problems scaled by the
    delta sweep delta0 * 2**-j, j < levels; tabulate solution-difference
    norms and the data bound Delta, and fit each column's log-log slope
    against Delta.

    perturb: callable (base_spec, delta) -> perturbed ProblemSpec.  A sweep
    shorter than the four rows a rate fit needs, a perturbation that perturb
    rejects, and a base or perturbed spec that problem.validate rejects raise
    ValueError before any solve.
    """
    deltas = [float(delta0) * 0.5 ** j for j in range(levels)]
    _require_rows(len(deltas))
    pspecs = [perturb(base_spec, d) for d in deltas]
    require_valid("base spec", base_spec)
    for d, pspec in zip(deltas, pspecs):
        require_valid(f"delta={d:g} spec", pspec)
    base_sol = solve(base_spec, scheme)
    g = base_spec.grid
    m = base_spec.bc.m

    members = []
    for pspec in pspecs:
        psol = solve(pspec, scheme)
        row = difference_columns(g, _bundle_difference(psol, base_sol), base_sol.times,
                                 m, qe)
        items = compute_delta(base_spec, pspec, qe=qe)
        row["Delta_total"] = float(sum(items.values()))
        row.update({"Delta_" + k: v for k, v in items.items()})
        # norms assumed bounded for the perturbed solution: recorded per run,
        # drift across the sweep is flagged but never fails the study
        row["hyp_u_Linf"] = float(np.abs(psol.u).max())
        du_l2 = per_row(len(psol.times),
                        lambda rows: space_lq(g, du_centers(g, psol.u[rows]), 2.0))
        row["hyp_Du_L2"] = float(time_lr(du_l2, psol.times, 2.0))
        members.append(row)
    columns = _stack(members)
    delta_totals = columns["Delta_total"]

    fitted = {c: v for c, v in columns.items() if not c.startswith(("Delta", "hyp_"))}
    slopes, flags, _ = _fit_columns(fitted, delta_totals, {})
    for name in ("hyp_u_Linf", "hyp_Du_L2"):
        vals = columns[name]
        if min(vals) > 0 and max(vals) / min(vals) > 1.5:
            flags.append(f"hypothesis-drift:{name}")

    ratio_spread = {}
    if min(delta_totals) > 0:
        for col in LIPSCHITZ_BOUND_COLUMNS:
            ratios = np.asarray(columns[col]) / np.asarray(delta_totals)
            if ratios.min() > 0:
                ratio_spread[col] = float(ratios.max() / ratios.min())

    meta = {
        "study": "lipschitz",
        "grid": f"nx={g.nx} nt={g.nt} X={g.X:g} T={g.T:g}",
        "config_hash": _config_hash(base_spec.source),
        "ratio_spread": ratio_spread,
    }
    return ConvergenceTable(
        param="delta", values=deltas, columns=columns, slopes=slopes,
        flags=flags, thresholds=dict(thresholds or DEFAULT_THRESHOLDS_LIPSCHITZ),
        metadata=meta)


# ---------------------------------------------------------------------------
# Homogenization study

def floor_spec(problem):
    """The averaged spec of `problem` on the (nx/2, nt/2) grid, its boundary
    series interpolated there: the coarse run of the floor measurement."""
    g = problem.grid
    if g.nx % 2 or g.nt % 2:
        raise ValueError("floor measurement needs even nx and nt")
    g2 = Grid(X=g.X, T=g.T, nx=g.nx // 2, nt=g.nt // 2)
    bc = BoundaryData(m=problem.bc.m, **{
        name + "_t": v for name, v in problem.bc.at(g.times(), g2.times()).items()})
    return replace(problem, grid=g2, bc=bc).averaged_spec()


def measure_floor(hs, coarse_spec, scheme, qe):
    """Solver self-convergence floor of the averaged problem: difference between
    the (nx, nt) run `hs.base`, solved with `scheme`, and the run of its
    floor_spec `coarse_spec` restricted to the coarse grid, in every study column."""
    scheme2 = replace(scheme, store_stride=max(1, scheme.store_stride // 2))
    fine = hs.base
    coarse = solve(coarse_spec, scheme2)

    # coarse step n is fine step 2n: pair the snapshots both runs stored
    _, ia, ib = np.intersect1d(fine.steps, 2 * coarse.steps, assume_unique=True,
                               return_indices=True)

    def diff(rows):
        return {name: restrict(getattr(fine, name)[ia[rows]]) - getattr(coarse, name)[ib[rows]]
                for name, restrict in DIFFERENCE_FIELDS.items()}

    return difference_columns(coarse_spec.grid, diff, coarse.times[ib], coarse_spec.bc.m,
                              qe)


def _homog_columns_for_eps(args):
    """Study columns of the realized spec at scale osc against the averaged
    run, the specific volume read off the reconstruction, which is evaluated
    one row block at a time.  One argument, the tuple
    (spec, hs, osc, scheme, qe), so a process pool can map it."""
    spec, hs, osc, scheme, qe = args
    eps_sol = solve(spec, scheme)
    base_minus_eps = _bundle_difference(hs.base, eps_sol)

    def diff(rows):
        d = base_minus_eps(rows)
        # eta is the reconstruction's, not the averaged run's: overwrite its block
        np.subtract(hmg.eta_epsilon(hs, osc, rows), eps_sol.eta[rows], out=d["eta"])
        return d

    return difference_columns(spec.grid, diff, hs.base.times, spec.bc.m, qe)


def run_homog_study(problem, eps_list, scheme=SchemeParams(), qe=INF, thresholds=None,
                    jobs=1):
    """Averaged problem once, oscillating problem per eps; tabulate the error
    columns against the measured solver floor and fit slopes against eps.

    Rejects an eps outside (0, 1] and an empty sweep, enforces the
    resolution guard eps_min / dx >= 16 so the averaging error is not
    confounded with the spatial discretization error, then rejects a sweep
    shorter than the four rows a rate fit needs or one that does not halve,
    and a realized, averaged or floor spec that problem.validate rejects, all
    before any solve.
    """
    g = problem.grid
    eps_list = [float(e) for e in eps_list]
    oscs = [OscillationSpec(eps=e) for e in eps_list]
    if not eps_list:                # no eps_min for the resolution guard
        _require_rows(0)
    if min(eps_list) / g.dx < 16.0 - 1e-12:
        raise ResolutionGuard(
            f"eps_min/dx = {min(eps_list) / g.dx:.3g} < 16; refine the grid")
    _require_rows(len(eps_list))
    _require_halving(eps_list)
    eps_specs = [problem.realized_spec(osc) for osc in oscs]
    for e, spec in zip(eps_list, eps_specs):
        require_valid(f"eps={e:g} spec", spec)
    coarse_spec = floor_spec(problem)
    require_valid("floor spec", coarse_spec)

    hs = hmg.solve_homogenized(problem, scheme)     # validates the averaged spec first
    floors = measure_floor(hs, coarse_spec, scheme, qe)

    args = [(s, hs, osc, scheme, qe) for s, osc in zip(eps_specs, oscs)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_homog_columns_for_eps, args))
    else:
        results = list(map(_homog_columns_for_eps, args))
    columns = _stack(results)

    slopes, flags, decades = _fit_columns(columns, eps_list, floors)
    for col in HOMOG_BOUND_COLUMNS:
        vals = columns[col]
        for k in range(len(vals) - 1):
            if vals[k + 1] > 1.25 * vals[k]:
                flags.append(f"nonmonotone:{col}@eps={eps_list[k + 1]:g}")

    meta = {
        "study": "homogenization",
        "grid": f"nx={g.nx} nt={g.nt} X={g.X:g} T={g.T:g}",
        "config_hash": _config_hash(problem.source),
        "decades_above_floor": decades,
    }
    return ConvergenceTable(
        param="eps", values=eps_list, columns=columns, slopes=slopes,
        floors=floors, flags=flags,
        thresholds=dict(thresholds or DEFAULT_THRESHOLDS_HOMOG), metadata=meta)


# ---------------------------------------------------------------------------
# Reports

def write_report(table, path):
    """CSV (one row per sweep value, one column per norm) plus a text summary
    with slopes, floors, flags and threshold pass/fail.  Output bytes depend
    only on the table contents, so reruns are byte-identical."""
    path = str(path)
    cols = list(table.columns.keys())
    lines = [",".join([table.param] + cols)]
    for i, v in enumerate(table.values):
        row = [f"{v:.17e}"] + [f"{table.columns[c][i]:.17e}" for c in cols]
        lines.append(",".join(row))
    csv_text = "\r\n".join(lines) + "\r\n"
    with open(path, "wb") as fh:
        fh.write(csv_text.encode())

    s = [f"study: {table.metadata.get('study', '?')}",
         f"grid: {table.metadata.get('grid', '?')}",
         f"config: {table.metadata.get('config_hash', '?')}",
         f"rows: {len(table.values)}" + ("" if table.values else " (no rows)")]
    s.append("")
    s.append("fitted slopes (log-log vs "
             + ("the data bound Delta)" if table.param == "delta"
                else table.param + ")"))
    for col in cols:
        if col.startswith(("Delta", "hyp_")):
            continue
        fit = table.slopes.get(col)
        if fit is None:
            s.append(f"  {col:<20} degenerate (at solver floor)")
        else:
            s.append(f"  {col:<20} {fit[0]:+.4f} +/- {fit[1]:.4f}")
    if table.floors:
        s.append("")
        s.append("solver self-convergence floor (measured, reported raw)")
        for col, v in table.floors.items():
            s.append(f"  {col:<20} {v:.3e}")
    if table.flags:
        s.append("")
        s.append("flags: " + ", ".join(table.flags))
    ok, messages = check_thresholds(table)
    s.append("")
    s.extend(messages)
    s.append("")
    s.append("RESULT: " + ("all thresholds met" if ok else "threshold failure"))
    spread = table.metadata.get("ratio_spread")
    if spread:
        s.append("")
        s.append("LHS/Delta spread across the sweep (boundedness proxy)")
        for col, r in spread.items():
            s.append(f"  {col:<20} x{r:.2f}")
    with open(path + ".summary.txt", "wb") as fh:
        fh.write(("\n".join(s) + "\n").encode())
    return ok
