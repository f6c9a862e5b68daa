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
from .norms import (INF, c0l2_norm, h21star_majorant, h_minus_one, lqr_norm,
                    space_lq, sup_t_h_minus_one, time_lr, v2star_majorant,
                    w11_time_norm)
from .problem import BC_NAMES, BoundaryData, require_valid, sample_field_times
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
class DeltaBreakdown:
    """Itemized right-hand side of the continuous-dependence bound."""

    items: dict

    @property
    def total(self):
        return float(sum(self.items.values()))

    def __getitem__(self, key):
        return self.items[key]


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
    """Itemize the data-difference bound between two problem specs.

    Every item is a norm of a data difference (degree-1 homogeneous); dual
    norms enter through their computable majorants.  The force-composition
    items are evaluated along the initial Eulerian map of the perturbed spec,
    held constant in time.

    The I_t I^<1> beta2 item is dropped for qe = 2, where it is not needed.
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

    # mass-equation perturbation, split beta = beta1 + beta2 (caller's choice;
    # beta1 = 0 when no split is declared)
    b1 = b2 = np.zeros((len(tt), len(xc)))
    if pert.beta is not None:
        if pert.beta1 is not None or pert.beta2 is not None:
            b1 = sample_field_times(pert.beta1, tt, xc)
            b2 = sample_field_times(pert.beta2, tt, xc)
        else:
            b2 = sample_field_times(pert.beta, tt, xc)
    items["beta1_v2star"] = v2star_majorant(g, b1, tt)
    items["i3beta2_linf2"] = lqr_norm(g, i_bracket(g, b2, 3), INF, 2.0, tt)
    if qe != 2.0:
        it_i1b2 = time_primitive(i_bracket(g, b2, 1), tt)
        items["it_i1beta2_lqe_inf"] = lqr_norm(g, it_i1b2, qe, INF, tt)
    items["mean_beta2_l1"] = float(time_lr(mean_omega(g, b2), tt, 1.0))

    gam = sample_field_times(pert.gamma, tt, xc)
    items["gamma_v2star"] = v2star_majorant(g, gam, tt)

    # force differences g_hat - g = g1 + g2 along the perturbed Eulerian map
    e0p = np.asarray(perturbed.eta0, dtype=float)
    chi = edges_to_centers(primitive_at_edges(g, e0p) + beta_e)

    def force_diff(f_hat, f):
        if f_hat is f:
            return np.zeros((len(tt), len(xc)))
        return sample_field_times(f_hat, tt, chi, xc) - sample_field_times(f, tt, chi, xc)

    if pert.g1 is not None or pert.g2 is not None:
        g1 = sample_field_times(pert.g1, tt, chi, xc)
        g2 = sample_field_times(pert.g2, tt, chi, xc)
    else:
        g1 = force_diff(perturbed.g, base.g)
        g2 = np.zeros((len(tt), len(xc)))
    items["g1_l1"] = lqr_norm(g, g1, 1.0, 1.0, tt)
    items["ig2_l2"] = lqr_norm(g, i_bracket(g, g2, m), 2.0, 2.0, tt)
    if m == 3:
        items["ig2_l2"] += float(time_lr(mean_omega(g, g2), tt, 1.0))

    fdiff = force_diff(perturbed.f, base.f)
    items["f_h21star"] = h21star_majorant(g, fdiff, m, 1.0 / base.N, tt)

    return DeltaBreakdown(items=items)


# ---------------------------------------------------------------------------
# Difference columns shared by both studies

def _zeta(times, T, t0_frac):
    t0 = t0_frac * T
    return np.minimum(np.asarray(times) / t0, 1.0)


def difference_columns(grid, d, times, m, qe, t0_frac=0.2):
    """Norm columns of solution differences.

    d maps field names (eta, u, theta, x_e, it_sigma) to difference arrays on
    the snapshot times.
    """
    z = _zeta(times, grid.T, t0_frac)
    cols = {}
    cols["eta_C0L2"] = c0l2_norm(grid, d["eta"])
    cols["u_L2"] = lqr_norm(grid, d["u"], 2.0, 2.0, times)
    cols["u_supHm1"] = sup_t_h_minus_one(grid, d["u"], m)
    cols["u_L2_supHm1"] = cols["u_L2"] + cols["u_supHm1"]
    cols["theta_L2"] = lqr_norm(grid, d["theta"], 2.0, 2.0, times)
    cols["xe_Lqe_inf"] = lqr_norm(grid, d["x_e"], qe, INF, times)
    cols["xe_Linf"] = lqr_norm(grid, d["x_e"], INF, INF, times)
    cols["itsigma_C0L2"] = c0l2_norm(grid, d["it_sigma"])
    cols["eta_Linf"] = float(np.abs(d["eta"]).max())
    cols["u_Linf2"] = lqr_norm(grid, d["u"], INF, 2.0, times)
    cols["theta_Linf2"] = lqr_norm(grid, d["theta"], INF, 2.0, times)
    cols["itsigma_CQ"] = float(np.abs(d["it_sigma"]).max())
    cols["zeta_u_C0L2"] = c0l2_norm(grid, z[:, None] * d["u"])
    cols["zeta2_theta_C0L2"] = c0l2_norm(grid, (z ** 2)[:, None] * d["theta"])
    cols["zeta_u_CQ"] = float(np.abs(z[:, None] * d["u"]).max())
    cols["zeta2_theta_CQ"] = float(np.abs((z ** 2)[:, None] * d["theta"]).max())
    return cols


def _bundle_difference(a, b):
    return {"eta": a.eta - b.eta, "u": a.u - b.u, "theta": a.theta - b.theta,
            "x_e": a.x_e - b.x_e, "it_sigma": a.it_sigma - b.it_sigma}


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


def check_thresholds(table):
    """Evaluate threshold rules against fitted slopes; returns (ok, messages)."""
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
    return ok, messages


# ---------------------------------------------------------------------------
# Continuous-dependence study

def run_lipschitz_study(base_spec, perturb, deltas, scheme=SchemeParams(), qe=INF,
                        t0_frac=0.2, thresholds=None):
    """Solve the base problem and a family of perturbed problems scaled by the
    delta sweep; tabulate solution-difference norms and the data bound Delta,
    and fit each column's log-log slope against Delta.

    perturb: callable (base_spec, delta) -> perturbed ProblemSpec.  A sweep
    shorter than the four rows a rate fit needs or one that does not halve,
    a perturbation that perturb rejects, and a base or perturbed spec that
    problem.validate rejects raise ValueError before any solve.
    """
    deltas = [float(d) for d in deltas]
    _require_rows(len(deltas))
    _require_halving(deltas)
    pspecs = [perturb(base_spec, d) for d in deltas]
    require_valid("base spec", base_spec)
    for d, pspec in zip(deltas, pspecs):
        require_valid(f"delta={d:g} spec", pspec)
    base_sol = solve(base_spec, scheme)
    g = base_spec.grid
    m = base_spec.bc.m

    columns = {}
    delta_totals = []
    item_cols = {}
    hyp_cols = {"hyp_u_Linf": [], "hyp_Du_L2": []}
    for pspec in pspecs:
        psol = solve(pspec, scheme)
        diff = _bundle_difference(psol, base_sol)
        cols = difference_columns(g, diff, base_sol.times, m, qe, t0_frac)
        for k, v in cols.items():
            columns.setdefault(k, []).append(v)
        br = compute_delta(base_spec, pspec, qe=qe)
        delta_totals.append(br.total)
        for k, v in br.items.items():
            item_cols.setdefault("Delta_" + k, []).append(v)
        # norms assumed bounded for the perturbed solution: recorded per run,
        # drift across the sweep is flagged but never fails the study
        hyp_cols["hyp_u_Linf"].append(float(np.abs(psol.u).max()))
        hyp_cols["hyp_Du_L2"].append(
            lqr_norm(g, du_centers(g, psol.u), 2.0, 2.0, psol.times))

    columns["Delta_total"] = delta_totals
    columns.update(item_cols)
    columns.update(hyp_cols)

    fitted = {c: v for c, v in columns.items() if not c.startswith(("Delta", "hyp_"))}
    slopes, flags, _ = _fit_columns(fitted, delta_totals, {})
    for name, vals in hyp_cols.items():
        if min(vals) > 0 and max(vals) / min(vals) > 1.5:
            flags.append(f"hypothesis-drift:{name}")

    ratio_spread = {}
    for col in LIPSCHITZ_BOUND_COLUMNS:
        vals = np.asarray(columns[col])
        ratios = vals / np.asarray(delta_totals)
        if ratios.min() > 0:
            ratio_spread[col] = float(ratios.max() / ratios.min())

    meta = {
        "study": "lipschitz",
        "grid": f"nx={g.nx} nt={g.nt} X={g.X:g} T={g.T:g}",
        "m": m, "qe": str(qe),
        "config_hash": _config_hash(base_spec.source),
        "ratio_spread": ratio_spread,
    }
    return ConvergenceTable(
        param="delta", values=deltas, columns=columns, slopes=slopes,
        flags=flags, thresholds=dict(thresholds or DEFAULT_THRESHOLDS_LIPSCHITZ),
        metadata=meta)


# ---------------------------------------------------------------------------
# Homogenization study

def _restrict_center(a):
    return 0.5 * (a[:, 0::2] + a[:, 1::2])


def _restrict_edge(a):
    return a[:, ::2]


def measure_floor(hs, scheme, m, qe, t0_frac=0.2):
    """Solver self-convergence floor of the averaged problem: difference
    between the (nx, nt) run `hs.base`, solved with `scheme`, and the
    (nx/2, nt/2) run restricted to the coarse grid, in every study column."""
    problem = hs.problem
    g = problem.grid
    if g.nx % 2 or g.nt % 2:
        raise ValueError("floor measurement needs even nx and nt")
    g2 = Grid(X=g.X, T=g.T, nx=g.nx // 2, nt=g.nt // 2)
    coarse_problem = replace(problem, grid=g2, bc=_rebuild_bc(problem.bc, g, g2))
    scheme2 = replace(scheme, store_stride=max(1, scheme.store_stride // 2))
    fine = hs.base
    coarse = solve(coarse_problem.averaged_spec(), scheme2)

    # coarse step n is fine step 2n: pair the snapshots both runs stored
    _, ia, ib = np.intersect1d(fine.steps, 2 * coarse.steps, assume_unique=True,
                               return_indices=True)
    d = {
        "eta": _restrict_center(fine.eta[ia]) - coarse.eta[ib],
        "u": _restrict_edge(fine.u[ia]) - coarse.u[ib],
        "theta": _restrict_center(fine.theta[ia]) - coarse.theta[ib],
        "x_e": _restrict_edge(fine.x_e[ia]) - coarse.x_e[ib],
        "it_sigma": _restrict_center(fine.it_sigma[ia]) - coarse.it_sigma[ib],
    }
    return difference_columns(g2, d, coarse.times[ib], m, qe, t0_frac)


def _rebuild_bc(bc, g_old, g_new):
    told, tnew = g_old.times(), g_new.times()
    return BoundaryData(m=bc.m, **{
        name + "_t": np.interp(tnew, told, getattr(bc, name + "_t")) for name in BC_NAMES})


def _homog_columns_for_eps(args):
    """Study columns of the realized spec at scale osc against the averaged
    run, the specific volume read off the reconstruction.  One argument, the
    tuple (spec, hs, osc, scheme, qe, t0_frac), so a process pool can map it."""
    spec, hs, osc, scheme, qe, t0_frac = args
    eps_sol = solve(spec, scheme)
    d = _bundle_difference(hs.base, eps_sol)
    # eta is read off the reconstruction, into the buffer d already holds
    np.subtract(hmg.eta_epsilon(hs, osc), eps_sol.eta, out=d["eta"])
    return difference_columns(spec.grid, d, hs.base.times, spec.bc.m, qe, t0_frac)


def run_homog_study(problem, eps_list, scheme=SchemeParams(), a_eps=0.0, qe=INF,
                    t0_frac=0.2, thresholds=None, measure_floor_flag=True,
                    jobs=1):
    """Averaged problem once, oscillating problem per eps; tabulate the error
    columns and fit slopes against eps.

    Enforces the resolution guard eps_min / dx >= 16 so the averaging error
    is not confounded with the spatial discretization error, then rejects a
    sweep shorter than the four rows a rate fit needs or one that does not
    halve, and a realized or averaged spec that problem.validate rejects,
    all before any solve.
    """
    g = problem.grid
    eps_list = [float(e) for e in eps_list]
    if min(eps_list) / g.dx < 16.0 - 1e-12:
        raise ResolutionGuard(
            f"eps_min/dx = {min(eps_list) / g.dx:.3g} < 16; refine the grid")
    _require_rows(len(eps_list))
    _require_halving(eps_list)
    oscs = [OscillationSpec(eps=e, a_eps=a_eps) for e in eps_list]
    eps_specs = [problem.realized_spec(osc) for osc in oscs]
    for e, spec in zip(eps_list, eps_specs):
        require_valid(f"eps={e:g} spec", spec)

    hs = hmg.solve_homogenized(problem, scheme)     # validates the averaged spec first
    m = problem.bc.m

    floors = {}
    if measure_floor_flag:
        floors = measure_floor(hs, scheme, m, qe, t0_frac)

    columns = {}
    args = [(s, hs, osc, scheme, qe, t0_frac) for s, osc in zip(eps_specs, oscs)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_homog_columns_for_eps, args))
    else:
        results = list(map(_homog_columns_for_eps, args))
    for cols in results:
        for k, v in cols.items():
            columns.setdefault(k, []).append(v)

    slopes, flags, decades = _fit_columns(columns, eps_list, floors)
    for col in HOMOG_BOUND_COLUMNS:
        vals = columns[col]
        for k in range(len(vals) - 1):
            if vals[k + 1] > 1.25 * vals[k]:
                flags.append(f"nonmonotone:{col}@eps={eps_list[k + 1]:g}")

    meta = {
        "study": "homogenization",
        "grid": f"nx={g.nx} nt={g.nt} X={g.X:g} T={g.T:g}",
        "m": m, "qe": str(qe), "a_eps": a_eps,
        "config_hash": _config_hash(problem.source),
        "decades_above_floor": decades,
    }
    return ConvergenceTable(
        param="eps", values=eps_list, columns=columns, slopes=slopes,
        floors=floors, flags=flags,
        thresholds=dict(thresholds or DEFAULT_THRESHOLDS_HOMOG),
        metadata=meta)


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
