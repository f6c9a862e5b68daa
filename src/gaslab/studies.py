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
from functools import partial

import numpy as np

from .calculus import i_bracket, mean_omega, primitive_at_edges, time_primitive
from .grid import Grid, du_centers, edges_to_centers, sample_field
from .norms import (INF, ROW_BLOCK, h21star_majorant, h21star_rows, h_minus_one, space_lq,
                    time_lr, v2star_majorant, v2star_rows, w11_time_norm)
from .problem import DIFFERENCE_FIELDS, BoundaryData, require_valid
from .solver import SchemeParams, keep_rows, solve
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
    slopes: dict = field(default_factory=dict)     # fitted column -> (slope, half-width) | None
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


def _lr(r):
    """The time rule of an item with one value per row: their L^r(0,T) norm."""
    return lambda grid, N, values, times: float(time_lr(values[0], times, r))


# Delta's space-time items, each a per-row space rule on one sampled data
# difference followed by a time rule over the values of every step time:
#   (name, sampled difference, space rule (grid, m, qe, rows) -> [per-row values],
#    time rule (grid, N, [values on every step time], times) -> item)
# The sampled differences:
#   "beta"      beta at the cell centers (all of beta is beta2);
#   "gamma"     gamma at the cell centers, from the gamma_at call the
#               stepper makes at the cell edges;
#   "it_i1beta" I_t I^<1> beta, the time primitive of I^<1> of the "beta"
#               rows, carried from block to block;
#   "g", "f"    the force difference, perturbed minus base, at (chi, x) on
#               the cell centers, chi the perturbed spec's initial Eulerian
#               map held constant in time; not sampled for a force both
#               specs share;
#   None        never sampled: a literal 0 column the benchmark's reference
#               lipschitz_study.csv pins (the split takes beta1 = 0, g2 = 0).
# An item whose difference is not sampled is 0.0, but qe = 2 drops
# it_i1beta2_lqe_inf.
DELTA_ITEMS = (
    ("beta1_v2star", None, None, None),
    ("i3beta2_linf2", "beta", lambda g, m, qe, y: [space_lq(g, i_bracket(g, y, 3), INF)],
     _lr(2.0)),
    ("it_i1beta2_lqe_inf", "it_i1beta", lambda g, m, qe, y: [space_lq(g, y, qe)], _lr(INF)),
    ("mean_beta2_l1", "beta", lambda g, m, qe, y: [mean_omega(g, y)], _lr(1.0)),
    ("gamma_v2star", "gamma", lambda g, m, qe, y: v2star_rows(g, y),
     lambda g, N, values, times: v2star_majorant(values, times)),
    ("g1_l1", "g", lambda g, m, qe, y: [space_lq(g, y, 1.0)], _lr(1.0)),
    ("ig2_l2", None, None, None),
    ("f_h21star", "f", lambda g, m, qe, y: h21star_rows(g, y, m),
     lambda g, N, values, times: h21star_majorant(g, values, 1.0 / N, times)),
)


def compute_delta(base, perturbed, qe=INF):
    """Itemize the data-difference bound between two problem specs; the sum
    of the items is Delta.

    Every item is a norm of a data difference (degree-1 homogeneous); dual
    norms enter through their computable majorants.  The initial-data and
    boundary-series items are norms of whole sampled data.  The space-time
    items are the reduction of DELTA_ITEMS over blocks of ROW_BLOCK step
    times: each item's space rule reduces the rows of its sampled difference
    block by block, and its time rule the per-row values of every step time,
    so no temporary spans the (nt + 1, nx) grid.  A row sampled alone carries
    the bits its time alone gives, and a row's space norm the bits it has
    alone, so every item has the bits of the whole-array computation.

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

    chi = edges_to_centers(primitive_at_edges(g, np.asarray(perturbed.eta0, dtype=float))
                           + beta_e)
    samplers = {"beta": lambda t: pert.beta_at(xc, t[:, None]),
                "gamma": lambda t: pert.gamma_at(xc, t[:, None])}
    for name in ("g", "f"):
        hat, f = getattr(perturbed, name), getattr(base, name)
        if hat is not f:            # a force both specs share is not sampled
            samplers[name] = lambda t, hat=hat, f=f: (sample_field(hat, chi, xc, t[:, None])
                                                      - sample_field(f, chi, xc, t[:, None]))

    # each block samples one difference at a time, and its items reduce it
    # before the next is sampled
    per = {}

    def reduce_rows(diff, y):
        for name, item_diff, space_rule, _ in DELTA_ITEMS:
            if item_diff == diff:
                per.setdefault(name, []).append(space_rule(g, m, qe, y))

    carry = None
    for start in range(0, len(tt), ROW_BLOCK):
        t = tt[start:start + ROW_BLOCK]
        for diff, sample in samplers.items():
            y = sample(t)
            if diff == "beta" and qe != 2.0:
                i1b = i_bracket(g, y, 1)
                it_i1b = time_primitive(i1b, t, carry)
                carry = (t[-1], i1b[-1], it_i1b[-1])
                reduce_rows("it_i1beta", it_i1b)
            reduce_rows(diff, y)

    for name, diff, _, time_rule in DELTA_ITEMS:
        if name in per:
            items[name] = time_rule(g, base.N, [np.concatenate(v) for v in zip(*per[name])],
                                    tt)
        elif diff != "it_i1beta":
            items[name] = 0.0
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


def _difference_rows(grid, m, qe, times, d):
    """The per-row rule of the study columns: the difference blocks d of the
    fields (eta, u, theta, x_e, it_sigma) on snapshot rows at `times` map to
    one array per DIFFERENCE_COLUMNS entry of that column's space norm on
    each row.  Each is a norm of a linear image of d, so -d gives the same
    bits, and a member may subtract in either order."""
    z = _zeta(times, grid.T)[:, None]
    zeta_pow = {1: z, 2: z ** 2}
    out = []
    for _, fld, power, space, _ in DIFFERENCE_COLUMNS:
        y = d[fld] if power == 0 else zeta_pow[power] * d[fld]
        if space == "Hm1":
            out.append(h_minus_one(grid, y, m))
        else:
            out.append(space_lq(grid, y, qe if space == "qe" else space))
    return out


def _reduce_columns(per, times):
    """The study columns from _difference_rows' values on every row, joined
    along the last axis: each column's time rule over them.  u_L2_supHm1 is
    the sum of u_L2 and u_supHm1."""
    cols = {}
    for (col, _, _, _, r), vals in zip(DIFFERENCE_COLUMNS, per):
        cols[col] = float(time_lr(vals, times, r))
        if col == "u_supHm1":
            cols["u_L2_supHm1"] = cols["u_L2"] + cols["u_supHm1"]
    return cols


def _member_columns(args):
    """The study columns of one study member, the one place a member is
    solved and reduced.  solve streams the member's kept rows, and for each
    block difference(block) returns the times of the rows it pairs and the
    DIFFERENCE_FIELDS differences on those rows, reduced as they arrive, so
    no temporary spans the whole trajectory.  One argument, the tuple (spec,
    scheme, difference, qe), so a process pool can map it: _run_members maps
    it over a study's members, and measure_floor calls it once."""
    spec, scheme, difference, qe = args
    times, per = [], []

    def rows(block):
        t, d = difference(block)
        times.append(t)
        per.append(_difference_rows(spec.grid, spec.bc.m, qe, t, d))

    solve(spec, scheme, rows=rows)
    return _reduce_columns(np.concatenate(per, axis=-1), np.concatenate(times))


def _minus_stored(ref, block):
    """A member's block minus the stored run `ref` on the same rows."""
    return block.times, {name: getattr(block, name) - getattr(ref, name)[block.rows]
                         for name in DIFFERENCE_FIELDS}


def _minus_reconstruction(hs, osc, block):
    """An eps run's block minus the averaged run, its eta minus the
    reconstruction's at scale osc."""
    ref = {name: getattr(hs.base, name)[block.rows] for name in DIFFERENCE_FIELDS}
    ref["eta"] = hmg.eta_epsilon(hs, osc, block.rows)
    return block.times, {name: getattr(block, name) - r for name, r in ref.items()}


def _minus_restricted(fine, block):
    """The floor's coarse block minus the stored (nx, nt) run `fine`
    restricted to the coarse grid, on the coarse steps n whose step 2n `fine`
    stored.  `fine` stores its last step nt, so every 2n finds an index."""
    i = np.searchsorted(fine.steps, 2 * block.steps)
    keep = fine.steps[i] == 2 * block.steps
    return block.times[keep], {
        name: getattr(block, name)[keep] - restrict(getattr(fine, name)[i[keep]])
        for name, restrict in DIFFERENCE_FIELDS.items()}


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


def _run_members(args, jobs):
    """{column: [value per member]} over a study's members, each an argument
    tuple of _member_columns: the one place they are mapped, in order,
    serially or over `jobs` worker processes."""
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_member_columns, args))
    else:
        results = list(map(_member_columns, args))
    return {col: [row[col] for row in results] for col in results[0]}


def _table(study, param, values, columns, fit_values, source, thresholds, floors):
    """The ConvergenceTable of a sweep over `values`: every column but the
    Delta_ and hyp_ ones fitted against fit_values above `floors`, and the
    shared metadata: the grid and config of `source` (the base spec or the
    two-scale problem) and, with floors, the decades above them."""
    fitted = {c: v for c, v in columns.items() if not c.startswith(("Delta_", "hyp_"))}
    slopes, flags, decades = _fit_columns(fitted, fit_values, floors)
    g = source.grid
    meta = {"study": study, "grid": f"nx={g.nx} nt={g.nt} X={g.X:g} T={g.T:g}",
            "config_hash": _config_hash(source.source)}
    if floors:
        meta["decades_above_floor"] = decades
    return ConvergenceTable(param=param, values=values, columns=columns, slopes=slopes,
                            floors=floors, flags=flags, thresholds=dict(thresholds),
                            metadata=meta)


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

    perturb: callable delta -> perturbed ProblemSpec, as config.read_patterns
    builds it from a patterns table.  A sweep shorter than the four rows a
    rate fit needs, a perturbation that perturb rejects, and a base or
    perturbed spec that problem.validate rejects raise ValueError before any
    solve.
    """
    deltas = [float(delta0) * 0.5 ** j for j in range(levels)]
    _require_rows(len(deltas))
    pspecs = [perturb(d) for d in deltas]
    require_valid("base spec", base_spec)
    for d, pspec in zip(deltas, pspecs):
        require_valid(f"delta={d:g} spec", pspec)
    keep, kept = keep_rows(base_spec, scheme, DIFFERENCE_FIELDS)
    base_sol = replace(solve(base_spec, scheme, rows=keep), **kept)
    # the Delta items follow the first solve, so it starts at once, and lead
    # the members, so a spec compute_delta rejects stops the study early
    items = [compute_delta(base_spec, pspec, qe=qe) for pspec in pspecs]
    g = base_spec.grid

    # each perturbed run streams its rows against the stored base, and
    # gathers the per-row values of the norms assumed bounded for it
    hyps = [([], []) for _ in pspecs]

    def difference(hyp, block):
        hyp[0].append(np.abs(block.u).max())
        hyp[1].append(space_lq(g, du_centers(g, block.u), 2.0))
        return _minus_stored(base_sol, block)

    columns = _run_members([(pspec, scheme, partial(difference, hyp), qe)
                            for pspec, hyp in zip(pspecs, hyps)], jobs=1)
    delta_totals = columns["Delta_total"] = [float(sum(it.values())) for it in items]
    for k in items[0]:
        columns["Delta_" + k] = [it[k] for it in items]
    # recorded per run: drift across the sweep is flagged but never fails the
    # study; every member's kept times are the base's
    columns["hyp_u_Linf"] = [float(np.max(u_max)) for u_max, _ in hyps]
    columns["hyp_Du_L2"] = [float(time_lr(np.concatenate(du_l2), base_sol.times, 2.0))
                            for _, du_l2 in hyps]

    table = _table("lipschitz", "delta", deltas, columns, delta_totals, base_spec,
                   thresholds or DEFAULT_THRESHOLDS_LIPSCHITZ, floors={})
    for name in ("hyp_u_Linf", "hyp_Du_L2"):
        vals = columns[name]
        if min(vals) > 0 and max(vals) / min(vals) > 1.5:
            table.flags.append(f"hypothesis-drift:{name}")

    ratio_spread = table.metadata["ratio_spread"] = {}
    if min(delta_totals) > 0:
        for col in LIPSCHITZ_BOUND_COLUMNS:
            ratios = np.asarray(columns[col]) / np.asarray(delta_totals)
            if ratios.min() > 0:
                ratio_spread[col] = float(ratios.max() / ratios.min())
    return table


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
    the run of its floor_spec `coarse_spec` and the (nx, nt) run `hs.base`,
    solved with `scheme`, restricted to the coarse grid, in every study
    column.  The coarse run streams its rows, and each pairs on the steps
    both runs keep: coarse step n with fine step 2n."""
    scheme2 = replace(scheme, store_stride=max(1, scheme.store_stride // 2))
    return _member_columns((coarse_spec, scheme2, partial(_minus_restricted, hs.base), qe))


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

    columns = _run_members([(s, scheme, partial(_minus_reconstruction, hs, osc), qe)
                            for s, osc in zip(eps_specs, oscs)], jobs)

    table = _table("homogenization", "eps", eps_list, columns, eps_list, problem,
                   thresholds or DEFAULT_THRESHOLDS_HOMOG, floors)
    for col in HOMOG_BOUND_COLUMNS:
        vals = columns[col]
        for k in range(len(vals) - 1):
            if vals[k + 1] > 1.25 * vals[k]:
                table.flags.append(f"nonmonotone:{col}@eps={eps_list[k + 1]:g}")
    return table


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
    for col, fit in table.slopes.items():
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
