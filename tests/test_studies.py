import tracemalloc
from dataclasses import fields, replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from gaslab import config as cfgmod
from gaslab import homogenize as hmg
from gaslab import studies
from gaslab.calculus import i_bracket, mean_omega, primitive_at_edges, time_primitive
from gaslab.grid import Grid, GasParams, du_centers, edges_to_centers
from gaslab.norms import (INF, NAMED_NORMS, ROW_BLOCK, V2STAR_PAIRS, h_minus_one, space_lq,
                          time_lr, w11_time_norm)
from gaslab.problem import (ACTIVE_BC, BoundaryData, PerturbationSpec, ProblemSpec,
                            sample_field_times)
from gaslab.solver import SchemeParams, _snapshot_indices, solve
from gaslab.twoscale import OscillationSpec
from gaslab.studies import (ConvergenceTable, DegenerateFit, IncompatibleSpecs,
                            ResolutionGuard, check_thresholds, compute_E0,
                            compute_delta, fit_rate, run_homog_study,
                            run_lipschitz_study, write_report)
from gaslab.homogenize import TwoScaleProblem

GAS = GasParams(nu=0.1, k=1.0, cV=1.0, lam=0.1)


def lqr_norm(grid, w, q, r, times):
    """The anisotropic L^{q,r} norm of w, as the Lqr tag of `gaslab norms`
    evaluates it."""
    return float(NAMED_NORMS["Lqr"](grid, w, times, q=q, r=r))


def spec_m(m, nx=64, nt=50):
    g = Grid(X=1.0, T=0.5, nx=nx, nt=nt)
    if m == 1:
        bc = BoundaryData.build(g, m=1, u0=0.0, uX=1.0, pi0=0.0, piX=0.0)
    elif m == 2:
        bc = BoundaryData.build(g, m=2, p0=1.0, uX=0.0, pi0=0.0, piX=0.0)
    else:
        bc = BoundaryData.build(g, m=3, p0=1.0, pX=1.0, pi0=0.0, piX=0.0)
    return ProblemSpec(grid=g, gas=GAS, bc=bc, eta0=np.ones(g.nx),
                       u0=np.zeros(g.nx + 1), theta0=np.ones(g.nx))


# --- modified total energy ---------------------------------------------------

def test_E0_m3_is_plain_energy():
    spec = spec_m(3)
    g = spec.grid
    u0 = 0.3 * np.sin(np.pi * g.edges())
    th0 = 1.0 + 0.2 * g.centers()
    E0 = compute_E0(g, u0, th0, spec.eta0, spec.bc, GAS.cV, 3)
    u0c = 0.5 * (u0[1:] + u0[:-1])
    assert np.allclose(E0, 0.5 * u0c ** 2 + GAS.cV * th0, atol=1e-14)


def test_E0_m2_removes_right_boundary_velocity():
    g = Grid(X=1.0, T=0.5, nx=64, nt=50)
    bc = BoundaryData.build(g, m=2, p0=1.0, uX=0.0, pi0=0.0, piX=0.0)
    E0 = compute_E0(g, np.zeros(g.nx + 1), np.ones(g.nx), np.ones(g.nx),
                    bc, GAS.cV, 2)
    assert np.allclose(E0, GAS.cV, atol=1e-14)


def test_E0_m1_affine_interpolant():
    g = Grid(X=1.0, T=0.5, nx=64, nt=50)
    bc = BoundaryData.build(g, m=1, u0=0.0, uX=1.0, pi0=0.0, piX=0.0)
    u0 = np.zeros(g.nx + 1)
    th0 = np.ones(g.nx)
    E0 = compute_E0(g, u0, th0, np.ones(g.nx), bc, GAS.cV, 1)
    # eta0 = 1 on (0,1): boundary interpolant is x, so E0 = x^2/2 + cV
    xc = g.centers()
    assert np.abs(E0 - (0.5 * xc ** 2 + GAS.cV)).max() < 1e-12


# --- data-difference bound ---------------------------------------------------

def test_delta_zero_for_identical_specs():
    spec = spec_m(3)
    for other in (spec, replace(spec, perturbation=PerturbationSpec())):
        items = compute_delta(spec, other)
        assert sum(items.values()) == 0.0
        assert all(v == 0.0 for v in items.values())


def test_delta_rejects_mismatched_grids():
    a = spec_m(3, nx=64)
    b = spec_m(3, nx=128)
    with pytest.raises(IncompatibleSpecs):
        compute_delta(a, b)


def test_delta_single_item_benchmark():
    base = spec_m(3)
    g = base.grid
    pert = ProblemSpec(grid=g, gas=GAS, bc=base.bc,
                       eta0=base.eta0 + 0.01 * np.sin(2 * np.pi * g.centers()),
                       u0=base.u0, theta0=base.theta0)
    items = compute_delta(base, pert)
    assert items["eta0_l2"] == pytest.approx(0.01 / np.sqrt(2.0), rel=1e-10)
    others = {k: v for k, v in items.items() if k != "eta0_l2"}
    assert all(v < 1e-14 for v in others.values())
    assert sum(items.values()) == pytest.approx(0.01 / np.sqrt(2.0), rel=1e-8)


def test_delta_degree_one_homogeneity():
    # family touching eta0, theta0, beta, gamma, beta_e: every item is then a
    # norm of a c-scaled difference (velocity shifts are kept out because the
    # energy difference is quadratic in them)
    base = spec_m(3)
    g = base.grid

    def family(c):
        pert = PerturbationSpec(
            beta=lambda x, t: c * np.sin(2 * np.pi * x) * (1 + t),
            gamma=lambda x, t: c * 0.3 * np.cos(np.pi * x) * t,
            beta_e=c * 0.1 * np.sin(np.pi * g.edges()))
        return ProblemSpec(
            grid=g, gas=GAS, bc=base.bc,
            eta0=base.eta0 + c * 0.2 * np.cos(np.pi * g.centers()),
            u0=base.u0,
            theta0=base.theta0 + c * 0.05 * g.centers(),
            perturbation=pert)

    b1 = compute_delta(base, family(1.0))
    b3 = compute_delta(base, family(3.0))
    assert sum(b3.values()) == pytest.approx(3.0 * sum(b1.values()), rel=1e-10)
    for key in b1:
        if b1[key] > 1e-14:
            assert b3[key] / b1[key] == pytest.approx(3.0, rel=1e-10)
    # the velocity item itself is linear as well
    shifted = ProblemSpec(grid=g, gas=GAS, bc=base.bc, eta0=base.eta0,
                          u0=base.u0 + 0.1 * np.sin(np.pi * g.edges()),
                          theta0=base.theta0)
    shifted3 = ProblemSpec(grid=g, gas=GAS, bc=base.bc, eta0=base.eta0,
                           u0=base.u0 + 0.3 * np.sin(np.pi * g.edges()),
                           theta0=base.theta0)
    r = (compute_delta(base, shifted3)["u0_hm1"]
         / compute_delta(base, shifted)["u0_hm1"])
    assert r == pytest.approx(3.0, rel=1e-10)


def test_perturbed_spec_shifts_boundary_by_table_pattern():
    base = spec_m(3)
    tt = base.grid.times()
    table = [[0.0, 0.0], [0.25, 0.4], [0.5, 0.2]]
    pspec = cfgmod.perturbed_spec(base, {"p0b": table, "pXb": "0.2*t"}, 0.1)
    shift = 0.1 * np.interp(tt, [0.0, 0.25, 0.5], [0.0, 0.4, 0.2])
    assert np.allclose(pspec.bc.p0_t - base.bc.p0_t, shift, rtol=0.0, atol=1e-15)
    assert np.allclose(pspec.bc.pX_t - base.bc.pX_t, 0.02 * tt, rtol=0.0, atol=1e-15)
    assert np.array_equal(pspec.bc.pi0_t, base.bc.pi0_t)


def test_delta_qe2_drops_primitive_beta_item():
    base = spec_m(3)
    pert = replace(base, perturbation=PerturbationSpec(
        beta=lambda x, t: np.sin(2 * np.pi * x),
        beta_e=np.zeros(base.grid.nx + 1)))
    br_inf = compute_delta(base, pert, qe=float("inf"))
    br_2 = compute_delta(base, pert, qe=2.0)
    assert "it_i1beta2_lqe_inf" in br_inf
    assert "it_i1beta2_lqe_inf" not in br_2


def test_delta_itemizes_the_whole_force_difference_as_g1():
    base = replace(spec_m(3), g=lambda chi, x, t: np.sin(np.pi * chi) * (1 + t))
    items = {}
    for k in (1.0, 3.0):
        forced = replace(base, g=lambda chi, x, t, k=k: base.g(chi, x, t) + k * x * t)
        items[k] = compute_delta(base, forced)
    assert items[1.0]["g1_l1"] > 0
    assert items[3.0]["g1_l1"] == pytest.approx(3.0 * items[1.0]["g1_l1"], rel=1e-12)
    assert items[1.0]["ig2_l2"] == 0.0 and items[3.0]["ig2_l2"] == 0.0


def test_delta_f_item_is_positive_for_a_differing_f_and_zero_for_a_shared_one():
    base = replace(spec_m(3), f=lambda chi, x, t: (1 + t) * np.ones_like(chi))
    heated = replace(base, f=lambda chi, x, t: base.f(chi, x, t) + x * t)
    assert compute_delta(base, heated)["f_h21star"] > 0

    def unsampled(chi, x, t):
        raise AssertionError("a force both specs share was sampled")

    shared = replace(spec_m(3), g=unsampled, f=unsampled)
    items = compute_delta(shared, replace(shared, theta0=shared.theta0 + 0.1))
    assert items["f_h21star"] == 0.0 and items["g1_l1"] == 0.0
    assert items["E0_hm13"] > 0


def shipped_lipschitz_pair(forces=None):
    """The base spec of configs/lipschitz_benchmark.json and its delta = 0.1
    member.  With forces = ((g, f), (g_hat, f_hat)), expressions in (chi, x,
    t), the base takes the first pair and the member the second."""
    cfg = cfgmod.load_config("configs/lipschitz_benchmark.json")
    if forces is None:
        base = cfgmod.build_problem(cfg["problem"])
        return base, cfgmod.perturbed_spec(base, cfg["study"]["patterns"], 0.1)
    (g, f), (g_hat, f_hat) = forces
    cfg["problem"]["data"].update(g=g, f=f)
    base = cfgmod.build_problem(cfg["problem"])
    cfg["problem"]["data"].update(g=g_hat, f=f_hat)
    forced = cfgmod.build_problem(cfg["problem"])
    pspec = cfgmod.perturbed_spec(base, cfg["study"]["patterns"], 0.1)
    return base, replace(pspec, g=forced.g, f=forced.f)


DIFFERING_FORCES = (("0.3*sin(3.141592653589793*chi)*cos(6*t)", "0.2*(1 + 0.5*cos(chi))"),
                    ("0.4*sin(3.141592653589793*chi)*cos(6*t) + x*t",
                     "0.3*(1 + 0.5*cos(chi))*t"))


# the shipped study perturbs neither force, so neither is sampled; the second
# case samples both force differences
@pytest.mark.parametrize("forces", [None, DIFFERING_FORCES], ids=["shared", "differing"])
def test_compute_delta_peaks_below_one_trajectory_array(forces):
    base, pspec = shipped_lipschitz_pair(forces)
    g = base.grid
    tracemalloc.start()
    try:
        items = compute_delta(base, pspec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (items["g1_l1"] > 0) == (forces is not None)
    assert peak < (g.nt + 1) * g.nx * 8


def whole_array_delta(base, perturbed, qe):
    """Reference: compute_delta as it was before it reduced row blocks, each
    data difference sampled on the whole (nt + 1, nx) grid and each majorant
    taken of whole arrays."""
    g = base.grid
    m, cV = base.bc.m, base.gas.cV
    tt, xc = g.times(), g.centers()
    items = {}
    items["eta0_l2"] = float(space_lq(g, perturbed.eta0 - base.eta0, 2.0))
    items["u0_hm1"] = h_minus_one(g, np.asarray(perturbed.u0) - np.asarray(base.u0), m)
    E0b = compute_E0(g, base.u0, base.theta0, base.eta0, base.bc, cV, m)
    E0p = compute_E0(g, perturbed.u0, perturbed.theta0, perturbed.eta0, perturbed.bc, cV, m)
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

    b2 = sample_field_times(pert.beta, tt, xc)
    items["beta1_v2star"] = 0.0
    items["i3beta2_linf2"] = lqr_norm(g, i_bracket(g, b2, 3), INF, 2.0, tt)
    if qe != 2.0:
        it_i1b2 = time_primitive(i_bracket(g, b2, 1), tt)
        items["it_i1beta2_lqe_inf"] = lqr_norm(g, it_i1b2, qe, INF, tt)
    items["mean_beta2_l1"] = float(time_lr(mean_omega(g, b2), tt, 1.0))
    gam = sample_field_times(pert.gamma, tt, xc)
    items["gamma_v2star"] = min(lqr_norm(g, gam, q, r, tt) for q, r in V2STAR_PAIRS)

    chi = edges_to_centers(primitive_at_edges(g, np.asarray(perturbed.eta0, dtype=float))
                           + beta_e)

    def force_diff(f_hat, f):
        return sample_field_times(f_hat, tt, chi, xc) - sample_field_times(f, tt, chi, xc)

    items["g1_l1"] = (0.0 if perturbed.g is base.g
                      else lqr_norm(g, force_diff(perturbed.g, base.g), 1.0, 1.0, tt))
    items["ig2_l2"] = 0.0
    if perturbed.f is base.f:
        items["f_h21star"] = 0.0
    else:
        F = force_diff(perturbed.f, base.f)
        N = 1.0 / (1.0 / base.N)
        route_l1 = N * lqr_norm(g, F, 1.0, 1.0, tt)
        route_prim = N * lqr_norm(g, i_bracket(g, F, m), 2.0, 1.0, tt)
        if m == 3:
            it_mean = time_primitive(mean_omega(g, F), tt)
            route_prim += np.sqrt(g.X) * time_lr(it_mean, tt, 2.0)
        items["f_h21star"] = float(min(route_l1, route_prim))
    return items


@pytest.mark.parametrize("nrows", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5])
@pytest.mark.parametrize("qe", [2.0, 3.0, INF])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_blocked_delta_is_bitwise_the_whole_array_reference(m, qe, nrows):
    base = replace(spec_m(m, nx=24, nt=nrows - 1),
                   g=lambda chi, x, t: np.sin(np.pi * chi) * np.cos(6 * t),
                   f=lambda chi, x, t: 0.2 * (1 + 0.5 * np.cos(chi)) * (1 + t))
    patterns = {"eta0": "0.5*sin(2*3.141592653589793*x)", "u0": "cos(3.141592653589793*x)",
                "theta0": "0.3*(1 - x)", "beta": "sin(2*3.141592653589793*x)*(1 + t)",
                "gamma": "0.5*cos(3.141592653589793*x)*t",
                "beta_e": "0.2*sin(3.141592653589793*x)",
                **{name + "b": "0.1*sin(3*t)" for name in ACTIVE_BC[m]}}
    pspec = replace(cfgmod.perturbed_spec(base, patterns, 0.1),
                    g=lambda chi, x, t: base.g(chi, x, t) + 0.1 * x * t,
                    f=lambda chi, x, t: base.f(chi, x, t) * (1 + 0.1 * np.sin(5 * x * t)))
    got = compute_delta(base, pspec, qe=qe)
    want = whole_array_delta(base, pspec, qe)
    assert list(got) == list(want)
    for k in want:
        assert np.float64(got[k]).tobytes() == np.float64(want[k]).tobytes(), k
    # every space-time item sees data
    assert all(want[name] > 0 for name, diff, *_ in studies.DELTA_ITEMS
               if diff is not None and name in want)


# every perturbation a study pattern can declare reaches the solve: a pattern
# that moves Delta but no solution array would tilt the fitted slopes
PATTERN_CASES = [
    pytest.param(m, key, id=f"m{m}-{key}")
    for m in (1, 2, 3)
    for key in (*cfgmod.INITIAL_DATA, "beta_e", *cfgmod.PERTURBATION_KEYS,
                *(name + "b" for name in ACTIVE_BC[m]))]


@pytest.mark.parametrize("m,key", PATTERN_CASES)
def test_every_pattern_changes_the_solution(m, key):
    base = spec_m(m, nx=16, nt=8)
    if key in cfgmod.INITIAL_DATA + ("beta_e",):
        pattern = "0.5 + x*(1 - x)"
    elif key.endswith("b"):
        pattern = "0.5*(1 + t)"
    else:
        pattern = "(0.5 + x*(1 - x))*(1 + t)"
    scheme = SchemeParams(store_stride=1)
    want = studies.solve(base, scheme)
    got = studies.solve(cfgmod.perturbed_spec(base, {key: pattern}, 1e-3), scheme)
    arrays = [f.name for f in fields(want) if isinstance(getattr(want, f.name), np.ndarray)]
    assert any(not np.array_equal(getattr(want, name), getattr(got, name)) for name in arrays)


# --- rate fitting ------------------------------------------------------------

def test_fit_rate_exact_power_laws():
    h = [1.0, 0.5, 0.25, 0.125]
    s, b, hw = fit_rate([(x, x) for x in h])
    assert s == pytest.approx(1.0, abs=1e-12)
    assert hw == pytest.approx(0.0, abs=1e-10)
    s2, _, _ = fit_rate([(x, np.sqrt(x)) for x in h])
    assert s2 == pytest.approx(0.5, abs=1e-12)


def test_fit_rate_alternating_noise():
    h = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    e = h * (1.0 + 0.05 * np.array([1, -1, 1, -1, 1]))
    s, b, hw = fit_rate(zip(h, e))
    # closed-form least squares on the synthetic rows
    lh, le = np.log(h), np.log(e)
    expect = (((lh - lh.mean()) * (le - le.mean())).sum()
              / ((lh - lh.mean()) ** 2).sum())
    assert s == pytest.approx(expect, abs=1e-12)
    assert 0.93 <= s <= 1.07


def test_fit_rate_guards():
    with pytest.raises(ValueError):
        fit_rate([(1.0, 1.0), (0.5, 0.5)])
    with pytest.raises(DegenerateFit):
        fit_rate([(1.0, 1e-14), (0.5, 1e-14), (0.25, 1e-14), (0.125, 1e-14)])


# --- tables and reports --------------------------------------------------------

def test_table_requires_halving_sweep():
    with pytest.raises(ValueError):
        ConvergenceTable(param="eps", values=[0.4, 0.3], columns={})


def test_write_report_structure_and_determinism(tmp_path):
    table = ConvergenceTable(
        param="eps", values=[0.5, 0.25, 0.125, 0.0625],
        columns={"err": [0.1, 0.05, 0.025, 0.0125]},
        slopes={"err": (1.0, 0.01)},
        thresholds={"err": ("ge", 0.9)},
        metadata={"study": "demo", "grid": "nx=8", "config_hash": "abc"})
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    assert write_report(table, p1) is True
    write_report(table, p2)
    assert p1.read_bytes() == p2.read_bytes()
    raw = p1.read_bytes()
    assert raw.endswith(b"\r\n")
    lines = raw.decode().splitlines()
    assert lines[0] == "eps,err"
    assert len(lines) == 5
    summary = (tmp_path / "a.csv.summary.txt").read_text()
    assert "PASS" in summary and "RESULT: all thresholds met" in summary


def test_write_report_empty_table(tmp_path):
    table = ConvergenceTable(param="eps", values=[], columns={"err": []})
    write_report(table, tmp_path / "empty.csv")
    lines = (tmp_path / "empty.csv").read_bytes().decode().splitlines()
    assert lines == ["eps,err"]
    assert "no rows" in (tmp_path / "empty.csv.summary.txt").read_text()


def test_check_thresholds_band_and_ge():
    table = ConvergenceTable(
        param="delta", values=[0.2, 0.1],
        columns={"a": [1, 2], "b": [1, 2], "c": [1, 2]},
        slopes={"a": (1.0, 0.0), "b": (0.3, 0.0), "c": None},
        thresholds={"a": ("band", 0.9, 1.1), "b": ("ge", 0.45)})
    ok, msgs = check_thresholds(table)
    assert not ok
    assert any(m.startswith("PASS") and " a:" in m for m in msgs)
    assert any(m.startswith("FAIL") and " b:" in m for m in msgs)


def test_a_table_whose_every_threshold_is_skipped_is_not_ok(tmp_path):
    # a sweep of zero differences fits no slope: nothing was checked
    table = ConvergenceTable(
        param="delta", values=[0.2, 0.1], columns={"a": [0.0, 0.0], "b": [0.0, 0.0]},
        slopes={"a": None, "b": None},
        thresholds={"a": ("band", 0.9, 1.1), "b": ("ge", 0.45)})
    ok, msgs = check_thresholds(table)
    assert not ok
    assert [m.split()[0] for m in msgs] == ["SKIP", "SKIP"]
    assert write_report(table, tmp_path / "r.csv") is False
    summary = (tmp_path / "r.csv.summary.txt").read_text()
    assert "RESULT: all thresholds met" not in summary


def test_a_table_without_thresholds_is_ok():
    table = ConvergenceTable(param="delta", values=[0.2, 0.1], columns={"a": [1, 2]},
                             slopes={"a": None})
    assert check_thresholds(table) == (True, [])


# --- small end-to-end studies --------------------------------------------------

def test_lipschitz_study_small():
    cfg = cfgmod.load_config("configs/lipschitz_benchmark.json")
    cfg["problem"]["grid"] = {"nx": 64, "nt": 100}
    base = cfgmod.build_problem(cfg["problem"])
    patterns = cfg["study"]["patterns"]

    def perturb(spec, d):
        return cfgmod.perturbed_spec(spec, patterns, d)

    table = run_lipschitz_study(base, perturb, 0.1, levels=4,
                                scheme=SchemeParams(store_stride=2))
    for col in ("eta_C0L2", "u_L2", "theta_L2", "itsigma_C0L2"):
        s = table.slopes[col][0]
        assert 0.85 <= s <= 1.15          # coarse grid, loose band
    spread = table.metadata["ratio_spread"]
    assert max(spread.values()) < 3.0
    assert table.columns["Delta_total"][0] > 0
    # solution-regularity hypotheses recorded per run, no drift on this family
    assert table.values == [0.1 * 0.5 ** j for j in range(4)]
    assert len(table.columns["hyp_Du_L2"]) == 4
    assert not any(f.startswith("hypothesis-drift") for f in table.flags)


def test_streamed_lipschitz_members_match_stored_bundles():
    # 101 kept rows per run, two row blocks: each member streams its rows
    # against the stored base, and reads what stored bundles give
    cfg = cfgmod.load_config("configs/lipschitz_benchmark.json")
    cfg["problem"]["grid"] = {"nx": 32, "nt": 100}
    base_spec = cfgmod.build_problem(cfg["problem"])
    patterns = cfg["study"]["patterns"]

    def perturb(spec, d):
        return cfgmod.perturbed_spec(spec, patterns, d)

    scheme = SchemeParams(store_stride=1)
    table = run_lipschitz_study(base_spec, perturb, 0.1, levels=4, scheme=scheme)
    g = base_spec.grid
    base = solve(base_spec, scheme)
    assert len(base.steps) > ROW_BLOCK
    for j, delta in enumerate(table.values):
        psol = solve(perturb(base_spec, delta), scheme)
        d = {name: getattr(psol, name) - getattr(base, name)
             for name in studies.DIFFERENCE_FIELDS}
        for col, want in whole_array_columns(g, d, base.times, 3, INF).items():
            assert table.columns[col][j] == want, col
        assert table.columns["hyp_u_Linf"][j] == float(np.abs(psol.u).max())
        assert table.columns["hyp_Du_L2"][j] == \
            float(time_lr(space_lq(g, du_centers(g, psol.u), 2.0), psol.times, 2.0))


def test_streamed_eps_member_matches_stored_bundles():
    # 83 kept rows, two row blocks; eta is the reconstruction's
    prob = two_scale_problem(nx=128, nt=160)
    scheme = SchemeParams(store_stride=2, dense_steps=4)
    hs = hmg.solve_homogenized(prob, scheme)
    assert len(hs.base.steps) > ROW_BLOCK
    osc = OscillationSpec(eps=0.125)
    spec = prob.realized_spec(osc)
    got = studies._member_columns(
        (spec, scheme, partial(studies._minus_reconstruction, hs, osc), INF))
    eps_sol = solve(spec, scheme)
    d = {name: getattr(hs.base, name) - getattr(eps_sol, name)
         for name in studies.DIFFERENCE_FIELDS}
    d["eta"] = hmg.eta_epsilon(hs, osc) - eps_sol.eta
    assert_same_columns(got, whole_array_columns(prob.grid, d, hs.base.times, 3, INF))


def test_lipschitz_study_deterministic():
    cfg = cfgmod.load_config("configs/lipschitz_benchmark.json")
    cfg["problem"]["grid"] = {"nx": 32, "nt": 40}
    base = cfgmod.build_problem(cfg["problem"])
    patterns = cfg["study"]["patterns"]

    def perturb(spec, d):
        return cfgmod.perturbed_spec(spec, patterns, d)

    t1 = run_lipschitz_study(base, perturb, 0.1, levels=4)
    t2 = run_lipschitz_study(base, perturb, 0.1, levels=4)
    assert t1.columns == t2.columns


def two_scale_problem(nx, nt, osc=0.4):
    g = Grid(X=1.0, T=0.25, nx=nx, nt=nt)
    bc = BoundaryData.build(g, m=3, p0=1.0, pX=1.0, pi0=0.0, piX=0.0)
    return TwoScaleProblem(
        grid=g, gas=GAS, bc=bc,
        eta0=lambda xi, x: (1 + osc * np.where(xi >= 0.5, 1.0, 0.0)) * np.ones_like(x),
        u0=lambda xi, x: 0.1 * np.sin(np.pi * x) * np.ones_like(xi),
        theta0=lambda xi, x: np.ones_like(x) * np.ones_like(xi), breakpoints_xi=(0.5,))


def test_homog_study_resolution_guard():
    prob = two_scale_problem(nx=64, nt=32)
    with pytest.raises(ResolutionGuard):
        run_homog_study(prob, [1.0 / 8, 1.0 / 16])


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve ran before the sweep was rejected")


def test_lipschitz_study_rejects_short_sweep_before_solving(monkeypatch):
    monkeypatch.setattr(studies, "solve", _no_solve)
    with pytest.raises(ValueError, match="at least 4 rows"):
        run_lipschitz_study(spec_m(3), lambda spec, d: spec, 0.1, levels=3)


def test_lipschitz_study_rejects_an_incompatible_spec_before_any_member(monkeypatch):
    solves = []
    record_calls(monkeypatch, solves, "solve", lambda *args, **kwargs: "solve")
    base = spec_m(3, nx=16, nt=8)
    with pytest.raises(IncompatibleSpecs, match="gas"):
        run_lipschitz_study(base, lambda spec, d: replace(spec, gas=replace(GAS, k=1 + d)),
                            0.1, levels=4)
    assert solves == ["solve"]


def test_homog_study_rejects_short_sweep_before_solving(monkeypatch):
    monkeypatch.setattr(studies, "solve", _no_solve)
    monkeypatch.setattr(hmg, "solve_homogenized", _no_solve)
    with pytest.raises(ValueError, match="at least 4 rows"):
        run_homog_study(two_scale_problem(nx=256, nt=32), [0.5, 0.25, 0.125])


def test_homog_study_validates_the_floor_spec_before_any_solve(monkeypatch):
    class _StopAtSolve(Exception):
        pass

    events = []

    def record_valid(name, spec):
        events.append(("valid", name))

    def stop_at_solve(*args, **kwargs):
        events.append(("solve", None))
        raise _StopAtSolve

    monkeypatch.setattr(studies, "require_valid", record_valid)
    monkeypatch.setattr(hmg, "require_valid", record_valid)
    monkeypatch.setattr(studies, "solve", stop_at_solve)
    monkeypatch.setattr(hmg, "solve", stop_at_solve)
    with pytest.raises(_StopAtSolve):
        run_homog_study(two_scale_problem(nx=256, nt=32), [0.5, 0.25, 0.125, 0.0625])
    assert ("valid", "floor spec") in events
    assert events.index(("valid", "floor spec")) < events.index(("solve", None))


def test_homog_study_degenerate_for_xi_independent_data():
    prob = two_scale_problem(nx=256, nt=128, osc=0.0)
    table = run_homog_study(prob, [0.5, 0.25, 0.125, 0.0625],
                            scheme=SchemeParams(store_stride=1))
    assert any(f.startswith("degenerate:") for f in table.flags)
    assert table.slopes["eta_C0L2"] is None
    assert table.slopes["u_L2_supHm1"] is None


def test_homog_study_small_sweep_rates():
    prob = two_scale_problem(nx=512, nt=256)
    table = run_homog_study(prob, [1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32],
                            scheme=SchemeParams(store_stride=4, dense_steps=8))
    for col in ("eta_C0L2", "xe_Linf"):
        assert table.slopes[col][0] >= 0.85
    assert "decades_above_floor" in table.metadata


def picklable_two_scale_problem():
    """A two-scale problem built from a config, whose data a process pool
    can pickle."""
    return cfgmod.build_two_scale_problem({
        "domain": {"X": 1.0, "T": 0.1},
        "grid": {"nx": 256, "nt": 64},
        "gas": {"nu": 0.1, "k": 1.0, "cV": 1.0, "lambda": 0.1},
        "bc": {"m": 3, "p0": 1.0, "pX": 1.0, "pi0": 0.0, "piX": 0.0},
        "data": {"eta0": "1 + 0.4*step(xi - 0.5)", "u0": "0", "theta0": "1"},
        "breakpoints_xi": [0.5],
    })


def test_homog_study_parallel_jobs_match_serial():
    # the per-eps solves dispatch to worker processes; configs are the
    # picklable problem description
    prob = picklable_two_scale_problem()
    eps = [0.5, 0.25, 0.125, 0.0625]
    serial = run_homog_study(prob, eps, scheme=SchemeParams(store_stride=4))
    parallel = run_homog_study(prob, eps, scheme=SchemeParams(store_stride=4), jobs=2)
    assert serial.columns == parallel.columns


def test_perturbed_spec_rejects_pattern_on_unused_boundary_entry():
    with pytest.raises(ValueError, match="u0b"):
        cfgmod.perturbed_spec(spec_m(3), {"u0b": 1.0}, 0.1)
    with pytest.raises(ValueError, match="pXb"):
        cfgmod.perturbed_spec(spec_m(2), {"pXb": "0.2*t"}, 0.1)


def test_homog_study_rejects_non_halving_sweep_before_solving(monkeypatch):
    monkeypatch.setattr(studies, "solve", _no_solve)
    monkeypatch.setattr(hmg, "solve_homogenized", _no_solve)
    with pytest.raises(ValueError, match="factors of 2"):
        run_homog_study(two_scale_problem(nx=256, nt=32), [0.5, 0.375, 0.25, 0.125])


# --- blocked difference columns against the whole-array passes ---------------

def whole_array_columns(grid, d, times, m, qe):
    """Reference: the study columns of whole (ns, nx) difference arrays d, as
    difference_columns computed them before it read row blocks."""
    z = np.minimum(np.asarray(times) / (studies.T0_FRAC * grid.T), 1.0)
    cols = {}
    cols["eta_C0L2"] = lqr_norm(grid, d["eta"], 2.0, INF, times)
    cols["u_L2"] = lqr_norm(grid, d["u"], 2.0, 2.0, times)
    cols["u_supHm1"] = float(h_minus_one(grid, d["u"], m).max())
    cols["u_L2_supHm1"] = cols["u_L2"] + cols["u_supHm1"]
    cols["theta_L2"] = lqr_norm(grid, d["theta"], 2.0, 2.0, times)
    cols["xe_Lqe_inf"] = lqr_norm(grid, d["x_e"], qe, INF, times)
    cols["xe_Linf"] = lqr_norm(grid, d["x_e"], INF, INF, times)
    cols["itsigma_C0L2"] = lqr_norm(grid, d["it_sigma"], 2.0, INF, times)
    cols["eta_Linf"] = float(np.abs(d["eta"]).max())
    cols["u_Linf2"] = lqr_norm(grid, d["u"], INF, 2.0, times)
    cols["theta_Linf2"] = lqr_norm(grid, d["theta"], INF, 2.0, times)
    cols["itsigma_CQ"] = float(np.abs(d["it_sigma"]).max())
    cols["zeta_u_C0L2"] = lqr_norm(grid, z[:, None] * d["u"], 2.0, INF, times)
    cols["zeta2_theta_C0L2"] = lqr_norm(grid, (z ** 2)[:, None] * d["theta"], 2.0, INF,
                                       times)
    cols["zeta_u_CQ"] = float(np.abs(z[:, None] * d["u"]).max())
    cols["zeta2_theta_CQ"] = float(np.abs((z ** 2)[:, None] * d["theta"]).max())
    return cols


EDGE_FIELDS = ("u", "x_e")


def random_fields(rng, nrows, nx):
    return {name: rng.standard_normal((nrows, nx + (name in EDGE_FIELDS)))
            for name in studies.DIFFERENCE_FIELDS}


def random_times(rng, n, T):
    """n increasing snapshot times from 0, unevenly spaced as dense steps
    followed by a stride leave them."""
    return np.concatenate([[0.0], np.sort(rng.uniform(0.0, T, n - 1))])[:n]


def assert_same_columns(got, want):
    assert list(got) == list(want)
    assert got == want


def streaming_solve(member):
    """A fake studies.solve(spec, scheme, rows) that streams the rows of
    `member`, a namespace of steps, times and DIFFERENCE_FIELDS arrays, in
    blocks of ROW_BLOCK rows, as solver.solve does."""
    def fake(spec, scheme, rows):
        n = len(member.times)
        for start in range(0, n, ROW_BLOCK):
            r = slice(start, min(start + ROW_BLOCK, n))
            rows(SimpleNamespace(rows=r, steps=member.steps[r], times=member.times[r],
                                 **{name: getattr(member, name)[r]
                                    for name in studies.DIFFERENCE_FIELDS}))
    return fake


def block_fields(block):
    return block.times, {name: getattr(block, name) for name in studies.DIFFERENCE_FIELDS}


@pytest.mark.parametrize("nrows", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("m,qe", [(1, 2.0), (2, INF), (3, 4.0)])
def test_blocked_difference_columns_match_whole_array_passes(monkeypatch, nrows, m, qe):
    rng = np.random.default_rng(1000 * m + nrows)
    g = Grid(X=1.0, T=0.5, nx=40, nt=200)
    d = random_fields(rng, nrows, g.nx)
    times = random_times(rng, nrows, g.T)
    member = SimpleNamespace(steps=np.arange(nrows), times=times, **d)
    monkeypatch.setattr(studies, "solve", streaming_solve(member))
    spec = SimpleNamespace(grid=g, bc=SimpleNamespace(m=m))
    got = studies._member_columns((spec, SchemeParams(), block_fields, qe))
    assert_same_columns(got, whole_array_columns(g, d, times, m, qe))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("qe", [2.0, 4.0, INF])
def test_study_column_rule_is_bitwise_symmetric_under_negation(m, qe):
    # the eps and floor members subtract member minus reference, the whole
    # array passes they were checked against reference minus member
    rng = np.random.default_rng(10 * m + int(min(qe, 9)))
    g = Grid(X=1.0, T=0.5, nx=40, nt=200)
    d = random_fields(rng, 70, g.nx)
    times = random_times(rng, 70, g.T)
    assert times.min() < studies.T0_FRAC * g.T < times.max()   # zeta below and at 1
    got = studies._difference_rows(g, m, qe, times, d)
    neg = studies._difference_rows(g, m, qe, times, {k: -v for k, v in d.items()})
    assert len(got) == len(studies.DIFFERENCE_COLUMNS)
    for (col, *_), a, b in zip(studies.DIFFERENCE_COLUMNS, got, neg):
        assert a.tobytes() == b.tobytes(), col


def random_steps(rng):
    # stored steps that pair on more than two blocks of rows
    fine = np.union1d(np.arange(0, 601, 4), rng.choice(601, 40, replace=False))
    coarse = np.union1d(np.arange(0, 301, 2), rng.choice(301, 30, replace=False))
    return fine, coarse


def unpaired_block_steps(rng):
    # coarse rows 192-255 (steps 192-255) have no fine partner: a block
    # that pairs on no row
    return np.union1d(np.arange(0, 257, 2), [600]), np.arange(301)


def shipped_steps(stride):
    # the shipped scheme shape: stride 16 (or 8) after 32 dense steps, the
    # coarse run at half the stride; coarse steps 17-31 pair only where 2n
    # is on the fine stride
    def steps(rng):
        return (np.asarray(_snapshot_indices(600, stride, 32)),
                np.asarray(_snapshot_indices(300, stride // 2, 32)))
    return steps


@pytest.mark.parametrize("layout", [random_steps, unpaired_block_steps, shipped_steps(16),
                                    shipped_steps(8)])
@pytest.mark.parametrize("m", [1, 3])
def test_blocked_measure_floor_matches_whole_array_pairing(monkeypatch, m, layout):
    # random fine and coarse bundles at the stored steps of `layout`
    rng = np.random.default_rng(m)
    fine_grid = Grid(X=1.0, T=0.5, nx=32, nt=600)
    coarse_grid = Grid(X=1.0, T=0.5, nx=16, nt=300)
    fine_steps, coarse_steps = layout(rng)
    fine = SimpleNamespace(steps=fine_steps, times=fine_grid.times()[fine_steps],
                           **random_fields(rng, len(fine_steps), fine_grid.nx))
    coarse = SimpleNamespace(steps=coarse_steps, times=coarse_grid.times()[coarse_steps],
                             **random_fields(rng, len(coarse_steps), coarse_grid.nx))
    coarse_spec = SimpleNamespace(grid=coarse_grid, bc=SimpleNamespace(m=m))
    monkeypatch.setattr(studies, "solve", streaming_solve(coarse))
    got = studies.measure_floor(SimpleNamespace(base=fine), coarse_spec,
                                SchemeParams(store_stride=4), INF)

    _, ia, ib = np.intersect1d(fine.steps, 2 * coarse.steps, assume_unique=True,
                               return_indices=True)
    unpaired = np.setdiff1d(np.arange(len(coarse_steps)), ib)
    if layout is random_steps:
        assert len(ia) > 2 * ROW_BLOCK
    elif layout is unpaired_block_steps:
        assert set(range(3 * ROW_BLOCK, 4 * ROW_BLOCK)) <= set(unpaired)
    else:
        assert any(17 <= coarse_steps[i] <= 31 for i in unpaired)
    d = {name: restrict(getattr(fine, name)[ia]) - getattr(coarse, name)[ib]
         for name, restrict in studies.DIFFERENCE_FIELDS.items()}
    assert_same_columns(got, whole_array_columns(coarse_grid, d, coarse.times[ib], m, INF))


def record_solves(monkeypatch, path):
    """Patch studies.solve to append "stream" or "store" to the file `path`
    per call, whether or not it was given `rows`; a file, so that the solves
    of forked worker processes are recorded too."""
    real = studies.solve

    def recording(spec, scheme, rows=None):
        with open(path, "a") as fh:
            fh.write("store\n" if rows is None else "stream\n")
        return real(spec, scheme, rows)

    monkeypatch.setattr(studies, "solve", recording)
    return lambda: path.read_text().split()


def test_every_study_solve_streams_but_the_stored_reference(tmp_path, monkeypatch):
    cfg = cfgmod.load_config("configs/lipschitz_benchmark.json")
    cfg["problem"]["grid"] = {"nx": 32, "nt": 40}
    base = cfgmod.build_problem(cfg["problem"])
    patterns = cfg["study"]["patterns"]
    calls = record_solves(monkeypatch, tmp_path / "lipschitz")
    run_lipschitz_study(base, lambda spec, d: cfgmod.perturbed_spec(spec, patterns, d),
                        0.1, levels=4, scheme=SchemeParams(store_stride=2))
    assert calls() == ["store"] + 4 * ["stream"]

    # the averaged run is stored, through homogenize.solve; the floor's
    # coarse run and every eps run stream
    prob = picklable_two_scale_problem()
    eps = [0.5, 0.25, 0.125, 0.0625]
    for jobs in (1, 2):
        calls = record_solves(monkeypatch, tmp_path / f"homog{jobs}")
        run_homog_study(prob, eps, scheme=SchemeParams(store_stride=4), jobs=jobs)
        assert calls() == 5 * ["stream"]


def record_calls(monkeypatch, events, name, note):
    """Patch studies.<name> to append note(<its arguments>) to `events` on
    each call in this process, then call through."""
    real = getattr(studies, name)

    def recording(*args, **kwargs):
        events.append(note(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(studies, name, recording)


def test_each_study_runs_its_members_through_one_call(monkeypatch):
    events = []
    record_calls(monkeypatch, events, "_run_members", lambda args, jobs: (len(args), jobs))
    record_calls(monkeypatch, events, "_member_columns", lambda args: "member")
    cfg = cfgmod.load_config("configs/lipschitz_benchmark.json")
    cfg["problem"]["grid"] = {"nx": 32, "nt": 40}
    base = cfgmod.build_problem(cfg["problem"])
    patterns = cfg["study"]["patterns"]
    run_lipschitz_study(base, lambda spec, d: cfgmod.perturbed_spec(spec, patterns, d),
                        0.1, levels=4, scheme=SchemeParams(store_stride=2))
    assert events == [(4, 1)] + 4 * ["member"]

    # the floor's coarse run is measure_floor's own _member_columns call
    prob = picklable_two_scale_problem()
    eps = [0.5, 0.25, 0.125, 0.0625]
    events.clear()
    run_homog_study(prob, eps, scheme=SchemeParams(store_stride=4), jobs=1)
    assert events == ["member", (4, 1)] + 4 * ["member"]

    # worker processes look _member_columns up by name, so with jobs = 2 only
    # _run_members is recorded
    monkeypatch.undo()
    events.clear()
    record_calls(monkeypatch, events, "_run_members", lambda args, jobs: (len(args), jobs))
    run_homog_study(prob, eps, scheme=SchemeParams(store_stride=4), jobs=2)
    assert events == [(4, 2)]


def csv_header(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.readline()


@pytest.mark.parametrize("study", ["lipschitz", "homog"])
def test_report_header_is_the_benchmark_references(tmp_path, study):
    # the benchmark harness requires a report's header to equal its
    # reference table's, so the column order is part of the report
    if study == "lipschitz":
        cfg = cfgmod.load_config("configs/lipschitz_benchmark.json")
        cfg["problem"]["grid"] = {"nx": 32, "nt": 40}
        base = cfgmod.build_problem(cfg["problem"])
        patterns = cfg["study"]["patterns"]
        table = run_lipschitz_study(
            base, lambda spec, d: cfgmod.perturbed_spec(spec, patterns, d), 0.1, levels=4)
    else:
        table = run_homog_study(picklable_two_scale_problem(), [0.5, 0.25, 0.125, 0.0625],
                                scheme=SchemeParams(store_stride=4))
    write_report(table, tmp_path / "report.csv")
    assert csv_header(tmp_path / "report.csv") == \
        csv_header(f"perfbench/reference/{study}_study.csv")
