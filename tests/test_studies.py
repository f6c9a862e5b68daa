from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from gaslab import config as cfgmod
from gaslab import homogenize as hmg
from gaslab import studies
from gaslab.grid import Grid, GasParams
from gaslab.norms import INF, ROW_BLOCK, h_minus_one, lqr_norm
from gaslab.problem import ACTIVE_BC, BoundaryData, PerturbationSpec, ProblemSpec
from gaslab.solver import SchemeParams
from gaslab.studies import (ConvergenceTable, DegenerateFit, IncompatibleSpecs,
                            ResolutionGuard, check_thresholds, compute_E0,
                            compute_delta, fit_rate, run_homog_study,
                            run_lipschitz_study, write_report)
from gaslab.homogenize import TwoScaleProblem

GAS = GasParams(nu=0.1, k=1.0, cV=1.0, lam=0.1)


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


def test_homog_study_parallel_jobs_match_serial():
    # the per-eps solves dispatch to worker processes; configs are the
    # picklable problem description
    cfg = {
        "domain": {"X": 1.0, "T": 0.1},
        "grid": {"nx": 256, "nt": 64},
        "gas": {"nu": 0.1, "k": 1.0, "cV": 1.0, "lambda": 0.1},
        "bc": {"m": 3, "p0": 1.0, "pX": 1.0, "pi0": 0.0, "piX": 0.0},
        "data": {"eta0": "1 + 0.4*step(xi - 0.5)", "u0": "0", "theta0": "1"},
        "breakpoints_xi": [0.5],
    }
    prob = cfgmod.build_two_scale_problem(cfg)
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


@pytest.mark.parametrize("nrows", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("m,qe", [(1, 2.0), (2, INF), (3, 4.0)])
def test_blocked_difference_columns_match_whole_array_passes(nrows, m, qe):
    rng = np.random.default_rng(1000 * m + nrows)
    g = Grid(X=1.0, T=0.5, nx=40, nt=200)
    d = random_fields(rng, nrows, g.nx)
    times = random_times(rng, nrows, g.T)
    got = studies.difference_columns(g, lambda rows: {k: v[rows] for k, v in d.items()},
                                     times, m, qe)
    assert_same_columns(got, whole_array_columns(g, d, times, m, qe))


@pytest.mark.parametrize("m", [1, 3])
def test_blocked_measure_floor_matches_whole_array_pairing(monkeypatch, m):
    # random fine and coarse bundles whose stored steps pair on 150 rows
    rng = np.random.default_rng(m)
    fine_grid = Grid(X=1.0, T=0.5, nx=32, nt=600)
    coarse_grid = Grid(X=1.0, T=0.5, nx=16, nt=300)
    fine_steps = np.union1d(np.arange(0, 601, 4), rng.choice(601, 40, replace=False))
    coarse_steps = np.union1d(np.arange(0, 301, 2), rng.choice(301, 30, replace=False))
    fine = SimpleNamespace(steps=fine_steps, times=fine_grid.times()[fine_steps],
                           **random_fields(rng, len(fine_steps), fine_grid.nx))
    coarse = SimpleNamespace(steps=coarse_steps, times=coarse_grid.times()[coarse_steps],
                             **random_fields(rng, len(coarse_steps), coarse_grid.nx))
    coarse_spec = SimpleNamespace(grid=coarse_grid, bc=SimpleNamespace(m=m))
    monkeypatch.setattr(studies, "solve", lambda spec, scheme: coarse)
    got = studies.measure_floor(SimpleNamespace(base=fine), coarse_spec,
                                SchemeParams(store_stride=4), INF)

    _, ia, ib = np.intersect1d(fine.steps, 2 * coarse.steps, assume_unique=True,
                               return_indices=True)
    assert len(ia) > 2 * ROW_BLOCK
    d = {name: restrict(getattr(fine, name)[ia]) - getattr(coarse, name)[ib]
         for name, restrict in studies.DIFFERENCE_FIELDS.items()}
    assert_same_columns(got, whole_array_columns(coarse_grid, d, coarse.times[ib], m, INF))
