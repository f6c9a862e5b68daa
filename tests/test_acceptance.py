"""Acceptance gate: one test per criterion, each printing a pass line with
the measured figure.  Heavy sweeps (the homogenization benchmark) run once in
module-scoped fixtures and are shared between criteria.
"""

import time

import numpy as np
import pytest

from gaslab import config as cfgmod
from gaslab import dsl
from gaslab.calculus import i_bracket, mean_omega, primitive_at_edges
from gaslab.grid import Grid, GasParams, du_centers, integrate_center
from gaslab.homogenize import _reconstruct, solve_homogenized
from gaslab.norms import space_lq, wh_seminorm
from gaslab.problem import BoundaryData, ProblemSpec
from gaslab.solver import SchemeParams, diagnostics, solve
from gaslab.studies import (HOMOG_BOUND_COLUMNS, LIPSCHITZ_BOUND_COLUMNS,
                            fit_rate, floor_spec, measure_floor,
                            run_homog_study, run_lipschitz_study)
from gaslab.twoscale import (OscillationSpec, homogenized_theta0, realize, xi_mean,
                             xi_quadrature, xi_sample)

GAS = GasParams(nu=0.1, k=1.0, cV=1.0, lam=0.1)


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# --------------------------------------------------------------------------
# 1. operator-identity suite

def test_criterion_01_operator_identities():
    t0 = time.time()
    g = Grid(X=1.0, T=1.0, nx=256, nt=8)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        y, z = rng.normal(size=(2, g.nx))
        scale = max(np.abs(y).max() * np.abs(z).max(), 1e-30)
        # int (I1 y) z = - int y (I3 z)
        r = abs(integrate_center(g, i_bracket(g, y, 1) * z)
                + integrate_center(g, y * i_bracket(g, z, 3))) / scale
        worst = max(worst, r)
        # L2 through primitive parts, random edge fields per family
        ye = rng.normal(size=g.nx + 1)
        for m in (1, 2, 3):
            w = ye.copy()
            if m == 1:
                w[0] = w[-1] = 0.0
            elif m == 2:
                w[-1] = 0.0
            wc = 0.5 * (w[1:] + w[:-1])
            lhs = integrate_center(g, wc ** 2)
            rhs = -integrate_center(g, du_centers(g, w) * i_bracket(g, wc, m))
            if m == 3:
                rhs += g.X * mean_omega(g, wc) ** 2
            worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-30))
    assert worst <= 1e-10

    # primitive-of-derivative identities: O(dx^2) decay under refinement
    errs = []
    for nx in (64, 128, 256):
        gg = Grid(X=1.0, T=1.0, nx=nx, nt=8)
        s_e = np.sin(2.0 * gg.edges()) + gg.edges() ** 2
        ds = du_centers(gg, s_e)
        s_c = np.sin(2.0 * gg.centers()) + gg.centers() ** 2
        e = max(
            np.abs(i_bracket(gg, ds, 1) - (s_c - mean_omega(gg, s_c))).max(),
            np.abs(i_bracket(gg, ds, 2) - (s_c - s_e[0])).max(),
            np.abs(i_bracket(gg, ds, 3) - (s_c - (1 - gg.centers()) * s_e[0]
                                           - gg.centers() * s_e[-1])).max())
        errs.append(e)
    assert errs[0] / errs[1] > 3.5 and errs[1] / errs[2] > 3.5
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, f"200-field identity suite, worst residual {worst:.2e}, "
              f"idp decay {errs[0] / errs[2]:.1f}x over 4x refinement, "
              f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. solver conservation

def test_criterion_02_solver_conservation():
    t0 = time.time()
    g = Grid(X=1.0, T=0.5, nx=256, nt=2000)
    bc1 = BoundaryData.build(g, m=1, u0=0.0, uX=0.0, pi0=0.0, piX=0.0)
    spec = ProblemSpec(grid=g, gas=GAS, bc=bc1,
                       eta0=1.0 + 0.3 * (g.centers() > 0.5),
                       u0=0.1 * np.sin(np.pi * g.edges()),
                       theta0=np.ones(g.nx))
    sol = solve(spec, SchemeParams(store_stride=50))
    rep = diagnostics(sol, spec)
    assert rep.volume_residual <= 1e-12 * sol.volume[0]

    bc3 = BoundaryData.build(g, m=3, p0=GAS.k, pX=GAS.k, pi0=0.0, piX=0.0)
    eq = ProblemSpec(grid=g, gas=GAS, bc=bc3, eta0=np.ones(g.nx),
                     u0=np.zeros(g.nx + 1), theta0=np.ones(g.nx))
    sol_eq = solve(eq, SchemeParams(store_stride=50))
    dev = max(np.abs(sol_eq.eta - 1.0).max(), np.abs(sol_eq.u).max(),
              np.abs(sol_eq.theta - 1.0).max())
    assert dev <= 1e-9
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(2, f"gas-volume residual {rep.volume_residual:.2e} (<= 1e-12 V0), "
              f"equilibrium deviation {dev:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 3. weak-solution diagnostics under refinement

def test_criterion_03_identity_residual_rates():
    t0 = time.time()
    slopes = {}
    for m in (1, 2, 3):
        rows_log, rows_stress = [], []
        for nx in (128, 256, 512):
            g = Grid(X=1.0, T=0.25, nx=nx, nt=nx)
            if m == 1:
                bc = BoundaryData.build(g, m=1, u0=0.0, uX=0.0, pi0=0.0, piX=0.0)
            elif m == 2:
                bc = BoundaryData.build(g, m=2, p0=1.0, uX=0.0, pi0=0.0, piX=0.0)
            else:
                bc = BoundaryData.build(g, m=3, p0=1.0, pX=1.0, pi0=0.0, piX=0.0)
            spec = ProblemSpec(grid=g, gas=GAS, bc=bc, eta0=np.ones(g.nx),
                               u0=0.1 * np.sin(np.pi * g.edges()),
                               theta0=np.ones(g.nx))
            rep = diagnostics(solve(spec, SchemeParams(store_stride=nx // 64)), spec)
            rows_log.append((1.0 / nx, rep.logvol_residual))
            rows_stress.append((1.0 / nx, rep.stress_repr_residual))
        # two-point observed orders on the 3-level refinement; first-order
        # claims are checked with the usual 0.1 verification tolerance
        for tag, rows in (("lne", rows_log), ("stress", rows_stress)):
            orders = [np.log2(rows[i][1] / rows[i + 1][1]) for i in range(2)]
            slopes[(m, tag)] = min(orders)
            assert min(orders) >= 0.9, (m, tag, rows)
    elapsed = time.time() - t0
    assert elapsed < 180.0
    worst = min(slopes.values())
    report(3, f"identity residual orders >= {worst:.2f} for m=1,2,3, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 4. averaging-error bound

def test_criterion_04_averaging_error_bound():
    t0 = time.time()
    g = Grid(X=1.0, T=1.0, nx=8192, nt=4)
    xc = g.centers()
    # name: (profile, its xi breakpoints)
    family = {
        "smooth": (lambda xi, x: np.sin(2 * np.pi * xi) * np.ones_like(x), ()),
        "sawtooth": (lambda xi, x: xi * np.ones_like(x), ()),
        "step": (lambda xi, x: np.where(xi >= 0.5, 1.0, 0.0) * np.ones_like(x), (0.5,)),
        "smooth_xmod": (lambda xi, x: np.sin(2 * np.pi * xi) * (1 + 0.5 * x), ()),
        "step_xmod": (lambda xi, x: np.where(xi >= 0.25, 1.0, 0.0) * (1 + 0.5 * x),
                      (0.25,)),
        "mixed": (lambda xi, x: (1 + 0.4 * np.where(xi >= 0.5, 1.0, 0.0))
                  * (1 + 0.1 * np.sin(np.pi * x)), (0.5,)),
    }
    eps_sweep = [2.0 ** -k for k in range(3, 9)]
    worst_ratio = 0.0
    worst_slope = np.inf
    for name, (w, breakpoints) in family.items():
        quad = xi_quadrature(breakpoints)
        vals, wts = xi_sample(w, quad, xc)
        wh = wh_seminorm(g, vals, wts)
        rows = []
        for eps in eps_sweep:
            # R_eps w = w^(eps) - <w>
            r = realize(w, OscillationSpec(eps), xc) - xi_mean(w, quad, xc)
            ir = float(np.abs(primitive_at_edges(g, r)).max())
            assert ir <= 2.0 * eps * wh, (name, eps)
            worst_ratio = max(worst_ratio, ir / (2.0 * eps * wh))
            rows.append((eps, ir))
        slope, _, _ = fit_rate(rows)
        assert slope >= 0.95, (name, slope)
        worst_slope = min(worst_slope, slope)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(4, f"bound holds for 6 profiles x 6 eps (max LHS/RHS "
              f"{worst_ratio:.3f}), min slope {worst_slope:.3f}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 5 + 6. homogenization benchmark sweep (shared fixture)

@pytest.fixture(scope="module")
def homog_benchmark():
    cfg = cfgmod.load_config("configs/homog_benchmark.json")
    problem = cfgmod.build_two_scale_problem(cfg)
    scheme = cfgmod.build_scheme(cfg)
    st = cfg["study"]
    t0 = time.time()
    table = run_homog_study(problem, st["eps_list"], scheme=scheme, qe=float("inf"))
    return table, time.time() - t0


def test_criterion_05_homogenization_main_rate(homog_benchmark):
    table, elapsed = homog_benchmark
    assert elapsed < 1200.0
    details = []
    for col in HOMOG_BOUND_COLUMNS:
        fit = table.slopes[col]
        assert fit is not None, f"{col} degenerate"
        assert fit[0] >= 0.9, (col, fit)
        # at least one decade of error decay above the measured floor
        decades = table.metadata["decades_above_floor"][col]
        assert decades >= 1.0, (col, decades)
        details.append(f"{col} {fit[0]:+.2f} ({decades:.1f} decades)")
    assert table.floors, "solver floor must be measured and reported"
    assert not any(f.startswith("nonmonotone") for f in table.flags)
    report(5, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_06_holder_corollary_rates(homog_benchmark):
    table, _ = homog_benchmark
    for col in ("eta_Linf", "u_Linf2", "theta_Linf2"):
        assert table.slopes[col][0] >= 0.45, (col, table.slopes[col])
    for col in ("zeta_u_CQ", "zeta2_theta_CQ"):
        assert table.slopes[col][0] >= 0.2, (col, table.slopes[col])
    report(6, "eps^(1/2) columns >= 0.45 and zeta-weighted sup columns >= 0.2: "
              + ", ".join(f"{c} {table.slopes[c][0]:+.2f}"
                          for c in ("eta_Linf", "u_Linf2", "theta_Linf2",
                                    "zeta_u_CQ", "zeta2_theta_CQ")))


# --------------------------------------------------------------------------
# 7. continuous-dependence study

def test_criterion_07_lipschitz_dependence():
    t0 = time.time()
    cfg = cfgmod.load_config("configs/lipschitz_benchmark.json")
    base = cfgmod.build_problem(cfg["problem"])
    st = cfg["study"]
    patterns = st["patterns"]
    # the family touches eta0, u0, theta0 (through the energy), beta, gamma
    # and the boundary pressures simultaneously
    for key in ("eta0", "u0", "theta0", "beta", "gamma", "p0b"):
        assert key in patterns

    table = run_lipschitz_study(base, cfgmod.read_patterns(base, patterns), st["delta0"],
                                levels=st["levels"], scheme=cfgmod.build_scheme(cfg["problem"]))
    details = []
    for col in LIPSCHITZ_BOUND_COLUMNS:
        s = table.slopes[col][0]
        assert 0.9 <= s <= 1.1, (col, s)
        details.append(f"{col} {s:+.2f}")
    spread = table.metadata["ratio_spread"]
    assert max(spread.values()) < 3.0
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(7, "; ".join(details)
              + f"; LHS/Delta spread <= x{max(spread.values()):.2f}; {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 8. energy-averaged initial temperature

def test_criterion_08_homogenized_theta0():
    g = Grid(X=1.0, T=1.0, nx=64, nt=4)
    x = g.centers()
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b, c = rng.normal(size=3)
        shift = rng.uniform(0.1, 0.9)
        quad = xi_quadrature((shift,))

        def u0(xi, xx):
            return (a * np.sin(2 * np.pi * xi)
                    + b * np.where(xi >= shift, 1.0, 0.0) + c * xx * np.ones_like(xi))

        def th0(xi, xx):
            return 1.2 + 0.5 * np.cos(2 * np.pi * xi) * np.ones_like(xx)

        that = homogenized_theta0(u0, th0, 0.7, quad, x)
        assert np.all(that >= xi_mean(th0, quad, x))

    def pm1(xi, xx):
        return (2 * np.where(xi >= 0.5, 1.0, 0.0) - 1) * np.ones_like(xx)

    def ones(xi, xx):
        return np.ones_like(xi) * np.ones_like(xx)

    v1 = homogenized_theta0(pm1, ones, 1.0, xi_quadrature((0.5,)), x)
    assert np.abs(v1 - 1.5).max() <= 1e-10

    def sin_u(xi, xx):
        return np.sin(2 * np.pi * xi) * np.ones_like(xx)

    def twos(xi, xx):
        return 2.0 * np.ones_like(xi) * np.ones_like(xx)

    v2 = homogenized_theta0(sin_u, twos, 5.0, xi_quadrature(()), x)
    assert np.abs(v2 - 2.05).max() <= 1e-10
    report(8, "100 random profiles dominate the temperature mean; closed "
              "forms 1.5 and 2.05 reproduced to 1e-10")


# --------------------------------------------------------------------------
# 9. reconstruction consistency

def test_criterion_09_reconstruction_consistency():
    cfg = cfgmod.load_config("configs/homog_benchmark.json")
    cfg["grid"] = {"nx": 1024, "nt": 1024}
    cfg["scheme"] = {"store_stride": 1}
    problem = cfgmod.build_two_scale_problem(cfg)
    scheme = cfgmod.build_scheme(cfg)
    hs = solve_homogenized(problem, scheme)
    # the reconstruction is affine in eta0: its xi mean starts from <eta0>
    mean_eta = _reconstruct(hs, xi_mean(problem.eta0, problem.quadrature,
                                        problem.grid.centers()))
    err = space_lq(problem.grid, mean_eta - hs.base.eta, 2.0).max()
    floors = measure_floor(hs, floor_spec(problem), scheme, float("inf"))
    assert err <= 3.0 * floors["eta_C0L2"], (err, floors["eta_C0L2"])

    # closure identity at scheme order (here: exact discretely); the averaged
    # run keeps no sigma, so it comes from a stored solve of the same spec
    sigma = solve(problem.averaged_spec(), scheme).sigma
    du = du_centers(problem.grid, hs.base.u)
    resid = np.abs(sigma * hs.base.eta
                   + GAS.k * hs.base.theta - GAS.nu * du).max()
    assert resid < 1e-10
    report(9, f"mean reconstruction vs solver {err:.2e} <= 3 x floor "
              f"{floors['eta_C0L2']:.2e}; closure residual {resid:.2e}")


# --------------------------------------------------------------------------
# 10. expression language golden suite

def test_criterion_10_dsl_goldens():
    good = [
        ("1 + 2*x", {"x": 0.5}, 2.0),
        ("sin(2*3.141592653589793*xi)", {"xi": 0.25}, pytest.approx(1.0)),
        ("exp(0)", {}, 1.0),
        ("ln(exp(3))", {}, pytest.approx(3.0)),
        ("step(xi - 0.5)", {"xi": 0.6}, 1.0),
        ("step(xi - 0.5)", {"xi": 0.5}, 1.0),
        ("step(xi - 0.5)", {"xi": 0.4}, 0.0),
        ("frac(3.4)", {}, pytest.approx(0.4)),
        ("frac(0 - 0.25)", {}, 0.75),
        ("2^3^2", {}, 512.0),
        ("-x^2", {"x": 3.0}, -9.0),
        ("min(1, max(0, t))", {"t": 5.0}, 1.0),
        ("abs(0 - 2.5)", {}, 2.5),
        ("(1 + chi)*(1 - chi)", {"chi": 0.5}, 0.75),
        ("1/4 + 3/4", {}, 1.0),
    ]
    bad = [
        ("x + * 2", dsl.ExprSyntaxError, "1:5"),
        ("sin(x", dsl.ExprSyntaxError, "1:6"),
        ("2 *", dsl.ExprSyntaxError, "1:4"),
        ("(x + 2", dsl.ExprSyntaxError, "1:7"),
        ("foo(3)", dsl.UnknownIdentifier, "1:1"),
    ]
    assert len(good) + len(bad) == 20
    for source, bindings, expected in good:
        assert dsl.evaluate(dsl.parse(source), **bindings) == expected
    for source, exc, pos in bad:
        with pytest.raises(exc) as info:
            dsl.parse(source)
        assert str(info.value).startswith(pos)

    e = dsl.parse("sin(2*x)^2 + exp(x/3) - frac(7*x + t)")
    x = np.linspace(0.0, 1.0, 1001)
    runs = [dsl.evaluate(e, x=x, t=0.3).tobytes() for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
    report(10, "20-expression golden suite with exact diagnostics; "
               "evaluation bit-identical across repeats")
