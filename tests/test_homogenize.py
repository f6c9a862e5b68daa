import numpy as np
import pytest

from gaslab.grid import Grid, GasParams, du_centers
from gaslab.norms import space_lq
from gaslab.problem import BoundaryData
from gaslab.homogenize import (HomogSolution, TwoScaleProblem, _reconstruct,
                               eta_epsilon, solve_homogenized)
from gaslab.solver import SchemeParams, solve
from gaslab.twoscale import OscillationSpec, realize, xi_mean

GAS = GasParams(nu=0.1, k=1.0, cV=1.0, lam=0.1)


def benchmark_problem(nx=256, nt=256, osc_amp=0.4):
    g = Grid(X=1.0, T=0.25, nx=nx, nt=nt)
    bc = BoundaryData.build(g, m=3, p0=1.0, pX=1.0, pi0=0.0, piX=0.0)
    return TwoScaleProblem(
        grid=g, gas=GAS, bc=bc,
        eta0=lambda xi, x: (1 + osc_amp * np.where(xi >= 0.5, 1.0, 0.0))
        * (1 + 0.1 * np.sin(np.pi * x)),
        u0=lambda xi, x: 0.1 * np.sin(np.pi * x) * np.ones_like(xi),
        theta0=lambda xi, x: np.ones_like(x) * np.ones_like(xi), breakpoints_xi=(0.5,))


def reconstruct_at_xi(hs, xi):
    """eta(xi, x, t) on the snapshot grid: the reconstruction started from the
    two-scale initial profile at one cell coordinate xi."""
    xc = hs.grid.centers()
    return _reconstruct(hs, hs.problem.eta0(np.full_like(xc, xi), xc))


def beta_eps(hs, osc):
    """beta^(eps) = (1/nu) sigma R_eps(eta_recon) on the snapshot grid, where
    R_eps w = w^(eps) - <w>; the reconstruction is affine in eta0, so
    R_eps(eta_recon) = B R_eps(eta0)."""
    xc = hs.grid.centers()
    r0 = (realize(hs.problem.eta0, osc, xc)
          - xi_mean(hs.problem.eta0, hs.problem.quadrature, xc))
    return hs.base.sigma * (hs.B_hat * r0[None, :]) / hs.problem.gas.nu


def mass_residual_eps(hs, osc):
    """Residual of D_t eta^(eps) = Du + beta^(eps) at snapshot midpoints."""
    du = du_centers(hs.grid, hs.base.u)
    beta = beta_eps(hs, osc)
    dt_eta = np.diff(eta_epsilon(hs, osc), axis=0) / np.diff(hs.base.times)[:, None]
    rhs = 0.5 * (du[1:] + du[:-1]) + 0.5 * (beta[1:] + beta[:-1])
    return float(np.abs(dt_eta - rhs).max())


def test_xi_independent_data_collapses_to_direct_solve():
    prob = benchmark_problem(nx=64, nt=64, osc_amp=0.0)
    hs = solve_homogenized(prob)
    direct = solve(prob.realized_spec(OscillationSpec(0.125)))
    for name in ("eta", "u", "theta", "x_e"):
        a, b = getattr(hs.base, name), getattr(direct, name)
        assert np.abs(a - b).max() < 1e-12


def test_initial_theta_of_averaged_run_uses_energy_average():
    g = Grid(X=1.0, T=0.1, nx=64, nt=32)
    bc = BoundaryData.build(g, m=3, p0=1.0, pX=1.0, pi0=0.0, piX=0.0)
    prob = TwoScaleProblem(
        grid=g, gas=GAS, bc=bc,
        eta0=lambda xi, x: np.ones_like(x) * np.ones_like(xi),
        u0=lambda xi, x: (2 * np.where(xi >= 0.5, 1.0, 0.0) - 1) * np.ones_like(x),
        theta0=lambda xi, x: np.ones_like(x) * np.ones_like(xi), breakpoints_xi=(0.5,))
    spec = prob.averaged_spec()
    assert np.allclose(spec.theta0, 1.5, atol=1e-12)   # variance of +/-1 is 1
    assert np.abs(spec.u0).max() < 1e-12


def test_reconstruction_with_zero_stress_kernel():
    # synthetic injection: B = 1, theta = const -> eta = eta0 + (k/nu) theta t
    prob = benchmark_problem(nx=32, nt=16)
    hs = solve_homogenized(prob)
    ns = len(hs.base.times)
    theta_star = 0.7
    synthetic = HomogSolution(
        problem=prob, base=hs.base,
        B_hat=np.ones_like(hs.B_hat),
        it_binv_theta=theta_star * hs.base.times[:, None] * np.ones((ns, prob.grid.nx)))
    xc = prob.grid.centers()
    for s in (0.2, 0.8):
        e0 = prob.eta0(np.full_like(xc, s), xc)
        expect = e0[None, :] + (GAS.k / GAS.nu) * theta_star * hs.base.times[:, None]
        assert np.abs(reconstruct_at_xi(synthetic, s) - expect).max() < 1e-12


def test_reconstruction_with_zero_temperature_kernel():
    prob = benchmark_problem(nx=32, nt=16)
    hs = solve_homogenized(prob)
    synthetic = HomogSolution(problem=prob, base=hs.base, B_hat=hs.B_hat,
                              it_binv_theta=np.zeros_like(hs.it_binv_theta))
    eta = reconstruct_at_xi(synthetic, 0.6)
    xc = prob.grid.centers()
    e0 = prob.eta0(np.full_like(xc, 0.6), xc)
    assert np.abs(eta - hs.B_hat * e0[None, :]).max() < 1e-12


def test_reconstructed_mean_matches_solver_eta():
    # reconstruction fidelity is set by the snapshot spacing (the B kernel
    # integrates theta/B over stored times), so keep stride 1 here
    prob = benchmark_problem(nx=256, nt=256)
    hs = solve_homogenized(prob, SchemeParams(store_stride=1))
    # the reconstruction is affine in eta0: its xi mean starts from <eta0>
    mean_eta = _reconstruct(hs, xi_mean(prob.eta0, prob.quadrature, prob.grid.centers()))
    err = space_lq(prob.grid, mean_eta - hs.base.eta, 2.0).max()
    # both routes are first order in dt; they agree well below field scale
    assert err < 5e-4
    # refined run: the disagreement shrinks at scheme order
    prob2 = benchmark_problem(nx=256, nt=1024)
    hs2 = solve_homogenized(prob2, SchemeParams(store_stride=1))
    mean_eta2 = _reconstruct(hs2, xi_mean(prob2.eta0, prob2.quadrature,
                                          prob2.grid.centers()))
    err2 = space_lq(prob2.grid, mean_eta2 - hs2.base.eta, 2.0).max()
    assert err / err2 > 2.5


def test_closure_identity_exact():
    # sigma <eta> + k theta = nu Du holds to round-off at every snapshot
    prob = benchmark_problem(nx=128, nt=64)
    hs = solve_homogenized(prob)
    du = du_centers(prob.grid, hs.base.u)
    resid = (hs.base.sigma * hs.base.eta + GAS.k * hs.base.theta - GAS.nu * du)
    assert np.abs(resid).max() < 1e-12


def test_eta_epsilon_at_t0_is_realization():
    prob = benchmark_problem(nx=256, nt=64)
    hs = solve_homogenized(prob)
    osc = OscillationSpec(1.0 / 16)
    eta_eps = eta_epsilon(hs, osc)
    assert np.allclose(eta_eps[0], realize(prob.eta0, osc, prob.grid.centers()),
                       atol=1e-12)
    # a block of rows reads the same bits as the whole trajectory
    assert np.array_equal(eta_epsilon(hs, osc, slice(3, 9)), eta_eps[3:9])


def test_eta_epsilon_positive_and_bounded():
    prob = benchmark_problem(nx=256, nt=128)
    hs = solve_homogenized(prob)
    for eps in (1.0 / 16, 1.0 / 64):
        eta_eps = eta_epsilon(hs, OscillationSpec(eps))
        assert eta_eps.min() > 0.5 and eta_eps.max() < 3.0


def test_xi_independent_eta0_reconstruction_matches_base():
    prob = benchmark_problem(nx=128, nt=128, osc_amp=0.0)
    hs = solve_homogenized(prob, SchemeParams(store_stride=4))
    for eps in (0.5, 0.125):
        eta_eps = eta_epsilon(hs, OscillationSpec(eps))
        assert space_lq(prob.grid, eta_eps - hs.base.eta, 2.0).max() < 5e-3


def test_mass_equation_residual_refines():
    r = []
    for nt in (64, 256):
        prob = benchmark_problem(nx=256, nt=nt)
        hs = solve_homogenized(prob, SchemeParams(store_stride=1))
        r.append(mass_residual_eps(hs, OscillationSpec(1.0 / 8)))
    assert r[0] / r[1] > 2.0


def test_force_terms_realize_and_average():
    g = Grid(X=1.0, T=0.1, nx=128, nt=32)
    bc = BoundaryData.build(g, m=3, p0=1.0, pX=1.0, pi0=0.0, piX=0.0)

    def body_force(chi, xi, x, t):
        return (1 + 0.5 * np.sin(2 * np.pi * xi)) * np.cos(x) / (1 + chi ** 2)

    prob = TwoScaleProblem(
        grid=g, gas=GAS, bc=bc,
        eta0=lambda xi, x: np.ones_like(x) * np.ones_like(xi),
        u0=lambda xi, x: np.zeros_like(x) * np.ones_like(xi),
        theta0=lambda xi, x: np.ones_like(x) * np.ones_like(xi),
        g=body_force)
    xe = g.edges()
    chi = 0.3 * np.ones_like(xe)
    averaged = prob.averaged_spec().g(chi, xe, 0.0)
    # <1 + 0.5 sin(2 pi xi)> = 1
    assert np.allclose(averaged, np.cos(xe) / (1 + 0.09), atol=1e-10)
    eps = 0.25
    realized = prob.realized_spec(OscillationSpec(eps)).g(chi, xe, 0.0)
    xi = (xe / eps) - np.floor(xe / eps)
    assert np.allclose(realized, body_force(chi, xi, xe, 0.0), atol=1e-14)


def test_averaged_forces_use_the_problem_quadrature():
    # the midpoint rule does not integrate xi**2 exactly, so a mean over any
    # node set but the problem's own (nxi = 256 here) moves the bits
    g = Grid(X=1.0, T=0.1, nx=64, nt=8)
    bc = BoundaryData.build(g, m=3, p0=1.0, pX=1.0, pi0=0.0, piX=0.0)

    def eta0(xi, x):
        return (1 + xi ** 2) * (1 + 0.1 * np.sin(np.pi * x))

    def force(chi, xi, x, t):
        return ((xi ** 2 + 0.2 * np.where(xi >= 0.5, 1.0, 0.0)) * np.cos(x) * (1 + t)
                / (1 + chi ** 2))

    prob = TwoScaleProblem(grid=g, gas=GAS, bc=bc, eta0=eta0, u0=None,
                           theta0=lambda xi, x: np.ones_like(x) * np.ones_like(xi),
                           g=force, f=force, breakpoints_xi=(0.5,), nxi=256)
    spec = prob.averaged_spec()
    nodes, weights = prob.quadrature
    assert len(nodes) == 256
    xc, xe = g.centers(), g.edges()
    assert np.array_equal(spec.eta0, weights @ eta0(nodes[:, None], xc[None, :]))
    for fn, x in ((spec.g, xe), (spec.f, xc)):
        chi = 0.3 + 0.1 * x
        mean = weights @ force(chi[None, :], nodes[:, None], x[None, :], 0.05)
        assert np.array_equal(fn(chi, x, 0.05), mean)


def test_study_with_forces_runs():
    from gaslab.studies import run_homog_study
    g = Grid(X=1.0, T=0.1, nx=256, nt=64)
    bc = BoundaryData.build(g, m=3, p0=1.0, pX=1.0, pi0=0.0, piX=0.0)
    prob = TwoScaleProblem(
        grid=g, gas=GAS, bc=bc,
        eta0=lambda xi, x: (1 + 0.4 * np.where(xi >= 0.5, 1.0, 0.0)) * np.ones_like(x),
        u0=lambda xi, x: np.zeros_like(x) * np.ones_like(xi),
        theta0=lambda xi, x: np.ones_like(x) * np.ones_like(xi),
        g=lambda chi, xi, x, t: 0.2 * (1 + 0.5 * np.sin(2 * np.pi * xi))
        * np.sin(np.pi * x) / (1 + chi ** 2),
        f=lambda chi, xi, x, t: 0.1 * (1 + np.where(xi >= 0.5, 1.0, 0.0))
        * np.ones_like(x) / (1 + chi ** 2),
        breakpoints_xi=(0.5,))
    table = run_homog_study(prob, [0.5, 0.25, 0.125, 0.0625],
                            scheme=SchemeParams(store_stride=2))
    for col in ("eta_C0L2", "u_L2", "theta_L2"):
        vals = table.columns[col]
        assert all(np.isfinite(v) and v > 0 for v in vals)


def test_perturbation_fields_scale_with_eps():
    prob = benchmark_problem(nx=2048, nt=128)
    hs = solve_homogenized(prob, SchemeParams(store_stride=8))
    from gaslab.calculus import primitive
    sups = []
    for eps in (1.0 / 32, 1.0 / 64):
        ib = primitive(prob.grid, beta_eps(hs, OscillationSpec(eps)))
        sups.append(np.abs(ib).max())
    assert sups[0] / sups[1] == pytest.approx(2.0, rel=0.25)
