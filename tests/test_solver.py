from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from gaslab import solver
from gaslab.grid import Grid, GasParams
from gaslab.norms import lqr_norm
from gaslab.problem import BoundaryData, PerturbationSpec, ProblemSpec, validate
from gaslab.solver import (NonFiniteState, NonlinearDivergence, PositivityLoss,
                           SchemeParams, diagnostics, solve)

GAS = GasParams(nu=0.1, k=1.0, cV=1.0, lam=0.1)


def build_bc(g, m):
    if m == 1:
        return BoundaryData.build(g, m=1, u0=0.0, uX=0.0, pi0=0.0, piX=0.0)
    if m == 2:
        return BoundaryData.build(g, m=2, p0=1.0, uX=0.0, pi0=0.0, piX=0.0)
    return BoundaryData.build(g, m=3, p0=1.0, pX=1.0, pi0=0.0, piX=0.0)


def pulse_spec(nx, nt, m, amp=0.1, T=0.25, eta_jump=0.0):
    g = Grid(X=1.0, T=T, nx=nx, nt=nt)
    xc, xe = g.centers(), g.edges()
    return ProblemSpec(grid=g, gas=GAS, bc=build_bc(g, m),
                       eta0=1.0 + eta_jump * (xc > 0.5),
                       u0=amp * np.sin(np.pi * xe),
                       theta0=np.ones(g.nx))


def halving_spec():
    # a strong velocity pulse on a coarse step: halvings [2, 4, 4, 4, 2, 2, 1, 1]
    g = Grid(X=1.0, T=0.25, nx=32, nt=8)
    return ProblemSpec(grid=g, gas=GAS, bc=build_bc(g, 1), eta0=np.ones(g.nx),
                       u0=2.0 * np.sin(2.0 * np.pi * g.edges()),
                       theta0=np.ones(g.nx))


def forced_spec():
    # every data callable set: g, f, beta and gamma
    spec = pulse_spec(64, 100, 1)
    pert = PerturbationSpec(beta=lambda x, t: 0.05 * np.sin(2 * np.pi * x) * np.cos(3 * t),
                            gamma=lambda x, t: 0.1 * x * (1.0 - x),
                            beta_e=np.zeros(spec.grid.nx + 1))
    return replace(spec, g=lambda chi, x, t: 0.5 * np.sin(2 * np.pi * chi),
                   f=lambda chi, x, t: 0.5 + 0.25 * np.cos(2 * np.pi * chi),
                   perturbation=pert)


def test_equilibrium_is_exact():
    # matched outer pressure p_b = k rho theta: nothing moves
    g = Grid(X=1.0, T=0.5, nx=128, nt=500)
    spec = ProblemSpec(grid=g, gas=GAS, bc=build_bc(g, 3),
                       eta0=np.ones(g.nx), u0=np.zeros(g.nx + 1),
                       theta0=np.ones(g.nx))
    sol = solve(spec)
    dev = max(np.abs(sol.eta - 1.0).max(), np.abs(sol.u).max(),
              np.abs(sol.theta - 1.0).max())
    assert dev < 1e-12
    rep = diagnostics(sol, spec)
    assert rep.logvol_residual < 1e-10
    assert np.abs(sol.u).max() < 1e-12


def test_gas_volume_identity_m1_exact():
    spec = pulse_spec(128, 400, 1, eta_jump=0.3)
    sol = solve(spec)
    rep = diagnostics(sol, spec)
    assert rep.volume_residual < 1e-12 * sol.volume[0]


def test_gas_volume_identity_m1_with_moving_boundaries():
    g = Grid(X=1.0, T=0.25, nx=64, nt=200)
    bc = BoundaryData.build(g, m=1, u0=lambda t: 0.05 * np.sin(6 * t),
                            uX=lambda t: -0.02 * t, pi0=0.0, piX=0.0)
    spec = ProblemSpec(grid=g, gas=GAS, bc=bc, eta0=np.ones(g.nx),
                       u0=np.zeros(g.nx + 1), theta0=np.ones(g.nx))
    sol = solve(spec)
    rep = diagnostics(sol, spec)
    assert rep.volume_residual < 1e-12


def test_gas_volume_identity_with_beta():
    g = Grid(X=1.0, T=0.25, nx=64, nt=200)
    pert = PerturbationSpec(beta=lambda x, t: 0.1 * np.sin(2 * np.pi * x) + 0.05,
                            beta_e=np.zeros(g.nx + 1))
    spec = ProblemSpec(grid=g, gas=GAS, bc=build_bc(g, 1),
                       eta0=np.ones(g.nx), u0=np.zeros(g.nx + 1),
                       theta0=np.ones(g.nx), perturbation=pert)
    sol = solve(spec)
    rep = diagnostics(sol, spec)
    assert rep.volume_residual < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_identity_residuals_decay_first_order(m):
    res_log, res_stress = [], []
    for nx in (64, 128, 256):
        spec = pulse_spec(nx, nx, m)
        rep = diagnostics(solve(spec, SchemeParams(store_stride=4)), spec)
        res_log.append(rep.logvol_residual)
        res_stress.append(rep.stress_repr_residual)
    assert res_log[0] / res_log[2] > 2.0 ** 1.8
    assert res_stress[0] / res_stress[2] > 2.0 ** 1.8


def test_positivity_margins_recorded():
    spec = pulse_spec(64, 100, 3)
    sol = solve(spec)
    assert sol.min_eta > 0 and sol.min_theta > 0
    rep = diagnostics(sol, spec)
    assert rep.positivity_margins == (sol.min_eta, sol.min_theta)


def test_self_convergence_order_at_least_one():
    # smooth pulse, m = 1, against a fine-grid run as the oracle
    fine = solve(pulse_spec(512, 512, 1), SchemeParams(store_stride=8))

    def restrict(sol, factor):
        eta = sol.eta.reshape(sol.eta.shape[0], -1, factor).mean(axis=2)
        u = sol.u[:, ::factor]
        theta = sol.theta.reshape(sol.theta.shape[0], -1, factor).mean(axis=2)
        return eta, u, theta

    errs = []
    for nx in (128, 256):
        sol = solve(pulse_spec(nx, nx, 1), SchemeParams(store_stride=nx // 64))
        f_eta, f_u, f_theta = restrict(fine, 512 // nx)
        ia = [np.argmin(np.abs(fine.times - t)) for t in sol.times]
        g = sol.grid
        err = (lqr_norm(g, sol.eta - f_eta[ia], 2.0, 2.0, sol.times)
               + lqr_norm(g, sol.u - f_u[ia], 2.0, 2.0, sol.times)
               + lqr_norm(g, sol.theta - f_theta[ia], 2.0, 2.0, sol.times))
        errs.append(err)
    assert errs[0] / errs[1] > 2.0 ** 0.9


def test_linf_velocity_stable_under_refinement():
    vals = [np.abs(solve(pulse_spec(nx, nx, 1)).u).max()
            for nx in (128, 256, 512)]
    for v in vals[:-1]:
        assert abs(v - vals[-1]) / vals[-1] < 0.05


def test_zero_perturbation_bit_identical():
    # halving_spec's halved steps exercise the minima each attempt carries
    for spec in (pulse_spec(64, 100, 3, eta_jump=0.25), halving_spec()):
        a = solve(spec)
        for pert in (PerturbationSpec(beta=None, gamma=None,
                                      beta_e=np.zeros(spec.grid.nx + 1)),
                     PerturbationSpec()):
            b = solve(spec.with_perturbation(pert))
            for name in ("eta", "u", "theta", "x_e", "sigma", "it_sigma", "volume",
                         "it_boundary_du", "it_beta_volume", "substeps", "picard_sweeps"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
            for name in a.energy:
                assert a.energy[name].tobytes() == b.energy[name].tobytes(), name
            assert (a.min_eta, a.min_theta) == (b.min_eta, b.min_theta)


def test_perturbed_run_uses_beta_in_stress():
    g = Grid(X=1.0, T=0.1, nx=64, nt=50)
    pert = PerturbationSpec(beta=lambda x, t: 0.2 * np.cos(np.pi * x),
                            beta_e=np.zeros(g.nx + 1))
    spec = ProblemSpec(grid=g, gas=GAS, bc=build_bc(g, 3),
                       eta0=np.ones(g.nx), u0=np.zeros(g.nx + 1),
                       theta0=np.ones(g.nx), perturbation=pert)
    sol = solve(spec)
    # sigma at t=0 carries the beta term: sigma = nu(Du + beta) - p
    expect = GAS.nu * 0.2 * np.cos(np.pi * g.centers()) - 1.0
    assert np.allclose(sol.sigma[0], expect, atol=1e-12)


def test_x_e_initialization_and_evolution():
    spec = pulse_spec(64, 100, 3, eta_jump=0.4)
    g = spec.grid
    sol = solve(spec)
    from gaslab.calculus import primitive_at_edges
    assert np.allclose(sol.x_e[0], primitive_at_edges(g, spec.eta0), atol=1e-14)
    # D_t x_e = u at scheme order (trapezoid in t between snapshots)
    dt_xe = np.diff(sol.x_e, axis=0) / np.diff(sol.times)[:, None]
    u_mid = 0.5 * (sol.u[1:] + sol.u[:-1])
    assert np.abs(dt_xe - u_mid).max() < 5e-3


def test_beta_e_shifts_initial_x_e():
    spec = pulse_spec(64, 50, 3)
    g = spec.grid
    shift = 0.01 * np.sin(np.pi * g.edges())
    pert = PerturbationSpec(beta_e=shift)
    sol = solve(spec.with_perturbation(pert))
    from gaslab.calculus import primitive_at_edges
    assert np.allclose(sol.x_e[0], primitive_at_edges(g, spec.eta0) + shift,
                       atol=1e-14)


def test_forces_enter_through_eulerian_coordinate():
    # g depending on chi = x_e: for eta0 = 1, x_e(x, 0) = x, so a g that
    # vanishes at chi = x keeps the equilibrium; a shifted one does not
    g = Grid(X=1.0, T=0.05, nx=64, nt=50)
    base = ProblemSpec(grid=g, gas=GAS, bc=build_bc(g, 3),
                       eta0=np.ones(g.nx), u0=np.zeros(g.nx + 1),
                       theta0=np.ones(g.nx),
                       g=lambda chi, x, t: 5.0 * (chi - x))
    sol = solve(base)
    assert np.abs(sol.u).max() < 1e-12
    kicked = ProblemSpec(grid=g, gas=GAS, bc=build_bc(g, 3),
                         eta0=np.ones(g.nx), u0=np.zeros(g.nx + 1),
                         theta0=np.ones(g.nx),
                         g=lambda chi, x, t: 5.0 * (chi - x) + 1.0)
    sol2 = solve(kicked)
    assert np.abs(sol2.u).max() > 1e-3


def test_heat_source_raises_temperature():
    # rigid walls (m = 1, zero velocities): uniform heating cannot move the
    # gas, so cV D_t theta = f gives theta = 1 + t exactly
    g = Grid(X=1.0, T=0.1, nx=64, nt=100)
    spec = ProblemSpec(grid=g, gas=GAS, bc=build_bc(g, 1),
                       eta0=np.ones(g.nx), u0=np.zeros(g.nx + 1),
                       theta0=np.ones(g.nx),
                       f=lambda chi, x, t: np.ones_like(x))
    sol = solve(spec)
    assert np.allclose(sol.theta[-1], 1.0 + g.T, rtol=1e-9)
    assert np.abs(sol.u).max() < 1e-11


def test_positivity_loss_reported():
    # strong imposed rarefaction at both ends empties the gas volume
    g = Grid(X=1.0, T=2.0, nx=32, nt=40)
    bc = BoundaryData.build(g, m=1, u0=lambda t: 2.0, uX=lambda t: -2.0,
                            pi0=0.0, piX=0.0)
    spec = ProblemSpec(grid=g, gas=GAS, bc=bc, eta0=np.ones(g.nx),
                       u0=np.zeros(g.nx + 1), theta0=np.ones(g.nx))
    with pytest.raises((PositivityLoss, NonlinearDivergence)):
        solve(spec)


def test_adaptive_substeps_recorded():
    spec = pulse_spec(64, 100, 3)
    sol = solve(spec)
    assert sol.substeps.shape == (spec.grid.nt,)
    assert np.all(sol.substeps >= 1)
    # the retried steps must commit only their successful attempt
    spec = halving_spec()
    sol = solve(spec)
    assert sol.substeps.tolist() == [2, 4, 4, 4, 2, 2, 1, 1]
    assert diagnostics(sol, spec).volume_residual <= 1e-13


def test_energy_ledger_tracks_totals():
    spec = pulse_spec(64, 200, 3)
    sol = solve(spec)
    led = sol.energy
    assert set(led) >= {"kinetic", "internal", "total",
                        "boundary_and_source_work"}
    # closed ledger: d(total) ~ boundary work + heat, loose tolerance
    drift = (led["total"] - led["total"][0]) - led["boundary_and_source_work"]
    assert np.abs(drift).max() < 5e-3 * abs(led["total"][0])


@pytest.mark.parametrize("spec", [pulse_spec(64, 100, 3), halving_spec()],
                         ids=["pulse", "halving"])
def test_picard_sweeps_recorded(spec):
    sol = solve(spec)
    assert sol.picard_sweeps.shape == (spec.grid.nt,)
    assert np.all(sol.picard_sweeps >= sol.substeps)
    assert np.all(sol.picard_sweeps <= solver.MAX_PICARD * sol.substeps)


def test_snapshot_steps_index_the_step_times():
    # stride 4 plus a dense window of 8 steps: the bundle names the steps it stored
    spec = pulse_spec(32, 40, 3, T=0.1)
    sol = solve(spec, SchemeParams(store_stride=4, dense_steps=8))
    g = spec.grid
    assert sol.steps.tolist() == sorted(set(range(0, 41, 4)) | set(range(1, 9)))
    assert np.array_equal(sol.times, g.times()[sol.steps])
    assert sol.eta.shape == (len(sol.steps), g.nx)


def test_predicted_start_matches_plain_start(monkeypatch):
    # the extrapolated first iterate saves sweeps but must reach the same
    # fixed point to the Picard tolerance and never add a halving
    for spec in (pulse_spec(64, 100, 3), halving_spec()):
        predicted = solve(spec)
        substep = solver._Stepper.substep
        with monkeypatch.context() as mp:
            mp.setattr(solver._Stepper, "substep",
                       lambda self, state, t0, h, history=(): substep(self, state, t0, h))
            plain = solve(spec)
        assert predicted.substeps.tolist() == plain.substeps.tolist()
        assert predicted.picard_sweeps.sum() < plain.picard_sweeps.sum()
        for name in ("eta", "u", "theta", "x_e"):
            drift = np.abs(getattr(predicted, name) - getattr(plain, name)).max()
            assert drift <= 1e-9, (name, drift)


def quadratic_states(times):
    # (eta, u, theta) quadratic in t, one state per time
    x = np.linspace(0.0, 1.0, 9)
    return [(1.0 + t * x - 2.0 * t * t, np.sin(x) * t * t - 0.5 * t, 2.0 + 3.0 * t * t + x)
            for t in times]


@pytest.mark.parametrize("h_b, h_a, h", [(0.1, 0.1, 0.1), (0.1, 0.05, 0.05),
                                         (0.05, 0.1, 0.025)],
                         ids=["uniform", "after-halving", "mixed"])
def test_extrapolate_is_exact_for_quadratics(h_b, h_a, h):
    t = 0.3
    b, a, now, target = quadratic_states([t - h_a - h_b, t - h_a, t, t + h])
    state = (*now, None)
    start = solver._extrapolate(state, ((a, h_a), (b, h_b)), h)
    for got, want in zip(start, target):
        assert np.abs(got - want).max() <= 1e-14
    # one history entry: the linear extrapolation; none: the state itself
    linear = solver._extrapolate(state, ((a, h_a),), h)
    for got, x_now, x_a in zip(linear, now, a):
        assert np.abs(got - (x_now + (h / h_a) * (x_now - x_a))).max() <= 1e-14
    for got, x_now in zip(solver._extrapolate(state, (), h), now):
        assert np.array_equal(got, x_now)


# halving_spec contracts slowly (ratio about 0.45) at its first steps, so the
# 50-sweep budget, and with it the halvings, depend on the tolerance below
# 1e-12; its changes also stall at round-off near 1e-13
STOP_CASES = pytest.mark.parametrize("spec, ref_tol", [(pulse_spec(64, 100, 3), 1e-14),
                                                       (halving_spec(), 1e-12),
                                                       (forced_spec(), 1e-14)],
                                     ids=["pulse", "halving", "forced"])


@STOP_CASES
def test_contraction_stop_matches_tight_tolerance(spec, ref_tol, monkeypatch):
    # the stop on the estimated next change ends the sweeps early but keeps
    # the trajectory within the Picard tolerance of a tight-tolerance run
    sol = solve(spec)
    with monkeypatch.context() as mp:
        mp.setattr(solver, "PICARD_TOL", ref_tol)
        ref = solve(spec)
    substep = solver._Stepper.substep
    with monkeypatch.context() as mp:
        mp.setattr(solver._Stepper, "substep", lambda self, state, t0, h, history=():
                   substep(self, state, t0, h, history[:1]))
        mp.setattr(solver, "_converged", lambda change, prev: change < solver.PICARD_TOL)
        linear_plain = solve(spec)
    assert sol.substeps.tolist() == ref.substeps.tolist() == linear_plain.substeps.tolist()
    assert sol.picard_sweeps.sum() < linear_plain.picard_sweeps.sum()
    for name in ("eta", "u", "theta", "x_e"):
        drift = np.abs(getattr(sol, name) - getattr(ref, name)).max()
        assert drift <= solver.PICARD_TOL, (name, drift)


@STOP_CASES
def test_plain_start_stops_on_the_change_alone(spec, ref_tol, monkeypatch):
    # from the plain start the first change is the whole step increment, and
    # a ratio over it misjudges the contraction: every substep started plain
    # ends on change < PICARD_TOL alone and stays within the tolerance
    with monkeypatch.context() as mp:
        mp.setattr(solver, "PICARD_TOL", ref_tol)
        ref = solve(spec)
    substep = solver._Stepper.substep
    monkeypatch.setattr(solver._Stepper, "substep",
                        lambda self, state, t0, h, history=(): substep(self, state, t0, h))
    sol = solve(spec)
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_converged", lambda change, prev: change < solver.PICARD_TOL)
        change_only = solve(spec)
    for name in ("eta", "u", "theta", "x_e", "picard_sweeps"):
        assert np.array_equal(getattr(sol, name), getattr(change_only, name)), name
    for name in ("eta", "u", "theta", "x_e"):
        drift = np.abs(getattr(sol, name) - getattr(ref, name)).max()
        assert drift <= solver.PICARD_TOL, (name, drift)


def test_zero_data_callables_match_absent_data():
    # absent g, f, beta, gamma read as zeros: explicit zero callables give
    # the same trajectory bit for bit
    spec = pulse_spec(64, 100, 1, eta_jump=0.2)
    zero = PerturbationSpec(beta=lambda x, t: np.zeros_like(x),
                            gamma=lambda x, t: np.zeros_like(x),
                            beta_e=np.zeros(spec.grid.nx + 1))
    explicit = replace(spec, g=lambda chi, x, t: np.zeros_like(x),
                       f=lambda chi, x, t: np.zeros_like(x), perturbation=zero)
    a, b = solve(spec), solve(explicit)
    for name in ("eta", "u", "theta", "x_e", "sigma", "pi", "it_sigma", "it_p", "it_g",
                 "volume", "picard_sweeps"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_beta_and_gamma_sampled_once_per_substep_time():
    # the substep reaching t and the rates at t share one sample of each
    spec = forced_spec()
    pert = spec.perturbation
    times = {"beta": [], "gamma": []}

    def counting(name, fn):
        def sample(x, t):
            times[name].append(t)
            return fn(x, t)
        return sample

    counted = replace(spec, perturbation=replace(
        pert, beta=counting("beta", pert.beta), gamma=counting("gamma", pert.gamma)))
    a, b = solve(spec), solve(counted)
    assert np.all(b.substeps == 1)
    for name in ("beta", "gamma"):
        assert len(times[name]) == len(set(times[name])) == spec.grid.nt + 1, name
    for name in ("eta", "u", "theta", "x_e", "sigma", "pi", "it_sigma", "it_p", "it_g",
                 "volume", "it_boundary_du", "it_beta_volume", "picard_sweeps"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@given(a_eta=st.floats(-0.3, 0.3), a_u=st.floats(-0.5, 0.5), a_theta=st.floats(-0.5, 0.5),
       ub0=st.floats(-0.2, 0.2), ubX=st.floats(-0.2, 0.2))
@settings(max_examples=20, deadline=None)
def test_random_m1_data_keep_volume_positivity_and_sweep_bounds(a_eta, a_u, a_theta, ub0, ubX):
    g = Grid(X=1.0, T=0.25, nx=32, nt=20)
    xc, xe = g.centers(), g.edges()
    spec = ProblemSpec(grid=g, gas=GAS,
                       bc=BoundaryData.build(g, m=1, u0=ub0, uX=ubX, pi0=0.0, piX=0.0),
                       eta0=1.0 + a_eta * np.sin(2 * np.pi * xc),
                       u0=ub0 + (ubX - ub0) * xe + a_u * np.sin(np.pi * xe),
                       theta0=1.0 + a_theta * np.cos(2 * np.pi * xc))
    assert validate(spec) == []
    sol = solve(spec)
    assert diagnostics(sol, spec).volume_residual <= 1e-13
    assert sol.min_eta > 0 and sol.min_theta > 0
    assert np.all(sol.substeps <= sol.picard_sweeps)
    assert np.all(sol.picard_sweeps <= solver.MAX_PICARD * sol.substeps)


def test_non_finite_force_raises_at_once():
    # g turns NaN after t = 0.05: the first substep reaching past it stops
    # the solve with a named error, without a halving retry
    spec = pulse_spec(32, 20, 3, T=0.1)

    def g(chi, x, t):
        return np.full_like(x, np.nan) if t > 0.05 else np.zeros_like(x)

    with pytest.raises(NonFiniteState) as exc:
        solve(replace(spec, g=g))
    assert exc.value.variable == "u"
    assert exc.value.t == pytest.approx(0.055, abs=1e-12)


def test_non_finite_initial_data_raises():
    spec = pulse_spec(32, 4, 3)
    theta0 = np.ones(32)
    theta0[5] = np.inf
    with pytest.raises(NonFiniteState, match="theta"):
        solve(replace(spec, theta0=theta0))
