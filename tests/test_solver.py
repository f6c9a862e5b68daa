import ctypes
import dataclasses
import itertools
import tracemalloc
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from gaslab import solver
from gaslab.calculus import i_bracket, mean_omega, primitive_at_edges, time_primitive
from gaslab.dsl import ExprFn
from gaslab.grid import Grid, GasParams, edges_to_centers, sample_field
from gaslab.norms import NAMED_NORMS, ROW_BLOCK, space_lq
from gaslab.problem import (SNAPSHOT_FIELDS, BoundaryData, PerturbationSpec, ProblemSpec,
                            validate)
from gaslab.solver import (NonFiniteState, NonlinearDivergence, PositivityLoss,
                           SchemeParams, diagnostics, solve)

GAS = GasParams(nu=0.1, k=1.0, cV=1.0, lam=0.1)


def lqr_norm(grid, w, q, r, times):
    """The anisotropic L^{q,r} norm of w, as the Lqr tag of `gaslab norms`
    evaluates it."""
    return float(NAMED_NORMS["Lqr"](grid, w, times, q=q, r=r))


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
    bc = BoundaryData.build(g, m=1, u0="0.05*sin(6*t)", uX="-0.02*t", pi0=0.0, piX=0.0)
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
    # no halved step, so every substep is a stored step
    assert np.all(sol.substeps == 1)
    assert (sol.min_eta, sol.min_theta) == (sol.eta.min(), sol.theta.min())


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
            b = solve(replace(spec, perturbation=pert))
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
    sol = solve(replace(spec, perturbation=pert))
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
    bc = BoundaryData.build(g, m=1, u0=2.0, uX=-2.0, pi0=0.0, piX=0.0)
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


@pytest.mark.parametrize("source", ["f", "g"])
def test_energy_residual_with_sources_at_scheme_order(source):
    # the ledger counts int f and int g u, so with f = 0.5 or g = 0.5 x the
    # residual decays with dt like the no-source run (5.8e-6 at nt = 200)
    # instead of carrying the source work itself (0.125 for f, 6.4e-3 for g)
    data = {"f": lambda chi, x, t: 0.5, "g": lambda chi, x, t: 0.5 * x}
    res = []
    for nt in (100, 200):
        spec = replace(pulse_spec(64, nt, 3), **{source: data[source]})
        res.append(diagnostics(solve(spec), spec).energy_residual)
    assert res[1] < 2e-4
    assert res[0] / res[1] > 1.8


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
    # (eta, u, theta) quadratic in t, one state per time, packed as the
    # stepper packs its states (eta and theta at 8 centers, u at 9 edges, no x_e)
    x = np.linspace(0.0, 1.0, 9)
    xc = 0.5 * (x[1:] + x[:-1])
    return [solver._pack(1.0 + t * xc - 2.0 * t * t, np.sin(x) * t * t - 0.5 * t,
                         2.0 + 3.0 * t * t + xc, None) for t in times]


@pytest.mark.parametrize("h_b, h_a, h", [(0.1, 0.1, 0.1), (0.1, 0.05, 0.05),
                                         (0.05, 0.1, 0.025)],
                         ids=["uniform", "after-halving", "mixed"])
def test_extrapolate_is_exact_for_quadratics(h_b, h_a, h):
    t = 0.3
    b, a, now, target = quadratic_states([t - h_a - h_b, t - h_a, t, t + h])
    state = now
    start = solver._extrapolate(state, ((a, h_a), (b, h_b)), h)
    for got, want in zip(start, target):
        assert np.abs(got - want).max() <= 1e-14
    # one history entry: the linear extrapolation; none: the state itself
    linear = solver._extrapolate(state, ((a, h_a),), h)
    for got, x_now, x_a in zip(linear, now, a):
        assert np.abs(got - (x_now + (h / h_a) * (x_now - x_a))).max() <= 1e-14
    for got, x_now in zip(solver._extrapolate(state, (), h), now):
        assert np.array_equal(got, x_now)


@pytest.mark.parametrize("shapes", [(8, 8, 8), (8, 10, 8), (9, 9, 8), (8, 9, 9), (9, 8, 8)],
                         ids=["u-short", "u-long", "eta-long", "theta-long", "eta-u-swapped"])
def test_pack_rejects_samples_that_do_not_fit_the_layout(shapes):
    # a packed iterate splits at nx and 2 nx + 1, so every other length mix
    # is refused, even one whose total is 3 nx + 1
    eta, u, theta = (np.ones(n) for n in shapes)
    with pytest.raises(ValueError, match="nx, nx \\+ 1 and nx samples"):
        solver._pack(eta, u, theta, None)


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


def data_variant(m, present):
    """A pulse of family m with the data callables of forced_spec named in
    `present` (of "beta", "gamma", "g", "f") set, and the others absent."""
    spec = pulse_spec(32, 20, m, eta_jump=0.2)
    forced = forced_spec()
    pert = PerturbationSpec(beta_e=np.zeros(spec.grid.nx + 1), **{
        name: getattr(forced.perturbation, name) for name in ("beta", "gamma")
        if name in present})
    return replace(spec, perturbation=pert,
                   **{name: getattr(forced, name) for name in ("g", "f") if name in present})


@pytest.mark.parametrize("m", [1, 2, 3])
def test_rates_fed_the_last_sweep_match_rates_from_the_state(m):
    # the parts the last Picard sweep leaves at a state give rates() the bits
    # that it builds from the state alone, with each of beta, gamma, g and f
    # absent or present, from a plain start and from predicted ones
    names = ("beta", "gamma", "g", "f")
    for present in itertools.chain.from_iterable(
            itertools.combinations(names, k) for k in range(len(names) + 1)):
        spec = data_variant(m, present)
        g = spec.grid
        stepper = solver._Stepper(spec)
        state = solver._pack(spec.eta0, spec.u0, spec.theta0, primitive_at_edges(g, spec.eta0))
        history = ()
        for n in range(3):
            t1 = (n + 1) * g.dt
            new, parts, _ = stepper.substep(state, n * g.dt, g.dt, history)
            fed = stepper.rates(new, t1, parts)
            rebuilt = stepper.rates(new, t1)
            assert (parts.min_eta, parts.min_theta) == (new[0].min(), new[2].min())
            for name, a, b in zip(("sigma", "p", "g", "pi", "work_rate"), fed, rebuilt):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (present, n, name)
            history = ((state, g.dt),) + history[:1]
            state = new


def assert_same_bundle(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, dict):
            assert x.keys() == y.keys()
            for key in x:
                assert np.array_equal(x[key], y[key]), (field.name, key)
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


@pytest.mark.parametrize("spec", [pulse_spec(64, 40, 3), forced_spec()],
                         ids=["pulse", "forced"])
def test_failed_partial_attempt_leaves_the_step_record(spec, monkeypatch):
    # step 5 fails its full step and then one substep of its halved attempt:
    # the second (run A, after the first has advanced the attempt's record)
    # or the first (run B).  Both accept the quartered attempt, so their
    # bundles agree only if the failed attempt left the step record as it was
    g = spec.grid
    t0, dt = 5 * g.dt, g.dt
    substep = solver._Stepper.substep

    def run(fail):
        def forced(self, state, t, h, history=()):
            if (t, h) in fail:
                raise solver._Retry("theta", t + h, 1)
            return substep(self, state, t, h, history)

        with monkeypatch.context() as mp:
            mp.setattr(solver._Stepper, "substep", forced)
            return solve(spec)

    a = run({(t0, dt), (t0 + dt / 2, dt / 2)})
    b = run({(t0, dt), (t0, dt / 2)})
    assert a.substeps[5] == b.substeps[5] == 4
    assert np.sum(a.substeps != 1) == 1
    assert_same_bundle(a, b)


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
    # the substep reaching t and the rates at t share one sample of each; a
    # call samples a block of times, so the times are counted one by one
    spec = forced_spec()
    pert = spec.perturbation
    times = {"beta": [], "gamma": []}

    def counting(name, fn):
        def sample(x, t):
            times[name].extend(np.ravel(t).tolist())
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


def one_time_at_a_time(fn):
    """fn sampled at each time of a block alone, as a Python float, and the
    rows stacked: the per-time sampling the stepper did before it sampled
    blocks of times."""
    def sample(x, t):
        return np.stack([sample_field(fn, x, tk) for tk in np.ravel(t).tolist()])
    return sample


def test_block_sampled_time_data_match_per_time_samples():
    # beta and gamma in (x, t) on halving_spec: the halved steps sample their
    # inner substep times off the nominal block, and t = 0 alone
    spec = halving_spec()
    pert = PerturbationSpec(
        beta=ExprFn("0.05*sin(2*3.141592653589793*x)*cos(3*t)", ("x", "t")),
        gamma=ExprFn("0.1*x*(1 - x)*(1 + t)", ("x", "t")))
    blocked = replace(spec, perturbation=pert)
    single = replace(spec, perturbation=replace(pert, beta=one_time_at_a_time(pert.beta),
                                                gamma=one_time_at_a_time(pert.gamma)))
    a, b = solve(blocked), solve(single)
    assert a.substeps.tolist() == [2, 4, 4, 4, 2, 2, 1, 1]
    assert a.it_beta_volume.any()
    assert_same_bundle(a, b)


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


def _random_tridiagonal(n, pivoting, seed):
    """A _Tridiagonal of size n with random bands: strictly diagonally dominant
    (dgtsv swaps no rows), or with a weak diagonal that makes it swap rows."""
    rng = np.random.default_rng(seed)
    system = solver._Tridiagonal(n)
    system.lower[:] = rng.uniform(-1.0, 1.0, n - 1)
    system.upper[:] = rng.uniform(-1.0, 1.0, n - 1)
    system.rhs[:] = rng.normal(size=n)
    if pivoting:
        system.diag[:] = rng.uniform(-0.5, 0.5, n)
    else:
        system.diag[:] = rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 3.0, n)
    return system


@pytest.mark.parametrize("pivoting", [False, True])
@pytest.mark.parametrize("n", [2, 3, 257, 4097])
def test_tridiagonal_solve_is_bitwise_scipy_dgtsv(n, pivoting):
    from scipy.linalg.lapack import dgtsv
    system = _random_tridiagonal(n, pivoting, seed=n)
    lower, diag, upper, x_ref, info = dgtsv(system.lower.copy(), system.diag.copy(),
                                            system.upper.copy(), system.rhs.copy())
    assert info == 0
    x = system.solve(0.0, "u")
    assert x.tobytes() == x_ref.tobytes()
    for band, ref in ((system.lower, lower), (system.diag, diag), (system.upper, upper)):
        assert band.tobytes() == ref.tobytes()
    # a row swap leaves fill-in where dgtsv otherwise zeroes the lower band
    assert system.lower[:-1].any() == (pivoting and n > 2)


def test_tridiagonal_zero_pivot_names_the_system_and_time():
    system = solver._Tridiagonal(3)
    system.lower[:] = 0.0
    system.diag[:] = [0.0, 1.0, 1.0]
    system.upper[:] = 1.0
    system.rhs[:] = 1.0
    with pytest.raises(np.linalg.LinAlgError, match=r"singular theta system near t=0\.25"):
        system.solve(0.25, "theta")


def test_tridiagonal_illegal_argument_raises_runtime_error():
    # dgtsv's info < 0 is a programming bug, kept out of the CLI's exit-2 path
    system = solver._Tridiagonal(3)
    system.buf[:] = 1.0
    system._args = (ctypes.byref(solver._LAPACK_INT(-1)),) + system._args[1:]
    with pytest.raises(RuntimeError, match="argument 1"):
        system.solve(0.0, "u")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("band", ["lower", "diag", "upper", "rhs"])
def test_tridiagonal_non_finite_entry_raises_before_lapack(band, value, monkeypatch):
    # one non-finite entry in a band or the right-hand side stops the solve
    # with the system's name and time before dgtsv runs: no call is made and
    # the buffer is left as it was
    system = _random_tridiagonal(9, False, seed=9)
    getattr(system, band)[3] = value
    before = system.buf.tobytes()
    calls = []
    monkeypatch.setattr(solver, "_DGTSV", lambda *args: calls.append(args))
    with pytest.raises(NonFiniteState, match=r"^non-finite theta near t=0\.375$") as exc:
        system.solve(0.375, "theta")
    assert (exc.value.variable, exc.value.t) == ("theta", 0.375)
    assert calls == []
    assert system.buf.tobytes() == before


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


# --- blocked diagnostics against the whole-array passes ---------------------

def whole_array_residuals(sol, spec):
    """Reference: the logvol and stress-representation residuals computed on
    the whole (ns, nx) trajectory at once, as diagnostics did before it read
    the bundle in row blocks."""
    g, gas = sol.grid, spec.gas
    lhs = gas.nu * np.log(sol.eta) - gas.nu * np.log(sol.eta[0])[None, :] \
        - sol.it_sigma - sol.it_p
    res_logvol = float(space_lq(g, lhs, 2.0).max())

    u_dev = edges_to_centers(sol.u - sol.u[0][None, :] - sol.it_g)
    m = spec.bc.m
    tt = g.times()
    if m == 1:
        rhs = i_bracket(g, u_dev, 1) + mean_omega(g, sol.it_sigma)[:, None]
    else:
        rhs = i_bracket(g, u_dev, m)
        it_p0 = time_primitive(spec.bc.p0_t, tt)[sol.steps]
        it_pX = time_primitive(spec.bc.pX_t, tt)[sol.steps]
        if m == 2:
            rhs = rhs - it_p0[:, None]
        else:
            xc = g.centers()
            prof0 = (1.0 - xc / g.X)[None, :]
            profX = (xc / g.X)[None, :]
            rhs = rhs - it_p0[:, None] * prof0 - it_pX[:, None] * profX
    res_stress = float(space_lq(g, sol.it_sigma - rhs, 2.0).max())
    return res_logvol, res_stress


def first_rows(sol, n):
    """The bundle cut to its first n snapshots."""
    return replace(sol, steps=sol.steps[:n], times=sol.times[:n],
                   **{name: getattr(sol, name)[:n] for name in SNAPSHOT_FIELDS})


@pytest.mark.parametrize("m", [1, 2, 3])
def test_blocked_diagnostics_match_whole_array_passes(m):
    # forced, with time-dependent boundary stresses; stride 2 over nt = 120
    # with 8 dense steps stores B + 1 = 65 rows
    g = Grid(X=1.0, T=0.1, nx=48, nt=120)
    bc = {1: BoundaryData.build(g, m=1, u0="0.05*sin(9*t)", uX=0.0, pi0=0.0, piX=0.0),
          2: BoundaryData.build(g, m=2, p0="1 + 0.1*sin(9*t)", uX=0.0, pi0=0.0, piX=0.0),
          3: BoundaryData.build(g, m=3, p0="1 + 0.1*sin(9*t)", pX="1 - 0.1*t",
                                pi0=0.0, piX=0.0)}[m]
    spec = replace(pulse_spec(48, 120, m, T=0.1), bc=bc,
                   g=lambda chi, x, t: 0.5 * np.sin(2 * np.pi * chi),
                   f=lambda chi, x, t: 0.5 + 0.25 * np.cos(2 * np.pi * chi))
    sol = solve(spec, SchemeParams(store_stride=2, dense_steps=8))
    assert len(sol.steps) == ROW_BLOCK + 1
    for n in (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1):
        part = first_rows(sol, n)
        rep = diagnostics(part, spec)
        assert (rep.logvol_residual, rep.stress_repr_residual) == \
            whole_array_residuals(part, spec)


def test_diagnostics_peak_memory_is_a_few_row_blocks():
    # a stride-1 bundle of 2,000 steps is 18.5 MB; the whole-array passes
    # allocated about half of that
    spec = pulse_spec(128, 2000, 3)
    sol = solve(spec, SchemeParams(store_stride=1))
    block = ROW_BLOCK * (spec.grid.nx + 1) * 8
    tracemalloc.start()
    try:
        diagnostics(sol, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * block


@given(m=st.sampled_from([2, 3]), a_eta=st.floats(-0.3, 0.3), a_u=st.floats(-0.5, 0.5),
       a_theta=st.floats(-0.5, 0.5), a_p0=st.floats(-0.2, 0.2), a_pX=st.floats(-0.2, 0.2),
       a_g=st.floats(0.2, 0.5), sign_g=st.sampled_from([-1.0, 1.0]), a_f=st.floats(0.1, 0.5))
@settings(max_examples=16, deadline=None)
def test_random_forced_data_keep_identity_residuals_at_scheme_order(
        m, a_eta, a_u, a_theta, a_p0, a_pX, a_g, sign_g, a_f):
    # m = 2 and 3 with f and g on, from (32, 40) to (64, 80): the energy residual
    # halves with dt only while the ledger counts the work of f and g, and the
    # log-volume and stress residuals stay first order, as
    # test_identity_residuals_decay_first_order checks on a pulse.  Over 150
    # examples the smallest ratios were 1.81, 1.94 and 1.80
    data = {"g": lambda chi, x, t: sign_g * a_g * np.sin(np.pi * chi),
            "f": lambda chi, x, t: a_f * (1.0 + 0.5 * np.cos(2 * np.pi * chi))}
    reports = []
    for nx, nt in ((32, 40), (64, 80)):
        g = Grid(X=1.0, T=0.25, nx=nx, nt=nt)
        xc, xe = g.centers(), g.edges()
        bc = BoundaryData.build(g, m=m, p0=f"1 + {a_p0!r}*sin(8*t)",
                                uX=0.0 if m == 2 else None,
                                pX=f"1 - {a_pX!r}*t" if m == 3 else None, pi0=0.0, piX=0.0)
        spec = ProblemSpec(grid=g, gas=GAS, bc=bc, eta0=1.0 + a_eta * np.sin(2 * np.pi * xc),
                           u0=a_u * np.sin(np.pi * xe),
                           theta0=1.0 + a_theta * np.cos(2 * np.pi * xc), **data)
        assert validate(spec) == []
        reports.append(diagnostics(solve(spec, SchemeParams(store_stride=1)), spec))
    coarse, fine = reports
    for name in ("energy_residual", "logvol_residual", "stress_repr_residual"):
        assert getattr(coarse, name) / getattr(fine, name) > 1.6, name


# --- streamed rows against stored rows ----------------------------------------

# (spec, scheme): past the dense window and a stride, 159 kept rows in three
# blocks for each family; every data callable; the halving pulse
STREAM_CASES = {
    "m1": (lambda: pulse_spec(32, 600, 1, eta_jump=0.3),
           SchemeParams(store_stride=4, dense_steps=10)),
    "m2": (lambda: pulse_spec(32, 600, 2), SchemeParams(store_stride=4, dense_steps=10)),
    "m3": (lambda: pulse_spec(32, 600, 3), SchemeParams(store_stride=4, dense_steps=10)),
    "forced": (forced_spec, SchemeParams(store_stride=1)),
    "halving": (halving_spec, SchemeParams(store_stride=1)),
}


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_streamed_rows_equal_stored_rows_bitwise(case):
    make, scheme = STREAM_CASES[case]
    spec = make()
    stored = solve(spec, scheme)
    n = len(stored.steps)
    if case.startswith("m"):
        assert n > 2 * ROW_BLOCK and n % ROW_BLOCK
    if case == "halving":
        assert stored.substeps.max() > 1
    seen = []

    def rows(block):
        # a streamed block is a view of the buffer the next block overwrites:
        # compare it now; tobytes tells a signed zero from zero
        for name in ("steps", "times") + SNAPSHOT_FIELDS:
            assert getattr(block, name).tobytes() == \
                getattr(stored, name)[block.rows].tobytes(), name
        seen.append((block.rows.start, block.rows.stop))

    streamed = solve(spec, scheme, rows=rows)
    assert seen == [(i, min(i + ROW_BLOCK, n)) for i in range(0, n, ROW_BLOCK)]
    assert [(b.rows.start, b.rows.stop) for b in stored.row_blocks()] == seen
    for name in SNAPSHOT_FIELDS:
        assert getattr(streamed, name) is None
    for name in ("steps", "times", "volume", "it_boundary_du", "it_beta_volume",
                 "substeps", "picard_sweeps"):
        assert getattr(streamed, name).tobytes() == getattr(stored, name).tobytes(), name
    assert streamed.energy.keys() == stored.energy.keys()
    for key, track in stored.energy.items():
        assert streamed.energy[key].tobytes() == track.tobytes(), key
    assert (streamed.min_eta, streamed.min_theta) == (stored.min_eta, stored.min_theta)
    assert streamed.grid == stored.grid


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_streamed_residual_rows_give_the_stored_diagnostics(case):
    make, scheme = STREAM_CASES[case]
    spec = make()
    residual_rows = solver.ResidualRows(spec)
    streamed = solve(spec, scheme, rows=residual_rows)
    assert diagnostics(streamed, spec, residual_rows) == diagnostics(solve(spec, scheme), spec)
