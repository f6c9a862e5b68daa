from dataclasses import replace

import numpy as np
import pytest

from gaslab import config as cfgmod
from gaslab.grid import Grid, GasParams, du_centers, integrate_center
from gaslab.problem import BC_NAMES, BoundaryData, PerturbationSpec, ProblemSpec, validate
from gaslab.solver import SchemeParams, solve


def basic_grid():
    return Grid(X=1.0, T=0.5, nx=64, nt=100)


def constant_spec(m=3, N=10.0):
    g = basic_grid()
    gas = GasParams(nu=0.1, k=1.0, cV=1.0, lam=0.1)
    if m == 1:
        bc = BoundaryData.build(g, m=1, u0=0.0, uX=0.0, pi0=0.0, piX=0.0)
    elif m == 2:
        bc = BoundaryData.build(g, m=2, p0=1.0, uX=0.0, pi0=0.0, piX=0.0)
    else:
        bc = BoundaryData.build(g, m=3, p0=1.0, pX=1.0, pi0=0.0, piX=0.0)
    return ProblemSpec(grid=g, gas=gas, bc=bc, eta0=np.ones(g.nx),
                       u0=np.zeros(g.nx + 1), theta0=np.ones(g.nx), N=N)


def test_grid_invariants():
    g = basic_grid()
    assert integrate_center(g, np.ones(g.nx)) == g.X
    assert len(g.centers()) == g.nx and len(g.edges()) == g.nx + 1
    with pytest.raises(ValueError):
        Grid(X=1.0, T=1.0, nx=2, nt=10)
    with pytest.raises(ValueError):
        Grid(X=-1.0, T=1.0, nx=8, nt=10)


def test_gas_params_positive():
    with pytest.raises(ValueError):
        GasParams(nu=0.0, k=1.0, cV=1.0, lam=1.0)


def test_validate_constant_spec_is_clean():
    assert validate(constant_spec()) == []


def test_validate_flags_boundary_theta():
    spec = constant_spec()
    theta0 = spec.grid.centers().copy()   # first sample positive but tiny
    theta0[0] = 0.0
    bad = ProblemSpec(grid=spec.grid, gas=spec.gas, bc=spec.bc,
                      eta0=spec.eta0, u0=spec.u0, theta0=theta0, N=spec.N)
    msgs = validate(bad)
    assert any("theta0 must be strictly positive" in m for m in msgs)


def test_validate_gas_volume_condition_m1():
    g = basic_grid()
    gas = GasParams(nu=0.1, k=1.0, cV=1.0, lam=0.1)
    bc = BoundaryData.build(g, m=1, u0=0.0, uX=-2.0, pi0=0.0, piX=0.0)
    spec = ProblemSpec(grid=g, gas=gas, bc=bc, eta0=np.ones(g.nx),
                       u0=np.zeros(g.nx + 1), theta0=np.ones(g.nx), N=10.0)
    msgs = validate(spec)
    # volume 1 - 2t crosses 1/N = 0.1 at t = 0.45 < T
    assert any("gas volume" in m for m in msgs)


def test_validate_flags_inactive_boundary_entries():
    g = basic_grid()
    bc = BoundaryData(m=3, u0_t=np.ones(g.nt + 1), uX_t=np.zeros(g.nt + 1),
                      p0_t=np.ones(g.nt + 1), pX_t=np.ones(g.nt + 1),
                      pi0_t=np.zeros(g.nt + 1), piX_t=np.zeros(g.nt + 1))
    spec = ProblemSpec(grid=g, gas=GasParams(nu=0.1, k=1.0, cV=1.0, lam=0.1),
                       bc=bc, eta0=np.ones(g.nx), u0=np.zeros(g.nx + 1),
                       theta0=np.ones(g.nx), N=10.0)
    msgs = validate(spec)
    assert any("not used by family" in m for m in msgs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["eta0", "u0", "theta0", *BC_NAMES, "f", "beta", "gamma",
                                  "beta1", "beta2", "g1", "g2"])
def test_validate_reports_non_finite_samples(name, bad):
    # one bad sample, which every comparison in the (C1)/(C2)/(C3) checks would let pass
    spec = constant_spec(m=3)
    if name in BC_NAMES:
        series = getattr(spec.bc, name + "_t").copy()
        series[5] = bad
        spec = replace(spec, bc=replace(spec.bc, **{name + "_t": series}))
        want = f"boundary entry {name} must be finite at every step time"
    elif name in ("f", "beta", "gamma", "beta1", "beta2", "g1", "g2"):
        grid = spec.grid
        center = grid.centers()[grid.nx // 2]

        def fn(*args):                   # arguments end in (x, t)
            x = args[-2]
            if name in ("g1", "g2"):     # read at the centers: bad at one center only
                return np.where(np.abs(x - center) < 0.25 * grid.dx, bad, 0.0)
            return np.where(x > 0.5, bad, 0.0)
        if name == "f":
            spec = replace(spec, f=fn)
        else:
            spec = replace(spec, perturbation=PerturbationSpec(**{name: fn}))
        want = f"{name} must be finite on the probe set, failed at t=0" \
            + (" (C2)" if name == "f" else "")
    else:
        samples = np.asarray(getattr(spec, name), dtype=float).copy()
        samples[3] = bad
        spec = replace(spec, **{name: samples})
        want = f"{name} must be finite everywhere"
    assert validate(spec) == [want]


def test_validate_pressure_floor_m3():
    spec = constant_spec(m=3)
    bc = BoundaryData.build(spec.grid, m=3, p0=0.01, pX=1.0, pi0=0.0, piX=0.0)
    bad = ProblemSpec(grid=spec.grid, gas=spec.gas, bc=bc, eta0=spec.eta0,
                      u0=spec.u0, theta0=spec.theta0, N=10.0)
    assert any("p0 >= 1/N" in m for m in validate(bad))


def test_validate_negative_f_reported():
    spec = constant_spec()
    bad = ProblemSpec(grid=spec.grid, gas=spec.gas, bc=spec.bc, eta0=spec.eta0,
                      u0=spec.u0, theta0=spec.theta0, N=spec.N,
                      f=lambda chi, x, t: -np.ones_like(x))
    assert any("f must be nonnegative" in m for m in validate(bad))


def test_validate_beta_split_mismatch():
    spec = constant_spec()
    pert = PerturbationSpec(
        beta=lambda x, t: np.sin(x),
        beta1=lambda x, t: 0.5 * np.sin(x),
        beta2=lambda x, t: 0.2 * np.sin(x),
        beta_e=np.zeros(spec.grid.nx + 1))
    bad = spec.with_perturbation(pert)
    assert any("beta1 + beta2" in m for m in validate(bad))
    good = spec.with_perturbation(PerturbationSpec(
        beta=lambda x, t: np.sin(x),
        beta1=lambda x, t: 0.5 * np.sin(x),
        beta2=lambda x, t: 0.5 * np.sin(x),
        beta_e=np.zeros(spec.grid.nx + 1)))
    assert validate(good) == []


def test_derived_fields_algebra():
    # sigma eta = nu (Du + beta) - k theta at every sample
    spec = constant_spec()
    g = spec.grid
    xe = g.edges()
    spec = ProblemSpec(grid=g, gas=spec.gas, bc=spec.bc,
                       eta0=1.0 + 0.2 * (g.centers() > 0.5),
                       u0=0.1 * np.sin(np.pi * xe), theta0=np.ones(g.nx),
                       N=10.0)
    sol = solve(spec, SchemeParams(store_stride=10))
    for n in range(len(sol.times)):
        du = du_centers(g, sol.u[n])
        resid = sol.sigma[n] * sol.eta[n] - (spec.gas.nu * du
                                             - spec.gas.k * sol.theta[n])
        assert np.abs(resid).max() < 1e-12


def test_config_round_trip(tmp_path):
    cfg = cfgmod.load_config("configs/pulse.json")
    spec1 = cfgmod.build_problem(cfg)
    path = tmp_path / "resaved.json"
    cfgmod.save_config(cfg, path)
    spec2 = cfgmod.build_problem(cfgmod.load_config(path))
    assert spec1.grid == spec2.grid
    assert spec1.gas == spec2.gas
    for name in ("eta0", "u0", "theta0"):
        assert np.array_equal(getattr(spec1, name), getattr(spec2, name))
    for name in ("u0_t", "uX_t", "p0_t", "pX_t", "pi0_t", "piX_t"):
        assert np.array_equal(getattr(spec1.bc, name), getattr(spec2.bc, name))


# every boundary entry kind, with its expected series at t = 0, 0.005, ..., 0.5
BC_ENTRY_KINDS = {
    "none": (None, lambda t: 0.0 * t),
    "number": (0.25, lambda t: 0.25 + 0.0 * t),
    "expression": ("1 + 2*t", lambda t: 1.0 + 2.0 * t),
    "table": ([[0.0, 1.0], [0.5, 2.0]], lambda t: 1.0 + 2.0 * t),
    "callable": (lambda t: 1.0 + 2.0 * t, lambda t: 1.0 + 2.0 * t),
    "array": (np.linspace(1.0, 2.0, 101), lambda t: 1.0 + 2.0 * t),
}


@pytest.mark.parametrize("kind", list(BC_ENTRY_KINDS))
def test_boundary_table_entries(kind):
    g = basic_grid()
    entry, expected = BC_ENTRY_KINDS[kind]
    # pX is not used by family m = 1: whatever it is given, it stays zero
    bc = BoundaryData.build(g, m=1, u0=entry, uX=0.0, pX=entry, pi0=0.0, piX=0.0)
    assert np.allclose(bc.u0_t, expected(g.times()), rtol=0.0, atol=1e-14)
    assert not np.any(bc.pX_t)
    for bad in (np.ones(g.nt), [[0.0, 1.0, 2.0], [0.5, 2.0, 3.0]]):
        with pytest.raises(ValueError):
            BoundaryData.build(g, m=1, u0=bad, uX=0.0)


def test_boundary_interpolation_between_steps():
    g = basic_grid()
    bc = BoundaryData.build(g, m=3, p0="1 + t", pX=1.0, pi0=0.0, piX=0.0)
    mid = bc.at(g.times(), 0.5 * g.dt)
    assert mid["p0"] == pytest.approx(1.0 + 0.5 * g.dt, rel=1e-12)
