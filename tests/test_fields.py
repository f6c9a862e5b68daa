import json
from dataclasses import replace

import numpy as np
import pytest

from gaslab import config as cfgmod
from gaslab.dsl import ExprFn
from gaslab.grid import (Grid, GasParams, du_centers, integrate_center, integrate_edge,
                         sample_field)
from gaslab.homogenize import _AveragedForce
from gaslab.problem import (BC_NAMES, BoundaryData, PerturbationSpec, ProblemSpec,
                            sample_boundary, sample_field_times, validate)
from gaslab.solver import SchemeParams, solve
from gaslab.twoscale import OscillationSpec, realize, xi_mean, xi_quadrature


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


def test_integrate_edge_calls_share_one_weight_array():
    g = basic_grid()
    y = np.random.default_rng(5).standard_normal((7, g.nx + 1))
    w = g.edge_weights
    first, second = integrate_edge(g, y), integrate_edge(g, y[2])
    assert g.edge_weights is w and not w.flags.writeable
    # the weights built per call, as integrate_edge did before caching them
    fresh = np.ones(g.nx + 1)
    fresh[0] = fresh[-1] = 0.5
    assert np.array_equal(first, g.X * (y * fresh).sum(axis=-1) / g.nx)
    assert second == first[2]


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


@pytest.mark.parametrize("m", [0, 4])
def test_boundary_data_rejects_a_family_outside_1_2_3(m):
    # checked on construction, so validate never meets a family it cannot look up
    n = basic_grid().nt + 1
    with pytest.raises(ValueError, match=f"bc family m must be 1, 2 or 3, got {m}"):
        BoundaryData(m=m, **{name + "_t": np.zeros(n) for name in BC_NAMES})


@pytest.mark.parametrize("N", [np.nan, np.inf, -np.inf, 0.0, -10.0])
def test_validate_reports_a_non_finite_or_non_positive_N(N):
    # a NaN N passes every (C1)/(C3) comparison, and 1/N is undefined at N = 0
    spec = replace(constant_spec(), N=N)
    assert validate(spec) == [f"N must be a finite positive number, got {N!r}"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["eta0", "u0", "theta0", *BC_NAMES, "f", "beta", "gamma"])
def test_validate_reports_non_finite_samples(name, bad):
    # one bad sample, which every comparison in the (C1)/(C2)/(C3) checks would let pass
    spec = constant_spec(m=3)
    if name in BC_NAMES:
        series = getattr(spec.bc, name + "_t").copy()
        series[5] = bad
        spec = replace(spec, bc=replace(spec.bc, **{name + "_t": series}))
        want = f"boundary entry {name} must be finite at every step time"
    elif name in ("f", "beta", "gamma"):
        def fn(*args):                   # arguments end in (x, t)
            return np.where(args[-2] > 0.5, bad, 0.0)
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


@pytest.mark.parametrize("name", ["f", "g", "beta", "gamma"])
def test_validate_reports_a_refused_expression(name):
    # an expression whose sample is not finite raises dsl.NonfiniteResult;
    # validate reports it as the non-finite sample it is
    spec = constant_spec(m=3)
    tt = spec.grid.times()
    t_bad = float(tt[:: max(1, len(tt) // 32)][4])
    variables = ("chi", "x", "t") if name in ("f", "g") else ("x", "t")
    fns = {"beta": ExprFn("x", ("x", "t")), name: ExprFn(f"1/(t - {t_bad!r})^2", variables)}
    if name in ("f", "g"):
        spec = replace(spec, **{name: fns.pop(name)})
    spec = replace(spec, perturbation=PerturbationSpec(**fns))
    want = f"{name} must be finite on the probe set, failed at t={t_bad:g}" \
        + (" (C2)" if name in ("f", "g") else "")
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


def test_validate_samples_beta_once_per_probe_time():
    spec = constant_spec()
    times = []

    def beta(x, t):
        times.append(t)
        return np.sin(x)

    assert validate(replace(spec, perturbation=PerturbationSpec(beta=beta))) == []
    tt = spec.grid.times()
    assert times == list(tt[:: max(1, len(tt) // 32)])


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
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
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
}


@pytest.mark.parametrize("kind", list(BC_ENTRY_KINDS))
def test_boundary_table_entries(kind):
    g = basic_grid()
    entry, expected = BC_ENTRY_KINDS[kind]
    # pX is not used by family m = 1: it is sampled as given, and validate
    # reports any nonzero sample
    bc = BoundaryData.build(g, m=1, u0=entry, uX=0.0, pX=entry, pi0=0.0, piX=0.0)
    assert np.allclose(bc.u0_t, expected(g.times()), rtol=0.0, atol=1e-14)
    assert np.allclose(bc.pX_t, expected(g.times()), rtol=0.0, atol=1e-14)
    unused = "boundary entry pX is not used by family m=1 and must be identically zero"
    assert (unused in validate(replace(constant_spec(m=1), bc=bc))) == (entry is not None)
    for bad in (np.ones(g.nt), [[0.0, 1.0, 2.0], [0.5, 2.0, 3.0]], lambda t: 1.0, True):
        with pytest.raises(ValueError, match="a number, an expression in t or a"):
            BoundaryData.build(g, m=1, u0=bad, uX=0.0)


def test_boundary_interpolation_between_steps():
    g = basic_grid()
    bc = BoundaryData.build(g, m=3, p0="1 + t", pX=1.0, pi0=0.0, piX=0.0)
    mid = bc.at(g.times(), 0.5 * g.dt)
    assert mid["p0"] == pytest.approx(1.0 + 0.5 * g.dt, rel=1e-12)
    both = bc.at(g.times(), np.array([0.5 * g.dt, 0.25]))
    assert both["p0"].tolist() == [mid["p0"], bc.at(g.times(), 0.25)["p0"]]


def _sample_field_times_per_time(fn, times, *args):
    """The per-time loop sample_field_times replaced: one call per time."""
    out = np.zeros((len(times), len(args[-1])))
    if fn is not None:
        for n, t in enumerate(times):
            out[n] = sample_field(fn, *args, t)
    return out


def test_sample_field_times_is_bitwise_the_per_time_loop():
    g = Grid(X=1.0, T=0.5, nx=61, nt=97)
    xc = g.centers()
    chi = np.linspace(-0.5, 1.5, g.nx)
    in_xt = ExprFn("sin(3*x + t)*cos(2*t) + exp(-t)*ln(1 + x + t) + step(t - 0.25)",
                   ("x", "t"))
    cases = [(in_xt, (xc,)),
             (ExprFn("exp(t)*step(t - 0.2) + cos(5*t)", ("x", "t")), (xc,)),
             (cfgmod.ScaledFn(in_xt, 0.3), (xc,)),
             (cfgmod.ConstFn(0.7), (xc,)),
             (None, (xc,)),
             (lambda x, t: np.sin(np.pi * x) * np.exp(-t), (xc,)),
             (ExprFn("chi*x*cos(5*t) + step(chi - t)*ln(2 + t)", ("chi", "x", "t")),
              (chi, xc))]
    rng = np.random.default_rng(3)
    for times in (g.times(), rng.uniform(0.0, g.T, 70)):
        for fn, args in cases:
            got = sample_field_times(fn, times, *args)
            want = _sample_field_times_per_time(fn, times, *args)
            assert got.shape == want.shape == (len(times), g.nx)
            assert got.tobytes() == want.tobytes(), fn


# (constant, x-only, full) entries over each sampler's variables; a boundary
# series has t alone, so its "x-only" entry is in t
SAMPLER_ENTRIES = {"constant": (0.5, 0.5, 0.5, 0.5),
                   "x-only": ("1 + t", "1 + x", "1 + x", "1 + x"),
                   "full": ("1 + t", "1 + x", "1 + x*step(xi - 0.5)", "1 + chi*xi*x*t")}


@pytest.mark.parametrize("kind", list(SAMPLER_ENTRIES))
def test_every_sampler_returns_the_full_sample_shape(kind):
    g = basic_grid()
    xc, xe = g.centers(), g.edges()
    in_t, in_x, in_xi_x, in_all = SAMPLER_ENTRIES[kind]
    w = cfgmod.field_entry(in_xi_x, ("xi", "x"))
    quad = xi_quadrature((0.5,))
    force = _AveragedForce(cfgmod.field_entry(in_all, ("chi", "xi", "x", "t")), quad)
    samples = [(sample_boundary(in_t, g.times()), g.nt + 1),
               (sample_field(cfgmod.field_entry(in_x, ("x",)), xc), g.nx),
               (realize(w, OscillationSpec(0.25), xc), g.nx),
               (xi_mean(w, quad, xc), g.nx),
               (force(np.linspace(0.0, 2.0, g.nx + 1), xe, 0.3), g.nx + 1)]
    for values, n in samples:
        assert values.shape == (n,) and values.dtype == float
        if kind == "constant":
            assert np.allclose(values, 0.5, rtol=1e-15, atol=0.0)
    assert sample_field(None, xc, 0.3).tolist() == [0.0] * g.nx
    assert sample_field(cfgmod.field_entry(None, ("x",)), xe).tolist() == [0.0] * (g.nx + 1)
