import numpy as np
import pytest

from gaslab.calculus import primitive_at_edges
from gaslab.grid import Grid
from gaslab.norms import space_lq, wh_seminorm
from gaslab.twoscale import (OscillationSpec, TwoScaleField, averaging_error,
                             beta_e_of, homogenized_theta0, realize, xi_mean,
                             xi_quadrature, xi_sample)


def make_grid(nx=1024):
    return Grid(X=1.0, T=1.0, nx=nx, nt=8)


def const_field(c):
    return TwoScaleField(lambda xi, x: c * np.ones_like(xi) * np.ones_like(x))


def step_field(shift=0.5, lo=1.0, hi=2.0):
    return TwoScaleField(
        lambda xi, x: (lo + (hi - lo) * np.where(xi >= shift, 1.0, 0.0))
        * np.ones_like(x),
        breakpoints=(shift,))


def test_oscillation_spec_validation():
    with pytest.raises(ValueError):
        OscillationSpec(eps=0.0)
    with pytest.raises(ValueError):
        OscillationSpec(eps=1.5)
    osc = OscillationSpec(eps=0.25, a_eps=0.1)
    assert osc.cell_coordinate(0.25 * (0.1 + 0.3)) == pytest.approx(0.3)


def test_field_breakpoint_certificate_checked():
    with pytest.raises(ValueError):
        TwoScaleField(lambda xi, x: xi, breakpoints=(0.5, 0.25))
    with pytest.raises(ValueError):
        TwoScaleField(lambda xi, x: xi, breakpoints=(1.5,))


def test_realize_xi_independent_field():
    g = make_grid()
    w = TwoScaleField(lambda xi, x: x ** 2 * np.ones_like(xi))
    for eps in (0.5, 0.125):
        r = realize(w, OscillationSpec(eps), g.centers())
        assert np.allclose(r, g.centers() ** 2, atol=1e-14)


def test_realize_pointwise_arithmetic():
    w = TwoScaleField(lambda xi, x: np.sin(2 * np.pi * xi) * np.ones_like(x))
    r = realize(w, OscillationSpec(0.25), np.array([0.125]))
    assert r[0] == pytest.approx(np.sin(np.pi), abs=1e-12)  # {0.5} -> 0
    w2 = TwoScaleField(
        lambda xi, x: (1.0 + np.where(xi >= 0.5, 1.0, 0.0)) * np.ones_like(x),
        breakpoints=(0.5,))
    r2 = realize(w2, OscillationSpec(0.1), np.array([0.34]))
    assert r2[0] == 1.0        # {3.4} = 0.4 < 0.5


def test_realize_right_continuous_at_jumps():
    w = step_field(0.5, lo=0.0, hi=1.0)
    # x/eps = 0.5 exactly: right limit applies, value 1
    r = realize(w, OscillationSpec(0.5), np.array([0.25]))
    assert r[0] == 1.0


def test_realize_bounded_by_cell_sup():
    g = make_grid()
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, c = rng.normal(size=3)
        w = TwoScaleField(
            lambda xi, x: a * np.sin(2 * np.pi * xi) + b * np.cos(2 * np.pi * xi)
            + c * x * np.ones_like(xi))
        vals, _ = xi_sample(w, g.centers())
        sup = np.abs(vals).max(axis=0)
        for eps in (0.25, 0.125, 0.0625):
            r = realize(w, OscillationSpec(eps), g.centers())
            # pointwise bound by the xi-sup, up to the lattice sampling of sup
            assert np.all(np.abs(r) <= sup + 1e-9 + 1e-3 * np.abs(sup))
        for q in (1.0, 2.0, np.inf):
            assert space_lq(g, r, q) <= space_lq(g, sup, q) * (1 + 2e-3) + 1e-12


def test_xi_quadrature_respects_breakpoints():
    nodes, weights = xi_quadrature((0.3, 0.7), 64)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    assert not np.any(np.isclose(nodes, 0.3)) and not np.any(np.isclose(nodes, 0.7))
    # every node stays inside its smooth segment
    for a, b in ((0.0, 0.3), (0.3, 0.7), (0.7, 1.0)):
        inside = (nodes > a) & (nodes < b)
        assert inside.sum() >= 1


def test_xi_mean_values():
    g = make_grid(nx=16)
    x = g.centers()
    assert np.abs(xi_mean(TwoScaleField(
        lambda xi, x: np.sin(2 * np.pi * xi) * np.ones_like(x)), x)).max() < 1e-12
    assert np.allclose(xi_mean(step_field(0.5, 1.0, 2.0), x), 1.5, atol=1e-14)
    assert np.allclose(xi_mean(TwoScaleField(lambda xi, x: xi * x), x), x / 2,
                       atol=1e-6)


def test_averaging_error_xi_independent_is_zero():
    g = make_grid(nx=64)
    w = TwoScaleField(lambda xi, x: (1 + x) * np.ones_like(xi))
    r = averaging_error(w, OscillationSpec(0.125), g.centers())
    assert np.abs(r).max() < 1e-13


def test_averaging_error_sine():
    g = make_grid(nx=512)
    w = TwoScaleField(lambda xi, x: np.sin(2 * np.pi * xi) * np.ones_like(x))
    eps = 0.0625
    r = averaging_error(w, OscillationSpec(eps), g.centers())
    assert np.allclose(r, np.sin(2 * np.pi * g.centers() / eps), atol=1e-12)


def test_primitive_of_averaging_error_is_order_eps():
    # analytic: I(sin(2 pi x/eps)) has sup eps/pi; bound 2 eps ||w||_WH
    g = make_grid(nx=8192)
    w = TwoScaleField(lambda xi, x: np.sin(2 * np.pi * xi) * np.ones_like(x))
    vals, wts = xi_sample(w, g.centers())
    wh = wh_seminorm(g, vals, wts)
    for k in (4, 5, 6):
        eps = 2.0 ** -k
        r = averaging_error(w, OscillationSpec(eps), g.centers())
        ir = np.abs(primitive_at_edges(g, r)).max()
        assert ir == pytest.approx(eps / np.pi, rel=0.02)
        assert ir <= 2 * eps * wh


def test_primitive_of_averaging_error_spacetime_variant():
    # time-dependent profile: the primitive of the averaging error stays
    # below 2 eps times the space-time seminorm, outer norm r in {1, inf}
    from gaslab.norms import wh_spacetime_seminorm, time_lr, INF
    g = Grid(X=1.0, T=2.0, nx=4096, nt=16)
    t = g.times()
    xc = g.centers()

    def profile_at(tv):
        return TwoScaleField(
            lambda xi, x: (1 + tv) * np.sin(2 * np.pi * xi) * (1 + 0.5 * x))

    profiles = [profile_at(tv) for tv in t]
    nodes, wts = profiles[0].quadrature()
    vals = np.stack([w(nodes[:, None], xc[None, :]) for w in profiles], axis=1)
    for r in (1.0, INF):
        whst = wh_spacetime_seminorm(g, vals, t, r, wts)
        for eps in (1.0 / 16, 1.0 / 64):
            ir = np.stack([np.abs(primitive_at_edges(
                g, averaging_error(w, OscillationSpec(eps), xc))).max()
                for w in profiles])
            assert time_lr(ir, t, r) <= 2 * eps * whst


def test_weak_convergence_trend():
    g = make_grid(nx=8192)
    w = step_field(0.5, 0.0, 1.0)
    phi = np.sin(np.pi * g.centers())
    resid = []
    for k in (3, 4, 5, 6, 7):
        r = averaging_error(w, OscillationSpec(2.0 ** -k), g.centers())
        resid.append(abs(g.X * np.mean(r * phi)))
    # decreasing within a small noise allowance as eps halves
    for a, b in zip(resid, resid[1:]):
        assert b <= 1.05 * a + 1e-12


def test_homogenized_theta0_xi_independent_u0():
    g = make_grid(nx=32)
    u0 = TwoScaleField(lambda xi, x: 0.3 * x * np.ones_like(xi))
    th0 = TwoScaleField(lambda xi, x: (1 + x) * np.ones_like(xi))
    out = homogenized_theta0(u0, th0, 2.0, g.centers())
    assert np.allclose(out, 1 + g.centers(), atol=1e-13)


def test_homogenized_theta0_closed_forms():
    g = make_grid(nx=16)
    x = g.centers()
    pm1 = TwoScaleField(
        lambda xi, x: (2 * np.where(xi >= 0.5, 1.0, 0.0) - 1) * np.ones_like(x),
        breakpoints=(0.5,))
    ones = const_field(1.0)
    assert np.allclose(homogenized_theta0(pm1, ones, 1.0, x), 1.5, atol=1e-10)
    sin_u = TwoScaleField(lambda xi, x: np.sin(2 * np.pi * xi) * np.ones_like(x))
    twos = const_field(2.0)
    assert np.allclose(homogenized_theta0(sin_u, twos, 5.0, x), 2.05, atol=1e-10)


def test_homogenized_theta0_dominates_theta_mean():
    g = make_grid(nx=32)
    x = g.centers()
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b, c, s = rng.normal(size=4)
        u0 = TwoScaleField(
            lambda xi, x: a * np.sin(2 * np.pi * xi) + b * np.where(xi >= 0.25, 1.0, 0.0)
            + c * x * np.ones_like(xi),
            breakpoints=(0.25,))
        th0 = TwoScaleField(
            lambda xi, x: 1.5 + 0.4 * np.tanh(s) * np.cos(2 * np.pi * xi) * np.ones_like(x))
        that = homogenized_theta0(u0, th0, 0.7, x)
        assert np.all(that >= xi_mean(th0, x) - 1e-15)


def test_beta_e_xi_independent_vanishes():
    g = make_grid(nx=256)
    w = TwoScaleField(lambda xi, x: (1 + 0.5 * x) * np.ones_like(xi))
    be = beta_e_of(w, OscillationSpec(0.125), g)
    assert np.abs(be).max() < 1e-13


def test_beta_e_analytic_amplitude_and_scaling():
    g = make_grid(nx=8192)
    w = TwoScaleField(
        lambda xi, x: (1 + 0.5 * np.sin(2 * np.pi * xi)) * np.ones_like(x))
    vals, wts = xi_sample(w, g.centers())
    wh = wh_seminorm(g, vals, wts)
    sups = []
    for eps in (1.0 / 16, 1.0 / 32):
        be = beta_e_of(w, OscillationSpec(eps), g)
        sup = np.abs(be).max()
        assert sup == pytest.approx(0.5 * eps / np.pi, rel=0.02)
        assert sup <= 2 * eps * wh
        sups.append(sup)
    assert sups[0] / sups[1] == pytest.approx(2.0, rel=0.1)


def test_realize_of_mean_is_mean():
    g = make_grid(nx=64)
    w = step_field(0.5, 1.0, 2.0)
    mean = xi_mean(w, g.centers())
    as_field = TwoScaleField(lambda xi, x: 1.5 * np.ones_like(xi) * np.ones_like(x))
    r = realize(as_field, OscillationSpec(0.125), g.centers())
    assert np.allclose(r, mean, atol=1e-14)
