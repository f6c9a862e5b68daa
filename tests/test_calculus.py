import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gaslab.grid import Grid, integrate_center
from gaslab.calculus import (difference_quotient, i_bracket, mean_omega,
                             primitive, primitive_at_edges, time_primitive,
                             ShiftOutOfRange)


def make_grid(nx=256, X=1.0):
    return Grid(X=X, T=1.0, nx=nx, nt=8)


def test_primitive_of_one_is_identity_map():
    g = make_grid()
    iy = primitive(g, np.ones(g.nx))
    assert np.allclose(iy, g.centers(), rtol=0, atol=1e-14)


def test_primitive_linear_integrand():
    g = make_grid()
    iy = primitive(g, 2 * g.centers())
    # analytic antiderivative x^2
    assert np.abs(iy - g.centers() ** 2).max() < g.dx ** 2


def test_primitive_sine_against_antiderivative():
    g = make_grid()
    x = g.centers()
    iy = primitive(g, np.sin(2 * np.pi * x))
    exact = (1 - np.cos(2 * np.pi * x)) / (2 * np.pi)
    assert np.abs(iy - exact).max() < 2 * g.dx ** 2
    assert abs(integrate_center(g, np.sin(2 * np.pi * x))) < 1e-4


def test_primitive_at_edges_endpoints():
    g = make_grid()
    y = np.sin(g.centers())
    ie = primitive_at_edges(g, y)
    assert ie[0] == 0.0
    assert np.isclose(ie[-1], integrate_center(g, y), rtol=1e-14)


def test_mean_omega():
    g = make_grid(X=2.0)
    assert mean_omega(g, np.full(g.nx, 3.5)) == pytest.approx(3.5, abs=1e-14)
    assert mean_omega(g, g.centers()) == pytest.approx(1.0, abs=1e-12)
    g1 = make_grid()
    assert abs(mean_omega(g1, np.sin(2 * np.pi * g1.centers()))) < 1e-12


def test_i_bracket_constant_m3_vanishes():
    g = make_grid()
    assert np.abs(i_bracket(g, np.full(g.nx, 4.2), 3)).max() < 1e-13


def test_i_bracket_endpoint_conventions():
    g = make_grid()
    rng = np.random.default_rng(2)
    y = rng.normal(size=g.nx)
    i3 = i_bracket(g, y, 3)
    # vanishes at both ends: nearest-center values are O(dx) from 0
    scale = np.abs(y).max()
    assert abs(i3[0]) < g.dx * scale and abs(i3[-1]) < g.dx * scale
    i2 = i_bracket(g, y, 2)
    assert abs(i2[0]) < g.dx * scale


@pytest.mark.parametrize("nx", [64, 128, 256])
def test_i_bracket_reproduces_differentiated_field(nx):
    # I^<m> D s recovers s up to its boundary normalization, O(dx^2)
    g = make_grid(nx=nx)
    xe, xc = g.edges(), g.centers()
    s_edges = xe ** 2
    ds = (s_edges[1:] - s_edges[:-1]) / g.dx
    s_c = xc ** 2
    r1 = i_bracket(g, ds, 1) - (s_c - 1.0 / 3.0)
    r2 = i_bracket(g, ds, 2) - s_c
    r3 = i_bracket(g, ds, 3) - (s_c - xc)
    for r in (r1, r2, r3):
        assert np.abs(r).max() < 3 * g.dx ** 2


def test_idp_residual_decays_second_order():
    errs = []
    for nx in (64, 128, 256):
        g = make_grid(nx=nx)
        s_edges = np.sin(2 * g.edges())
        ds = (s_edges[1:] - s_edges[:-1]) / g.dx
        s_c = np.sin(2 * g.centers())
        r = i_bracket(g, ds, 1) - (s_c - mean_omega(g, s_c))
        errs.append(np.abs(r).max())
    assert errs[0] / errs[1] > 3.5 and errs[1] / errs[2] > 3.5


def test_time_primitive_shapes_and_values():
    t = np.linspace(0.0, 1.0, 101)
    assert np.allclose(time_primitive(np.ones_like(t), t), t, atol=1e-14)
    assert np.abs(time_primitive(2 * t, t) - t ** 2).max() < 1e-3
    g = make_grid(nx=8)
    b = np.tile(g.centers(), (len(t), 1))
    itb = time_primitive(b, t)
    assert np.allclose(itb, g.centers()[None, :] * t[:, None], atol=1e-12)


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("width", [None, 7])
def test_time_primitive_is_bitwise_scipy_cumulative_trapezoid(uniform, width):
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 0.7, 41) if uniform else np.sort(rng.uniform(0.0, 0.7, 41))
    b = rng.normal(size=(41,) if width is None else (41, width))
    want = cumulative_trapezoid(b, t, axis=0, initial=0)
    got = time_primitive(b, t)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_difference_quotient_linear_and_constant():
    g = make_grid()
    for j in (1, 5, 17):
        d = difference_quotient(g, g.centers(), j)
        assert np.allclose(d, 1.0, atol=1e-10)
        assert d.shape == (g.nx - j,)
    assert np.abs(difference_quotient(g, np.full(g.nx, 2.0), 3)).max() == 0.0


def test_difference_quotient_step_band():
    g = make_grid()
    x = g.centers()
    y = (x > 0.5).astype(float)
    j = round(0.25 / g.dx)
    d = difference_quotient(g, y, j)
    band = (x[: g.nx - j] > 0.25) & (x[: g.nx - j] <= 0.5)
    assert np.allclose(d[band], 4.0)
    assert np.abs(d[~band]).max() == 0.0


def test_difference_quotient_shift_bounds():
    g = make_grid()
    with pytest.raises(ShiftOutOfRange):
        difference_quotient(g, np.ones(g.nx), 0)
    with pytest.raises(ShiftOutOfRange):
        difference_quotient(g, np.ones(g.nx), g.nx)


# --- adjoint identities on random fields -----------------------------------

fields = st.integers(min_value=0, max_value=2 ** 32 - 1)


@given(seed=fields)
@settings(max_examples=30, deadline=None)
def test_adjoint_identity_I_Istar(seed):
    # I*z = Iz(X) - Iz integrates from the right
    g = make_grid(nx=128)
    rng = np.random.default_rng(seed)
    y, z = rng.normal(size=(2, g.nx))
    lhs = integrate_center(g, primitive(g, y) * z)
    rhs = integrate_center(g, y * (integrate_center(g, z) - primitive(g, z)))
    scale = max(1e-30, np.abs(y).max() * np.abs(z).max())
    assert abs(lhs - rhs) < 1e-12 * scale


@given(seed=fields)
@settings(max_examples=30, deadline=None)
def test_adjoint_identity_I1_I3(seed):
    g = make_grid(nx=128)
    rng = np.random.default_rng(seed)
    y, z = rng.normal(size=(2, g.nx))
    lhs = integrate_center(g, i_bracket(g, y, 1) * z)
    rhs = -integrate_center(g, y * i_bracket(g, z, 3))
    scale = max(1e-30, np.abs(y).max() * np.abs(z).max())
    assert abs(lhs - rhs) < 1e-12 * scale

