import inspect

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gaslab.grid import Grid, du_centers, integrate_center
from gaslab.calculus import i_bracket, mean_omega
from gaslab import norms
from gaslab.norms import (INF, BadExponent, h21star_majorant, h_minus_one, lqr_norm,
                          space_lq, v2star_majorant, wh_seminorm, wh_spacetime_seminorm)
from gaslab.twoscale import TwoScaleField, xi_sample


def make_grid(nx=256, nt=256, X=1.0, T=1.0):
    return Grid(X=X, T=T, nx=nx, nt=nt)


def xt_field(grid, fn):
    t = grid.times()
    return fn(grid.centers()[None, :], t[:, None]) * np.ones((len(t), grid.nx))


# --- anisotropic norms ------------------------------------------------------

def test_lqr_constant_fields():
    g = make_grid(T=2.0)
    w = np.full((g.nt + 1, g.nx), -3.0)
    assert lqr_norm(g, w, 2.0, INF, g.times()) == pytest.approx(3.0, rel=1e-12)
    assert lqr_norm(g, w, INF, 1.0, g.times()) == pytest.approx(6.0, rel=1e-12)


def test_lqr_separable_product():
    g = make_grid(T=2.0)
    w = xt_field(g, lambda x, t: x * t)
    # ||x||_L2(0,1) * ||t||_L2(0,2) = sqrt(1/3) * sqrt(8/3)
    assert lqr_norm(g, w, 2.0, 2.0, g.times()) == pytest.approx(np.sqrt(8.0) / 3.0,
                                                                rel=1e-4)


def test_lqr_rejects_bad_exponents():
    g = make_grid()
    w = np.ones((g.nt + 1, g.nx))
    with pytest.raises(BadExponent):
        lqr_norm(g, w, 0.5, 2.0, g.times())
    with pytest.raises(BadExponent):
        lqr_norm(g, w, 2.0, 0.0, g.times())


# --- negative-order norms ---------------------------------------------------

def test_h_minus_one_constant_m3():
    g = make_grid()
    val = h_minus_one(g, np.ones(g.nx), 3)
    assert val == pytest.approx(1.0 / np.sqrt(3.0) + 1.0, abs=1e-4)


def test_h_minus_one_of_derivative_m1():
    g = make_grid()
    xe = g.edges()
    s = xe * (1 - xe)
    ds = (s[1:] - s[:-1]) / g.dx
    # I^<1> D s = s - <s>, and || x(1-x) - 1/6 ||_L2 = 1/sqrt(180)
    assert h_minus_one(g, ds, 1) == pytest.approx(1.0 / np.sqrt(180.0), abs=1e-4)


def test_h_minus_one_zero_field():
    g = make_grid()
    for m in (1, 2, 3):
        assert h_minus_one(g, np.zeros(g.nx), m) == 0.0


def test_h_minus_one_nesting_regression():
    # regression guard: measured once on a probe set, frozen with margin;
    # not a constant from any bound
    g = make_grid()
    rng = np.random.default_rng(42)
    xc = g.centers()
    probes = [rng.normal(size=g.nx) for _ in range(50)]
    probes += [np.sin(k * np.pi * xc) for k in range(1, 6)]
    probes += [np.ones(g.nx), xc, xc ** 2]
    bound = {1: 0.35, 2: 0.62, 3: 1.62}
    for y in probes:
        l2 = space_lq(g, y, 2.0)
        for m in (1, 2, 3):
            assert h_minus_one(g, y, m) <= bound[m] * l2


# --- bounded-variation seminorm --------------------------------------------

def test_wh_seminorm_linear():
    g = make_grid()
    val = wh_seminorm(g, g.centers())
    assert val == pytest.approx(1.5 - g.dx, abs=1e-10)


def test_wh_seminorm_step():
    g = make_grid()
    y = (g.centers() > 0.5).astype(float)
    assert wh_seminorm(g, y) == pytest.approx(1.5, abs=1e-12)


def test_wh_seminorm_two_scale_oracle():
    g = make_grid()
    w = TwoScaleField(lambda xi, x: np.sin(2 * np.pi * xi) * x)
    vals, wts = xi_sample(w, g.centers())
    # fine-grid evaluation: 1/2 + (2/pi) (checked at nx = 2048: 1.13629)
    assert wh_seminorm(g, vals, wts) == pytest.approx(1.1363, abs=5e-3)


def test_wh_spacetime_seminorm_consistency():
    # time-constant step field: both instantaneous terms are constant in t,
    # so the outer L^r just contributes T^(1/r)
    g = make_grid(nx=128, nt=32, T=2.0)
    t = g.times()
    y = (g.centers() > 0.5).astype(float)
    w = np.tile(y, (len(t), 1))
    for r in (1.0, 2.0, INF):
        scale = 1.0 if r == INF else g.T ** (1.0 / r)
        assert wh_spacetime_seminorm(g, w, t, r) == pytest.approx(1.5 * scale,
                                                                  rel=1e-10)
    # separable growth in t: the r = inf norm picks the final-time factor
    w2 = t[:, None] * np.tile(g.centers(), (len(t), 1))
    ref = wh_seminorm(g, g.centers())
    assert wh_spacetime_seminorm(g, w2, t, INF) == pytest.approx(g.T * ref,
                                                                 rel=1e-10)


# --- whole-array norms against their per-row definitions --------------------

def row_lq(g, y, q):
    """Reference L^q(Omega) norm of one center or edge row: its own weights."""
    y = np.abs(y)
    if q == INF:
        return y.max()
    w = np.ones(len(y)) if len(y) == g.nx else np.r_[0.5, np.ones(g.nx - 1), 0.5]
    return (g.dx * (w * y ** q).sum()) ** (1.0 / q)


def row_c0l2(g, w):
    """Reference C(0,T;L^2) norm: a loop over the rows."""
    return max(float(space_lq(g, w[n], 2.0)) for n in range(w.shape[0]))


def row_wh(g, y):
    """Reference plain-field WH seminorm: its own difference quotients."""
    term2 = 0.0
    for j in norms._shift_ladder(g.nx):
        d = np.abs(y[j:] - y[:-j]) / (j * g.dx)
        term2 = max(term2, float(g.dx * d.sum()))
    return float(g.X * np.abs(y).mean() + term2)


def random_rows(nx, edges, seed, rows=9):
    return np.random.default_rng(seed).normal(size=(rows, nx + edges))


@pytest.mark.parametrize("nx", [5, 64, 257, 1024])
@pytest.mark.parametrize("edges", [0, 1])
def test_space_lq_matches_its_weighted_sum(nx, edges):
    g = make_grid(nx=nx, X=2.0)
    w = random_rows(nx, edges, nx)
    for q in (1.0, 4.0 / 3.0, 2.0, 3.0, INF):
        ref = [row_lq(g, row, q) for row in w]
        assert np.allclose(space_lq(g, w, q), ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("nx", [5, 64, 257, 1024])
@pytest.mark.parametrize("edges", [0, 1])
def test_whole_array_norms_bitwise_equal_per_row_definitions(nx, edges):
    g = make_grid(nx=nx, X=2.0)
    for seed in range(5):
        w = random_rows(nx, edges, 10 * nx + 2 * seed + edges)
        for q in (1.0, 4.0 / 3.0, 2.0, 3.0):
            assert space_lq(g, w, q).tolist() == [space_lq(g, row, q) for row in w]
        t = np.arange(w.shape[0], dtype=float)
        assert lqr_norm(g, w, 2.0, INF, t) == row_c0l2(g, w)
        assert lqr_norm(g, w[2], 2.0, INF, t[:1]) == float(space_lq(g, w[2], 2.0))
        for m in (1, 2, 3):
            assert h_minus_one(g, w, m).tolist() == [h_minus_one(g, row, m) for row in w]
        if not edges:
            for row in w:
                assert wh_seminorm(g, row) == row_wh(g, row)


def test_space_lq_rejects_a_length_of_neither_centers_nor_edges():
    g = make_grid(nx=16)
    with pytest.raises(ValueError, match="fits neither centers nor edges"):
        space_lq(g, np.ones(18), 2.0)


# --- dual-norm majorants ----------------------------------------------------

def test_v2star_majorant_zero_and_unit():
    g = make_grid()
    w = np.zeros((g.nt + 1, g.nx))
    assert v2star_majorant(g, w, g.times()) == 0.0
    assert v2star_majorant(g, np.ones_like(w), g.times()) == pytest.approx(1.0, rel=1e-12)


def test_v2star_majorant_spike_selects_l21():
    g = make_grid(nx=128, nt=512)
    tt = g.times()
    w = np.zeros((len(tt), g.nx))
    w[1:] = (tt[1:] ** -0.5)[:, None]
    pairs = {(q, r): lqr_norm(g, w, q, r, tt)
             for q, r in ((2.0, 1.0), (1.0, 4.0 / 3.0), (1.2, 1.2))}
    val = v2star_majorant(g, w, tt)
    assert val == pytest.approx(pairs[(2.0, 1.0)], rel=1e-12)
    assert val == min(pairs.values())
    # integral of t^{-1/2} over (0,1) is 2; trapezoid misses O(sqrt(dt))
    assert val == pytest.approx(2.0, abs=0.1)


def test_h21star_zero():
    g = make_grid(nx=64, nt=64)
    assert h21star_majorant(g, np.zeros((g.nt + 1, g.nx)), 3, 0.1, g.times()) == 0.0


def test_h21star_constant_m3():
    # I^<3> of a constant vanishes, so only the mean route contributes:
    # min(N * 1, sqrt(X) ||t||_L2) = 1/sqrt(3) on the unit square with N = 1
    g = make_grid(nx=128, nt=512)
    F = np.ones((g.nt + 1, g.nx))
    val = h21star_majorant(g, F, 3, 1.0, g.times())
    assert val == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-4)


def test_h21star_sine_m1():
    g = make_grid(nx=128, nt=128)
    F = np.tile(np.sin(2 * np.pi * g.centers()), (g.nt + 1, 1))
    val = h21star_majorant(g, F, 1, 1.0, g.times())
    # primitive route wins: ||I^<1> sin(2 pi x)||_{L2} = 1/(2 sqrt(2) pi)
    assert val == pytest.approx(1.0 / (2.0 * np.sqrt(2.0) * np.pi), rel=1e-3)
    assert val < lqr_norm(g, F, 1.0, 1.0, g.times())


def test_named_norm_registry_evaluates_every_tag():
    from gaslab.norms import NAMED_NORMS
    g = make_grid(nx=32, nt=16)
    t = g.times()
    w = np.tile(np.sin(np.pi * g.centers()), (len(t), 1)) * (1 + t)[:, None]
    keys = dict(q=2.0, r=2.0, m=3, kappa_floor=0.5)
    for tag, fn in NAMED_NORMS.items():
        takes = inspect.signature(fn).parameters
        val = fn(g, w, times=t, **{k: v for k, v in keys.items() if k in takes})
        assert np.isfinite(val) and val >= 0.0, tag


def test_named_norm_rejects_a_misspelled_key():
    from gaslab.norms import NAMED_NORMS
    g = make_grid(nx=32, nt=16)
    t = g.times()
    w = np.tile(np.sin(np.pi * g.centers()), (len(t), 1))
    with pytest.raises(TypeError, match="qq"):
        NAMED_NORMS["Lqr"](g, w, times=t, qq=7)


# --- shared properties ------------------------------------------------------

NORMS = [
    lambda g, w, t: lqr_norm(g, w, 2.0, 2.0, t),
    lambda g, w, t: lqr_norm(g, w, INF, 1.0, t),
    lambda g, w, t: lqr_norm(g, w, 2.0, INF, t),
    lambda g, w, t: v2star_majorant(g, w, t),
]


@given(seed=st.integers(0, 2 ** 32 - 1), c=st.floats(-8, 8),
       k=st.integers(0, len(NORMS) - 1))
@settings(max_examples=40, deadline=None)
def test_homogeneity_and_triangle(seed, c, k):
    g = make_grid(nx=32, nt=16)
    rng = np.random.default_rng(seed)
    w1, w2 = rng.normal(size=(2, g.nt + 1, g.nx))
    t = g.times()
    norm = NORMS[k]
    n1 = norm(g, w1, t)
    assert norm(g, c * w1, t) == pytest.approx(abs(c) * n1, rel=1e-10, abs=1e-12)
    assert norm(g, w1 + w2, t) <= n1 + norm(g, w2, t) + 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_l2_through_primitive_parts_identity(m):
    # int y^2 = -int (Dy)(I^<m> y) + [m=3] X <y>^2 for y vanishing per family.
    # With the midpoint/edge-average pairing this is exact discretely, not
    # merely O(dx^2): assert round-off on random boundary-respecting fields.
    g = make_grid(nx=128)
    rng = np.random.default_rng(7)
    for _ in range(50):
        y_e = rng.normal(size=g.nx + 1)
        if m == 1:
            y_e[0] = y_e[-1] = 0.0
        elif m == 2:
            y_e[-1] = 0.0
        y_c = 0.5 * (y_e[1:] + y_e[:-1])
        dy = du_centers(g, y_e)
        lhs = integrate_center(g, y_c ** 2)
        rhs = -integrate_center(g, dy * i_bracket(g, y_c, m))
        if m == 3:
            rhs += g.X * mean_omega(g, y_c) ** 2
        assert abs(lhs - rhs) < 1e-12 * max(1.0, lhs)
