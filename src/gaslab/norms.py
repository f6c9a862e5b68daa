"""Computable norms and seminorms, plus majorants for the dual norms that the
continuous-dependence bound consumes.

Dual norms are never evaluated as suprema over test-function spaces; the
majorant routes (anisotropic-norm minima, primitive-based L^2 bounds and the
L^1 route scaled by the declared data bound) stand in for them, up to
absorbed constants.  Rate checks are insensitive to those constants.

Exponents live in [1, inf]; pass float('inf') (or the string 'inf' in
configs) for the essential-sup slots, which on grids are sample maxima.
"""

import numpy as np

from .calculus import difference_quotient, i_bracket, mean_omega, time_primitive
from .grid import edges_to_centers, integrate_x

INF = float("inf")

# snapshot rows a solve hands on, and a post-solve pass holds, at once; and
# the step times studies.compute_delta samples its data differences on at once
ROW_BLOCK = 64

# exponent pairs sampled for the [V2]* majorant: (q, r) with 1/(2q) + 1/r <= 5/4
V2STAR_PAIRS = ((2.0, 1.0), (1.0, 4.0 / 3.0), (1.2, 1.2))


class BadExponent(ValueError):
    pass


class NonpositiveFloor(ValueError):
    pass


def _check_exponent(q):
    q = float(q)
    if not q >= 1.0:
        raise BadExponent(f"exponent must be in [1, inf], got {q}")
    return q


def space_lq(grid, y, q):
    """L^q(Omega) norm of a center or edge field (last axis)."""
    q = _check_exponent(q)
    y = np.abs(np.asarray(y, dtype=float))
    if q == INF:
        return y.max(axis=-1)
    # np.power, not **: numpy's scalar ** rounds unlike its array power, and a
    # row's norm must carry the same bits alone as inside a batch of rows
    return np.power(integrate_x(grid, y ** q), 1.0 / q)


def time_lr(s, times, r):
    """L^r(0,T) norm of a scalar time series sampled at `times` (trapezoid)."""
    r = _check_exponent(r)
    s = np.abs(np.asarray(s, dtype=float))
    if r == INF:
        return s.max()
    return np.trapezoid(s ** r, np.asarray(times)) ** (1.0 / r)


def h_minus_one(grid, y, m):
    """Negative-order norm through primitives: ||I^<m> y||_{L^2} for m = 1, 2 and
    ||Iy||_{L^2} + X |<y>| for m = 3, one value per row of y (last axis).  Edge
    fields are averaged to centers first."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] == grid.nx + 1:
        y = edges_to_centers(y)
    if m in (1, 2):
        return space_lq(grid, i_bracket(grid, y, m), 2.0)
    if m == 3:
        return space_lq(grid, i_bracket(grid, y, 2), 2.0) + grid.X * np.abs(mean_omega(grid, y))
    raise ValueError(f"m must be 1, 2 or 3, got {m}")


def _shift_ladder(nx):
    js = list(range(1, min(17, nx)))
    j = 32
    while j < nx:
        js.append(j)
        j *= 2
    return js


def wh_seminorm(grid, y, xi_weights=None):
    """Bounded-variation style norm: L^{1,inf} term plus the sup over shifts of
    the L^1 norm of the difference quotient in x.

    y is (nx,) for plain fields or (n_xi, nx) for two-scale samples; in the
    two-scale case xi_weights (required, summing to 1) weight the xi
    quadrature and the first term takes sup over xi before the x integral.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y, xi_weights = y[None, :], np.ones(1)
    term1 = grid.X * np.abs(y).max(axis=0).mean()
    # truncated domain (0, X - j dx): nx - j cells of width dx
    term2 = max(grid.dx * (xi_weights @ np.abs(difference_quotient(grid, y, j))).sum()
                for j in _shift_ladder(grid.nx))
    return float(term1 + term2)


def wh_spacetime_seminorm(grid, w, times, r=1.0, xi_weights=None):
    """Space-time variant of the bounded-variation norm: the x-roles of
    wh_seminorm with an outer L^r(0,T) norm riding on top.

    w is (ntimes, nx) or (n_xi, ntimes, nx); the difference quotient acts in
    x only.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 2:
        w = w[None, :, :]
    if xi_weights is None:
        xi_weights = np.full(w.shape[0], 1.0 / w.shape[0])
    sup_xi = np.abs(w).max(axis=0)                  # (ntimes, nx)
    term1 = time_lr(grid.X * sup_xi.mean(axis=-1), times, r)

    term2 = max(time_lr(grid.dx * np.einsum("i,itx->t", xi_weights,
                                            np.abs(difference_quotient(grid, w, j))), times, r)
                for j in _shift_ladder(grid.nx))
    return float(term1 + term2)


def v2star_rows(grid, w):
    """The per-row values the [V2]* majorant reduces: the L^q(Omega) norm of
    each row of w, one array per sampled exponent pair."""
    return [space_lq(grid, w, q) for q, _ in V2STAR_PAIRS]


def v2star_majorant(rows, times):
    """Computable stand-in for the [V2(Q)]* norm, from v2star_rows' values on
    the rows at `times`: each pair's L^r(0,T) norm of its row values, then the
    minimum over the pairs."""
    return min(float(time_lr(v, times, r)) for v, (_, r) in zip(rows, V2STAR_PAIRS))


def h21star_rows(grid, F, m):
    """The per-row values the H21* majorant reduces: ||F||_{L^1(Omega)} and
    ||I^<m> F||_{L^2(Omega)} of each row of F and, for m = 3, <F>_Omega."""
    F = np.asarray(F, dtype=float)
    rows = [space_lq(grid, F, 1.0), space_lq(grid, i_bracket(grid, F, m), 2.0)]
    if m == 3:
        rows.append(mean_omega(grid, F))
    return rows


def h21star_majorant(grid, rows, kappa_floor, times):
    """Majorant for the dual norm of the space used in the energy bound, from
    h21star_rows' values on the rows at `times`.

    Two routes, minimum taken: the L^1(Q) route scaled by N = 1/kappa_floor,
    and the primitive route N ||I^<m> F||_{L^{2,1}} plus, for m = 3, the
    sqrt(X) ||I_t <F>||_{L^2(0,T)} term.
    """
    if kappa_floor <= 0:
        raise NonpositiveFloor("kappa_floor must be positive")
    N = 1.0 / kappa_floor
    route_l1 = N * float(time_lr(rows[0], times, 1.0))
    route_prim = N * float(time_lr(rows[1], times, 1.0))
    if len(rows) == 3:
        route_prim += np.sqrt(grid.X) * time_lr(time_primitive(rows[2], times), times, 2.0)
    return float(min(route_l1, route_prim))


def w11_time_norm(b, times):
    """W^{1,1}(0,T) norm of a sampled time series: L^1 plus the total variation
    of the linear interpolant (== L^1 of its derivative)."""
    b = np.asarray(b, dtype=float)
    return float(np.trapezoid(np.abs(b), times) + np.abs(np.diff(b)).sum())


NAMED_NORMS = {
    # the anisotropic norm || ||w(.,t)||_{L^q(Omega)} ||_{L^r(0,T)}
    "Lqr": lambda grid, w, times, q=2.0, r=2.0: time_lr(space_lq(grid, w, q), times, r),
    "Hm1": lambda grid, w, times, m=3: h_minus_one(grid, w[0], m),
    "WH": lambda grid, w, times: wh_seminorm(grid, w[0]),
    "WHst": lambda grid, w, times, r=1.0: wh_spacetime_seminorm(grid, w, times, r),
    "V2star": lambda grid, w, times: v2star_majorant(v2star_rows(grid, w), times),
    "H21star": lambda grid, w, times, m=3, kappa_floor=1.0: h21star_majorant(
        grid, h21star_rows(grid, w, m), kappa_floor, times),
}
