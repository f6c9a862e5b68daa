"""Discrete primitive and averaging operators on the staggered grid.

For a cell-center field y the primitive is the exact integral of its
piecewise-constant reconstruction evaluated at cell centers,

    (Iy)_i = dx * (sum_{k<i} y_k + y_i / 2).

With midpoint quadrature this makes the adjoint identity of the mean-free
primitives

    int (I1 y) z = -int y (I3 z)

hold to round-off, not merely to O(dx^2); the property tests rely on that.
All operators act on the last axis, so space-time arrays (nt+1, nx) work
directly.
"""

import numpy as np

from .grid import integrate_x


class ShiftOutOfRange(IndexError):
    pass


def primitive(grid, y):
    """Iy at cell centers: Iy(0) = 0 side, Iy(X) = X <y> side, cumulative midpoint."""
    y = np.asarray(y, dtype=float)
    return grid.dx * (np.cumsum(y, axis=-1) - 0.5 * y)


def primitive_at_edges(grid, y):
    """Iy of a center field at the nx+1 cell edges (exact partial cell sums)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape[:-1] + (grid.nx + 1,))
    out[..., 1:] = grid.dx * np.cumsum(y, axis=-1)
    return out


def mean_omega(grid, y):
    """<y>_Omega = Iy(X)/X."""
    return integrate_x(grid, y) / grid.X


def i_bracket(grid, y, m):
    """I^<m> y: m=1 mean-free primitive, m=2 plain primitive, m=3 primitive of
    the mean-free part (vanishes at both ends)."""
    if m == 1:
        iy = primitive(grid, y)
        return iy - mean_omega(grid, iy)[..., None]
    if m == 2:
        return primitive(grid, y)
    if m == 3:
        y = np.asarray(y, dtype=float)
        return primitive(grid, y - mean_omega(grid, y)[..., None])
    raise ValueError(f"m must be 1, 2 or 3, got {m}")


def time_primitive(b, times, carry=None):
    """I_t b: cumulative trapezoid along axis 0, zero at t = 0.

    b may be a time series (nt+1,) or a space-time array (nt+1, nx[+1]);
    times may be nonuniform (strided snapshot storage).  The same expression,
    and so the same bits, as scipy's cumulative_trapezoid(..., initial=0).

    A block of a longer series passes carry = (t, row, value): the time, the
    row of b and the row of I_t b just before times[0].  The rows returned
    continue that primitive, and carry the same bits as one call over the
    whole series: the value is added to the first increment before the
    cumsum, so the additions run in the order of the whole cumsum.
    """
    b = np.asarray(b, dtype=float)
    times = np.asarray(times, dtype=float)
    if carry is not None:
        t0, b0, i0 = carry
        b = np.concatenate([np.asarray(b0, dtype=float)[None], b])
        times = np.concatenate([[t0], times])
    dt = np.diff(times).reshape((-1,) + (1,) * (b.ndim - 1))
    out = np.zeros_like(b)
    # the increments dt * (b[1:] + b[:-1]) / 2.0, summed in place in out
    inc = np.add(b[1:], b[:-1], out=out[1:])
    inc *= dt
    inc /= 2.0
    if carry is not None:
        inc[0] += i0
    np.cumsum(inc, axis=0, out=inc)
    return out if carry is None else inc


def difference_quotient(grid, y, j):
    """(y(x + j dx) - y(x)) / (j dx) on the truncated domain (0, X - j dx)."""
    if not 1 <= j < grid.nx:
        raise ShiftOutOfRange(f"shift j must satisfy 1 <= j < nx, got {j}")
    y = np.asarray(y, dtype=float)
    return (y[..., j:] - y[..., :-j]) / (j * grid.dx)
