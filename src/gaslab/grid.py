"""Uniform staggered grid on Omega = (0, X) x (0, T).

Cell centers carry eta, theta, p, rho, sigma and the heat source f; cell
edges carry u, x_e, the heat flux pi and the body force g.  All quadrature
pairs with this staggering: composite midpoint for center data, trapezoid
for edge data.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid:
    X: float
    T: float
    nx: int
    nt: int

    def __post_init__(self):
        if not (self.X > 0 and self.T > 0):
            raise ValueError("domain lengths X, T must be positive")
        if self.nx < 4:
            raise ValueError("nx must be at least 4")
        if self.nt < 1:
            raise ValueError("nt must be at least 1")

    @property
    def dx(self):
        return self.X / self.nx

    @property
    def dt(self):
        return self.T / self.nt

    def centers(self):
        return (np.arange(self.nx) + 0.5) * self.dx

    def edges(self):
        return np.arange(self.nx + 1) * self.dx

    def times(self):
        return np.linspace(0.0, self.T, self.nt + 1)

    @cached_property
    def edge_weights(self):
        """Trapezoid weights of the nx + 1 edges, halved at both ends; built
        once per grid and read-only, as every integrate_edge call shares them."""
        w = np.ones(self.nx + 1)
        w[0] = w[-1] = 0.5
        w.flags.writeable = False
        return w


@dataclass(frozen=True)
class GasParams:
    """Physical constants: viscosity nu, gas constant k, specific heat cV,
    conductivity lam.  All strictly positive."""

    nu: float
    k: float
    cV: float
    lam: float

    def __post_init__(self):
        for name in ("nu", "k", "cV", "lam"):
            if not getattr(self, name) > 0:
                raise ValueError(f"gas parameter {name} must be > 0")


def sample_field(fn, *args):
    """fn(*args) for a data callable, as a float array of the broadcast shape
    of its arguments; zeros when fn is None.  A sample that already has that
    shape is returned as it is, not copied: the one way data are sampled.
    Step times t pass as a column, t[:, None], to sample every time in one
    call; for an elementwise callable, as every DSL expression is, row n of
    that call holds the bits that the call at t[n] alone gives."""
    shape = np.broadcast(*args).shape
    if fn is None:
        return np.zeros(shape)
    out = np.asarray(fn(*args), dtype=float)
    return out if out.shape == shape else out * np.ones(shape)


def integrate_center(grid, y):
    """integral over Omega of a cell-center field (midpoint rule); exact X for y == 1."""
    y = np.asarray(y)
    return grid.X * (np.add.reduce(y, axis=-1) / y.shape[-1])


def integrate_edge(grid, y):
    """integral over Omega of a cell-edge field (trapezoid rule)."""
    y = np.asarray(y)
    return grid.X * np.add.reduce(y * grid.edge_weights, axis=-1) / grid.nx


def integrate_x(grid, y):
    y = np.asarray(y)
    if y.shape[-1] == grid.nx:
        return integrate_center(grid, y)
    if y.shape[-1] == grid.nx + 1:
        return integrate_edge(grid, y)
    raise ValueError(f"field of length {y.shape[-1]} fits neither centers nor edges")


def edges_to_centers(y):
    y = np.asarray(y)
    return 0.5 * (y[..., 1:] + y[..., :-1])


def du_centers(grid, u):
    """Difference quotient of an edge field at cell centers: (u_{j+1}-u_j)/dx."""
    u = np.asarray(u)
    return (u[..., 1:] - u[..., :-1]) / grid.dx
