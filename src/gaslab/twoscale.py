"""Two-scale fields w(xi, x) with a periodic cell variable xi in (0, 1):
realization at scale eps, cell averaging and the energy-consistent
homogenized initial temperature.

A field carries a certificate of piecewise continuity in xi (its breakpoint
list); jumps are evaluated with the right-continuous convention (step taking
the value 1 at its switch), and the xi quadrature partition never straddles a
breakpoint, so step profiles average exactly.
"""

from dataclasses import dataclass

import numpy as np

from .grid import sample_field


@dataclass(frozen=True)
class OscillationSpec:
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")

    def cell_coordinate(self, x):
        """xi = fractional part of x/eps."""
        s = np.asarray(x, dtype=float) / self.eps
        return s - np.floor(s)


def xi_quadrature(breakpoints, n_xi=256):
    """Composite-midpoint nodes/weights on (0,1) refined at the breakpoints.

    Weights sum to 1 exactly up to round-off; each smooth segment gets nodes
    proportional to its length (at least one).
    """
    pts = [0.0] + sorted(b for b in breakpoints if 0.0 < b < 1.0) + [1.0]
    nodes = []
    weights = []
    for a, b in zip(pts[:-1], pts[1:]):
        length = b - a
        k = max(1, int(round(n_xi * length)))
        h = length / k
        nodes.append(a + (np.arange(k) + 0.5) * h)
        weights.append(np.full(k, h))
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class TwoScaleField:
    """fn(xi, x), vectorized over numpy arrays; breakpoints certify where the
    xi-profile may jump."""

    fn: object
    breakpoints: tuple = ()
    n_xi: int = 256

    def __post_init__(self):
        bp = tuple(self.breakpoints)
        if any(not 0.0 < b < 1.0 for b in bp):
            raise ValueError("xi breakpoints must lie strictly inside (0, 1)")
        if list(bp) != sorted(set(bp)):
            raise ValueError("xi breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)

    def __call__(self, xi, x):
        return np.asarray(self.fn(xi, x), dtype=float)

    def quadrature(self):
        return xi_quadrature(self.breakpoints, self.n_xi)


def realize(w, osc, x):
    """w^(eps)(x) = w({x/eps}, x) sampled at the given points."""
    return sample_field(w, osc.cell_coordinate(x), x)


def xi_mean(w, x):
    """<w>(x): per-sample quadrature over the periodic cell."""
    nodes, weights = w.quadrature()
    return weights @ sample_field(w, nodes[:, None], x[None, :])


def xi_sample(w, x):
    """Samples of w on the quadrature lattice: array (n_nodes, len(x)) plus
    the weights; used for seminorms of two-scale data."""
    nodes, weights = w.quadrature()
    return sample_field(w, nodes[:, None], x[None, :]), weights


def homogenized_theta0(u0, theta0, cV, x):
    """Initial temperature of the averaged problem, obtained by averaging the
    total energy rather than the temperature:

        that0 = <(u0 - <u0>)^2> / (2 cV) + <theta0>.

    The variance term is integrated as a square, so that0 >= <theta0> holds
    pointwise in floating point as well.
    """
    uvals, weights = xi_sample(u0, x)
    umean = weights @ uvals
    variance = weights @ (uvals - umean[None, :]) ** 2
    return variance / (2.0 * cV) + xi_mean(theta0, x)
