"""Averaged problem assembly, closed-form reconstruction of the two-scale
specific volume, and the derived perturbation fields beta^(eps), gamma^(eps).

The two-scale system closes after cell averaging: the averaged unknowns
(<eta>, u, theta, x_e) satisfy a plain problem of the solver's type with
averaged data, the initial temperature averaged through the total energy.
Given that solution, the xi-resolved specific volume is explicit:

    eta(xi, x, t) = B * (eta0(xi, x) + (k/nu) I_t(B^{-1} theta)),
    B = exp((1/nu) I_t sigma),

an ODE-in-t integral; B is built from the solver's per-step trapezoid
accumulation of sigma, no re-integration.  The remaining I_t(B^{-1} theta)
quadrature runs over the snapshot times, so reconstruction fidelity is set by
the snapshot spacing: keep the stride small (and a dense early window) where
the reconstruction is compared against the solver trajectory.
"""

from dataclasses import dataclass

import numpy as np

from .calculus import time_primitive
from .grid import Grid, GasParams, du_centers
from .problem import BoundaryData, ProblemSpec, require_valid
from .solver import SchemeParams, solve
from .twoscale import (TwoScaleField, averaging_error, homogenized_theta0,
                       realize, xi_mean, xi_quadrature)


class _RealizedForce:
    """g^(eps)(chi, x, t) = g(chi, {x/eps - a}, x, t); picklable."""

    def __init__(self, fn, osc):
        self.fn = fn
        self.osc = osc

    def __call__(self, chi, x, t):
        xi = self.osc.cell_coordinate(x)
        return self.fn(chi, xi, x, t)


class _AveragedForce:
    """<g>(chi, x, t): quadrature over the periodic cell, vectorized in x."""

    def __init__(self, fn, breakpoints=(), n_xi=64):
        self.fn = fn
        self.nodes, self.weights = xi_quadrature(breakpoints, n_xi)

    def __call__(self, chi, x, t):
        x = np.asarray(x, dtype=float)
        chi = np.asarray(chi, dtype=float) * np.ones_like(x)
        vals = self.fn(chi[None, :], self.nodes[:, None], x[None, :], t)
        vals = vals * np.ones((len(self.nodes), x.size))
        return self.weights @ vals


@dataclass(frozen=True)
class TwoScaleProblem:
    """Oscillating-data problem family: data as two-scale fields, boundary
    data shared between the eps-realizations and the averaged problem."""

    grid: Grid
    gas: GasParams
    bc: BoundaryData
    eta0: TwoScaleField
    u0: TwoScaleField
    theta0: TwoScaleField
    g: object = None               # (chi, xi, x, t) -> array, or None
    f: object = None
    N: float = 10.0
    force_breakpoints: tuple = ()
    source: dict = None

    def realized_spec(self, osc):
        """ProblemSpec of the oscillating problem at scale eps."""
        g = self.grid
        return ProblemSpec(
            grid=g, gas=self.gas, bc=self.bc,
            eta0=realize(self.eta0, osc, g.centers()),
            u0=realize(self.u0, osc, g.edges()),
            theta0=realize(self.theta0, osc, g.centers()),
            g=None if self.g is None else _RealizedForce(self.g, osc),
            f=None if self.f is None else _RealizedForce(self.f, osc),
            N=self.N, source=self.source)

    def averaged_spec(self):
        """ProblemSpec of the averaged problem: cell means of eta0 and u0, the
        energy-averaged initial temperature, cell means of the force terms."""
        g = self.grid
        return ProblemSpec(
            grid=g, gas=self.gas, bc=self.bc,
            eta0=xi_mean(self.eta0, g.centers()),
            u0=xi_mean(self.u0, g.edges()),
            theta0=homogenized_theta0(self.u0, self.theta0, self.gas.cV,
                                      g.centers()),
            g=None if self.g is None else _AveragedForce(self.g, self.force_breakpoints),
            f=None if self.f is None else _AveragedForce(self.f, self.force_breakpoints),
            N=self.N, source=self.source)


@dataclass
class HomogSolution:
    """Averaged-problem solve plus the pieces the reconstruction needs."""

    problem: TwoScaleProblem
    base: object                   # SolutionBundle of the averaged problem
    B_hat: np.ndarray              # (ns, nx) exp((1/nu) I_t sigma)
    it_binv_theta: np.ndarray      # (ns, nx) I_t(B^{-1} theta)

    @property
    def grid(self):
        return self.problem.grid


def solve_homogenized(problem, scheme=SchemeParams()):
    """Solve the averaged problem and precompute the reconstruction kernels.
    An averaged spec that problem.validate rejects raises ValueError first."""
    spec = problem.averaged_spec()
    require_valid("averaged spec", spec)
    base = solve(spec, scheme)
    gas = problem.gas
    B = np.exp(base.it_sigma / gas.nu)
    it_bt = time_primitive(base.theta / B, base.times)
    return HomogSolution(problem=problem, base=base, B_hat=B, it_binv_theta=it_bt)


def _reconstruct(hs, e0):
    """B * (e0 + (k/nu) I_t(B^{-1} theta)) from the initial profile e0 (nx,)."""
    gas = hs.problem.gas
    return hs.B_hat * (e0[None, :] + (gas.k / gas.nu) * hs.it_binv_theta)


def reconstruct_eta(hs, xi):
    """eta(xi_k, x, t) for the requested xi samples: array (len(xi), ns, nx).

    Evaluated lazily per requested xi to bound memory; the reconstruction
    starts from the two-scale initial profile hs.problem.eta0.
    """
    xc = hs.grid.centers()
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.empty((len(xi), ) + hs.B_hat.shape)
    for i, s in enumerate(xi):
        out[i] = _reconstruct(hs, hs.problem.eta0(np.full_like(xc, s), xc))
    return out


def mean_reconstructed_eta(hs):
    """<eta_recon>(x, t); by linearity of the reconstruction in eta0 this is
    the reconstruction started from <eta0>."""
    return _reconstruct(hs, xi_mean(hs.problem.eta0, hs.grid.centers()))


def eta_epsilon(hs, osc):
    """eta^(eps)(x, t) on the grid: the reconstruction started from the realized
    initial profile, equal to realize(hs.problem.eta0, osc) at t = 0 exactly."""
    return _reconstruct(hs, realize(hs.problem.eta0, osc, hs.grid.centers()))


def perturbation_fields(hs, osc):
    """beta^(eps) = (1/nu) sigma R_eps(eta_recon) and
    gamma^(eps) = (1/lam) pi R_eps(eta_recon) on the snapshot grid.

    Since the reconstruction is affine in eta0, R_eps(eta_recon) = B R_eps(eta0).
    beta^(eps) lives at centers; gamma^(eps) is reported at centers as well
    (it feeds norm majorants, not the stepper).
    """
    xc = hs.grid.centers()
    gas = hs.problem.gas
    r0 = averaging_error(hs.problem.eta0, osc, xc)
    r_eta = hs.B_hat * r0[None, :]
    beta_eps = hs.base.sigma * r_eta / gas.nu
    pi_c = 0.5 * (hs.base.pi[:, 1:] + hs.base.pi[:, :-1])
    gamma_eps = pi_c * r_eta / gas.lam
    return beta_eps, gamma_eps


def mass_residual_eps(hs, osc):
    """Residual of D_t eta^(eps) = Du + beta^(eps) at snapshot midpoints;
    decreases at scheme order under refinement."""
    g = hs.grid
    eta_e = eta_epsilon(hs, osc)
    beta_eps, _ = perturbation_fields(hs, osc)
    du = du_centers(g, hs.base.u)
    dt_eta = np.diff(eta_e, axis=0) / np.diff(hs.base.times)[:, None]
    rhs = 0.5 * (du[1:] + du[:-1]) + 0.5 * (beta_eps[1:] + beta_eps[:-1])
    return float(np.abs(dt_eta - rhs).max())
