"""Semi-implicit time stepper for the 1D viscous heat-conducting gas system in
Lagrangian mass coordinates, with the perturbed variant (mass-equation term
beta, heat-flux term gamma, shifted initial Eulerian coordinate).

Unknowns per step: velocity u (edges, implicit viscous flux), specific volume
eta (centers, exact linear update), temperature theta (centers, implicit
conduction).  Pressure and transport coefficients are lagged inside a Picard
loop iterated to a tight tolerance, so the converged step satisfies the fully
coupled backward-Euler system.

The mass update is exactly conservative: summing cells telescopes the
velocity differences, so for m = 1 the gas-volume identity holds to round-off
at every step (with the beta contribution when perturbed).

Discontinuous initial eta is run as-is: the mass equation is linear in eta
and discontinuities persist by design.  No limiting or regularization.
"""

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from . import dsl
from .calculus import primitive_at_edges, time_primitive, i_bracket, mean_omega
from .grid import du_centers, edges_to_centers, integrate_edge, integrate_center, \
    sample_field
from .norms import ROW_BLOCK, space_lq
from .problem import SNAPSHOT_FIELDS, RowBlock, SolutionBundle


class PositivityLoss(RuntimeError):
    def __init__(self, t, variable):
        self.t = t
        self.variable = variable
        super().__init__(f"{variable} lost positivity near t={t:.6g} "
                         "after exhausting the step-halving budget")


class NonFiniteState(RuntimeError):
    """A band, a right-hand side or a new state of the step that reaches t,
    or the beta, gamma, f or g data the stepper samples at t, holds a NaN or
    an infinity.  Raised at once: halving the step cannot help."""

    def __init__(self, t, variable):
        self.t = t
        self.variable = variable
        super().__init__(f"non-finite {variable} near t={t:.6g}")


class NonlinearDivergence(RuntimeError):
    def __init__(self, step):
        self.step = step
        super().__init__(f"Picard iteration did not converge at step {step}")


class _Retry(Exception):
    def __init__(self, kind, t, sweeps):
        self.kind = kind
        self.t = t
        self.sweeps = sweeps


MAX_PICARD = 50                   # Picard sweeps per substep before a retry
PICARD_TOL = 1e-10                # max |change| of u, eta, theta that ends the sweeps
MAX_HALVINGS = 10                 # step halvings of a nominal step before giving up
POSITIVITY_FLOOR = 1e-10          # eta and theta must stay above this


@dataclass(frozen=True)
class SchemeParams:
    store_stride: int = 1
    dense_steps: int = 0              # additionally store the first K steps

    def __post_init__(self):
        if self.store_stride < 1:
            raise ValueError(f"store_stride must be at least 1, got {self.store_stride}")
        if self.dense_steps < 0:
            raise ValueError(f"dense_steps must be nonnegative, got {self.dense_steps}")


def _lapack_dgtsv():
    """LAPACK dgtsv from the library numpy's linalg module links (dlsym also
    searches its dependencies), and the C type of its integer arguments: the
    ILP64 symbol of numpy's bundled OpenBLAS, else the LP64 one of a system
    LAPACK.  No argtypes are declared: _Tridiagonal builds every argument
    once as a ctypes pointer, so a call converts none of them."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for name, int_t in (("scipy_dgtsv_64_", ctypes.c_int64), ("dgtsv_", ctypes.c_int32)):
        if hasattr(lib, name):
            fn = getattr(lib, name)
            fn.restype = None
            return fn, int_t
    raise ImportError(f"{_umath_linalg.__file__} exports neither scipy_dgtsv_64_ nor dgtsv_")


_DGTSV, _LAPACK_INT = _lapack_dgtsv()


class _Tridiagonal:
    """Bands and right-hand side of one tridiagonal system of size n, in one
    buffer [lower | diag | upper | rhs] allocated once and refilled every
    sweep.  dgtsv factors the bands and overwrites the right-hand side with
    the solution in place; solve() returns that buffer itself, which the
    next fill overwrites."""

    def __init__(self, n):
        self.buf = np.empty(4 * n - 2)
        self.lower = self.buf[:n - 1]
        self.diag = self.buf[n - 1:2 * n - 1]
        self.upper = self.buf[2 * n - 1:3 * n - 2]
        self.rhs = self.buf[3 * n - 2:]
        size, one, self.info = _LAPACK_INT(n), _LAPACK_INT(1), _LAPACK_INT()
        # n, nrhs, dl, d, du, b, ldb, info
        bands = [ctypes.c_void_p(a.ctypes.data)
                 for a in (self.lower, self.diag, self.upper, self.rhs)]
        self._args = (ctypes.byref(size), ctypes.byref(one), *bands,
                      ctypes.byref(size), ctypes.byref(self.info))

    def solve(self, t, variable):
        if not np.logical_and.reduce(np.isfinite(self.buf)):
            raise NonFiniteState(t, variable)
        _DGTSV(*self._args)
        info = self.info.value
        if info > 0:
            raise np.linalg.LinAlgError(f"singular {variable} system near t={t:.6g}")
        if info < 0:
            raise RuntimeError(f"dgtsv rejected argument {-info}")
        return self.rhs


@functools.lru_cache(maxsize=64)
def _lagrange_weights(h, steps):
    """Weights of the Lagrange extrapolation to h through the nodes 0, -steps[0],
    -steps[0] - steps[1], ..."""
    nodes = [0.0]
    for h_k in steps:
        nodes.append(nodes[-1] - h_k)
    return tuple(math.prod((h - t_j) / (t_i - t_j) for j, t_j in enumerate(nodes) if j != i)
                 for i, t_i in enumerate(nodes))


def _pack(eta, u, theta, x_e):
    """A state (eta, u, theta, x_e, w): eta, u and theta copied into one
    packed iterate w = [eta | u | theta] of length 3 nx + 1, and read back
    as views of it.  ValueError unless eta and theta have nx samples and u
    nx + 1, as the packed layout assumes."""
    nx = len(eta)
    if not (np.shape(eta) == np.shape(theta) == (nx,) and np.shape(u) == (nx + 1,)):
        raise ValueError(f"eta, u and theta must have nx, nx + 1 and nx samples, "
                         f"got shapes {np.shape(eta)}, {np.shape(u)} and {np.shape(theta)}")
    w = np.concatenate((eta, u, theta))
    return (*_unpack(w), x_e, w)


def _unpack(w):
    """The (eta, u, theta) views of a packed iterate."""
    nx = len(w) // 3
    return w[:nx], w[nx:2 * nx + 1], w[2 * nx + 1:]


def _extrapolate(state, history, h):
    """First Picard iterate for the substep of size h from `state` at t: the
    Lagrange extrapolation to t + h through `state` and the states of
    `history`, (state, h_k) pairs of the preceding substeps, most recent
    first.  Two entries give the quadratic extrapolation (weights 3, -3, 1
    for uniform steps), one the linear, none a copy of `state`.  One
    multiply-add chain over the packed iterates, ((w w_0 + w1 w_1) + w2 w_2),
    returns the (eta, u, theta) views of a fresh packed iterate."""
    weights = _lagrange_weights(h, tuple(h_k for _, h_k in history))
    start = np.multiply(state[4], weights[0])
    for (past, _), weight in zip(history, weights[1:]):
        start += np.multiply(past[4], weight)
    return _unpack(start)


def _converged(change, prev_change):
    """Stop test after a Picard sweep whose max |change| is `change`, after
    one of `prev_change` (0.0 when no ratio is trusted): the change is below
    PICARD_TOL, or the sweeps contract at least twofold and the next change
    they predict, change**2 / prev_change, is below PICARD_TOL / 10."""
    return change < PICARD_TOL or (change <= prev_change / 2
                                   and change * change / prev_change < PICARD_TOL / 10)


def _change(t, variable, new, old, work):
    """max |new - old| between Picard iterates, formed in the buffer `work`;
    NonFiniteState when `new` holds a NaN or an infinity (`old` is always
    finite)."""
    np.subtract(new, old, work)
    change = np.maximum.reduce(np.abs(work, work))
    if not math.isfinite(change):
        raise NonFiniteState(t, variable)
    return change


def _trapezoid(total, a, b, half_h):
    """total + half_h (a + b) in a fresh array: one trapezoid step of a time
    integral; half_h is a 0-d array."""
    step = np.add(a, b)
    step *= half_h
    return np.add(total, step, step)


class _Parts(NamedTuple):
    """What a Picard sweep leaves for rates() and solve() at its new state."""

    visc: np.ndarray               # nu rho (Du + beta) at the centers
    minus_k_rho: np.ndarray        # -k rho at the centers
    f: np.ndarray                  # the heat source sampled at the state
    min_eta: float
    min_theta: float


def _sample_data(key, at, x, times):
    """at(x, times[:, None]), the data `key` at every one of `times` in one
    call.  A non-finite sample raises NonFiniteState naming key and the
    first of the times whose sample alone is non-finite."""
    try:
        return at(x, times[:, None])
    except dsl.NonfiniteResult:
        for t in times.tolist():
            try:
                at(x, t)
            except dsl.NonfiniteResult:
                raise NonFiniteState(t, key) from None
        raise


class _Stepper:
    """One spec's substeps.  A state is (eta, u, theta, x_e, w), its first
    three views of the packed iterate w (see _pack); each Picard sweep
    writes its new eta, u and theta into one fresh packed iterate.  A sweep
    fills the bands and right-hand sides in place, and forms its
    coefficients and differences in work buffers allocated here once,
    through shifted views ([1:], [:-1], [1:-1]) of them also built here.
    The scalar operands of its ufunc calls are 0-d arrays, which a ufunc
    takes as they are, where it would convert a Python float on every call;
    the bits are the same.  The terms of absent beta, gamma, g and f are
    skipped, which gives the bits that adding their zeros gives."""

    def __init__(self, spec):
        self.spec = spec
        self.grid = spec.grid
        self.gas = spec.gas
        self.bc = spec.bc
        self.pert = spec.perturbation
        self.xc = self.grid.centers()
        self.xe = self.grid.edges()
        self.dx = self.grid.dx
        self.dx2 = self.dx ** 2
        self.times = self.grid.times()
        gas, nx = self.gas, self.grid.nx
        self.u_system = _Tridiagonal(nx + 1)
        self.theta_system = _Tridiagonal(nx)
        self._time = self._data = None
        self._block = {}
        self.has_beta = self.pert.beta is not None
        self.has_gamma = self.pert.gamma is not None
        self.has_g = spec.g is not None
        self.has_f = spec.f is not None
        # absent data read as these shared zeros, never written
        self.zero_c = np.zeros(nx)
        self.zero_e = np.zeros(nx + 1)
        self.zero_c.flags.writeable = self.zero_e.flags.writeable = False
        # work buffers of the sweeps, at the centers: 1/eta, nu/eta, -k/eta,
        # the lagged stress nu beta/eta - p, Du, Du + beta, nu (Du + beta)/eta
        # and a scratch array; at the interior edges: the sums of eta,
        # 2 lambda / sum and pi_gamma / dx; a scratch array at the edges
        self.rho, self.nu_rho, self.minus_k_rho, self.stress_lag, self.du, self.du_beta, \
            self.visc, self.work_c = np.empty((8, nx))
        self.edge_sum, self.lam_rho_e, self.pi_gamma_dx = np.empty((3, nx - 1))
        self.work_e = np.empty(nx + 1)
        # the constant scalar operands as 0-d arrays; a trailing underscore
        # names the 0-d array of a value
        self.one_, self.cV_, self.nu_, self.minus_k_, self.two_lam_, self.dx_, self.dx2_, \
            self.minus_dx2_ = map(np.array, (1.0, gas.cV, gas.nu, -gas.k, 2.0 * gas.lam,
                                             self.dx, self.dx2, -self.dx2))
        # the shifted views of the sweeps, in the order _iterate unpacks them
        mom, ene = self.u_system, self.theta_system
        self.shifted = (self.nu_rho[1:], self.nu_rho[:-1], self.stress_lag[1:],
                        self.stress_lag[:-1], mom.diag[1:-1], mom.rhs[1:-1], mom.rhs[1:],
                        mom.rhs[:-1], ene.diag[:-1], ene.diag[1:], ene.rhs[:-1],
                        ene.rhs[1:])

    def time_data(self, t):
        """The data that depend on t alone: the BoundaryData.at(step times, t)
        values, "beta" at the centers, "gamma" at the edges and "int_beta",
        the integral of beta.  A nominal step-end time n*dt + dt is sampled
        with the next ROW_BLOCK - 1 of them at once, any other time (t = 0,
        the inner ends of a halved step) alone; the substep reaching t and
        the rates at t share one record."""
        if t != self._time:
            data = self._block.get(t)
            if data is None:
                dt, nt = self.grid.dt, self.grid.nt
                n = round(t / dt) - 1
                ends = np.arange(n, min(n + ROW_BLOCK, nt)) * dt + dt
                if 0 <= n < nt and ends[0] == t:
                    self._block = self._sample(ends)
                    data = self._block[t]
                else:
                    data = self._sample(np.array([t]))[t]
            self._time, self._data = t, data
        return self._data

    def _sample(self, times):
        """time_data records of `times`, keyed by time, from one
        BoundaryData.at call and one broadcast sample of beta and of gamma;
        a row holds the bits the row's time alone gives.  See _sample_data
        for a non-finite sample."""
        k = len(times)
        bc = self.bc.at(self.times, times)
        if self.has_beta:
            beta = _sample_data("beta", self.pert.beta_at, self.xc, times)
            int_beta = integrate_center(self.grid, beta)
        else:
            beta, int_beta = [self.zero_c] * k, [0.0] * k
        gamma = _sample_data("gamma", self.pert.gamma_at, self.xe, times) if self.has_gamma \
            else [self.zero_e] * k
        names = (*bc, "beta", "int_beta", "gamma")
        return {t: dict(zip(names, row))
                for t, row in zip(times.tolist(), zip(*bc.values(), beta, int_beta, gamma))}

    # -- data samples ---------------------------------------------------

    def g_at(self, x_e, t):
        if not self.has_g:
            return self.zero_e
        try:
            return sample_field(self.spec.g, x_e, self.xe, t)
        except dsl.NonfiniteResult:
            raise NonFiniteState(t, "g") from None

    def f_at(self, x_e, t):
        """f at the cell centers, its chi read off the edge coordinate x_e."""
        if not self.has_f:
            return self.zero_c
        try:
            return sample_field(self.spec.f, edges_to_centers(x_e), self.xc, t)
        except dsl.NonfiniteResult:
            raise NonFiniteState(t, "f") from None

    # -- instantaneous derived fields ------------------------------------

    def rates(self, state, t, parts=None):
        """(sigma, p, g, work rate) of a state at time t: the stress, the
        pressure, the body force and the rate of change of the total energy
        (the work of the boundary stresses and heat fluxes, plus int g u and
        int f).

        `parts` are the _Parts that the last Picard sweep left at the state;
        without them (at t = 0) they are built from the state, to the same
        bits.  They may be views of work buffers, which the next substep
        overwrites."""
        eta, u, theta, x_e, _ = state
        gas = self.gas
        b = self.time_data(t)
        if parts is None:
            rho = 1.0 / eta
            du_beta = du_centers(self.grid, u)
            if self.has_beta:
                du_beta += b["beta"]
            parts = _Parts(gas.nu * rho * du_beta, -gas.k * rho, self.f_at(x_e, t),
                           np.minimum.reduce(eta), np.minimum.reduce(theta))
        sig = parts.visc + parts.minus_k_rho * theta
        p = gas.k * theta / eta
        g = self.g_at(x_e, t)

        s0 = -b["p0"] if self.bc.m in (2, 3) else sig[0]
        sX = -b["pX"] if self.bc.m == 3 else sig[-1]
        work_rate = sX * u[-1] - s0 * u[0] + b["piX"] - b["pi0"]
        if self.has_g:
            work_rate += integrate_edge(self.grid, g * u)
        if self.has_f:
            work_rate += integrate_center(self.grid, parts.f)
        return sig, p, g, work_rate

    def heat_flux(self, state, t, out):
        """Write the heat flux pi of a state at time t into `out`, at the
        edges: the data pi0 and piX at the ends, lam (theta_x + gamma) / eta
        with eta averaged to the interior edges."""
        eta, _, theta = state[:3]
        b = self.time_data(t)
        flux = out[1:-1]
        np.subtract(theta[1:], theta[:-1], out=flux)
        flux /= self.dx
        if self.has_gamma:
            flux += b["gamma"][1:-1]
        flux *= self.gas.lam * (2.0 / (eta[:-1] + eta[1:]))
        out[0] = b["pi0"]
        out[-1] = b["piX"]

    # -- one substep of size h -------------------------------------------

    def substep(self, state, t0, h, history=()):
        """Advance `state` from t0 by h; returns (new state, its _Parts,
        Picard sweeps).

        history holds up to two (state, h_k) pairs, the starts and sizes of
        the substeps that ended at `state`, most recent first.  With
        any, the iteration starts at _extrapolate(state, history, h).  Without
        history, or when the extrapolated eta or theta is not above the
        positivity floor, it starts at `state`.  A predicted start that ends
        in a retry is discarded and the iteration rerun from `state`, so the
        predictor never causes a retry; the discarded sweeps still count.
        """
        sweeps = 0
        if history:
            start = _extrapolate(state, history, h)
            if np.minimum.reduce(start[0]) > POSITIVITY_FLOOR \
                    and np.minimum.reduce(start[2]) > POSITIVITY_FLOOR:
                try:
                    return self._iterate(state, t0, h, start, True)
                except _Retry as retry:
                    sweeps = retry.sweeps
        new, parts, k = self._iterate(state, t0, h, state[:3], False)
        return new, parts, sweeps + k

    def _iterate(self, state, t0, h, start, predicted):
        """Picard sweeps for one substep from the iterate `start`, predicted
        by _extrapolate or (predicted False) the state itself.

        The expressions are those of backward Euler with lagged pressure and
        coefficients, rearranged only where IEEE arithmetic gives the same
        bits: x - y as -y + x, -a / c as a / -c and as -(a / c), a * b as
        b * a, and the sweep's 1 / eta, nu / eta and -k / eta reused as the
        next sweep's."""
        eta_n, u_n, theta_n, x_e_n, _ = state
        gas = self.gas
        m = self.bc.m
        t1 = t0 + h
        dx, dx2 = self.dx, self.dx2
        two_dx = 2.0 / dx
        one_, cV_, nu_, minus_k_, two_lam_, dx_, dx2_, minus_dx2_ = \
            self.one_, self.cV_, self.nu_, self.minus_k_, self.two_lam_, self.dx_, \
            self.dx2_, self.minus_dx2_
        mom, ene = self.u_system, self.theta_system
        mom_diag, mom_rhs, mom_lower, mom_upper = mom.diag, mom.rhs, mom.lower, mom.upper
        ene_diag, ene_rhs, ene_lower, ene_upper = ene.diag, ene.rhs, ene.lower, ene.upper
        rho, nu_rho, minus_k_rho, lag, du, visc, work_c, work_e, edge_sum, lam_rho_e = \
            self.rho, self.nu_rho, self.minus_k_rho, self.stress_lag, self.du, \
            self.visc, self.work_c, self.work_e, self.edge_sum, self.lam_rho_e
        nu_rho_hi, nu_rho_lo, lag_hi, lag_lo, mom_diag_in, mom_rhs_in, u_hi, u_lo, \
            ene_diag_lo, ene_diag_hi, ene_rhs_lo, ene_rhs_hi = self.shifted
        has_beta, has_gamma, has_g, has_f = \
            self.has_beta, self.has_gamma, self.has_g, self.has_f
        reads_x_e = has_g or has_f
        packed_size = 3 * len(eta_n) + 1

        b1 = self.time_data(t1)
        beta_1, gamma_1 = b1["beta"], b1["gamma"]
        inv_h = 1.0 / h
        half_h = 0.5 * h
        h_, inv_h_, half_h_, cV_h_ = map(np.array, (h, inv_h, half_h, gas.cV / h))
        u_n_h = np.divide(u_n, h_)
        u_n_h_in = u_n_h[1:-1]
        theta_n_h = np.multiply(theta_n, cV_)
        theta_n_h /= h_
        # the end rows' scalars, as Python floats: the same IEEE operations
        u0, uX, p0, minus_pX = b1["u0"], b1["uX"], float(b1["p0"]), -float(b1["pX"])
        u_n_h0, u_n_hX = u_n_h.item(0), u_n_h.item(-1)
        pi0_dx, piX_dx = b1["pi0"] / dx, b1["piX"] / dx
        g_edge, f_new = self.zero_e, self.zero_c

        eta_s, u_s, theta_s = start
        x_e_s = np.add(x_e_n, np.multiply(u_n, h_)) if has_g else None
        np.divide(one_, eta_s, rho)
        np.multiply(rho, nu_, nu_rho)
        np.multiply(rho, minus_k_, minus_k_rho)
        prev_change = 0.0

        for sweep in range(1, MAX_PICARD + 1):
            # momentum: implicit viscous flux, lagged pressure/coefficients;
            # lag = nu rho beta - p
            np.multiply(minus_k_rho, theta_s, lag)
            if has_beta:
                lag += np.multiply(nu_rho, beta_1, work_c)
            if has_g:
                g_edge = self.g_at(x_e_s, t1)

            np.divide(nu_rho, minus_dx2_, mom_lower)
            mom_upper[...] = mom_lower
            np.add(nu_rho_hi, nu_rho_lo, mom_diag_in)
            mom_diag_in /= dx2_
            mom_diag_in += inv_h_
            np.subtract(lag_hi, lag_lo, mom_rhs_in)
            mom_rhs_in /= dx_
            mom_rhs_in += u_n_h_in
            if has_g:
                mom_rhs_in += g_edge[1:-1]

            if m == 1:
                mom_diag[0] = 1.0
                mom_upper[0] = 0.0
                mom_rhs[0] = u0
            else:
                end = 2.0 * nu_rho.item(0) / dx2
                mom_diag[0] = inv_h + end
                mom_upper[0] = -end
                mom_rhs[0] = u_n_h0 + two_dx * (lag.item(0) + p0) + g_edge.item(0)
            if m in (1, 2):
                mom_diag[-1] = 1.0
                mom_lower[-1] = 0.0
                mom_rhs[-1] = uX
            else:
                end = 2.0 * nu_rho.item(-1) / dx2
                mom_diag[-1] = inv_h + end
                mom_lower[-1] = -end
                mom_rhs[-1] = u_n_hX + two_dx * (minus_pX - lag.item(-1)) + g_edge.item(-1)

            # the solution is read in place: its differences, its change and
            # a copy into the new packed iterate
            mom.solve(t1, "u")
            change_u = _change(t1, "u", mom_rhs, u_s, work_e)
            np.subtract(u_hi, u_lo, du)
            du /= dx_
            du_beta = np.add(du, beta_1, self.du_beta) if has_beta else du
            w_new = np.empty(packed_size)
            eta_new, u_new, theta_new = _unpack(w_new)
            u_new[...] = mom_rhs
            np.add(eta_n, np.multiply(du_beta, h_, work_c), eta_new)
            change_eta = _change(t1, "eta", eta_new, eta_s, work_c)
            min_eta = np.minimum.reduce(eta_new)
            if min_eta <= POSITIVITY_FLOOR:
                raise _Retry("eta", t1, sweep)
            np.divide(one_, eta_new, rho)
            np.multiply(rho, nu_, nu_rho)
            np.multiply(rho, minus_k_, minus_k_rho)
            if reads_x_e:
                x_e_new = _trapezoid(x_e_n, u_n, u_new, half_h_)

            # energy: implicit conduction with the fresh density, source with
            # the freshly updated velocity, pressure lagged one Picard sweep
            # source: the stress with the lagged pressure times Du, plus f
            np.multiply(nu_rho, du_beta, visc)
            np.multiply(minus_k_rho, theta_s, ene_rhs)
            ene_rhs += visc
            ene_rhs *= du
            if has_f:
                f_new = self.f_at(x_e_new, t1)
                ene_rhs += f_new
            ene_rhs += theta_n_h

            np.add(eta_new[:-1], eta_new[1:], edge_sum)
            np.divide(two_lam_, edge_sum, lam_rho_e)
            np.divide(lam_rho_e, minus_dx2_, ene_upper)
            ene_lower[...] = ene_upper
            np.subtract(cV_h_, ene_upper, ene_diag_lo)
            ene_diag[-1] = cV_h_
            np.subtract(ene_diag_hi, ene_upper, ene_diag_hi)

            if has_gamma:
                pi_gamma_dx = np.multiply(lam_rho_e, gamma_1[1:-1], self.pi_gamma_dx)
                pi_gamma_dx /= dx_
                ene_rhs_lo += pi_gamma_dx
                ene_rhs_hi -= pi_gamma_dx
            ene_rhs[0] -= pi0_dx
            ene_rhs[-1] += piX_dx

            ene.solve(t1, "theta")
            change_theta = _change(t1, "theta", ene_rhs, theta_s, work_c)
            theta_new[...] = ene_rhs
            min_theta = np.minimum.reduce(theta_new)
            if min_theta <= POSITIVITY_FLOOR:
                raise _Retry("theta", t1, sweep)

            change = max(change_u, change_eta, change_theta)
            w_s, eta_s, u_s, theta_s = w_new, eta_new, u_new, theta_new
            if reads_x_e:
                x_e_s = x_e_new
            if _converged(change, prev_change):
                break
            # the contraction test reads a ratio of two changes of Picard
            # images.  A sweep reads eta, theta and x_e but not u, so sweep 1's
            # u change measures the start, not the map.  From a plain start the
            # first change is the whole step increment and the ratios after it
            # swing (0.032, 0.014, 0.024 on a pulse), so a plain start stops
            # on the change alone.
            if predicted:
                prev_change = change if sweep > 1 else max(change_eta, change_theta)
        else:
            raise _Retry("picard", t1, MAX_PICARD)

        if not reads_x_e:
            x_e_s = _trapezoid(x_e_n, u_n, u_s, half_h_)
        # the last sweep sampled f at the x_e it returns
        parts = _Parts(visc, minus_k_rho, f_new, min_eta, min_theta)
        return (eta_s, u_s, theta_s, x_e_s, w_s), parts, sweep


def _snapshot_indices(nt, stride, dense):
    keep = {0, nt}
    keep.update(range(1, min(dense, nt) + 1))
    keep.update(range(0, nt + 1, stride))
    return sorted(keep)


# the snapshot fields sampled at the nx + 1 cell edges; the others are at the
# nx cell centers
_EDGE_FIELDS = ("u", "x_e", "pi", "it_g")


def keep_rows(spec, scheme, fields):
    """(rows, kept): a rows callback of solve(spec, scheme, rows=rows) that
    copies the snapshot fields `fields` of each block into `kept`, a dict of
    one (kept rows, width) array per field.  The one way rows are stored: a
    stored solve keeps every snapshot field, and a study reference only
    problem.DIFFERENCE_FIELDS, as replace(solve(...), **kept)."""
    g = spec.grid
    n = len(_snapshot_indices(g.nt, scheme.store_stride, scheme.dense_steps))
    kept = {name: np.empty((n, g.nx + (name in _EDGE_FIELDS))) for name in fields}

    def rows(block):
        for name, a in kept.items():
            a[block.rows] = getattr(block, name)

    return rows, kept


@dataclass
class _StepRecord:
    """What solve() carries from substep to substep: the running trapezoid
    integrals I_t sigma, I_t p, I_t g, the rates at the end of the last
    substep, the (state, h) starts of the last two substeps, most recent
    first, the running eta and theta minima, and the increments of
    I_t(uX - u0), I_t int(beta) and the boundary and source work plus the
    Picard sweeps over the nominal step.  Every array is rebound, never
    written, so records share them."""

    it_sigma: np.ndarray
    it_p: np.ndarray
    it_g: np.ndarray
    sigma: np.ndarray
    p: np.ndarray
    g: np.ndarray
    work_rate: float
    min_eta: float
    min_theta: float
    before: tuple = ()
    bdu: float = 0.0
    bvol: float = 0.0
    work: float = 0.0
    sweeps: int = 0

    def attempt(self):
        """Fresh record for one try at a nominal step: integrals, rates,
        minima and the last substep's start carried over, increments and
        sweeps reset."""
        return _StepRecord(self.it_sigma, self.it_p, self.it_g, self.sigma, self.p, self.g,
                           self.work_rate, self.min_eta, self.min_theta, self.before)


def solve(spec, scheme=SchemeParams(), rows=None):
    """Run the time stepper over (0, T); returns a SolutionBundle.

    The kept rows (store_stride, dense_steps) are written to one buffer of
    ROW_BLOCK rows.  Each full block, and the last one, first gives the
    log-volume and stress-representation residuals of its rows, then is
    passed to rows(block), a RowBlock of views of the buffer.  Without
    `rows`, keep_rows copies every snapshot field into the bundle; with it,
    the block is kept nowhere, and the bundle stores no snapshot fields,
    only its steps, times, residual rows, tracks, minima, substeps and
    Picard sweeps.

    Caller is responsible for spec admissibility (see problem.validate).
    Raises PositivityLoss or NonlinearDivergence when adaptive step halving
    is exhausted, and NonFiniteState at once on a NaN or an infinity.
    """
    stepper = _Stepper(spec)
    g = spec.grid
    gas = spec.gas
    nt = g.nt
    dt = g.dt

    eta = np.asarray(spec.eta0, dtype=float)
    x_e = primitive_at_edges(g, eta) + spec.perturbation.beta_e_on(g)
    state = _pack(eta, np.asarray(spec.u0, dtype=float),
                  np.asarray(spec.theta0, dtype=float), x_e)
    eta, u, theta = state[:3]
    for name, arr in (("eta", eta), ("u", u), ("theta", theta)):
        if not np.isfinite(arr).all():
            raise NonFiniteState(0.0, name)
    if eta.min() <= 0 or theta.min() <= 0:
        raise PositivityLoss(0.0, "eta" if eta.min() <= 0 else "theta")

    keep = _snapshot_indices(nt, scheme.store_stride, scheme.dense_steps)
    steps = np.asarray(keep)
    tt = g.times()
    times = tt[keep]
    slot = {n: i for i, n in enumerate(keep)}
    buf = {name: np.empty((ROW_BLOCK, g.nx + (name in _EDGE_FIELDS)))
           for name in SNAPSHOT_FIELDS}
    snap = dict.fromkeys(SNAPSHOT_FIELDS)
    if rows is None:
        rows, kept = keep_rows(spec, scheme, SNAPSHOT_FIELDS)
        snap.update(kept)
    # volume, kinetic and internal energy, I_t(uX - u0), I_t int(beta), work
    tracks = np.zeros((6, nt + 1))
    volume, kinetic, internal, it_bdu, it_bvol, it_work = tracks
    substeps = np.ones(nt, dtype=int)
    picard_sweeps = np.zeros(nt, dtype=int)
    # the residuals of the log-volume and stress-representation identities on
    # each kept row, against the initial state
    logvol, stress_repr = np.empty((2, len(keep)))
    m, nu_log_eta0, u_init = spec.bc.m, gas.nu * np.log(eta), u
    it_p0, it_pX = time_primitive(spec.bc.p0_t, tt), time_primitive(spec.bc.pX_t, tt)
    prof0, profX = 1.0 - g.centers() / g.X, g.centers() / g.X

    def residuals(block):
        lhs = gas.nu * np.log(block.eta) - nu_log_eta0 - block.it_sigma - block.it_p
        logvol[block.rows] = space_lq(g, lhs, 2.0)
        u_dev = edges_to_centers(block.u - u_init - block.it_g)
        if m == 1:
            rhs = i_bracket(g, u_dev, 1) + mean_omega(g, block.it_sigma)[:, None]
        elif m == 2:
            rhs = i_bracket(g, u_dev, 2) - it_p0[block.steps, None]
        else:
            rhs = i_bracket(g, u_dev, 3) - it_p0[block.steps, None] * prof0 \
                - it_pX[block.steps, None] * profX
        stress_repr[block.rows] = space_lq(g, block.it_sigma - rhs, 2.0)

    def commit(n, state, rec, t):
        """Write step n, which ends at time t: the tracks, one scalar each,
        the last three by adding the record's increments, and its row of the
        buffer when n is kept, with the heat flux at t; pass the buffer on
        when that fills it or n is the last step, which is always kept."""
        eta, u, theta = state[:3]
        volume[n] = integrate_center(g, eta)
        kinetic[n] = integrate_edge(g, 0.5 * u ** 2)
        internal[n] = integrate_center(g, gas.cV * theta)
        if n:
            it_bdu[n] = it_bdu[n - 1] + rec.bdu
            it_bvol[n] = it_bvol[n - 1] + rec.bvol
            it_work[n] = it_work[n - 1] + rec.work
        if n in slot:
            i = slot[n] % ROW_BLOCK
            for name, arr in zip(("eta", "u", "theta", "x_e"), state):
                buf[name][i] = arr
            for name in ("sigma", "it_sigma", "it_p", "it_g"):
                buf[name][i] = getattr(rec, name)
            stepper.heat_flux(state, t, buf["pi"][i])
            if i == ROW_BLOCK - 1 or n == nt:
                kept = slice(slot[n] - i, slot[n] + 1)
                block = RowBlock(kept, steps[kept], times[kept],
                                 *(buf[name][:i + 1] for name in SNAPSHOT_FIELDS))
                residuals(block)
                rows(block)

    rec = _StepRecord(np.zeros(g.nx), np.zeros(g.nx), np.zeros(g.nx + 1),
                      *stepper.rates(state, 0.0), eta.min(), theta.min())
    commit(0, state, rec, 0.0)

    for n in range(nt):
        t0 = n * dt
        for level in range(MAX_HALVINGS + 1):
            m_sub = 2 ** level
            h = dt / m_sub
            half_h = 0.5 * h
            half_h_ = np.array(half_h)
            st, trial = state, rec.attempt()
            try:
                for ksub in range(m_sub):
                    ts = t0 + ksub * h
                    history = ((st, h),) + trial.before[:1]
                    st, parts, sweeps = stepper.substep(st, ts, h, trial.before)
                    trial.before = history
                    trial.sweeps += sweeps
                    u1 = st[1]
                    sig1, p1, g1, wr1 = stepper.rates(st, ts + h, parts)
                    trial.it_sigma = _trapezoid(trial.it_sigma, trial.sigma, sig1, half_h_)
                    trial.it_p = _trapezoid(trial.it_p, trial.p, p1, half_h_)
                    if stepper.has_g:
                        trial.it_g = _trapezoid(trial.it_g, trial.g, g1, half_h_)
                    trial.bdu += h * (u1[-1] - u1[0])
                    if stepper.has_beta:
                        trial.bvol += h * stepper.time_data(ts + h)["int_beta"]
                    trial.work += half_h * (trial.work_rate + wr1)
                    trial.sigma, trial.p, trial.g, trial.work_rate = sig1, p1, g1, wr1
                    trial.min_eta = min(trial.min_eta, parts.min_eta)
                    trial.min_theta = min(trial.min_theta, parts.min_theta)
            except _Retry as r:
                last_retry = r
                continue
            state, rec = st, trial
            substeps[n] = m_sub
            picard_sweeps[n] = rec.sweeps
            break
        else:
            if last_retry.kind == "picard":
                raise NonlinearDivergence(n + 1)
            raise PositivityLoss(last_retry.t, last_retry.kind)

        commit(n + 1, state, rec, ts + h)

    energy = {
        "kinetic": kinetic,
        "internal": internal,
        "total": kinetic + internal,
        "boundary_and_source_work": it_work,
    }
    return SolutionBundle(
        grid=g, steps=steps, times=times, **snap, logvol_residual=logvol,
        stress_repr_residual=stress_repr, volume=volume,
        it_boundary_du=it_bdu, it_beta_volume=it_bvol,
        min_eta=float(rec.min_eta), min_theta=float(rec.min_theta),
        substeps=substeps, picard_sweeps=picard_sweeps, energy=energy)


@dataclass
class DiagnosticsReport:
    """Residuals of the exact identities a weak solution satisfies, evaluated
    on the discrete trajectory.  All entries are nonnegative."""

    volume_residual: float
    logvol_residual: float
    stress_repr_residual: float
    energy_residual: float


def diagnostics(sol, spec):
    """Exact-identity residuals for a solve of `spec`.

    volume_residual: gas-volume identity (m = 1 families; 0.0 otherwise),
    checked at every step with the perturbation contribution included.
    logvol_residual: C(0,T;L2) residual of nu*ln(eta) - nu*ln(eta0) - I_t(sigma+p).
    stress_repr_residual: C(0,T;L2) residual of the primitive-stress
    representation through I^<m> of (u - u0 - I_t g).
    energy_residual: max over steps of |E_n - E_0 - W_n|, the total energy
    against the boundary and source work; consistent at scheme order.

    A reduction of what solve recorded, the same whether it stored or
    streamed its rows.  volume_residual and energy_residual read the tracks,
    so every step.  logvol_residual and stress_repr_residual are maxima of
    the bundle's residual rows, so over the kept rows (store_stride,
    dense_steps) alone, and a larger stride can read lower.
    """
    if spec.bc.m == 1:
        res_vol = float(np.abs(sol.volume - sol.volume[0]
                               - sol.it_boundary_du - sol.it_beta_volume).max())
    else:
        res_vol = 0.0

    return DiagnosticsReport(
        volume_residual=res_vol,
        logvol_residual=float(sol.logvol_residual.max()),
        stress_repr_residual=float(sol.stress_repr_residual.max()),
        energy_residual=float(np.abs(sol.energy["total"] - sol.energy["total"][0]
                                     - sol.energy["boundary_and_source_work"]).max()),
    )
