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

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .calculus import primitive_at_edges, time_primitive, i_bracket, mean_omega
from .grid import du_centers, dw_edges_interior, edges_to_centers, integrate_edge, \
    integrate_center
from .norms import space_lq
from .problem import SolutionBundle, sample_field


class PositivityLoss(RuntimeError):
    def __init__(self, t, variable):
        self.t = t
        self.variable = variable
        super().__init__(f"{variable} lost positivity near t={t:.6g} "
                         "after exhausting the step-halving budget")


class NonFiniteState(RuntimeError):
    """A band, a right-hand side or a new state of the step that reaches t
    holds a NaN or an infinity.  Raised at once: halving the step cannot help."""

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


class _Tridiagonal:
    """Bands and right-hand side of one tridiagonal system of size n, in one
    buffer [lower | diag | upper | rhs] allocated once and refilled every
    sweep.  dgtsv factors the bands in place; the solution is a new array."""

    def __init__(self, n):
        self.buf = np.empty(4 * n - 2)
        self.lower = self.buf[:n - 1]
        self.diag = self.buf[n - 1:2 * n - 1]
        self.upper = self.buf[2 * n - 1:3 * n - 2]
        self.rhs = self.buf[3 * n - 2:]

    def solve(self, t, variable):
        if not np.isfinite(self.buf).all():
            raise NonFiniteState(t, variable)
        _, _, _, x, info = dgtsv(self.lower, self.diag, self.upper, self.rhs,
                                 True, True, True, False)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return x


def _extrapolate(state, history, h):
    """First Picard iterate for the substep of size h from `state` at t: the
    Lagrange extrapolation to t + h through `state` and the (eta, u, theta)
    of `history`, ((eta, u, theta), h_k) pairs of the preceding substeps,
    most recent first.  Two entries give the quadratic extrapolation (weights
    3, -3, 1 for uniform steps), one the linear, none `state` itself."""
    nodes = [0.0]
    for _, h_k in history:
        nodes.append(nodes[-1] - h_k)
    points = [state[:3]] + [past for past, _ in history]
    weights = [math.prod((h - t_j) / (t_i - t_j) for j, t_j in enumerate(nodes) if j != i)
               for i, t_i in enumerate(nodes)]
    return tuple(sum(w * point[k] for w, point in zip(weights, points)) for k in range(3))


def _converged(change, prev_change):
    """Stop test after a Picard sweep whose max |change| is `change`, after
    one of `prev_change` (0.0 when no ratio is trusted): the change is below
    PICARD_TOL, or the sweeps contract at least twofold and the next change
    they predict, change**2 / prev_change, is below PICARD_TOL / 10."""
    return change < PICARD_TOL or (change <= prev_change / 2
                                   and change * change / prev_change < PICARD_TOL / 10)


def _change(t, variable, new, old):
    """max |new - old| between Picard iterates; NonFiniteState when `new`
    holds a NaN or an infinity (`old` is always finite)."""
    change = np.abs(new - old).max()
    if not math.isfinite(change):
        raise NonFiniteState(t, variable)
    return change


class _Stepper:
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
        self.u_system = _Tridiagonal(self.grid.nx + 1)
        self.theta_system = _Tridiagonal(self.grid.nx)
        self._time = self._data = None
        # absent data read as these shared zeros, never written
        self.zero_c = np.zeros(self.grid.nx)
        self.zero_e = np.zeros(self.grid.nx + 1)
        self.zero_c.flags.writeable = self.zero_e.flags.writeable = False

    def time_data(self, t):
        """The data that depend on t alone: the BoundaryData.at(step times, t)
        values plus "beta" at the centers and "gamma" at the edges, sampled
        once per distinct time; the substep reaching t and the rates at t
        share one record."""
        if t != self._time:
            data = self.bc.at(self.times, t)
            data["beta"] = self.zero_c if self.pert.beta is None \
                else self.pert.beta_at(self.xc, t)
            data["gamma"] = self.zero_e if self.pert.gamma is None \
                else self.pert.gamma_at(self.xe, t)
            self._time, self._data = t, data
        return self._data

    # -- data samples ---------------------------------------------------

    def g_at(self, x_e, t):
        return self.zero_e if self.spec.g is None else sample_field(self.spec.g, x_e, self.xe, t)

    def f_at(self, x_e, t):
        """f at the cell centers, its chi read off the edge coordinate x_e."""
        if self.spec.f is None:
            return self.zero_c
        return sample_field(self.spec.f, edges_to_centers(x_e), self.xc, t)

    # -- instantaneous derived fields ------------------------------------

    def stress(self, eta, u, theta, t):
        rho = 1.0 / eta
        beta = self.time_data(t)["beta"]
        return self.gas.nu * rho * (du_centers(self.grid, u) + beta) \
            - self.gas.k * rho * theta

    def heat_flux(self, eta, theta, t):
        pi = np.empty(self.grid.nx + 1)
        rho_e = 2.0 / (eta[:-1] + eta[1:])
        b = self.time_data(t)
        pi[1:-1] = self.gas.lam * rho_e[:] * (dw_edges_interior(self.grid, theta)
                                              + b["gamma"][1:-1])
        pi[0] = b["pi0"]
        pi[-1] = b["piX"]
        return pi

    def work_rate(self, sig, pi, u, t):
        b = self.time_data(t)
        s0 = -b["p0"] if self.bc.m in (2, 3) else sig[0]
        sX = -b["pX"] if self.bc.m == 3 else sig[-1]
        return sX * u[-1] - s0 * u[0] + pi[-1] - pi[0]

    def rates(self, state, t):
        """(sigma, p, g, pi, work rate) of a state at time t."""
        eta, u, theta, x_e = state
        sig = self.stress(eta, u, theta, t)
        pi = self.heat_flux(eta, theta, t)
        return (sig, self.gas.k * theta / eta, self.g_at(x_e, t), pi,
                self.work_rate(sig, pi, u, t))

    # -- one substep of size h -------------------------------------------

    def substep(self, state, t0, h, history=()):
        """Advance `state` from t0 by h; returns (new state, Picard sweeps).

        history holds up to two ((eta, u, theta), h_k) pairs, the starts and
        sizes of the substeps that ended at `state`, most recent first.  With
        any, the iteration starts at _extrapolate(state, history, h).  Without
        history, or when the extrapolated eta or theta is not above the
        positivity floor, it starts at `state`.  A predicted start that ends
        in a retry is discarded and the iteration rerun from `state`, so the
        predictor never causes a retry; the discarded sweeps still count.
        """
        sweeps = 0
        if history:
            start = _extrapolate(state, history, h)
            if start[0].min() > POSITIVITY_FLOOR and start[2].min() > POSITIVITY_FLOOR:
                try:
                    return self._iterate(state, t0, h, start, True)
                except _Retry as retry:
                    sweeps = retry.sweeps
        new, k = self._iterate(state, t0, h, state[:3], False)
        return new, sweeps + k

    def _iterate(self, state, t0, h, start, predicted):
        """Picard sweeps for one substep from the iterate `start`, predicted
        by _extrapolate or (predicted False) the state itself."""
        eta_n, u_n, theta_n, x_e_n = state
        g = self.grid
        gas = self.gas
        t1 = t0 + h
        dx, dx2 = self.dx, self.dx2
        mom, ene = self.u_system, self.theta_system

        b1 = self.time_data(t1)
        beta_1, gamma_1 = b1["beta"], b1["gamma"]
        inv_h = 1.0 / h
        u_n_h = u_n / h
        theta_n_h = gas.cV * theta_n / h
        cV_h = gas.cV / h

        eta_s, u_s, theta_s = start
        x_e_s = x_e_n + h * u_n
        prev_change = 0.0

        for sweep in range(1, MAX_PICARD + 1):
            rho_s = 1.0 / eta_s
            p_s = gas.k * rho_s * theta_s

            # momentum: implicit viscous flux, lagged pressure/coefficients
            a = gas.nu * rho_s                           # per center
            S = a * beta_1 - p_s
            g_edge = self.g_at(x_e_s, t1)

            mom.diag[1:-1] = inv_h + (a[1:] + a[:-1]) / dx2
            mom.upper[1:] = -a[1:] / dx2
            mom.lower[:-1] = -a[:-1] / dx2
            mom.rhs[1:-1] = u_n_h[1:-1] + (S[1:] - S[:-1]) / dx + g_edge[1:-1]

            if self.bc.m == 1:
                mom.diag[0] = 1.0
                mom.upper[0] = 0.0
                mom.rhs[0] = b1["u0"]
            else:
                mom.diag[0] = inv_h + 2.0 * a[0] / dx2
                mom.upper[0] = -2.0 * a[0] / dx2
                mom.rhs[0] = u_n_h[0] + (2.0 / dx) * (S[0] + b1["p0"]) + g_edge[0]
            if self.bc.m in (1, 2):
                mom.diag[-1] = 1.0
                mom.lower[-1] = 0.0
                mom.rhs[-1] = b1["uX"]
            else:
                mom.diag[-1] = inv_h + 2.0 * a[-1] / dx2
                mom.lower[-1] = -2.0 * a[-1] / dx2
                mom.rhs[-1] = u_n_h[-1] + (2.0 / dx) * (-b1["pX"] - S[-1]) + g_edge[-1]

            u_new = mom.solve(t1, "u")
            change_u = _change(t1, "u", u_new, u_s)

            du_new = du_centers(g, u_new)
            eta_new = eta_n + h * (du_new + beta_1)
            change_eta = _change(t1, "eta", eta_new, eta_s)
            if eta_new.min() <= POSITIVITY_FLOOR:
                raise _Retry("eta", t1, sweep)
            rho_new = 1.0 / eta_new
            x_e_new = x_e_n + 0.5 * h * (u_n + u_new)

            # energy: implicit conduction with the fresh density, source with
            # the freshly updated velocity, pressure lagged one Picard sweep
            sigma_src = gas.nu * rho_new * (du_new + beta_1) \
                - gas.k * rho_new * theta_s
            source = sigma_src * du_new + self.f_at(x_e_new, t1)

            b_e = gas.lam * 2.0 / (eta_new[:-1] + eta_new[1:])   # interior edges
            pi_gamma = b_e * gamma_1[1:-1]

            cond = b_e / dx2
            ene.diag[:] = cV_h
            ene.diag[:-1] += cond
            ene.diag[1:] += cond
            np.negative(cond, out=ene.upper)
            np.negative(cond, out=ene.lower)

            rhs_t = ene.rhs
            np.add(theta_n_h, source, out=rhs_t)
            rhs_t[:-1] += pi_gamma / dx
            rhs_t[1:] -= pi_gamma / dx
            rhs_t[0] -= b1["pi0"] / dx
            rhs_t[-1] += b1["piX"] / dx

            theta_new = ene.solve(t1, "theta")
            change_theta = _change(t1, "theta", theta_new, theta_s)
            if theta_new.min() <= POSITIVITY_FLOOR:
                raise _Retry("theta", t1, sweep)

            change = max(change_u, change_eta, change_theta)
            eta_s, u_s, theta_s, x_e_s = eta_new, u_new, theta_new, x_e_new
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

        return (eta_s, u_s, theta_s, x_e_s), sweep


def _snapshot_indices(nt, stride, dense):
    keep = {0, nt}
    keep.update(range(1, min(dense, nt) + 1))
    keep.update(range(0, nt + 1, stride))
    return sorted(keep)


@dataclass
class _StepRecord:
    """What solve() carries from substep to substep: the running trapezoid
    integrals I_t sigma, I_t p, I_t g, the rates at the end of the last
    substep, the ((eta, u, theta), h) starts of the last two substeps, most
    recent first, the running eta and theta minima, and the increments of
    I_t(uX - u0), I_t int(beta) and the boundary work plus the Picard sweeps
    over the nominal step."""

    it_sigma: np.ndarray
    it_p: np.ndarray
    it_g: np.ndarray
    sigma: np.ndarray
    p: np.ndarray
    g: np.ndarray
    pi: np.ndarray
    work_rate: float
    min_eta: float
    min_theta: float
    before: tuple = ()
    bdu: float = 0.0
    bvol: float = 0.0
    work: float = 0.0
    sweeps: int = 0

    def attempt(self):
        """Fresh record for one try at a nominal step: integrals copied, rates,
        minima and the last substep's start carried over, increments and
        sweeps reset."""
        return _StepRecord(self.it_sigma.copy(), self.it_p.copy(), self.it_g.copy(),
                           self.sigma, self.p, self.g, self.pi, self.work_rate,
                           self.min_eta, self.min_theta, self.before)


def solve(spec, scheme=SchemeParams()):
    """Run the time stepper over (0, T); returns a SolutionBundle.

    Caller is responsible for spec admissibility (see problem.validate).
    Raises PositivityLoss or NonlinearDivergence when adaptive step halving
    is exhausted, and NonFiniteState at once on a NaN or an infinity.
    """
    stepper = _Stepper(spec)
    g = spec.grid
    gas = spec.gas
    nt = g.nt
    dt = g.dt

    eta = np.asarray(spec.eta0, dtype=float).copy()
    u = np.asarray(spec.u0, dtype=float).copy()
    theta = np.asarray(spec.theta0, dtype=float).copy()
    x_e = primitive_at_edges(g, eta) + spec.perturbation.beta_e_on(g)
    for name, arr in (("eta", eta), ("u", u), ("theta", theta)):
        if not np.isfinite(arr).all():
            raise NonFiniteState(0.0, name)
    if eta.min() <= 0 or theta.min() <= 0:
        raise PositivityLoss(0.0, "eta" if eta.min() <= 0 else "theta")
    state = (eta, u, theta, x_e)

    keep = _snapshot_indices(nt, scheme.store_stride, scheme.dense_steps)
    slot = {n: i for i, n in enumerate(keep)}
    snap = {name: np.empty((len(keep), g.nx)) for name in
            ("eta", "theta", "sigma", "it_sigma", "it_p")}
    snap.update({name: np.empty((len(keep), g.nx + 1)) for name in
                 ("u", "x_e", "pi", "it_g")})
    # volume, kinetic and internal energy, I_t(uX - u0), I_t int(beta), work
    tracks = np.zeros((6, nt + 1))
    substeps = np.ones(nt, dtype=int)
    picard_sweeps = np.zeros(nt, dtype=int)

    def commit(n, state, rec):
        """Write step n: the tracks, the last three by adding the record's
        increments, and the snapshot when n is kept."""
        eta, u, theta, _ = state
        tracks[:3, n] = (integrate_center(g, eta), integrate_edge(g, 0.5 * u ** 2),
                         integrate_center(g, gas.cV * theta))
        if n:
            tracks[3:, n] = tracks[3:, n - 1] + (rec.bdu, rec.bvol, rec.work)
        if n in slot:
            for name, arr in zip(("eta", "u", "theta", "x_e"), state):
                snap[name][slot[n]] = arr
            for name in ("sigma", "pi", "it_sigma", "it_p", "it_g"):
                snap[name][slot[n]] = getattr(rec, name)

    rec = _StepRecord(np.zeros(g.nx), np.zeros(g.nx), np.zeros(g.nx + 1),
                      *stepper.rates(state, 0.0), eta.min(), theta.min())
    commit(0, state, rec)

    for n in range(nt):
        t0 = n * dt
        for level in range(MAX_HALVINGS + 1):
            m_sub = 2 ** level
            h = dt / m_sub
            st, trial = state, rec.attempt()
            try:
                for ksub in range(m_sub):
                    ts = t0 + ksub * h
                    history = ((st[:3], h),) + trial.before[:1]
                    st, sweeps = stepper.substep(st, ts, h, trial.before)
                    trial.before = history
                    trial.sweeps += sweeps
                    e1, u1, th1, _ = st
                    sig1, p1, g1, pi1, wr1 = stepper.rates(st, ts + h)
                    trial.it_sigma += 0.5 * h * (trial.sigma + sig1)
                    trial.it_p += 0.5 * h * (trial.p + p1)
                    trial.it_g += 0.5 * h * (trial.g + g1)
                    trial.bdu += h * (u1[-1] - u1[0])
                    trial.bvol += h * integrate_center(g, stepper.time_data(ts + h)["beta"])
                    trial.work += 0.5 * h * (trial.work_rate + wr1)
                    trial.sigma, trial.p, trial.g, trial.pi, trial.work_rate = \
                        sig1, p1, g1, pi1, wr1
                    trial.min_eta = min(trial.min_eta, e1.min())
                    trial.min_theta = min(trial.min_theta, th1.min())
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

        commit(n + 1, state, rec)

    volume, kinetic, internal, it_bdu, it_bvol, it_work = tracks
    energy = {
        "kinetic": kinetic,
        "internal": internal,
        "total": kinetic + internal,
        "boundary_and_source_work": it_work,
    }
    return SolutionBundle(
        grid=g, steps=np.asarray(keep), times=g.times()[keep], **snap, volume=volume,
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
    positivity_margins: tuple
    energy_ledger: dict


def diagnostics(sol, spec):
    """Exact-identity residuals for a solve of `spec`.

    volume_residual: gas-volume identity (m = 1 families; 0.0 otherwise),
    checked at every step with the perturbation contribution included.
    logvol_residual: C(0,T;L2) residual of nu*ln(eta) - nu*ln(eta0) - I_t(sigma+p).
    stress_repr_residual: C(0,T;L2) residual of the primitive-stress
    representation through I^<m> of (u - u0 - I_t g).
    """
    g = sol.grid
    gas = spec.gas

    if spec.bc.m == 1:
        res_vol = float(np.abs(sol.volume - sol.volume[0]
                               - sol.it_boundary_du - sol.it_beta_volume).max())
    else:
        res_vol = 0.0

    lhs = gas.nu * np.log(sol.eta) - gas.nu * np.log(sol.eta[0])[None, :] \
        - sol.it_sigma - sol.it_p
    res_logvol = float(space_lq(g, lhs, 2.0).max())

    u_dev = edges_to_centers(sol.u - sol.u[0][None, :] - sol.it_g)
    m = spec.bc.m
    tt = g.times()
    if m == 1:
        rhs = i_bracket(g, u_dev, 1) + mean_omega(g, sol.it_sigma)[:, None]
    else:
        rhs = i_bracket(g, u_dev, m)
        it_p0 = time_primitive(spec.bc.p0_t, tt)[sol.steps]
        it_pX = time_primitive(spec.bc.pX_t, tt)[sol.steps]
        if m == 2:
            rhs = rhs - it_p0[:, None]
        else:
            xc = g.centers()
            prof0 = (1.0 - xc / g.X)[None, :]
            profX = (xc / g.X)[None, :]
            rhs = rhs - it_p0[:, None] * prof0 - it_pX[:, None] * profX
    res_stress = float(space_lq(g, sol.it_sigma - rhs, 2.0).max())

    return DiagnosticsReport(
        volume_residual=res_vol,
        logvol_residual=res_logvol,
        stress_repr_residual=res_stress,
        positivity_margins=(sol.min_eta, sol.min_theta),
        energy_ledger=sol.energy,
    )

