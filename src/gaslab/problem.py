"""Problem data model: boundary data, perturbations, full problem spec and the
solution container, plus validation of the admissibility conditions on data.

Boundary-condition families:
    m = 1  velocities prescribed at both ends
    m = 2  stress (outer pressure) at x = 0, velocity at x = X
    m = 3  stress at both ends
Heat-flux data are prescribed at both ends for every family.  Entries not
demanded by the family are kept identically zero.

Everything is value-semantic and immutable after construction; solver runs
never mutate a spec, so specs can be shared across concurrent solves.
"""

from dataclasses import dataclass

import numpy as np

from . import dsl
from .calculus import time_primitive
from .grid import Grid, GasParams, integrate_center, sample_field
from .norms import space_lq, time_lr, w11_time_norm


BC_NAMES = ("u0", "uX", "p0", "pX", "pi0", "piX")

# boundary entries each family uses; the others are kept identically zero
ACTIVE_BC = {
    1: ("u0", "uX", "pi0", "piX"),
    2: ("p0", "uX", "pi0", "piX"),
    3: ("p0", "pX", "pi0", "piX"),
}


def sample_field_times(fn, times, *args):
    """sample_field(fn, *args, t) stacked over `times`: array (len(times), len(x))
    with x = args[-1], from one call that broadcasts the times as a column.
    For an elementwise callable, as every DSL expression is, row n holds the
    bits that the call at times[n] alone gives."""
    return sample_field(fn, *args, np.asarray(times)[:, None])


def sample_boundary(entry, times):
    """Boundary entry -> samples at `times`: None (zeros), a number, an
    expression string in t or a [[t, v], ...] table (linear interpolation).
    Any other entry raises ValueError."""
    if entry is None or isinstance(entry, str):
        return sample_field(None if entry is None else dsl.ExprFn(entry, ("t",)), times)
    try:
        table = np.asarray(entry, dtype=float)
    except (TypeError, ValueError):
        table = np.empty(0)
    if table.ndim == 0 and not isinstance(entry, bool):
        return np.full(len(times), float(table))
    if table.ndim == 2 and table.shape[1] == 2:
        return np.interp(times, table[:, 0], table[:, 1])
    raise ValueError(f"boundary entry {entry!r} is not null, a number, an expression "
                     "in t or a [[t, v], ...] table")


@dataclass(frozen=True)
class BoundaryData:
    """Time series at step times; intermediate values by linear interpolation."""

    m: int
    u0_t: np.ndarray
    uX_t: np.ndarray
    p0_t: np.ndarray
    pX_t: np.ndarray
    pi0_t: np.ndarray
    piX_t: np.ndarray

    def __post_init__(self):
        if self.m not in ACTIVE_BC:
            raise ValueError(f"bc family m must be 1, 2 or 3, got {self.m}")

    @classmethod
    def build(cls, grid, m, u0=None, uX=None, p0=None, pX=None, pi0=None, piX=None):
        given = {"u0": u0, "uX": uX, "p0": p0, "pX": pX, "pi0": pi0, "piX": piX}
        t = grid.times()
        return cls(m=m, **{
            name + "_t": sample_boundary(given[name], t) for name in BC_NAMES})

    def at(self, times, t):
        """Interpolated boundary values at a time t (substeps) or an array of
        times; `times` are the step times, grid.times()."""
        return {name: np.interp(t, times, getattr(self, name + "_t")) for name in BC_NAMES}


@dataclass(frozen=True)
class PerturbationSpec:
    """Extra terms of the perturbed system: beta enters the mass equation and
    the stress, gamma the heat flux, beta_e shifts the initial Eulerian
    coordinate.  beta/gamma are callables (x, t) -> array.  Every field is one
    the solver reads; studies.compute_delta itemizes the bound from them."""

    beta: object = None            # (x, t) -> array, cell centers
    gamma: object = None           # (x, t) -> array, cell edges
    beta_e: np.ndarray = None      # (nx+1,) edge field

    def beta_at(self, x, t):
        return sample_field(self.beta, x, t)

    def gamma_at(self, x, t):
        return sample_field(self.gamma, x, t)

    def beta_e_on(self, grid):
        """beta_e, or zeros at the edges of `grid` when it is absent."""
        return np.zeros(grid.nx + 1) if self.beta_e is None else self.beta_e


@dataclass(frozen=True)
class ProblemSpec:
    grid: Grid
    gas: GasParams
    bc: BoundaryData
    eta0: np.ndarray               # (nx,) cell centers
    u0: np.ndarray                 # (nx+1,) cell edges
    theta0: np.ndarray             # (nx,) cell centers
    g: object = None               # (chi, x, t) -> array, or None for zero
    f: object = None               # (chi, x, t) -> array, or None for zero
    perturbation: PerturbationSpec = PerturbationSpec()
    N: float = 10.0
    source: dict = None            # config tree this spec was built from, if any


def validate(spec):
    """Check the admissibility conditions on the data; returns a list of
    violation strings (empty means valid).  Never raises."""
    grid, N = spec.grid, spec.N
    # every bound below compares against N or 1/N, which a NaN passes silently
    if not (np.isfinite(N) and N > 0):
        return [f"N must be a finite positive number, got {N!r}"]
    out = []
    eta0 = np.asarray(spec.eta0, dtype=float)
    u0 = np.asarray(spec.u0, dtype=float)
    theta0 = np.asarray(spec.theta0, dtype=float)

    if eta0.shape != (grid.nx,):
        out.append(f"eta0 must have {grid.nx} center samples, got {eta0.shape}")
        return out
    if u0.shape != (grid.nx + 1,):
        out.append(f"u0 must have {grid.nx + 1} edge samples, got {u0.shape}")
        return out
    if theta0.shape != (grid.nx,):
        out.append(f"theta0 must have {grid.nx} center samples, got {theta0.shape}")
        return out

    # every check below compares samples, which a NaN passes silently
    for name, arr in (("eta0", eta0), ("u0", u0), ("theta0", theta0)):
        if not np.isfinite(arr).all():
            out.append(f"{name} must be finite everywhere")
    for name in BC_NAMES:
        if not np.isfinite(getattr(spec.bc, name + "_t")).all():
            out.append(f"boundary entry {name} must be finite at every step time")
    if out:
        return out

    # (C1)
    if eta0.min() < 1.0 / N:
        out.append("eta0 must satisfy eta0 >= 1/N everywhere (C1)")
    if theta0.min() <= 0.0:
        out.append("theta0 must be strictly positive (C1)")
    else:
        size = (np.abs(eta0).max() + np.abs(u0).max()
                + space_lq(grid, theta0, 2.0)
                + integrate_center(grid, np.abs(np.log(theta0))))
        if size > N:
            out.append(f"data magnitude {size:.3g} exceeds declared N={N:g} (C1)")

    # (C2): sample the force terms, and the perturbation terms, on a probe set;
    # a non-finite sample, or an expression that refuses to produce one, is
    # reported before the f >= 0 comparison it passes
    tt = grid.times()
    probe_t = tt[:: max(1, len(tt) // 32)]
    xc = grid.centers()
    xe = grid.edges()
    chi_c = np.linspace(-grid.X, 2 * grid.X, len(xc))
    chi_e = np.linspace(-grid.X, 2 * grid.X, len(xe))
    pert = spec.perturbation
    probes = (("f", lambda t: sample_field(spec.f, chi_c, xc, t), " (C2)"),
              ("g", lambda t: sample_field(spec.g, chi_e, xe, t), " (C2)"),
              ("beta", lambda t: pert.beta_at(xc, t), ""),
              ("gamma", lambda t: pert.gamma_at(xe, t), ""))
    for name, probe, tag in probes:
        for t in probe_t:
            try:
                v = probe(t)
            except dsl.NonfiniteResult:
                v = np.nan
            if not np.isfinite(v).all():
                out.append(f"{name} must be finite on the probe set, failed at t={t:g}{tag}")
                break
            if name == "f" and v.min() < 0.0:
                out.append(f"f must be nonnegative, found {v.min():.3g} at t={t:g} (C2)")
                break

    # (C3)
    bc = spec.bc
    active = ACTIVE_BC[bc.m]
    for name in ("u0", "uX", "p0", "pX"):
        series = getattr(bc, name + "_t")
        if name not in active and np.any(series != 0.0):
            out.append(f"boundary entry {name} is not used by family m={bc.m} "
                       "and must be identically zero")
    for name in ("p0", "pX"):
        if name in active and getattr(bc, name + "_t").min() < 1.0 / N:
            out.append(f"outer pressure {name} must satisfy {name} >= 1/N (C3)")
    for name in ("pi0", "piX"):
        if getattr(bc, name + "_t").min() < 0.0:
            out.append(f"heat-flux datum {name} must be nonnegative (C3)")
    bsize = (w11_time_norm(bc.u0_t, tt) + w11_time_norm(bc.uX_t, tt)
             + w11_time_norm(bc.p0_t, tt) + w11_time_norm(bc.pX_t, tt)
             + time_lr(bc.pi0_t, tt, 4.0 / 3.0) + time_lr(bc.piX_t, tt, 4.0 / 3.0))
    if bsize > N:
        out.append(f"boundary data magnitude {bsize:.3g} exceeds declared N={N:g} (C3)")

    if bc.m == 1:
        vol = integrate_center(grid, eta0) + time_primitive(bc.uX_t - bc.u0_t, tt)
        if vol.min() < 1.0 / N:
            n_bad = int(np.argmax(vol < 1.0 / N))
            out.append(f"gas volume drops below 1/N at t={tt[n_bad]:g} (gas volume, m=1)")

    return out


def require_valid(name, spec):
    """Raise ValueError naming the spec and its violations when validate
    rejects it."""
    problems = validate(spec)
    if problems:
        raise ValueError(f"{name} is inadmissible: " + "; ".join(problems))


# the fields a SolutionBundle stores at each kept step, in RowBlock order
SNAPSHOT_FIELDS = ("eta", "u", "theta", "x_e", "sigma", "pi", "it_sigma", "it_p", "it_g")


@dataclass(frozen=True)
class RowBlock:
    """Consecutive kept rows of a solve: `rows`, their slice of the bundle's
    snapshot index, their steps and times, and the snapshot fields on them.
    A block that solver.solve streams holds views of its row buffer, which
    the next block overwrites."""

    rows: slice
    steps: np.ndarray
    times: np.ndarray
    eta: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    x_e: np.ndarray
    sigma: np.ndarray
    pi: np.ndarray
    it_sigma: np.ndarray
    it_p: np.ndarray
    it_g: np.ndarray


@dataclass
class SolutionBundle:
    """Trajectories stored at the snapshot steps `steps` (a subset of
    0..nt, at times `times`), the identity residuals on those rows, plus
    per-step scalar tracks at full step resolution.  A solve that streamed
    its rows stores no trajectory: its snapshot fields are None.

    it_sigma / it_p / it_g are trapezoid accumulations over every step,
    snapshotted together with the fields, so time primitives of the stress
    stay exact regardless of the snapshot stride.
    """

    grid: Grid
    steps: np.ndarray              # (ns,) step indices of the snapshots
    times: np.ndarray              # (ns,) snapshot times, grid.times()[steps]
    eta: np.ndarray                # (ns, nx)
    u: np.ndarray                  # (ns, nx+1)
    theta: np.ndarray              # (ns, nx)
    x_e: np.ndarray                # (ns, nx+1)
    sigma: np.ndarray              # (ns, nx)
    pi: np.ndarray                 # (ns, nx+1)
    it_sigma: np.ndarray           # (ns, nx)
    it_p: np.ndarray               # (ns, nx)
    it_g: np.ndarray               # (ns, nx+1)
    logvol_residual: np.ndarray    # (ns,) L2 residuals, see solver.diagnostics
    stress_repr_residual: np.ndarray   # (ns,)
    volume: np.ndarray             # (nt+1,)
    it_boundary_du: np.ndarray     # (nt+1,) scheme-consistent I_t(uX - u0)
    it_beta_volume: np.ndarray     # (nt+1,) scheme-consistent I_t int(beta)
    min_eta: float
    min_theta: float
    substeps: np.ndarray           # (nt,) effective substeps per nominal step
    picard_sweeps: np.ndarray      # (nt,) Picard sweeps over those substeps
    energy: dict
