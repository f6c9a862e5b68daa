"""Config-file layer: JSON trees with scalar / table / expression entries are
turned into problem specs, two-scale problems, scheme parameters and study
descriptions.

Field entries accept a number (constant), a [[t, v], ...] table (boundary
series, linear interpolation) or an expression string in the field's
variables (x for initial data; t for boundary data; x,t for perturbations;
xi,x for two-scale data; chi,[xi,]x,t for force terms).
"""

import json

import numpy as np

from . import dsl
from .grid import Grid, GasParams
from .homogenize import TwoScaleProblem
from .problem import (ACTIVE_BC, BC_NAMES, BoundaryData, PerturbationSpec, ProblemSpec,
                      sample_boundary)
from .solver import SchemeParams
from .twoscale import TwoScaleField


class ScaledFn:
    """delta * fn(...): perturbation patterns scaled along a study sweep."""

    def __init__(self, fn, scale):
        self.fn = fn
        self.scale = float(scale)

    def __call__(self, *args):
        return self.scale * np.asarray(self.fn(*args), dtype=float)


class ConstFn:
    def __init__(self, value):
        self.value = float(value)

    def __call__(self, *args):
        shape = np.broadcast(*[np.asarray(a, dtype=float) for a in args]).shape
        return np.full(shape, self.value)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def save_config(cfg, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")


def field_entry(entry, variables):
    """number | expression string -> callable over `variables`, None for null:
    the one way a config entry becomes a callable."""
    if entry is None:
        return None
    if isinstance(entry, str):
        return dsl.ExprFn(entry, variables)
    return ConstFn(float(entry))


def _sample_x(entry, x):
    """Samples of an entry over x at the points x; a null entry reads as zero."""
    fn = field_entry(0.0 if entry is None else entry, ("x",))
    return np.asarray(fn(x), dtype=float) * np.ones_like(x)


# the variables of each perturbation callable, in config trees and study patterns
PERTURBATION_VARIABLES = {"beta": ("x", "t"), "gamma": ("x", "t"), "beta1": ("x", "t"),
                          "beta2": ("x", "t"), "g1": ("chi", "x", "t"),
                          "g2": ("chi", "x", "t")}


def build_grid(cfg):
    dom = cfg["domain"]
    gr = cfg["grid"]
    return Grid(X=float(dom["X"]), T=float(dom["T"]),
                nx=int(gr["nx"]), nt=int(gr["nt"]))


def build_gas(cfg):
    gas = cfg["gas"]
    return GasParams(nu=float(gas["nu"]), k=float(gas["k"]),
                     cV=float(gas["cV"]), lam=float(gas["lambda"]))


def build_bc(cfg, grid):
    bc = cfg["bc"]
    return BoundaryData.build(grid, m=int(bc["m"]),
                              **{name: bc.get(name) for name in BC_NAMES})


def build_perturbation(cfg, grid):
    p = cfg.get("perturbation") or {}
    return PerturbationSpec(
        beta_e=_sample_x(p.get("beta_e"), grid.edges()),
        **{key: field_entry(p.get(key), variables)
           for key, variables in PERTURBATION_VARIABLES.items()})


def build_problem(cfg):
    """Plain (single-scale) problem from a config tree."""
    grid = build_grid(cfg)
    data = cfg["data"]
    return ProblemSpec(
        grid=grid, gas=build_gas(cfg), bc=build_bc(cfg, grid),
        eta0=_sample_x(data["eta0"], grid.centers()),
        u0=_sample_x(data["u0"], grid.edges()),
        theta0=_sample_x(data["theta0"], grid.centers()),
        g=field_entry(data.get("g"), ("chi", "x", "t")),
        f=field_entry(data.get("f"), ("chi", "x", "t")),
        perturbation=build_perturbation(cfg, grid),
        N=float(cfg.get("N", 10.0)),
        source=cfg)


def build_two_scale_problem(cfg):
    """Two-scale problem: data expressions over (xi, x), forces over
    (chi, xi, x, t), with the declared xi breakpoints."""
    grid = build_grid(cfg)
    data = cfg["data"]
    bp = tuple(cfg.get("breakpoints_xi", ()))
    n_xi = int(cfg.get("nxi", 256))

    def ts_field(entry):
        # a null entry reads as zero, as it does in a plain config
        return TwoScaleField(field_entry(0.0 if entry is None else entry, ("xi", "x")),
                             breakpoints=bp, n_xi=n_xi)

    return TwoScaleProblem(
        grid=grid, gas=build_gas(cfg), bc=build_bc(cfg, grid),
        eta0=ts_field(data["eta0"]),
        u0=ts_field(data["u0"]),
        theta0=ts_field(data["theta0"]),
        g=field_entry(data.get("g"), ("chi", "xi", "x", "t")),
        f=field_entry(data.get("f"), ("chi", "xi", "x", "t")),
        N=float(cfg.get("N", 10.0)),
        force_breakpoints=bp,
        source=cfg)


SCHEME_KEYS = {"store_stride": int, "dense_steps": int}


def build_scheme(cfg):
    """SchemeParams from the optional "scheme" table; a key it does not know
    raises ValueError naming the key."""
    s = cfg.get("scheme", {})
    for key in s:
        if key not in SCHEME_KEYS:
            raise ValueError(f"unknown scheme key '{key}'; known: {', '.join(SCHEME_KEYS)}")
    return SchemeParams(**{key: SCHEME_KEYS[key](value) for key, value in s.items()})


def perturbed_spec(base, patterns, delta):
    """Scale the study's perturbation patterns by delta and apply to the base
    spec: initial-data shifts, boundary-data shifts, and the extra terms.  A
    boundary pattern on an entry the bc family does not use raises
    ValueError."""
    for name in BC_NAMES:
        if patterns.get(name + "b") is not None and name not in ACTIVE_BC[base.bc.m]:
            raise ValueError(f"pattern {name}b shifts boundary entry {name}, which "
                             f"family m={base.bc.m} does not use")
    grid = base.grid
    xc, xe, tt = grid.centers(), grid.edges(), grid.times()

    def shift(vals, key, x):
        if key not in patterns or patterns[key] is None:
            return vals
        return vals + delta * _sample_x(patterns[key], x)

    def shift_bc(name):
        series = getattr(base.bc, name + "_t")
        entry = patterns.get(name + "b")
        return series if entry is None else series + delta * sample_boundary(entry, tt)

    bc = BoundaryData(m=base.bc.m, **{name + "_t": shift_bc(name) for name in BC_NAMES})

    def scaled(key, variables):
        fn = field_entry(patterns.get(key), variables)
        return None if fn is None else ScaledFn(fn, delta)

    pert = PerturbationSpec(
        beta_e=delta * _sample_x(patterns.get("beta_e"), xe),
        **{key: scaled(key, variables) for key, variables in PERTURBATION_VARIABLES.items()})

    return ProblemSpec(
        grid=grid, gas=base.gas, bc=bc,
        eta0=shift(np.asarray(base.eta0, dtype=float), "eta0", xc),
        u0=shift(np.asarray(base.u0, dtype=float), "u0", xe),
        theta0=shift(np.asarray(base.theta0, dtype=float), "theta0", xc),
        g=base.g, f=base.f, perturbation=pert, N=base.N, source=base.source)
