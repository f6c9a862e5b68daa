"""Config-file layer: JSON trees with scalar / table / expression entries are
turned into problem specs, two-scale problems, scheme parameters and study
settings.  A table that lacks a key the reader asks for, or holds one no
reader reads (the top level included), raises ValueError naming the key.

Field entries accept a number (constant), a [[t, v], ...] table (boundary
series, linear interpolation) or an expression string in the field's
variables (x for initial data; t for boundary data; x,t for perturbations;
xi,x for two-scale data; chi,[xi,]x,t for force terms).
"""

import json

import numpy as np

from . import dsl
from .grid import Grid, GasParams, sample_field
from .homogenize import TwoScaleProblem
from .problem import (ACTIVE_BC, BC_NAMES, BoundaryData, PerturbationSpec, ProblemSpec,
                      sample_boundary)
from .solver import SchemeParams
from .studies import DIFFERENCE_COLUMNS
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
        return self.value


class Table(dict):
    """A JSON object of a config file: a key it lacks raises ValueError."""

    def __missing__(self, key):
        raise ValueError(f"config table lacks key '{key}'")


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_hook=Table)


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


def number_or_inf(value):
    """A config entry that is a number or the string "inf"."""
    return float("inf") if str(value) == "inf" else float(value)


def _sample_x(entry, x):
    """Samples of an entry over x at the points x; a null entry reads as zero."""
    return sample_field(field_entry(entry, ("x",)), x)


# the variables of each perturbation callable, in config trees and study patterns
PERTURBATION_VARIABLES = {"beta": ("x", "t"), "gamma": ("x", "t"), "beta1": ("x", "t"),
                          "beta2": ("x", "t"), "g1": ("chi", "x", "t"),
                          "g2": ("chi", "x", "t")}


# the keys the plain and the two-scale builders read from a "data" table
DATA_KEYS = ("eta0", "u0", "theta0", "g", "f")


# the top-level keys of each command's config tree: a plain problem (solve,
# and the "problem" tree of study-lipschitz), a two-scale problem with the
# "study" table that homogenize and study-homog read, a Lipschitz study and a
# norm evaluation
PROBLEM_KEYS = ("domain", "grid", "gas", "bc", "data", "perturbation", "N", "scheme")
TWO_SCALE_KEYS = ("domain", "grid", "gas", "bc", "data", "breakpoints_xi", "nxi", "N",
                  "scheme", "study")
LIPSCHITZ_KEYS = ("problem", "study")
NORM_KEYS = ("domain", "grid", "field", "norm")


def check_top_level(cfg, known):
    """ValueError naming the first top-level key of cfg not in `known`."""
    _check_keys(cfg, known, "top-level")


def _table(cfg, name, known):
    """cfg[name], checked to be a JSON object holding only keys in `known`."""
    _check_keys(cfg[name], known, name)
    return cfg[name]


def build_grid(cfg):
    dom = _table(cfg, "domain", ("X", "T"))
    gr = _table(cfg, "grid", ("nx", "nt"))
    return Grid(X=float(dom["X"]), T=float(dom["T"]),
                nx=int(gr["nx"]), nt=int(gr["nt"]))


def build_gas(cfg):
    gas = _table(cfg, "gas", ("nu", "k", "cV", "lambda"))
    return GasParams(nu=float(gas["nu"]), k=float(gas["k"]),
                     cV=float(gas["cV"]), lam=float(gas["lambda"]))


def build_bc(cfg, grid):
    bc = _table(cfg, "bc", ("m", *BC_NAMES))
    return BoundaryData.build(grid, m=int(bc["m"]),
                              **{name: bc.get(name) for name in BC_NAMES})


def build_perturbation(cfg, grid):
    p = cfg.get("perturbation") or {}
    _check_keys(p, ("beta_e", *PERTURBATION_VARIABLES), "perturbation")
    return PerturbationSpec(
        beta_e=_sample_x(p.get("beta_e"), grid.edges()),
        **{key: field_entry(p.get(key), variables)
           for key, variables in PERTURBATION_VARIABLES.items()})


def build_problem(cfg):
    """Plain (single-scale) problem from a config tree."""
    check_top_level(cfg, PROBLEM_KEYS)
    grid = build_grid(cfg)
    data = _table(cfg, "data", DATA_KEYS)
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
    check_top_level(cfg, TWO_SCALE_KEYS)
    grid = build_grid(cfg)
    data = _table(cfg, "data", DATA_KEYS)
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


def float_list(entry):
    """A config entry that is a list of numbers."""
    return [float(v) for v in entry]


def threshold_rules(table):
    """A "thresholds" table: {column: ["ge", x] | ["band", lo, hi]}, each
    column one the studies fit; any other entry raises ValueError."""
    fitted = [col for col, *_ in DIFFERENCE_COLUMNS] + ["u_L2_supHm1"]
    rules = dict(table)
    for col, rule in rules.items():
        if col not in fitted:
            raise ValueError(f"threshold on '{col}', a column no study fits")
        if not (isinstance(rule, list) and len(rule) in (2, 3)
                and rule[0] == ("ge" if len(rule) == 2 else "band")
                and all(isinstance(v, (int, float)) for v in rule[1:])):
            raise ValueError(f"threshold on '{col}' is not [\"ge\", x] or "
                             f"[\"band\", lo, hi]: {rule!r}")
    return rules


SCHEME_KEYS = {"store_stride": int, "dense_steps": int}

# the keys of each "study" table with their readers; they are the argument
# names of studies.run_homog_study and run_lipschitz_study (whose perturb the
# CLI builds from patterns), and those defaults hold for a key the table omits
HOMOG_STUDY_KEYS = {"eps_list": float_list, "qe": number_or_inf,
                    "thresholds": threshold_rules}
LIPSCHITZ_STUDY_KEYS = {"delta0": float, "levels": int, "qe": number_or_inf,
                        "patterns": dict, "thresholds": threshold_rules}

# the pattern keys perturbed_spec reads: initial-data shifts, boundary-series
# shifts (<entry>b) and the perturbation terms
PATTERN_KEYS = ("eta0", "u0", "theta0", *(name + "b" for name in BC_NAMES), "beta_e",
                *PERTURBATION_VARIABLES)


def _check_keys(table, known, kind):
    if not isinstance(table, dict):
        raise ValueError(f"{kind} table is not a JSON object: {table!r}")
    for key in table:
        if key not in known:
            raise ValueError(f"unknown {kind} key '{key}'; known: {', '.join(known)}")


def read_table(table, readers, kind, required=()):
    """{key: reader(value)} over a config table, one reader per key; an unknown
    key, a required key the table lacks or a value its reader cannot read
    raises ValueError naming it."""
    _check_keys(table, readers, kind)
    for key in required:
        if key not in table:
            raise ValueError(f"{kind} table lacks key '{key}'")
    out = {}
    for key, value in table.items():
        try:
            out[key] = readers[key](value)
        except TypeError as exc:
            raise ValueError(f"{kind} key '{key}' cannot read {value!r}: {exc}") from None
    return out


def build_scheme(cfg):
    """SchemeParams from the optional "scheme" table."""
    return SchemeParams(**read_table(cfg.get("scheme", {}), SCHEME_KEYS, "scheme"))


def perturbed_spec(base, patterns, delta):
    """Scale the study's perturbation patterns by delta and apply to the base
    spec: initial-data shifts, boundary-data shifts, and the extra terms.  A
    key it does not read, a table with no pattern and a boundary pattern on an
    entry the bc family does not use raise ValueError."""
    _check_keys(patterns, PATTERN_KEYS, "pattern")
    if all(entry is None for entry in patterns.values()):
        raise ValueError("the study perturbs nothing: its patterns table holds no pattern")
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
