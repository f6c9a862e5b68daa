"""Config-file layer: JSON trees are turned into problem specs, two-scale
problems, scheme parameters and study settings.  read_table reads every
table, the top level included, with one reader per key; an unknown key, a
missing required key or a value its reader cannot read raises ValueError.

Field entries accept a number (constant), a [[t, v], ...] table (boundary
series, linear interpolation) or an expression string in the field's
variables (x for initial data; t for boundary data; x,t for perturbations;
xi,x for two-scale data; chi,[xi,]x,t for force terms).
"""

import json
import math

import numpy as np

from . import dsl
from .grid import Grid, GasParams, sample_field
from .homogenize import TwoScaleProblem
from .problem import (ACTIVE_BC, BC_NAMES, BoundaryData, PerturbationSpec, ProblemSpec,
                      sample_boundary)
from .solver import SchemeParams
from .studies import DIFFERENCE_COLUMNS
from .twoscale import xi_breakpoints


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


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# the readers: each takes one JSON value and returns it read, or raises an
# error that read_table reports with the table and the key
def number(value):
    """A finite number: a JSON number or a numeric string, not a boolean."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError("not a finite number")
    return out


def count(value):
    """A whole number: a number without a fraction."""
    out = number(value)
    if not out.is_integer():
        raise ValueError("not a whole number")
    return int(out)


def positive_count(value):
    """A whole number of at least 1."""
    out = count(value)
    if out < 1:
        raise ValueError("not a whole number >= 1")
    return out


def nonzero_number(value):
    """A finite number other than 0."""
    out = number(value)
    if out == 0:
        raise ValueError("not a nonzero number")
    return out


def exponent(value):
    """A norm exponent: a number of at least 1, or the string "inf"."""
    out = float("inf") if value == "inf" else number(value)
    if out < 1:
        raise ValueError('not a number >= 1 or "inf"')
    return out


def family(value):
    """A bc family m: a whole number that is a key of problem.ACTIVE_BC."""
    out = count(value)
    if out not in ACTIVE_BC:
        raise ValueError(f"not a bc family {sorted(ACTIVE_BC)}")
    return out


def float_list(value):
    """A JSON list of numbers."""
    if not isinstance(value, list):
        raise TypeError("not a list")
    return [number(v) for v in value]


def subtable(value):
    """A table of the top level, read by its own read_table call."""
    return value


def field_entry(entry, variables):
    """number | expression string -> callable over `variables`, None for null:
    the one way a config entry becomes a callable."""
    if entry is None:
        return None
    if isinstance(entry, str):
        return dsl.ExprFn(entry, variables)
    return ConstFn(number(entry))


def over(variables):
    """The reader of a field entry over `variables`."""
    return lambda entry: field_entry(entry, variables)


def sampled(x):
    """The reader of an entry in x: its samples at the points x, zeros for null."""
    return lambda entry: sample_field(field_entry(entry, ("x",)), x)


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
                and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in rule[1:])):
            raise ValueError(f"threshold on '{col}' is not [\"ge\", x] or "
                             f"[\"band\", lo, hi]: {rule!r}")
    return rules


def read_table(table, readers, kind, required=()):
    """{key: reader(value)} over a config table, one reader per key; an unknown
    key, a required key the table lacks or a value its reader cannot read
    raises ValueError naming the table and the key."""
    if not isinstance(table, dict):
        raise ValueError(f"{kind} table is not a JSON object: {table!r}")
    for key in table:
        if key not in readers:
            raise ValueError(f"unknown {kind} key '{key}'; known: {', '.join(readers)}")
    for key in required:
        if key not in table:
            raise ValueError(f"{kind} table lacks key '{key}'")
    out = {}
    for key, value in table.items():
        try:
            out[key] = readers[key](value)
        except (TypeError, ValueError, OverflowError, dsl.ExprError) as exc:
            raise ValueError(f"{kind} key '{key}' cannot read {value!r}: {exc}") from None
    return out


DOMAIN_KEYS = {"X": number, "T": number}
GRID_KEYS = {"nx": count, "nt": count}
GAS_KEYS = {"nu": number, "k": number, "cV": number, "lambda": number}
SCHEME_KEYS = {"store_stride": count, "dense_steps": count}

# the initial data every "data" table holds, and the readers of the
# perturbation callables, in config trees and study patterns
INITIAL_DATA = ("eta0", "u0", "theta0")
PERTURBATION_KEYS = dict.fromkeys(("beta", "gamma"), over(("x", "t")))

# the top level of each command's config tree: a plain problem (solve, and
# the "problem" tree of study-lipschitz), a two-scale problem with the
# "study" table that homogenize and study-homog read, a Lipschitz study and a
# norm evaluation; every problem tree holds the PROBLEM_TABLES
PROBLEM_TABLES = ("domain", "grid", "gas", "bc", "data")
PROBLEM_KEYS = {**dict.fromkeys(PROBLEM_TABLES + ("perturbation", "scheme"), subtable),
                "N": number}
TWO_SCALE_KEYS = {**dict.fromkeys(PROBLEM_TABLES + ("scheme", "study"), subtable),
                  "breakpoints_xi": lambda value: xi_breakpoints(float_list(value)),
                  "nxi": positive_count, "N": number}
LIPSCHITZ_KEYS = {"problem": subtable, "study": subtable}
NORM_KEYS = {"domain": subtable, "grid": subtable, "field": over(("x", "t")),
             "norm": subtable}
# the readers of the keyword arguments that norms.NAMED_NORMS entries take
NORM_KEYWORDS = {"q": exponent, "r": exponent, "m": family, "kappa_floor": number}

# the keys of each "study" table with their readers; they are the argument
# names of studies.run_homog_study and run_lipschitz_study (whose perturb the
# CLI builds from patterns, which perturbed_spec reads), and those defaults
# hold for a key the table omits
HOMOG_STUDY_KEYS = {"eps_list": float_list, "qe": exponent,
                    "thresholds": threshold_rules}
LIPSCHITZ_STUDY_KEYS = {"delta0": nonzero_number, "levels": count, "qe": exponent,
                        "patterns": dict, "thresholds": threshold_rules}


def build_grid(top):
    """Grid from the "domain" and "grid" tables of a top level."""
    return Grid(**read_table(top["domain"], DOMAIN_KEYS, "domain", tuple(DOMAIN_KEYS)),
                **read_table(top["grid"], GRID_KEYS, "grid", tuple(GRID_KEYS)))


def _read_problem_tree(cfg, top_readers):
    """The top level of a problem tree, read by top_readers, and the grid, gas
    and bc every problem tree holds: (top level, grid, gas, bc)."""
    top = read_table(cfg, top_readers, "top-level", PROBLEM_TABLES)
    grid = build_grid(top)
    gas = read_table(top["gas"], GAS_KEYS, "gas", tuple(GAS_KEYS))
    tt = grid.times()

    def boundary_entry(entry):
        sample_boundary(entry, tt)       # raises on an entry it cannot sample
        return entry

    bc = read_table(top["bc"], {"m": count, **dict.fromkeys(BC_NAMES, boundary_entry)},
                    "bc", ("m",))
    return (top, grid, GasParams(nu=gas["nu"], k=gas["k"], cV=gas["cV"], lam=gas["lambda"]),
            BoundaryData.build(grid, **bc))


def build_problem(cfg):
    """Plain (single-scale) problem from a config tree."""
    top, grid, gas, bc = _read_problem_tree(cfg, PROBLEM_KEYS)
    xc, xe = grid.centers(), grid.edges()
    force = over(("chi", "x", "t"))
    data = read_table(top["data"], {"eta0": sampled(xc), "u0": sampled(xe),
                                    "theta0": sampled(xc), "g": force, "f": force},
                      "data", INITIAL_DATA)
    perturbation = read_table(top.get("perturbation", {}),
                              {"beta_e": sampled(xe), **PERTURBATION_KEYS}, "perturbation")
    return ProblemSpec(grid=grid, gas=gas, bc=bc, **data,
                       perturbation=PerturbationSpec(**perturbation),
                       N=top.get("N", 10.0), source=cfg)


def build_two_scale_problem(cfg):
    """Two-scale problem: data expressions over (xi, x), forces over
    (chi, xi, x, t), with the declared xi breakpoints and quadrature nodes.
    A null entry is None, which samples as zero, as in a plain config."""
    top, grid, gas, bc = _read_problem_tree(cfg, TWO_SCALE_KEYS)
    force = over(("chi", "xi", "x", "t"))
    data = read_table(top["data"], {**dict.fromkeys(INITIAL_DATA, over(("xi", "x"))),
                                    "g": force, "f": force}, "data", INITIAL_DATA)
    return TwoScaleProblem(grid=grid, gas=gas, bc=bc, **data, N=top.get("N", 10.0),
                           breakpoints_xi=top.get("breakpoints_xi", ()),
                           nxi=top.get("nxi", 256), source=cfg)


def build_scheme(cfg):
    """SchemeParams from the optional "scheme" table."""
    return SchemeParams(**read_table(cfg.get("scheme", {}), SCHEME_KEYS, "scheme"))


def perturbed_spec(base, patterns, delta):
    """Scale the study's perturbation patterns by delta and apply to the base
    spec: initial-data shifts, boundary-data shifts, and the extra terms.  A
    key it does not read, a pattern it cannot read, a table with no pattern
    and a boundary pattern on an entry the bc family does not use raise
    ValueError."""
    grid = base.grid
    xc, xe, tt = grid.centers(), grid.edges(), grid.times()

    def boundary_shift(entry):
        return None if entry is None else sample_boundary(entry, tt)

    read = read_table(patterns, {
        **dict.fromkeys(("eta0", "u0", "theta0", "beta_e"), over(("x",))),
        **dict.fromkeys((name + "b" for name in BC_NAMES), boundary_shift),
        **PERTURBATION_KEYS}, "pattern")
    if all(entry is None for entry in read.values()):
        raise ValueError("the study perturbs nothing: its patterns table holds no pattern")
    for name in BC_NAMES:
        if read.get(name + "b") is not None and name not in ACTIVE_BC[base.bc.m]:
            raise ValueError(f"pattern {name}b shifts boundary entry {name}, which "
                             f"family m={base.bc.m} does not use")

    def shift(vals, key, x):
        fn = read.get(key)
        return vals if fn is None else vals + delta * sample_field(fn, x)

    def shift_bc(name):
        series, offset = getattr(base.bc, name + "_t"), read.get(name + "b")
        return series if offset is None else series + delta * offset

    bc = BoundaryData(m=base.bc.m, **{name + "_t": shift_bc(name) for name in BC_NAMES})

    def scaled(key):
        fn = read.get(key)
        return None if fn is None else ScaledFn(fn, delta)

    pert = PerturbationSpec(beta_e=delta * sample_field(read.get("beta_e"), xe),
                            **{key: scaled(key) for key in PERTURBATION_KEYS})

    return ProblemSpec(
        grid=grid, gas=base.gas, bc=bc,
        eta0=shift(np.asarray(base.eta0, dtype=float), "eta0", xc),
        u0=shift(np.asarray(base.u0, dtype=float), "u0", xe),
        theta0=shift(np.asarray(base.theta0, dtype=float), "theta0", xc),
        g=base.g, f=base.f, perturbation=pert, N=base.N, source=base.source)
