"""Spans around the public functions of each gaslab layer, and the per-layer
metrics derived from them.

`install` runs inside the benchmarked process, before `gaslab.cli.main`.  It
wraps every public function and public method defined in a layer module and
rebinds every gaslab module attribute that refers to the original object.  So
a span wraps the binding the caller actually looks up: `homogenize.realize`
(imported by name), `config.ExprFn` reaching `dsl.evaluate` (module
attribute), and `norms.lqr_norm` calling `space_lq` through its own globals
all record.  Spans are kept in memory and written by the caller at exit.

Without tracing only `solver.solve` is wrapped, to stamp the first solve call
(the end of set-up) and to read the step counts off the returned bundle.
"""

import functools
import importlib
import inspect
import sys
import time

# `grid` is folded into its callers: its helpers are not wrapped.
LAYERS = ("cli", "config", "dsl", "problem", "solver", "twoscale",
          "homogenize", "norms", "calculus", "studies")


def _solve_stats(bundle):
    sub = bundle.substeps
    return {"nx": int(bundle.grid.nx), "nominal": int(len(sub)),
            "substeps": int(sub.sum()), "halved": int((sub > 1).sum())}


class Tracer:
    """Span recorder.  A span is [name index, start, end, parent index]."""

    def __init__(self, full):
        self.full = full
        self.names = []
        self.spans = []
        self.solves = []
        self.first_solve = None
        self._name_index = {}
        self._stack = []

    def _wrap(self, name, fn):
        key = self._name_index.setdefault(name, len(self.names))
        if key == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_solve = name == "solver.solve"
        full = self.full

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_solve and self.first_solve is None:
                self.first_solve = time.monotonic()
            if not full:
                out = fn(*args, **kwargs)
            else:
                rec = [key, clock(), 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
            if is_solve:
                self.solves.append(_solve_stats(out))
            return out

        return traced

    def install(self):
        """Wrap the layer functions and rebind every reference to them."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gaslab.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if self.full or (layer, name) == ("solver", "solve"):
                        wrapped[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and self.full:
                    self._wrap_methods(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gaslab" and not mod_name.startswith("gaslab."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])

    def _wrap_methods(self, layer, cls):
        for name, obj in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            span = f"{layer}.{cls.__name__}.{name}"
            if inspect.isfunction(obj):
                setattr(cls, name, self._wrap(span, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, name, type(obj)(self._wrap(span, obj.__func__)))

    def record(self):
        return {"first_solve": self.first_solve, "solves": self.solves,
                "names": self.names, "spans": self.spans}


# ---------------------------------------------------------------------------
# Per-layer metrics, derived in the benchmark process from one record

BC_AT = "problem.BoundaryData.at"
PERT_EVAL = ("problem.PerturbationSpec.beta_at", "problem.PerturbationSpec.gamma_at")
SPEC_BUILD = ("homogenize.TwoScaleProblem.averaged_spec",
              "homogenize.TwoScaleProblem.realized_spec")

# counts that must repeat exactly for one workload and seed
EXACT_COUNTS = ("solver.solve_calls", "solver.nominal_steps", "solver.substeps",
                "solver.halved_steps", "dsl.eval_calls", "problem.bc_at_calls",
                "norms.calls")


def solve_counts(record):
    """Counts read off the solve bundles; available with tracing on or off."""
    solves = record["solves"]
    return {
        "solver.solve_calls": len(solves),
        "solver.nominal_steps": sum(s["nominal"] for s in solves),
        "solver.substeps": sum(s["substeps"] for s in solves),
        "solver.halved_steps": sum(s["halved"] for s in solves),
        "cell_steps": sum(s["nx"] * s["nominal"] for s in solves),
    }


def layer_metrics(record):
    """Counts, span time and self time per layer plus the named per-layer
    metrics, from one traced process record.  All are additive over the
    processes of a repeat; `finish` turns their sums into the ratios."""
    names = record["names"]
    spans = record["spans"]
    layer_of = [n.split(".", 1)[0] for n in names]
    bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}

    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    outer = [0] * n          # bitmask of the layers open above each span
    solve_or_spec = {}       # per span: time in child solves and averaged specs
    by_name = {}
    for i, (key, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            outer[i] = outer[parent] | bit[layer_of[spans[parent][0]]]
            if names[key] in ("solver.solve", SPEC_BUILD[0]):
                solve_or_spec[parent] = solve_or_spec.get(parent, 0.0) + dur[i]
        by_name.setdefault(names[key], []).append(i)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.span_s"] = 0.0
        m[f"{layer}.self_s"] = 0.0
    for i, (key, _, _, _) in enumerate(spans):
        layer = layer_of[key]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += dur[i] - child[i]
        if not outer[i] & bit[layer]:
            m[f"{layer}.span_s"] += dur[i]

    def total(*span_names, outermost_of=None):
        out = 0.0
        for name in span_names:
            for i in by_name.get(name, ()):
                if outermost_of is None or not outer[i] & bit[outermost_of]:
                    out += dur[i]
        return out

    def calls(*span_names):
        return sum(len(by_name.get(name, ())) for name in span_names)

    counts = solve_counts(record)
    solve_self = sum(dur[i] - child[i] for i in by_name.get("solver.solve", ()))

    # kernels built in solve_homogenized: its span minus the averaged spec and
    # the averaged solve it contains
    kernels = sum(dur[i] - solve_or_spec.get(i, 0.0)
                  for i in by_name.get("homogenize.solve_homogenized", ()))

    config_build = [name for name in names
                    if name.startswith("config.build_")]
    m.update({
        "solver.solve_calls": counts["solver.solve_calls"],
        "solver.solve_self_s": solve_self,
        "_solve_span_s": total("solver.solve"),
        "_cell_substeps": sum(s["nx"] * s["substeps"] for s in record["solves"]),
        "solver.nominal_steps": counts["solver.nominal_steps"],
        "solver.substeps": counts["solver.substeps"],
        "solver.halved_steps": counts["solver.halved_steps"],
        "solver.diagnostics_s": total("solver.diagnostics"),
        "problem.bc_at_calls": calls(BC_AT),
        "problem.bc_at_s": total(BC_AT),
        "problem.pert_eval_calls": calls(*PERT_EVAL),
        "problem.pert_eval_s": total(*PERT_EVAL),
        "problem.validate_s": total("problem.validate"),
        "config.build_s": total(*config_build, outermost_of="config"),
        "dsl.parse_calls": calls("dsl.parse"),
        "dsl.eval_calls": calls("dsl.evaluate"),
        "dsl.eval_s": total("dsl.evaluate"),
        "homogenize.spec_build_s": total(*SPEC_BUILD),
        "homogenize.reconstruct_s": total("homogenize.eta_epsilon") + kernels,
        "studies.compute_delta_s": total("studies.compute_delta"),
        "studies.difference_columns_s": total("studies.difference_columns"),
        "studies.report_s": total("studies.write_report"),
    })
    return m


def finish(m):
    """Per-substep solve cost from the summed metrics of one repeat."""
    span = m.pop("_solve_span_s")
    cells = m.pop("_cell_substeps")
    m["solver.substep_us"] = 1e6 * span / max(m["solver.substeps"], 1)
    m["solver.cell_substep_ns"] = 1e9 * span / max(cells, 1)
    return m
