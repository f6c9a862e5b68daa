"""Benchmark-local tests: seeded inputs and the metric list.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import pytest

import tracer
import workloads
from run import END_TO_END, per_layer_unit

from gaslab import config as cfgmod
from gaslab.problem import validate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("m", [1, 2])
def test_same_seed_gives_identical_config_bytes(m):
    a = workloads.config_bytes(workloads.solve_config(7, m))
    b = workloads.config_bytes(workloads.solve_config(7, m))
    assert a == b
    assert a != workloads.config_bytes(workloads.solve_config(8, m))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("m", [1, 2])
def test_seeded_configs_validate(seed, m):
    cfg = json.loads(workloads.config_bytes(workloads.solve_config(seed, m)))
    spec = cfgmod.build_problem(cfg)
    assert spec.bc.m == m and spec.g is not None and spec.f is not None
    assert validate(spec) == []


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WHY)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    record = {"first_solve": 0.0, "names": ["solver.solve"],
              "spans": [[0, 0.0, 1.0, -1]],
              "solves": [{"nx": 8, "nominal": 4, "substeps": 5, "halved": 1}]}
    printed = set(tracer.finish(tracer.layer_metrics(record))) | {"trace.overhead_s"}
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(listed) == printed
    assert all(unit == per_layer_unit(name) for name, unit in listed.items())


def test_spans_wrap_the_bindings_callers_look_up(tmp_path):
    """homogenize reaches realize through its own namespace and ExprFn
    reaches dsl.evaluate through the dsl module: both must record."""
    with open(os.path.join(ROOT, "configs", "homog_benchmark.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["grid"] = {"nx": 32, "nt": 16}
    cfg["nxi"] = 8
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    record = tmp_path / "record.json"
    child = os.path.join(ROOT, "perfbench", "child.py")
    subprocess.run([sys.executable, child, str(record), "1", "--", "homogenize",
                    str(path), "--out", str(tmp_path / "out"), "--eps-list", "0.25"],
                   check=True, timeout=120, capture_output=True)
    rec = json.loads(record.read_text())
    names, spans = rec["names"], rec["spans"]
    parent_of = {names[s[0]]: set() for s in spans}
    for s in spans:
        if s[3] >= 0:
            parent_of[names[s[0]]].add(names[spans[s[3]][0]])
    assert "homogenize.eta_epsilon" in parent_of["twoscale.realize"]
    assert "twoscale.xi_mean" in parent_of["dsl.evaluate"]
    m = tracer.finish(tracer.layer_metrics(rec))
    assert m["solver.solve_calls"] == 1 and m["solver.nominal_steps"] == 16
    assert m["dsl.eval_calls"] > 0 and m["homogenize.reconstruct_s"] > 0
