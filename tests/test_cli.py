import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from gaslab import cli, studies
from gaslab import config as cfgmod
from gaslab import homogenize as hmg
from gaslab.cli import main
from gaslab.grid import Grid, edges_to_centers
from gaslab.norms import NAMED_NORMS
from gaslab.solver import NonFiniteState, diagnostics, solve
from gaslab.twoscale import OscillationSpec


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def small_problem_cfg(nx=32, nt=40):
    return {
        "domain": {"X": 1.0, "T": 0.1},
        "grid": {"nx": nx, "nt": nt},
        "gas": {"nu": 0.1, "k": 1.0, "cV": 1.0, "lambda": 0.1},
        "bc": {"m": 3, "p0": 1.0, "pX": 1.0, "pi0": 0.0, "piX": 0.0},
        "data": {"eta0": "1", "u0": "0.1*sin(3.141592653589793*x)",
                 "theta0": "1"},
        "N": 10.0,
        "scheme": {"store_stride": 4},
    }


def two_scale_cfg(eps_list):
    return {
        "domain": {"X": 1.0, "T": 0.1},
        "grid": {"nx": 64, "nt": 32},
        "gas": {"nu": 0.1, "k": 1.0, "cV": 1.0, "lambda": 0.1},
        "bc": {"m": 3, "p0": 1.0, "pX": 1.0, "pi0": 0.0, "piX": 0.0},
        "data": {"eta0": "1 + 0.4*step(xi - 0.5)", "u0": "0", "theta0": "1"},
        "breakpoints_xi": [0.5],
        "study": {"eps_list": eps_list},
    }


def test_solve_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, small_problem_cfg())
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 0
    snap = (out / "snapshots.csv").read_text().splitlines()
    assert snap[0] == "t,x,eta,u,theta,sigma,pi"
    assert len(snap) > 32
    diag = (out / "diagnostics.csv").read_text()
    assert "logvol_residual" in diag
    assert [row.split(",")[0] for row in diag.splitlines()] == [
        "quantity", "volume_residual", "logvol_residual", "stress_repr_residual",
        "energy_residual", "min_eta", "min_theta"]
    # sweeps are reported on stdout only, never in the CSV reports
    stdout = capsys.readouterr().out
    assert "picard sweeps" in stdout and "energy residual" in stdout
    assert "picard" not in diag and "picard" not in "\n".join(snap)


def streamed_rows_cfg():
    # 159 kept rows in three row blocks: past the dense window and a stride
    cfg = small_problem_cfg(nx=16, nt=600)
    cfg["bc"]["p0"] = "1 + 0.1*sin(20*t)"
    cfg["scheme"] = {"store_stride": 4, "dense_steps": 10}
    return cfg


@pytest.mark.parametrize("stride", [1, 3, 200])
def test_streamed_solve_writes_what_a_stored_bundle_gives(tmp_path, capsys, stride):
    cfg = streamed_rows_cfg()
    out = tmp_path / "out"
    assert main(["solve", write_cfg(tmp_path, cfg), "--out", str(out),
                 "--stride", str(stride)]) == 0
    stdout = capsys.readouterr().out

    spec, scheme = cfgmod.build_problem(cfg), cfgmod.build_scheme(cfg)
    sol = solve(spec, scheme)
    assert len(sol.times) == 159
    rep = diagnostics(sol, spec)
    want = tmp_path / "want.csv"
    cli._write_snapshots(str(want), spec.grid, sol, stride=stride)
    assert (out / "snapshots.csv").read_bytes() == want.read_bytes()
    values = [("volume_residual", rep.volume_residual), ("logvol_residual", rep.logvol_residual),
              ("stress_repr_residual", rep.stress_repr_residual),
              ("energy_residual", rep.energy_residual), ("min_eta", sol.min_eta),
              ("min_theta", sol.min_theta)]
    assert (out / "diagnostics.csv").read_text() == \
        "quantity,value\n" + "".join(f"{name},{v:.17e}\n" for name, v in values)
    assert stdout == (
        f"solve: 159 snapshots -> {out}\n"
        f"  volume residual      {rep.volume_residual:.3e}\n"
        f"  logvol residual      {rep.logvol_residual:.3e}\n"
        f"  stress repr residual {rep.stress_repr_residual:.3e}\n"
        f"  energy residual      {rep.energy_residual:.3e}\n"
        f"  positivity margins   eta {sol.min_eta:.4g}, theta {sol.min_theta:.4g}\n"
        f"  picard sweeps        {sol.picard_sweeps.mean():.3f} per step\n")
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "snapshots.csv"]


def test_solve_peak_memory_is_under_a_quarter_of_the_trajectory(tmp_path):
    # store_stride 1 at nx = 256, nt = 1000 keeps 1,001 rows of nine fields:
    # an 18.5 MB trajectory, which the run streams instead of storing
    cfg = small_problem_cfg(nx=256, nt=1000)
    cfg["scheme"] = {"store_stride": 1}
    trajectory = 1001 * (5 * 256 + 4 * 257) * 8
    path = write_cfg(tmp_path, cfg)
    tracemalloc.start()
    try:
        assert main(["solve", path, "--out", str(tmp_path / "o"), "--stride", "8"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < trajectory / 4


def test_solve_rejects_invalid_config(tmp_path, capsys):
    cfg_dict = small_problem_cfg()
    cfg_dict["data"]["theta0"] = "0"       # violates positivity
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "theta0" in capsys.readouterr().err


def test_norms_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "domain": {"X": 1.0, "T": 2.0},
        "grid": {"nx": 256, "nt": 256},
        "field": "x*t",
        "norm": {"tag": "Lqr", "q": 2, "r": 2},
    })
    assert main(["norms", cfg]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(np.sqrt(8.0) / 3.0, rel=1e-3)


# a field nested deeper than the expression language takes is a config error
# naming its key, never a RecursionError traceback
DEEP_FIELDS = {"parens": "(" * 600 + "x" + ")" * 600, "minuses": "-" * 1200 + "x",
               "sum": "+".join(["x"] * 1000)}


@pytest.mark.parametrize("name", sorted(DEEP_FIELDS))
def test_norms_deeply_nested_field_exits_2(tmp_path, capsys, name):
    cfg = {"domain": {"X": 1.0, "T": 2.0}, "grid": {"nx": 16, "nt": 4},
           "field": DEEP_FIELDS[name], "norm": {"tag": "Lqr", "q": 2, "r": 2}}
    assert main(["norms", write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "top-level key 'field' cannot read" in err and "nested too deeply" in err


def test_norms_unknown_tag(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "domain": {"X": 1.0, "T": 1.0},
        "grid": {"nx": 16, "nt": 4},
        "field": "x",
        "norm": {"tag": "Bogus"},
    })
    assert main(["norms", cfg]) == 2


def test_norms_rejects_a_key_the_norm_does_not_take(tmp_path, capsys):
    cfg = {"domain": {"X": 1.0, "T": 1.0}, "grid": {"nx": 16, "nt": 4}, "field": "x*t",
           "norm": {"tag": "Lqr", "qq": 7, "r": 2}}
    assert main(["norms", write_cfg(tmp_path, cfg)]) == 2
    assert "'qq'" in capsys.readouterr().err
    cfg["norm"] = {"tag": "Lqr", "q": 7, "r": 2}
    assert main(["norms", write_cfg(tmp_path, cfg)]) == 0


@pytest.mark.parametrize("tag,key,value", [
    ("Lqr", "r", 0), ("Lqr", "q", 0.5), ("WHst", "r", -1), ("Hm1", "m", 1.5),
    ("Hm1", "m", 4), ("H21star", "m", 0), ("H21star", "kappa_floor", "inf")])
def test_norms_names_the_key_it_cannot_read(tmp_path, capsys, tag, key, value):
    cfg = {"domain": {"X": 1.0, "T": 2.0}, "grid": {"nx": 16, "nt": 4}, "field": "x*t",
           "norm": {"tag": tag, key: value}}
    assert main(["norms", write_cfg(tmp_path, cfg)]) == 2
    assert f"norm '{tag}' key '{key}' cannot read {value!r}" in capsys.readouterr().err


def test_every_norm_keyword_has_a_reader():
    for tag, norm in NAMED_NORMS.items():
        for name, p in inspect.signature(norm).parameters.items():
            if p.kind is p.POSITIONAL_OR_KEYWORD and name not in ("grid", "w", "times"):
                assert name in cfgmod.NORM_KEYWORDS, (tag, name)
                assert cfgmod.NORM_KEYWORDS[name](p.default) == p.default, (tag, name)


@pytest.mark.parametrize("command,flag", [
    ("norms", "--stride"), ("norms", "--jobs"), ("solve", "--jobs"),
    ("solve", "--eps-list"), ("homogenize", "--jobs"), ("study-homog", "--stride"),
    ("study-homog", "--eps-list"), ("study-lipschitz", "--eps-list")])
def test_unread_flag_exits_2(command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "cfg.json", flag, "5"])
    assert exc.value.code == 2


def test_one_reader_per_config_entry_kind():
    assert cfgmod.exponent("inf") == float("inf")
    assert cfgmod.exponent(2) == 2.0 and cfgmod.exponent("1.5") == 1.5
    read = cfgmod.read_table({"eps_list": [1, 0.5], "qe": "inf"}, cfgmod.HOMOG_STUDY_KEYS,
                             "study", ("eps_list",))
    assert read == {"eps_list": [1.0, 0.5], "qe": float("inf")}
    with pytest.raises(ValueError, match="study table lacks key 'eps_list'"):
        cfgmod.read_table({}, cfgmod.HOMOG_STUDY_KEYS, "study", ("eps_list",))


def test_study_homog_without_eps_list_exits_2(tmp_path, capsys):
    cfg = two_scale_cfg([0.25])
    del cfg["study"]["eps_list"]
    assert main(["study-homog", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "eps_list" in capsys.readouterr().err


def test_two_scale_null_entry_reads_as_zero(tmp_path):
    cfg = two_scale_cfg([0.25])
    for name, u0 in (("zero", "0"), ("null", None)):
        cfg["data"]["u0"] = u0
        assert main(["homogenize", write_cfg(tmp_path, cfg, name + ".json"),
                     "--out", str(tmp_path / name), "--eps-list", "0.25"]) == 0
    for report in ("averaged.csv", "eta_recon_eps_0.25.csv"):
        assert (tmp_path / "zero" / report).read_bytes() \
            == (tmp_path / "null" / report).read_bytes()
    cfg["data"]["eta0"] = None
    assert main(["homogenize", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2


def test_homogenize_subcommand(tmp_path):
    cfg = write_cfg(tmp_path, {
        "domain": {"X": 1.0, "T": 0.1},
        "grid": {"nx": 64, "nt": 32},
        "gas": {"nu": 0.1, "k": 1.0, "cV": 1.0, "lambda": 0.1},
        "bc": {"m": 3, "p0": 1.0, "pX": 1.0, "pi0": 0.0, "piX": 0.0},
        "data": {"eta0": "1 + 0.4*step(xi - 0.5)", "u0": "0",
                 "theta0": "1"},
        "breakpoints_xi": [0.5],
        "N": 10.0,
        "scheme": {"store_stride": 8},
    })
    out = tmp_path / "out"
    assert main(["homogenize", cfg, "--out", str(out),
                 "--eps-list", "0.25,0.125", "--stride", "2"]) == 0
    assert (out / "averaged.csv").exists()
    assert (out / "eta_recon_eps_0.25.csv").exists()
    assert (out / "eta_recon_eps_0.125.csv").exists()


def test_homogenize_writes_every_stride_th_row_of_the_reconstruction(tmp_path):
    cfg = two_scale_cfg([0.25])
    path = write_cfg(tmp_path, cfg)
    assert main(["homogenize", path, "--out", str(tmp_path / "o"), "--stride", "3"]) == 0
    problem = cfgmod.build_two_scale_problem(cfg)
    hs = hmg.solve_homogenized(problem, cfgmod.build_scheme(cfg))
    eta = hmg.eta_epsilon(hs, OscillationSpec(0.25))
    xc = problem.grid.centers()
    want = ["t,x,eta_recon\n"] + [
        f"{hs.base.times[n]:.17e},{xc[i]:.17e},{eta[n, i]:.17e}\n"
        for n in range(0, len(hs.base.times), 3) for i in range(len(xc))]
    assert len(want) > 1 + 2 * len(xc)
    assert (tmp_path / "o" / "eta_recon_eps_0.25.csv").read_text() == "".join(want)


def test_study_homog_guard_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, two_scale_cfg([0.015625]))
    # eps_min/dx = 1 < 16: runtime error path, exit 2
    assert main(["study-homog", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "refine the grid" in capsys.readouterr().err


def test_study_lipschitz_small_run(tmp_path, capsys):
    cfg = {
        "problem": small_problem_cfg(nx=32, nt=40),
        "study": {
            "delta0": 0.1,
            "levels": 4,
            "patterns": {"eta0": "0.5*sin(2*3.141592653589793*x)"},
            # only sanity thresholds so the tiny grid cannot flake
            "thresholds": {"eta_C0L2": ["band", 0.5, 1.5]},
        },
    }
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "study"
    code = main(["study-lipschitz", path, "--out", str(out)])
    assert code == 0
    assert (out / "lipschitz_study.csv").exists()
    assert "RESULT" in (out / "lipschitz_study.csv.summary.txt").read_text()


def test_short_sweep_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, two_scale_cfg([1.0, 0.5, 0.25]))
    # three eps values pass the resolution guard but cannot carry a rate fit
    assert main(["study-homog", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "at least 4 rows" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_programming_errors_are_not_runtime_errors(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, {
        "problem": small_problem_cfg(),
        "study": {"delta0": 0.1, "levels": 4,
                  "patterns": {"eta0": "0.5*sin(2*3.141592653589793*x)"}},
    })
    for error in (TypeError("float() argument must be a string or a real number"),
                  KeyError("eta_C0L2")):
        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(studies, "run_lipschitz_study", broken)
        with pytest.raises(type(error)):
            main(["study-lipschitz", path, "--out", str(tmp_path / "o")])


def test_config_table_without_a_key_exits_2(tmp_path, capsys):
    cfg = small_problem_cfg()
    del cfg["gas"]["nu"]
    assert main(["solve", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "gas table lacks key 'nu'" in capsys.readouterr().err


def test_snapshot_rows_match_per_cell_format(tmp_path):
    nx, times = 4, np.array([0.0, 0.125, 0.25])
    rng = np.random.default_rng(0)

    def fields(width):
        shape = (len(times), width)
        out = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, shape)
        out[1, 0] = -0.0
        out[2, -1] = 0.0
        return out

    bundle = SimpleNamespace(times=times, eta=fields(nx), u=fields(nx + 1),
                             theta=fields(nx), sigma=fields(nx), pi=fields(nx + 1))
    grid = Grid(X=1.0, T=0.25, nx=nx, nt=2)
    path = tmp_path / "snapshots.csv"
    cli._write_snapshots(str(path), grid, bundle, stride=1)

    xc = grid.centers()
    want = ["t,x,eta,u,theta,sigma,pi\n"]
    for n, t in enumerate(times):
        uc = edges_to_centers(bundle.u[n])
        pic = edges_to_centers(bundle.pi[n])
        for i in range(nx):
            want.append(f"{t:.17e},{xc[i]:.17e},{bundle.eta[n, i]:.17e},"
                        f"{uc[i]:.17e},{bundle.theta[n, i]:.17e},"
                        f"{bundle.sigma[n, i]:.17e},{pic[i]:.17e}\n")
    assert "-0.00000000000000000e+00" in "".join(want)
    assert path.read_bytes() == "".join(want).encode()
    cells = ((-0.0, -0.0, np.inf), (-0.0, 1e-310, np.nan))
    assert cli._csv_bytes(np.array(cells)) == \
        "".join(f"{a:.17e},{b:.17e},{c:.17e}\n" for a, b, c in cells).encode()


def per_cell_csv(block):
    """The reference of cli._csv_bytes: one % per cell."""
    return "".join(",".join("%.17e" % v for v in row) + "\n"
                   for row in block.tolist()).encode()


@given(patterns=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
       cols=st.integers(1, 7))
@settings(max_examples=300, deadline=None)
def test_csv_bytes_equal_per_cell_format_on_raw_bit_patterns(patterns, cols):
    patterns = patterns + [0] * (-len(patterns) % cols)
    block = np.array(patterns, dtype=np.uint64).view(np.float64).reshape(-1, cols)
    assert cli._csv_bytes(block) == per_cell_csv(block)


def odd_sixteenths():
    """N / 16 for odd N in [1.6e15, 9.0e15): 19 significant digits ending in
    5, so each is an exact tie at the 18th digit, which % rounds half to even."""
    n = np.arange(1_600_000_000_000_001, 9_000_000_000_000_000, 2_000_000_000_002)
    return np.concatenate([n, n + 2]) / 16


POWERS = 10.0 ** np.arange(-30, 31)
PINNED_CELLS = {
    "ties": odd_sixteenths(),
    "powers_of_ten": np.concatenate([np.nextafter(POWERS, np.inf), POWERS,
                                     np.nextafter(POWERS, -np.inf)]),
    # 1e153 is the only double below a power of ten whose 18 digits round up to it
    "rounds_up_to_a_power_of_ten": np.array([1e153, -1e153, np.nextafter(1e153, np.inf)]),
    "edges": np.array([1.5e-150, -3.25e200, 1e100, 9.999e99, 1e-100, 1e-280, 1e280,
                       np.nextafter(1e-280, 0), np.nextafter(1e280, np.inf),
                       1.7976931348623157e308, 2.2250738585072014e-308, 1e-310, -5e-324,
                       0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 0.5, 1.0, 9.5]),
}


@pytest.mark.parametrize("group", sorted(PINNED_CELLS))
def test_csv_bytes_equal_per_cell_format_on_pinned_cells(group):
    cells = PINNED_CELLS[group]
    for cols in (1, 3):
        block = np.resize(np.concatenate([cells, -cells]), (-(-2 * len(cells) // cols), cols))
        assert cli._csv_bytes(block) == per_cell_csv(block)


def test_formatting_one_snapshot_allocates_under_2_mib():
    block = np.random.default_rng(0).normal(size=(4096, 7))
    tracemalloc.start()
    try:
        cli._csv_bytes(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def fail_after_one_block(monkeypatch):
    """Make cli.solve stream the first block of rows, then fail from inside
    its rows callback."""
    def non_finite(spec, scheme, rows):
        def first_block_then_fail(block):
            rows(block)
            raise NonFiniteState(0.05, "u")
        return solve(spec, scheme, rows=first_block_then_fail)

    monkeypatch.setattr(cli, "solve", non_finite)


def test_non_finite_state_exit_code(tmp_path, monkeypatch, capsys):
    # the streamed block leaves no --out directory and no partial snapshots.csv
    fail_after_one_block(monkeypatch)
    cfg = write_cfg(tmp_path, small_problem_cfg())
    assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "non-finite u" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_failed_solve_leaves_an_existing_out_directory_as_it_was(tmp_path, monkeypatch):
    fail_after_one_block(monkeypatch)
    cfg = write_cfg(tmp_path, small_problem_cfg())
    out = tmp_path / "o"
    out.mkdir()
    (out / "snapshots.csv").write_bytes(b"earlier run\n")
    assert main(["solve", cfg, "--out", str(out)]) == 2
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "o"]
    assert os.listdir(out) == ["snapshots.csv"]
    assert (out / "snapshots.csv").read_bytes() == b"earlier run\n"


def count_solves(monkeypatch):
    calls = []

    def counting(solve):
        def wrapped(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(cli, "solve", counting(cli.solve))
    monkeypatch.setattr(studies, "solve", counting(studies.solve))
    monkeypatch.setattr(hmg, "solve", counting(hmg.solve))
    return calls


@pytest.mark.parametrize("section,name,message", [
    ("bc", "pi0", "boundary entry pi0 must be finite"),
])
def test_solve_reports_non_finite_data_as_invalid_config(tmp_path, monkeypatch, capsys,
                                                         section, name, message):
    calls = count_solves(monkeypatch)
    cfg_dict = small_problem_cfg()
    cfg_dict[section][name] = float("nan")
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"invalid config: {message}" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("name", ["eta0", "theta0", "f"])
def test_non_finite_data_constant_exits_2_naming_its_key(tmp_path, monkeypatch, capsys, name):
    # a constant field entry is read as a number, which must be finite
    calls = count_solves(monkeypatch)
    cfg_dict = small_problem_cfg()
    cfg_dict["data"][name] = float("nan")
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == \
        f"error: data key '{name}' cannot read nan: not a finite number"
    assert calls == []


def test_solve_reports_a_refused_force_expression_as_invalid_config(tmp_path, monkeypatch,
                                                                    capsys):
    # the DSL refuses f at t = 0.125 with NonfiniteResult; validate reports it
    calls = count_solves(monkeypatch)
    cfg_dict = cfgmod.load_config("configs/pulse.json")
    cfg_dict["data"]["f"] = "1/(t - 0.125)^2"
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == \
        "invalid config: f must be finite on the probe set, failed at t=0.125 (C2)"
    assert calls == []


# the solver's Picard budget, tolerance, halving budget and positivity floor
# are constants, so a config that still sets one fails loudly
@pytest.mark.parametrize("key,value", [
    ("theta_implicitness", 0.5), ("store_strid", 4), ("max_picard", 20), ("tol", 1e-10),
    ("dt_safety", 3), ("positivity_floor", 1e-8)])
def test_unknown_scheme_key_exits_before_solving(tmp_path, monkeypatch, capsys, key, value):
    calls = count_solves(monkeypatch)
    cfg_dict = small_problem_cfg()
    cfg_dict["scheme"] = {key: value}
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"unknown scheme key '{key}'" in capsys.readouterr().err
    assert calls == []


# a key no builder reads is a typo that would silently drop a datum; the
# bound's splits beta = beta1 + beta2 and g_hat - g = g1 + g2 are not data
# either: a key that declared one would move Delta and no solve
@pytest.mark.parametrize("section,key", [
    ("data", "F"), ("perturbation", "gama"), ("bc", "piO"), ("gas", "lamda"),
    ("domain", "L"), ("grid", "ny"), ("perturbation", "beta1"), ("perturbation", "beta2"),
    ("perturbation", "g1"), ("perturbation", "g2")])
def test_unknown_table_key_exits_before_solving(tmp_path, monkeypatch, capsys, section,
                                                key):
    calls = count_solves(monkeypatch)
    cfg_dict = small_problem_cfg()
    cfg_dict.setdefault(section, {})[key] = 0.1
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"unknown {section} key '{key}'" in capsys.readouterr().err
    assert calls == []


def test_unknown_two_scale_data_key_exits_before_solving(tmp_path, monkeypatch, capsys):
    calls = count_solves(monkeypatch)
    cfg = two_scale_cfg([1.0, 0.5, 0.25, 0.125])
    cfg["data"]["F"] = "0.3"
    assert main(["study-homog", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "unknown data key 'F'" in capsys.readouterr().err
    assert calls == []


# a table or a study value of the wrong JSON shape is a config error (exit 2),
# not a TypeError that ends the run with the threshold-failure code 1
@pytest.mark.parametrize("command,where,value,message", [
    ("study-homog", ("study", "eps_list"), 0.25, "study key 'eps_list' cannot read 0.25"),
    ("study-homog", ("scheme",), 5, "scheme table is not a JSON object: 5"),
    ("study-homog", ("study",), [0.25], "study table is not a JSON object"),
    ("study-lipschitz", ("study", "delta0"), [0.1], "study key 'delta0' cannot read [0.1]"),
    ("study-lipschitz", ("study", "patterns"), 5, "study key 'patterns' cannot read 5"),
    ("solve", ("gas",), [0.1, 1.0, 1.0, 0.1], "gas table is not a JSON object"),
    ("solve", ("perturbation",), "0.1", "perturbation table is not a JSON object"),
    ("solve", ("N",), "nan", "top-level key 'N' cannot read 'nan': not a finite number"),
    ("solve", ("grid", "nx"), 10 ** 400, "grid key 'nx' cannot read 1000"),
    ("study-lipschitz", ("study", "levels"), 4.5,
     "study key 'levels' cannot read 4.5: not a whole number")])
def test_bad_table_shape_exits_before_solving(tmp_path, monkeypatch, capsys, command, where,
                                              value, message):
    calls = count_solves(monkeypatch)
    cfg = {"solve": small_problem_cfg, "study-lipschitz": lipschitz_cfg,
           "study-homog": lambda: two_scale_cfg([1.0, 0.5, 0.25, 0.125])}[command]()
    table = cfg
    for key in where[:-1]:
        table = table[key]
    table[where[-1]] = value
    assert main([command, write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("key,value,message", [
    ("store_stride", 0, "store_stride must be at least 1"),
    ("dense_steps", -1, "dense_steps must be nonnegative")])
def test_invalid_scheme_value_exits_before_solving(tmp_path, monkeypatch, capsys, key,
                                                   value, message):
    calls = count_solves(monkeypatch)
    cfg_dict = small_problem_cfg()
    cfg_dict["scheme"] = {key: value}
    cfg = write_cfg(tmp_path, cfg_dict)
    assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("stride", ["0", "-1"])
@pytest.mark.parametrize("command", ["solve", "homogenize"])
def test_stride_below_one_is_a_usage_error_before_solving(tmp_path, monkeypatch, capsys,
                                                          command, stride):
    calls = count_solves(monkeypatch)
    cfg = small_problem_cfg() if command == "solve" else two_scale_cfg([0.25])
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, write_cfg(tmp_path, cfg), "--out", str(out), f"--stride={stride}"])
    assert exc.value.code == 2
    assert "argument --stride: must be an integer >= 1" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def lipschitz_cfg(**study):
    return {"problem": small_problem_cfg(),
            "study": {"delta0": 0.1, "levels": 4,
                      "patterns": {"eta0": "0.5*sin(2*3.141592653589793*x)"}, **study}}


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", ["study-homog", "study-lipschitz"])
def test_jobs_below_one_is_a_usage_error_before_solving(tmp_path, monkeypatch, capsys,
                                                        command, jobs):
    calls = count_solves(monkeypatch)
    cfg = two_scale_cfg([0.25]) if command == "study-homog" else lipschitz_cfg()
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, write_cfg(tmp_path, cfg), "--out", str(out), f"--jobs={jobs}"])
    assert exc.value.code == 2
    assert "argument --jobs: must be an integer >= 1" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command,key,value", [
    ("study-homog", "a_eps", 0.0), ("study-homog", "t0_frac", 0.2),
    ("study-homog", "measure_floor", True), ("study-homog", "levels", 4),
    ("study-lipschitz", "t0_frac", 0.2), ("study-lipschitz", "eps_list", [0.5])])
def test_unknown_study_key_exits_before_solving(tmp_path, monkeypatch, capsys, command,
                                                key, value):
    calls = count_solves(monkeypatch)
    cfg = two_scale_cfg([1.0, 0.5, 0.25, 0.125]) if command == "study-homog" \
        else lipschitz_cfg()
    cfg["study"][key] = value
    assert main([command, write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"unknown study key '{key}'" in capsys.readouterr().err
    assert calls == []


def qe_study_cfg(command, qe):
    if command == "study-lipschitz":
        cfg = lipschitz_cfg()
    else:
        # nx = 128 puts eps = 0.125 at 16 cells, the resolution guard's floor
        cfg = two_scale_cfg([1.0, 0.5, 0.25, 0.125])
        cfg["grid"]["nx"] = 128
    cfg["study"]["qe"] = qe
    return cfg


@pytest.mark.parametrize("qe", [0.5, 0, -1])
@pytest.mark.parametrize("command", ["study-homog", "study-lipschitz", "homogenize"])
def test_study_qe_below_one_exits_before_solving(tmp_path, monkeypatch, capsys, command,
                                                 qe):
    calls = count_solves(monkeypatch)
    out = tmp_path / "o"
    assert main([command, write_cfg(tmp_path, qe_study_cfg(command, qe)),
                 "--out", str(out)]) == 2
    assert f"study key 'qe' cannot read {qe!r}: not a number >= 1 or \"inf\"" \
        in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("qe", [1, "inf"])
@pytest.mark.parametrize("command", ["study-homog", "study-lipschitz"])
def test_study_qe_of_one_or_inf_runs(tmp_path, monkeypatch, command, qe):
    calls = count_solves(monkeypatch)
    out = tmp_path / "o"
    assert main([command, write_cfg(tmp_path, qe_study_cfg(command, qe)),
                 "--out", str(out)]) in (0, 1)
    assert calls and any(out.iterdir())


def norm_cfg():
    return {"domain": {"X": 1.0, "T": 1.0}, "grid": {"nx": 16, "nt": 4}, "field": "x*t",
            "norm": {"tag": "Lqr", "q": 2, "r": 2}}


# a top-level key no command reads is a typo that would drop a whole table:
# "schem" left the default scheme in force, "n_xi" the default nxi
@pytest.mark.parametrize("command,where,key", [
    ("solve", (), "schem"), ("solve", (), "n_xi"),
    ("homogenize", (), "n_xi"), ("homogenize", (), "schem"),
    ("study-homog", (), "n_xi"), ("study-homog", (), "perturbation"),
    ("study-lipschitz", (), "schem"), ("study-lipschitz", ("problem",), "schem"),
    ("study-lipschitz", ("problem",), "study"), ("norms", (), "schem")])
def test_unknown_top_level_key_exits_before_solving(tmp_path, monkeypatch, capsys, command,
                                                    where, key):
    calls = count_solves(monkeypatch)
    cfg = {"solve": small_problem_cfg, "study-lipschitz": lipschitz_cfg, "norms": norm_cfg,
           "homogenize": lambda: two_scale_cfg([0.25]),
           "study-homog": lambda: two_scale_cfg([1.0, 0.5, 0.25, 0.125])}[command]()
    table = cfg
    for name in where:
        table = table[name]
    table[key] = {"store_stride": 4}
    argv = [command, write_cfg(tmp_path, cfg)]
    if command != "norms":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert f"unknown top-level key '{key}'" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "o").exists()


@pytest.mark.parametrize("patterns,message", [
    ({"theta_0": "1"}, "unknown pattern key 'theta_0'"),
    ({"eta0": "0.5", "uXb_": 1.0}, "unknown pattern key 'uXb_'"),
    ({}, "perturbs nothing"), ({"eta0": None}, "perturbs nothing"),
    (None, "study table lacks key 'patterns'"),
    ({"beta": "x", "beta1": "0.5*x"}, "unknown pattern key 'beta1'"),
    ({"beta": "x", "beta2": "x"}, "unknown pattern key 'beta2'"),
    ({"eta0": "0.5", "g1": "0.5*(1 + x)"}, "unknown pattern key 'g1'"),
    ({"eta0": "0.5", "g2": "x"}, "unknown pattern key 'g2'")])
def test_lipschitz_pattern_error_exits_before_solving(tmp_path, monkeypatch, capsys,
                                                      patterns, message):
    calls = count_solves(monkeypatch)
    cfg = lipschitz_cfg(patterns=patterns)
    if patterns is None:
        del cfg["study"]["patterns"]
    assert main(["study-lipschitz", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) \
        == 2
    assert message in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["study-homog", "study-lipschitz"])
@pytest.mark.parametrize("thresholds,message", [
    ({"eta_C0l2": ["ge", 0.9]}, "threshold on 'eta_C0l2', a column no study fits"),
    ({"Delta_total": ["ge", 0.9]}, "threshold on 'Delta_total', a column no study fits"),
    ({"eta_C0L2": ["gt", 0.9]}, "threshold on 'eta_C0L2' is not"),
    ({"eta_C0L2": ["band", 0.9]}, "threshold on 'eta_C0L2' is not"),
    ({"eta_C0L2": ["ge", "0.9"]}, "threshold on 'eta_C0L2' is not"),
    ({"eta_C0L2": 0.9}, "threshold on 'eta_C0L2' is not"),
    ([["ge", 0.9]], "threshold on 'ge', a column no study fits"),
    ({"eta_C0L2": ["ge", True]}, "threshold on 'eta_C0L2' is not")])
def test_bad_threshold_exits_before_solving(tmp_path, monkeypatch, capsys, command,
                                            thresholds, message):
    calls = count_solves(monkeypatch)
    cfg = two_scale_cfg([1.0, 0.5, 0.25, 0.125]) if command == "study-homog" \
        else lipschitz_cfg()
    cfg["study"]["thresholds"] = thresholds
    assert main([command, write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


def test_non_halving_sweep_exits_before_solving(tmp_path, monkeypatch, capsys):
    calls = count_solves(monkeypatch)
    cfg = write_cfg(tmp_path, two_scale_cfg([1.0, 0.75, 0.5, 0.25]))
    assert main(["study-homog", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "factors of 2" in capsys.readouterr().err
    assert calls == []


def test_unused_boundary_pattern_exits_before_solving(tmp_path, monkeypatch, capsys):
    calls = count_solves(monkeypatch)
    path = write_cfg(tmp_path, {
        "problem": small_problem_cfg(),
        "study": {"delta0": 0.1, "levels": 4, "patterns": {"u0b": 1.0}},
    })
    assert main(["study-lipschitz", path, "--out", str(tmp_path / "o")]) == 2
    assert "u0b" in capsys.readouterr().err
    assert calls == []


def test_inadmissible_eps_spec_exits_before_solving(tmp_path, monkeypatch, capsys):
    calls = count_solves(monkeypatch)
    cfg = two_scale_cfg([1.0, 0.5, 0.25, 0.125])
    cfg["grid"]["nx"] = 128
    # the cell mean 0.25 is admissible, the realized minimum 0.05 < 1/N is not
    cfg["data"]["eta0"] = "0.05 + 0.4*step(xi - 0.5)"
    assert main(["study-homog", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert "eps=1 spec is inadmissible: eta0 must satisfy" in capsys.readouterr().err
    assert calls == []


def test_inadmissible_delta_spec_exits_before_solving(tmp_path, monkeypatch, capsys):
    calls = count_solves(monkeypatch)
    # eta0 = 1 - 9.5 delta falls below 1/N = 0.1 at delta = 0.1 only
    path = write_cfg(tmp_path, {
        "problem": small_problem_cfg(),
        "study": {"delta0": 0.1, "levels": 4, "patterns": {"eta0": "-9.5"}},
    })
    assert main(["study-lipschitz", path, "--out", str(tmp_path / "o")]) == 2
    assert "delta=0.1 spec is inadmissible: eta0 must satisfy" in capsys.readouterr().err
    assert calls == []


def test_cli_solve_loads_no_scipy(tmp_path):
    # LAPACK dgtsv comes from numpy's own library: a solve runs without scipy
    cfg = write_cfg(tmp_path, small_problem_cfg(nx=16, nt=8))
    code = ("import sys, gaslab.cli\n"
            "assert gaslab.cli.main(['solve', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print('scipy modules:', sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path / "o")],
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "scipy modules: []"


def test_boundary_entry_the_family_does_not_use_exits_2(tmp_path, monkeypatch, capsys):
    calls = count_solves(monkeypatch)
    cfg = cfgmod.load_config("configs/pulse.json")
    cfg["bc"]["u0"] = 0.5                 # family m = 3 prescribes stresses at both ends
    assert main(["solve", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == ("invalid config: boundary entry u0 is not "
                                               "used by family m=3 and must be identically zero")
    assert calls == []


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
COMMAND_OF = {"conservation_m1.json": "solve", "equilibrium.json": "solve",
              "pulse.json": "solve", "homog_benchmark.json": "study-homog",
              "homog_quick.json": "study-homog",
              "lipschitz_benchmark.json": "study-lipschitz", "norm_demo.json": "norms"}


def leaves(tree, path=()):
    """(path, value) of each leaf of a config tree, the elements of a list of
    numbers included."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from leaves(value, path + (key,))
    elif isinstance(tree, list) and all(isinstance(v, (int, float)) for v in tree):
        for i, value in enumerate(tree):
            yield path + (i,), value
    else:
        yield path, tree


WRONG_KIND_CASES = [
    pytest.param(name, path, wrong,
                 id=f"{name[:-5]}-{'.'.join(map(str, path))}-{'true' if wrong is True else 'list'}")
    for name in sorted(COMMAND_OF)
    for path, value in leaves(cfgmod.load_config(os.path.join(CONFIGS, name)))
    for wrong in (True, [value])]


def test_every_shipped_config_is_walked():
    assert sorted(os.listdir(CONFIGS)) == sorted(COMMAND_OF)


def test_quick_homog_config_is_the_benchmark_harness_quick_grid():
    # `scripts/run_studies.py --quick` runs the shipped file; the harness's
    # `homog` workload builds the same tree from the fixture
    path = os.path.join(os.path.dirname(CONFIGS), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert cfgmod.load_config(os.path.join(CONFIGS, "homog_quick.json")) == \
        workloads.homog_quick_config(os.path.dirname(CONFIGS))


# a value of the wrong JSON kind is a config error naming its key (exit 2),
# never a value read in silence nor a TypeError that ends with exit 1
@pytest.mark.parametrize("name,path,wrong", WRONG_KIND_CASES)
def test_every_shipped_config_value_of_the_wrong_kind_exits_2(tmp_path, monkeypatch, capsys,
                                                               name, path, wrong):
    def refuse(*args, **kwargs):
        raise AssertionError("a config holding a value of the wrong kind reached a solve")

    for module in (cli, studies, hmg):
        monkeypatch.setattr(module, "solve", refuse)
    cfg = cfgmod.load_config(os.path.join(CONFIGS, name))
    table = cfg
    for key in path[:-1]:
        table = table[key]
    table[path[-1]] = wrong
    command = COMMAND_OF[name]
    argv = [command, write_cfg(tmp_path, cfg)]
    if command != "norms":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    key = [step for step in path if isinstance(step, str)][-1]
    assert f"key '{key}'" in capsys.readouterr().err


def test_expression_error_in_a_field_entry_exits_2_naming_its_key(tmp_path, monkeypatch,
                                                                   capsys):
    calls = count_solves(monkeypatch)
    cfg = cfgmod.load_config(os.path.join(CONFIGS, "pulse.json"))
    cfg["data"]["eta0"] = "1 +"
    assert main(["solve", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "data key 'eta0' cannot read '1 +': 1:4: expected a factor" in err
    assert calls == []


@pytest.mark.parametrize("nxi", [0, -4])
@pytest.mark.parametrize("command", ["homogenize", "study-homog"])
def test_nxi_below_one_exits_before_solving(tmp_path, monkeypatch, capsys, command, nxi):
    calls = count_solves(monkeypatch)
    cfg = two_scale_cfg([0.25])
    cfg["nxi"] = nxi
    assert main([command, write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"top-level key 'nxi' cannot read {nxi}: not a whole number >= 1" \
        in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("flag,eps_list,shown", [
    ("0", [0.125], "0.0"), ("1.5", [0.125], "1.5"), ("-0.25", [0.125], "-0.25"),
    (None, [0.0], "0.0")])
def test_homogenize_eps_outside_the_unit_interval_exits_before_solving(
        tmp_path, monkeypatch, capsys, flag, eps_list, shown):
    def refuse(*args, **kwargs):
        raise AssertionError("an inadmissible eps reached the averaged solve")

    monkeypatch.setattr(hmg, "solve_homogenized", refuse)
    out = tmp_path / "o"
    argv = ["homogenize", write_cfg(tmp_path, two_scale_cfg(eps_list)), "--out", str(out)]
    if flag is not None:
        argv += ["--eps-list", flag]
    assert main(argv) == 2
    assert f"error: eps must lie in (0, 1], got {shown}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps_list,shown", [
    ([0, 0, 0, 0], "0.0"), ([-0.5, -0.25, -0.125, -0.0625], "-0.5")])
def test_study_homog_eps_outside_the_unit_interval_exits_before_solving(
        tmp_path, monkeypatch, capsys, eps_list, shown):
    # checked before the resolution guard, which would report eps_min/dx
    calls = count_solves(monkeypatch)
    out = tmp_path / "o"
    assert main(["study-homog", write_cfg(tmp_path, two_scale_cfg(eps_list)),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: eps must lie in (0, 1], got {shown}" in err and "eps_min" not in err
    assert calls == []
    assert not out.exists()


def test_study_homog_empty_eps_list_exits_before_solving(tmp_path, monkeypatch, capsys):
    # an empty sweep has no eps_min for the resolution guard to read
    calls = count_solves(monkeypatch)
    out = tmp_path / "o"
    assert main(["study-homog", write_cfg(tmp_path, two_scale_cfg([])), "--out", str(out)]) \
        == 2
    assert "error: rate fit needs at least 4 rows, got 0" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("flag", ["0.25,,0.125", ""])
def test_homogenize_unreadable_eps_list_is_a_usage_error(tmp_path, monkeypatch, capsys, flag):
    # an empty flag is not the flag left out: the config's list must not run
    calls = count_solves(monkeypatch)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["homogenize", write_cfg(tmp_path, two_scale_cfg([0.25])), "--out", str(out),
              "--eps-list", flag])
    assert exc.value.code == 2
    assert f"argument --eps-list: cannot read {flag!r}" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("breakpoints,message", [
    ([1.5], "must lie strictly inside (0, 1)"),
    ([0.5, 0.25], "must be strictly increasing"),
    ([0.5, 0.5], "must be strictly increasing")])
@pytest.mark.parametrize("command", ["homogenize", "study-homog"])
def test_bad_breakpoints_exit_2_naming_the_key(tmp_path, monkeypatch, capsys, command,
                                                breakpoints, message):
    calls = count_solves(monkeypatch)
    cfg = two_scale_cfg([0.25])
    cfg["breakpoints_xi"] = breakpoints
    out = tmp_path / "o"
    assert main([command, write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert (f"top-level key 'breakpoints_xi' cannot read {breakpoints!r}: "
            f"xi breakpoints {message}") in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_lipschitz_delta0_zero_exits_before_solving(tmp_path, monkeypatch, capsys):
    calls = count_solves(monkeypatch)
    path = write_cfg(tmp_path, lipschitz_cfg(delta0=0))
    assert main(["study-lipschitz", path, "--out", str(tmp_path / "o")]) == 2
    assert "study key 'delta0' cannot read 0: not a nonzero number" \
        in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lipschitz_study_that_checks_no_threshold_exits_1(tmp_path, capsys):
    # at delta0 = 1e-300 every solution difference is 0: each column is
    # degenerate, so each threshold line is a SKIP; the ratio spread is
    # skipped too, without a 0/0 warning
    out = tmp_path / "o"
    path = write_cfg(tmp_path, lipschitz_cfg(delta0=1e-300))
    assert main(["study-lipschitz", path, "--out", str(out)]) == 1
    lines = (out / "lipschitz_study.csv.summary.txt").read_text().splitlines()
    verdicts = [ln for ln in lines if ln.startswith(("PASS", "FAIL", "SKIP"))]
    assert verdicts and all(ln.startswith("SKIP") for ln in verdicts)
    assert "RESULT: threshold failure" in lines
