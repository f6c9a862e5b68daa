import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from gaslab import cli, studies
from gaslab import homogenize as hmg
from gaslab.cli import main
from gaslab.grid import Grid, edges_to_centers
from gaslab.solver import NonFiniteState


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
    # sweeps are reported on stdout only, never in the CSV reports
    assert "picard sweeps" in capsys.readouterr().out
    assert "picard" not in diag and "picard" not in "\n".join(snap)


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


@pytest.mark.parametrize("command,flag", [
    ("norms", "--stride"), ("norms", "--jobs"), ("solve", "--jobs"),
    ("solve", "--eps-list"), ("homogenize", "--jobs"), ("study-homog", "--stride"),
    ("study-lipschitz", "--eps-list")])
def test_unread_flag_exits_2(command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "cfg.json", flag, "5"])
    assert exc.value.code == 2


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
    def broken(*args, **kwargs):
        raise TypeError("float() argument must be a string or a real number")

    monkeypatch.setattr(studies, "run_lipschitz_study", broken)
    path = write_cfg(tmp_path, {
        "problem": small_problem_cfg(),
        "study": {"delta0": 0.1, "levels": 4,
                  "patterns": {"eta0": "0.5*sin(2*3.141592653589793*x)"}},
    })
    with pytest.raises(TypeError):
        main(["study-lipschitz", path, "--out", str(tmp_path / "o")])


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
    rows = cli._row_formatter(np.array([-0.0, 1e-310]))
    assert rows(-0.0, np.array([np.inf, np.nan])) == \
        "".join(f"{a:.17e},{b:.17e},{c:.17e}\n" for a, b, c in
                ((-0.0, -0.0, np.inf), (-0.0, 1e-310, np.nan)))


def test_non_finite_state_exit_code(tmp_path, monkeypatch, capsys):
    def non_finite(spec, scheme):
        raise NonFiniteState(0.05, "u")

    monkeypatch.setattr(cli, "solve", non_finite)
    cfg = write_cfg(tmp_path, small_problem_cfg())
    assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "non-finite u" in capsys.readouterr().err


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
    ("data", "eta0", "eta0 must be finite"),
    ("data", "theta0", "theta0 must be finite"),
    ("bc", "pi0", "boundary entry pi0 must be finite"),
    ("data", "f", "f must be finite on the probe set"),
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


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # LAPACK dgtsv is the only scipy the program needs at import time
    code = ("import sys, gaslab.cli; print(' '.join(m for m in ('scipy.integrate', "
            "'scipy.special', 'scipy.optimize', 'scipy.sparse') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == ""
