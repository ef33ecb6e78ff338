"""End-to-end command-line tests through main(argv)."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chromac import (WeightedGraph, bases, cycle_graph, parse_graph, path_graph,
                     serialize_graph, single_vertex, star_graph)
from chromac.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.graph"
    path.write_text(serialize_graph(path_graph([1, 2])))
    return str(path)


@pytest.fixture
def vertex_file(tmp_path):
    path = tmp_path / "v3.graph"
    path.write_text(serialize_graph(single_vertex(3)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute


def test_compute_cmf(capsys, edge_file):
    code, out, _ = run(capsys, "compute", edge_file, "--invariant", "cmf")
    assert code == 0
    assert out == "-1 * p[(2,3)]\n+1 * p[(1,2),(1,1)]\n"


def test_compute_truncated_cmf(capsys, vertex_file):
    code, out, _ = run(capsys, "compute", vertex_file,
                       "--invariant", "cmf", "--truncate", "2")
    assert code == 0
    assert out == "+1 x1 y1^3 +1 x2 y2^3\n"


def test_compute_beta(capsys, edge_file):
    code, out, _ = run(capsys, "compute", edge_file, "--invariant", "beta")
    assert code == 0
    assert out == "+1 * p[(2,3)]\n+1 * p[(1,2),(1,1)]\n"


def test_compute_specializations(capsys, edge_file):
    expected = {
        "egdp": "+1 +1 w x y +1 w x y^2 +1 x^2 y^3 z\n",
        "wgdp": "+1 +1 x y +1 x^2 y +1 x^3 z\n",
        "gdp": "+1 +2 x y +1 x^2 z\n",
        "wcsf": "-1 * p[(3)]\n+1 * p[(2),(1)]\n",
        "csf": "-1 * p[(2)]\n+1 * p[(1),(1)]\n",
    }
    for invariant, text in expected.items():
        code, out, _ = run(capsys, "compute", edge_file, "--invariant", invariant)
        assert code == 0
        assert out == text, invariant


# ---------------------------------------------------------------------------
# hopf


def test_hopf_coproduct(capsys, vertex_file):
    code, out, _ = run(capsys, "hopf", vertex_file, "--op", "coproduct")
    assert code == 0
    assert out == "+1 * p[] (x) p[(1,3)]\n+1 * p[(1,3)] (x) p[]\n"


def test_hopf_antipode(capsys, edge_file):
    code, out, _ = run(capsys, "hopf", edge_file, "--op", "antipode")
    assert code == 0
    assert out == "+1 * p[(2,3)]\n+1 * p[(1,2),(1,1)]\n"


def test_hopf_counting_image(capsys, edge_file):
    code, out, _ = run(capsys, "hopf", edge_file, "--op", "phi")
    assert code == 0
    assert out == "+1 t^2 u v^3\n"


def test_hopf_convolution(capsys, edge_file):
    code, out, _ = run(capsys, "hopf", edge_file, "--op", "gamma")
    assert code == 0
    assert out == "+1 w +1 w^2 x y +1 w^2 x y^2 +1 w x^2 y^3 z\n"


def test_hopf_stats(capsys):
    code, out, _ = run(capsys, "hopf", str(DATA / "t1.graph"), "--op", "stats")
    assert code == 0
    assert out == "n=5 e=4 w=9 c=1\n"


def test_hopf_stats_rejects_cycles(capsys, tmp_path):
    path = tmp_path / "c3.graph"
    path.write_text(serialize_graph(cycle_graph([1, 1, 1])))
    code, out, err = run(capsys, "hopf", str(path), "--op", "stats")
    assert code == 4
    assert out == ""
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_exhaustive_small(capsys):
    code, out, _ = run(capsys, "verify", "--mode", "exhaustive", "--n-max", "3")
    assert code == 0
    # 1 tree * 2 weightings + 1 * 4 + 3 * 8
    assert out == "mode: exhaustive\nchecked: 30 forests\nRESULT: PASS\n"


def test_verify_random(capsys):
    code, out, _ = run(capsys, "verify", "--mode", "random", "--trials", "5",
                       "--n-max", "5", "--seed", "11")
    assert code == 0
    assert out.endswith("checked: 5 forests\nRESULT: PASS\n")


def test_verify_random_multiweight(capsys):
    code, out, _ = run(capsys, "verify", "--mode", "random", "--trials", "4",
                       "--n-max", "4", "--r", "2", "--seed", "11")
    assert code == 0
    assert out.endswith("RESULT: PASS\n")


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
def test_verify_prints_a_reproducer_on_failure(capsys, monkeypatch, mode):
    import chromac.cli as cli
    seen = []

    def fail_third(g):
        seen.append(g)
        return "hopf route mismatch" if len(seen) == 3 else None

    monkeypatch.setattr(cli, "_check_forest", fail_third)
    code, out, err = run(capsys, "verify", "--mode", mode, "--n-max", "3")
    assert code == 1
    assert out == serialize_graph(seen[-1]) + "RESULT: FAIL\n"
    assert err == "FAIL: hopf route mismatch\n"


# ---------------------------------------------------------------------------
# counterexample and bases


def test_counterexample(capsys):
    code, out, _ = run(capsys, "counterexample")
    assert code == 0
    assert out == ("wCSF equal: yes\n"
                   "CSF equal: yes\n"
                   "wGDP x^4 y^3 coefficient: 1 vs 2\n"
                   "CMF(k=2) distinct: yes\n")


def test_bases_check(capsys):
    code, out, _ = run(capsys, "bases", "check", "--n-max", "2", "--weight-max", "3")
    assert code == 0
    assert out == ("multidegree (1,1): size 1 ok\n"
                   "multidegree (1,2): size 1 ok\n"
                   "multidegree (1,3): size 1 ok\n"
                   "multidegree (2,1): size 0 ok\n"
                   "multidegree (2,2): size 2 ok\n"
                   "multidegree (2,3): size 2 ok\n"
                   "RESULT: PASS\n")


def test_bases_check_shows_matrices(capsys):
    code, out, _ = run(capsys, "bases", "check", "--n-max", "2",
                       "--weight-max", "2", "--show-matrices")
    assert code == 0
    assert "-1\t1\n0\t1\n" in out


# ---------------------------------------------------------------------------
# random-forest


@pytest.mark.parametrize("show, digest", [
    ((), "8db76a260c6700bf8f1bb58551c3742e43cc874c72f9a9de570d243dc00f79b7"),
    (("--show-matrices",), "cbe43d5576f5a255900bcae5e834bcf3a2c37104ac4e6d6f85d48aba4e5917c5"),
])
def test_bases_check_golden(capsys, show, digest):
    # digests of the output of the one-graph-per-row transition matrices
    code, out, err = run(capsys, "bases", "check", "--n-max", "7", "--weight-max", "10", *show)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_random_forest_deterministic(capsys):
    code1, out1, _ = run(capsys, "random-forest", "--n", "4", "--seed", "5")
    code2, out2, _ = run(capsys, "random-forest", "--n", "4", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    g = parse_graph(out1)
    assert g.n == 4 and g.is_forest()


def test_random_forest_seeds_differ(capsys):
    _, out1, _ = run(capsys, "random-forest", "--n", "6", "--seed", "1")
    _, out2, _ = run(capsys, "random-forest", "--n", "6", "--seed", "2")
    assert out1 != out2


# ---------------------------------------------------------------------------
# exit codes


def test_missing_file_is_a_parse_error(capsys):
    code, out, err = run(capsys, "compute", "/nonexistent.graph", "--invariant", "cmf")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_malformed_file_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("banana 3\n")
    code, _, err = run(capsys, "compute", str(path), "--invariant", "cmf")
    assert code == 2
    assert "error:" in err


def test_edge_cap_exit_code(capsys):
    code, _, err = run(capsys, "compute", str(DATA / "t1.graph"),
                       "--invariant", "cmf", "--max-edges", "2")
    assert code == 3
    assert "error:" in err


def test_vertex_cap_exit_code(capsys):
    code, _, _ = run(capsys, "compute", str(DATA / "t1.graph"),
                     "--invariant", "egdp", "--max-vertices", "3")
    assert code == 3


def test_truncation_budget_exit_code(capsys, vertex_file):
    """A K-color truncation past the live-exponent budget exits 3; this
    one is refused before its 2 * 10^9 variable names are built."""
    code, out, err = run(capsys, "compute", vertex_file, "--invariant", "cmf",
                         "--truncate", str(10 ** 9))
    assert (code, out) == (3, "")
    assert "1000000000-color truncation exceeds" in err


def test_star_matrix_row_budget_exit_code(capsys, monkeypatch):
    """`bases check` exits 3 at the first multidegree past the row budget,
    after the lines of the multidegrees before it."""
    monkeypatch.setattr(bases, "TRANSITION_MATRIX_ROWS", 100)
    code, out, err = run(capsys, "bases", "check", "--n-max", "12", "--weight-max", "24")
    assert code == 3
    assert out.splitlines()[-1] == "multidegree (4,15): size 88 ok"
    assert "RESULT" not in out
    assert err == ("error: multidegree (4,16) has more than 100 realizable partitions, "
                   "the row budget of a transition matrix\n")


def test_coproduct_budget_exit_code(capsys, tmp_path):
    """The star with leaf weights 1, 2, ..., 2^12 has 2 * 3^13 - 2^12
    coproduct splits, past the budget of 2^20; nothing is printed."""
    path = tmp_path / "star13.graph"
    path.write_text(serialize_graph(star_graph(1, [2 ** i for i in range(13)])))
    start = time.perf_counter()
    code, out, err = run(capsys, "hopf", str(path), "--op", "coproduct")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == "error: the coproduct exceeds its budget of 1048576 multiplicity splits\n"


def test_truncate_needs_cmf(capsys, edge_file):
    code, _, err = run(capsys, "compute", edge_file,
                       "--invariant", "egdp", "--truncate", "2")
    assert code == 4
    assert "applies only" in err


def test_wgdp_needs_scalar_weights(capsys, tmp_path):
    g = WeightedGraph(2, ((1, 1), (2, 1)), ((0, 1),), r=2)
    path = tmp_path / "r2.graph"
    path.write_text(serialize_graph(g))
    code, _, err = run(capsys, "compute", str(path), "--invariant", "wgdp")
    assert code == 4
    assert "error:" in err


def test_beta_on_a_cycle_is_not_applicable(capsys, tmp_path):
    path = tmp_path / "c4.graph"
    path.write_text(serialize_graph(cycle_graph([1, 2, 1, 2])))
    code, out, err = run(capsys, "compute", str(path), "--invariant", "beta")
    assert code == 4
    assert out == ""
    assert "cycle" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "0"],
    ["verify", "--mode", "exhaustive", "--n-max", "0"],
    ["verify", "--weight-max", "0"],
    ["bases", "check", "--n-max", "0"],
    ["bases", "check", "--weight-max", "0"],
    ["compute", "g.graph", "--invariant", "cmf", "--truncate", "-1"],
    ["random-forest", "--n", "-1"],
    ["random-forest", "--n", "3", "--max-weight", "0"],
])
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "RESULT" not in captured.out
    assert "must be >=" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "exhaustive", "--r", "-1"],
    ["verify", "--r", "0"],
    ["random-forest", "--n", "3", "--r", "0"],
])
def test_weight_dimension_below_one_is_a_usage_error(argv):
    """--r below 1 is rejected by argparse, in a fresh interpreter, so an
    uncaught exception would show as a traceback on stderr."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", "import sys; from chromac.cli import main; "
                           "sys.exit(main(sys.argv[1:]))", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""  # so no RESULT line either
    assert "Traceback" not in proc.stderr
    assert "--r: must be >= 1" in proc.stderr


def test_random_forest_size_cap_exit_code():
    """n * r above the cap is refused before the forest is built, in a
    fresh interpreter, so an uncaught exception would show as a traceback."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv in (["--n", "1", "--r", "1000000"], ["--n", "10001"], ["--n", "5001", "--r", "2"]):
        proc = subprocess.run([sys.executable, "-c", "import sys; from chromac.cli import main; "
                               "sys.exit(main(sys.argv[1:]))", "random-forest", *argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (3, ""), argv
        assert "Traceback" not in proc.stderr
        assert "weight coordinates exceeds the cap of 10000" in proc.stderr


def test_random_forest_at_the_size_cap(capsys):
    code, out, _ = run(capsys, "random-forest", "--n", "5000", "--r", "2", "--seed", "3")
    assert code == 0
    g = parse_graph(out)
    assert (g.n, g.r) == (5000, 2) and g.is_forest()


def test_zero_truncation_and_empty_forest_stay_valid(capsys, edge_file):
    code, out, _ = run(capsys, "compute", edge_file, "--invariant", "cmf", "--truncate", "0")
    assert code == 0
    assert out == "0\n"
    code, out, _ = run(capsys, "random-forest", "--n", "0")
    assert code == 0
    assert parse_graph(out).n == 0


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script(tmp_path):
    """The ``chromac`` script declared in pyproject.toml runs ``main``.

    The project is copied and installed offline into a throwaway venv that
    sees the installed setuptools and pip, so nothing is written into the
    checkout and no earlier ``pip install`` is assumed.
    """
    pytest.importorskip("setuptools")
    project = tmp_path / "project"
    project.mkdir()
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, project / name)
    shutil.copytree(ROOT / "src", project / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))

    venv = tmp_path / "venv"
    subprocess.run([sys.executable, "-m", "venv", "--system-site-packages",
                    "--without-pip", str(venv)], check=True)
    scripts = venv / ("Scripts" if os.name == "nt" else "bin")
    python = shutil.which("python", path=str(scripts))
    assert python is not None, "venv has no python"

    # The source must reach the script only through the install.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # pip needs a bdist_wheel command: setuptools ships one from 70.1 on,
    # older releases take it from the separate wheel package.
    if (importlib.util.find_spec("setuptools.command.bdist_wheel") is not None
            or importlib.util.find_spec("wheel") is not None):
        install = [python, "-m", "pip", "install", "--no-index",
                   "--no-build-isolation", "--no-deps",
                   "--disable-pip-version-check", str(project)]
    else:
        install = [python, "-c", "import setuptools; setuptools.setup()",
                   "develop", "--no-deps"]
    done = subprocess.run(install, cwd=project, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr

    exe = shutil.which("chromac", path=str(scripts))
    assert exe is not None, "install wrote no chromac script"
    proc = subprocess.run([exe, "counterexample"], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "wGDP x^4 y^3 coefficient: 1 vs 2" in proc.stdout


def test_runtime_is_stdlib_only():
    """The package declares no dependencies and imports only the standard
    library (pyproject.toml is read as text: tomllib is new in 3.11)."""
    import ast
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert "\ndependencies = []\n" in pyproject
    for path in sorted((ROOT / "src" / "chromac").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
