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


def test_verify_runs_the_convolution_kernel_once_per_forest(capsys, monkeypatch):
    import chromac.cli as cli
    import chromac.hopf as hopf
    kernel_calls = []
    per_forest = []
    character_sum, check_forest = hopf.character_sum, cli._check_forest

    def counting_sum(*args, **kwargs):
        kernel_calls.append(1)
        return character_sum(*args, **kwargs)

    def counting_check(g):
        before = len(kernel_calls)
        failure = check_forest(g)
        per_forest.append(len(kernel_calls) - before)
        return failure

    monkeypatch.setattr(hopf, "character_sum", counting_sum)
    monkeypatch.setattr(cli, "_check_forest", counting_check)
    code, out, _ = run(capsys, "verify", "--mode", "exhaustive", "--n-max", "4")
    assert code == 0
    # 2 + 4 + 3 * 8 + 16 * 16 forests
    assert out == "mode: exhaustive\nchecked: 286 forests\nRESULT: PASS\n"
    assert per_forest == [1] * 286


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


GOLDEN_GRAPHS = {
    "forest-r2": WeightedGraph(5, ((1, 2), (2, 1), (1, 1), (2, 2), (3, 1)),
                               ((0, 1), (1, 2), (3, 4)), r=2),
    "cycle": cycle_graph([1, 2, 3, 1]),
}

GOLDEN_ERRORS = {
    ("forest-r2", "compute --invariant wgdp"):
        "error: weighted degree polynomial requires scalar weights (r=1)\n",
    ("cycle", "compute --invariant beta"):
        "error: input graph contains a cycle; the table is only defined for forests\n",
    ("cycle", "hopf --op stats"):
        "error: counting-map image is not a single monomial; "
        "the element is not the CMF of a forest\n",
}

GOLDEN_CASES = [  # (graph, command, exit code, SHA-256 of stdout)
    ("t1", "compute --invariant cmf", 0,
     "bbc705e4a83ba6df9ef2aa11664601b683dcbda63701b68bbdd7e18ed6dab7cd"),
    ("t1", "compute --invariant wcsf", 0,
     "9a51846ee037fecb57877034c63ca380c8f9c8cb121f7f5f56c090e2f1155ddf"),
    ("t1", "compute --invariant csf", 0,
     "2e118d0f857c96c0c0c3516f0a0867c6ee8bd333685f20402290320f4f19318b"),
    ("t1", "compute --invariant beta", 0,
     "3192debaee081f0a6635cfc577c5bd1f0119a7d472e5eb8853edbd57a4e8935c"),
    ("t1", "compute --invariant egdp", 0,
     "d233aaa9dd0055c6c13dbb471f2aa144a818758f01400f59ed5002c07b107caf"),
    ("t1", "compute --invariant wgdp", 0,
     "789e12f41054633e0222891b3b0b5d0e18ce0ca0947674bb8fa46d36416d7848"),
    ("t1", "compute --invariant gdp", 0,
     "94920f0a751fa79b86dc645c00013e0f7b6054da804d5acebdc11296434a4baf"),
    ("t1", "compute --invariant cmf --truncate 2", 0,
     "4d04baa24da036e9ee768a42dcf7ff77e34e4b617e3d0959b4e45c9cbb70df28"),
    ("t1", "hopf --op coproduct", 0,
     "01cbc4ff647deba5481b084034a6efa6ff75f855e2ec37eb946e8a29bca20343"),
    ("t1", "hopf --op antipode", 0,
     "872e5d1cae11168b9e00d229ddc70c9c921b63f85fae347e74371a8816312913"),
    ("t1", "hopf --op phi", 0,
     "e3e57419ab331505f8c28afacbd4058016970dee66533581d2e8f40a283d0f61"),
    ("t1", "hopf --op gamma", 0,
     "647c2b656cc9504d69a9b7cf47fcf662a4282c71cc727d19292798d38bc2cae3"),
    ("t1", "hopf --op stats", 0,
     "d4201a9e31cc20fdc09badeea0ae0f7de38d7fdac99e46fd85b043a6d8213a9e"),
    ("t2", "compute --invariant cmf", 0,
     "a0117fa332bf1040ab0f38e8181d4f2626c4ea57ad2534b67af307418324be5b"),
    ("t2", "compute --invariant wcsf", 0,
     "9a51846ee037fecb57877034c63ca380c8f9c8cb121f7f5f56c090e2f1155ddf"),
    ("t2", "compute --invariant csf", 0,
     "2e118d0f857c96c0c0c3516f0a0867c6ee8bd333685f20402290320f4f19318b"),
    ("t2", "compute --invariant beta", 0,
     "c4f53bdd0152f3d8d7b6b6984ca43f6cbfb27f4d5ed4ac005ffbd883814a7502"),
    ("t2", "compute --invariant egdp", 0,
     "2fb9e89fbfcdc3d6923fbff42e004d533464a0679f35748fe58aa4e58a3e3352"),
    ("t2", "compute --invariant wgdp", 0,
     "c0ccffba0b33bdbcd2a1394c8115872aa22095f4d7b2ca7086f0104fc2cf15da"),
    ("t2", "compute --invariant gdp", 0,
     "94920f0a751fa79b86dc645c00013e0f7b6054da804d5acebdc11296434a4baf"),
    ("t2", "compute --invariant cmf --truncate 2", 0,
     "66d49e273b40193479f7c2323b2a6573c6340fa537735a0afe10abd552afbbcd"),
    ("t2", "hopf --op coproduct", 0,
     "bb402b27ec614e30d837792c2e612b0a1e27cbebe90b1c751e04f636737954e2"),
    ("t2", "hopf --op antipode", 0,
     "891a88ca648b35e360ad83fae8f73ff1b49c10778afdbd525af8f2c922fe4656"),
    ("t2", "hopf --op phi", 0,
     "e3e57419ab331505f8c28afacbd4058016970dee66533581d2e8f40a283d0f61"),
    ("t2", "hopf --op gamma", 0,
     "695b6fd54d036ed07d6606cb3d0fbaac731463b47a768cf66eebc605accb03d3"),
    ("t2", "hopf --op stats", 0,
     "d4201a9e31cc20fdc09badeea0ae0f7de38d7fdac99e46fd85b043a6d8213a9e"),
    ("forest-r2", "compute --invariant cmf", 0,
     "873e5633f88b153ec89a74cb2ffdd7b75548eac27fa65cc18b5b6212f8f00ac6"),
    ("forest-r2", "compute --invariant wcsf", 0,
     "12f57fca949350d1c4ca53633047e175bd7737b10018739604509358c6623949"),
    ("forest-r2", "compute --invariant csf", 0,
     "aa5825a2c9521164639196326b597a58106e2196c429f5908d89eabd74cf37c1"),
    ("forest-r2", "compute --invariant beta", 0,
     "ff1acca63081bf677d1aa816ddc4b93c0ef90e1a3faef98fc1f27f3f7f437548"),
    ("forest-r2", "compute --invariant egdp", 0,
     "947b370b487e80921f080a9a2eb73b6e3ac6e9864c6a929479179b4369d4c2c2"),
    ("forest-r2", "compute --invariant wgdp", 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("forest-r2", "compute --invariant gdp", 0,
     "0f57dab1602b7da00383ba7acbaa92f54ca91a8cac98d92938cf220e3166e589"),
    ("forest-r2", "compute --invariant cmf --truncate 2", 0,
     "9947e7a4466356955c8125fe01d707b47bf2e6a16fd13a22fd04b9ded58ac4e3"),
    ("forest-r2", "hopf --op coproduct", 0,
     "5c10b97a708c359717947c37da530d4871867b9c8f4286452a3c31e630255861"),
    ("forest-r2", "hopf --op antipode", 0,
     "27a7d45aa3b2ebef51266646d6b93f1e91ccd185444af25316f77eb958e03076"),
    ("forest-r2", "hopf --op phi", 0,
     "0631ee03717b9229c3ad3cb5a60abfb20897577b37085e2782628b144e171f46"),
    ("forest-r2", "hopf --op gamma", 0,
     "2ceae479585cd3795fd80cbab93d5921c5de4f7f9056da293eaea29580c37ecb"),
    ("forest-r2", "hopf --op stats", 0,
     "e3edbfaec24b075e5d47b6703ff306b17dd4646ccf2f39264016c783289b1aab"),
    ("cycle", "compute --invariant cmf", 0,
     "d6f0f551372f1d0d16a786cce9812efb9164ee5b1998e281fc54d4ca43f16879"),
    ("cycle", "compute --invariant wcsf", 0,
     "c027ce87b0b708b683f8c77d9c1f144752137d43f34e5766d0c5cbc3c0f110c0"),
    ("cycle", "compute --invariant csf", 0,
     "3b5d4881142799c5bd3cde667b344244c01d41c8fcad5164cab736918469634b"),
    ("cycle", "compute --invariant beta", 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("cycle", "compute --invariant egdp", 0,
     "44094832106ae9258a9dc0cc96a0a7ba7f8222a8013ac557a7975430bcaafb3f"),
    ("cycle", "compute --invariant wgdp", 0,
     "f0bb89fd194cc7c99f51a2ad4176f56789ee43e79ba823926b0b0e2c3c113f4a"),
    ("cycle", "compute --invariant gdp", 0,
     "26c4703633dfd9294a0d8845f458f142c25638a795a64335e1c84596c658c1db"),
    ("cycle", "compute --invariant cmf --truncate 2", 0,
     "5588ddaf8bc54c684bcc042791c1fdd20d35dc3b138a0f74a220c103d5a56083"),
    ("cycle", "hopf --op coproduct", 0,
     "44b6f7061d1c9332d07dc2b929ec0462d9c62fa758b453419d1f853fe2b8d666"),
    ("cycle", "hopf --op antipode", 0,
     "aca53a3032996471d0dfa15ee63eb75d881954cfa7ea77efce07dd0ce1c26fa0"),
    ("cycle", "hopf --op phi", 0,
     "cbd134b31c325c4ccb50b9221b130ed02dbb0d524d5e1241a66f43fe60785e02"),
    ("cycle", "hopf --op gamma", 0,
     "103369042ecc8d2bde6f201de2635e2d064a3fdb72a91c2fbdde554047df21c9"),
    ("cycle", "hopf --op stats", 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("graph, command, exit_code, digest", GOLDEN_CASES, ids=[
    f"{graph}-{command.replace(' --', ' ').replace(' ', '-')}" for graph, command, *_ in GOLDEN_CASES])
def test_compute_and_hopf_golden(capsys, tmp_path, graph, command, exit_code, digest):
    """Every --invariant, a truncation and every --op on the two shipped
    trees, a forest with weight pairs and a graph with a cycle: the exit
    code, a SHA-256 digest of stdout and the exact stderr."""
    if graph in GOLDEN_GRAPHS:
        path = tmp_path / f"{graph}.graph"
        path.write_text(serialize_graph(GOLDEN_GRAPHS[graph]))
    else:
        path = DATA / f"{graph}.graph"
    subcommand, *options = command.split()
    code, out, err = run(capsys, subcommand, str(path), *options)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == GOLDEN_ERRORS.get((graph, command), "")


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
    for content in (b"banana 3\n", b"n 1\nweight 0 \xff\n"):  # a bad line, then not UTF-8
        path.write_bytes(content)
        for argv in (("compute", str(path), "--invariant", "cmf"),
                     ("hopf", str(path), "--op", "coproduct")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (content, argv)
            assert "error:" in err, (content, argv)


def test_graph_file_cap_exit_code(capsys, tmp_path, monkeypatch):
    """A graph file longer than the cap exits 3 before it is parsed; one
    at exactly the cap is computed."""
    monkeypatch.setattr("chromac.cli.GRAPH_FILE_CHARS", 64)
    text = serialize_graph(path_graph([1, 2]))
    path = tmp_path / "padded.graph"
    path.write_text(text + "#" * (63 - len(text)) + "\n")
    assert len(path.read_text()) == 64
    code, out, _ = run(capsys, "compute", str(path), "--invariant", "cmf")
    assert (code, out) == (0, "-1 * p[(2,3)]\n+1 * p[(1,2),(1,1)]\n")
    path.write_text(text + "#" * (64 - len(text)) + "\n")
    code, out, err = run(capsys, "compute", str(path), "--invariant", "cmf")
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


@pytest.mark.skipif(not os.path.exists("/dev/zero") or importlib.util.find_spec("resource") is None,
                    reason="needs /dev/zero and the resource module")
def test_endless_graph_file_is_refused_in_bounded_memory():
    """An endless input exits 3 in a fresh interpreter whose address space
    is capped at 512 MiB, so reading it whole would end in a traceback."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", "import resource, sys; "
                           "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)); "
                           "from chromac.cli import main; sys.exit(main(sys.argv[1:]))",
                           "compute", "/dev/zero", "--invariant", "cmf"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


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
    ["compute", "g.graph", "--invariant", "cmf", "--max-edges", "-5"],
    ["compute", "g.graph", "--invariant", "egdp", "--max-vertices", "-1"],
    ["hopf", "g.graph", "--op", "stats", "--max-edges", "-1"],
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
