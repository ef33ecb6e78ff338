"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import chromac  # noqa: E402
import items  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def smallest(workload: str, seed: int, count: int) -> list[workloads.Item]:
    first_round = workloads.build_rounds(workload, seed, 1)[0]
    return sorted(first_round, key=lambda it: (it.n + it.e + sum(it.multidegree), it.text))[:count]


def first_of_kind(workload: str, kind: str) -> workloads.Item:
    return next(it for it in smallest(workload, 3, 99) if it.kind == kind)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_has_no_errors(workload):
    failures: list[str] = []
    for item in smallest(workload, 11, 3):
        assert run.run_checked(items, item, failures) is not None
    assert failures == []


def test_checker_flags_bumped_egdp_coefficient():
    item = first_of_kind("forest-sweep", "forest")
    out = items.run_item(item)
    assert items.check_item(item, out) == []
    poly = out["egdp"]
    exps = next(iter(poly.terms))
    out["egdp"] = chromac.LaurentPolynomial(poly.variables, {**poly.terms, exps: poly.terms[exps] + 1})
    assert items.check_item(item, out)


def test_checker_flags_dropped_truncation_monomial():
    item = first_of_kind("compute-mixed", "graph")
    out = items.run_item(item)
    assert items.check_item(item, out) == []
    poly = out["truncate3"]
    assert poly.terms, "the planted 3-coloring makes the truncation nonzero"
    dropped = dict(list(poly.terms.items())[1:])
    out["truncate3"] = chromac.LaurentPolynomial(poly.variables, dropped)
    assert items.check_item(item, out)


def test_checker_flags_non_triangular_star_matrix():
    item = first_of_kind("compute-mixed", "stars")
    out = items.run_item(item)
    assert items.check_item(item, out) == []
    out["matrix"][-1][0] = 1
    assert items.check_item(item, out)


def test_raising_item_is_an_error_and_misses_the_tail():
    broken = workloads.Item("forest", "n 2\nweight 0 1\n", 2, 0, 1, (1,), 2)
    times, failures = run.timed_loop(items, [[broken]], 0.0)
    assert times == [math.inf] and len(failures) == 1
    metrics = run.summarize(times * 11 + [0.001] * 30, [0.1], 5.0)
    assert metrics["success_pct"][0] == 100 * 30 / 41
    assert metrics["item_tail_ms"][0] == 5000.0  # failures rank above every success


def test_tail_level_leaves_ten_samples():
    for count in (1, 15, 20, 35, 300, 5000):
        level = run.tail_level(count)
        above = count - math.ceil(level / 100 * count)
        assert level == 50 or above >= run.TAIL_BEYOND
        assert level == 50 or count - math.ceil((level + 1) / 100 * count) < run.TAIL_BEYOND


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.build_rounds(workload, 5, 2) == workloads.build_rounds(workload, 5, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_other_items_of_same_shape(workload):
    a, b = (workloads.build_rounds(workload, seed, 2) for seed in (5, 6))
    assert a != b
    for round_a, round_b in zip(a, b):
        assert sorted(it.shape() for it in round_a) == sorted(it.shape() for it in round_b)


def test_exact_counts_repeat_and_match_benchmark_json():
    batch = (smallest("forest-sweep", 2, 3) + smallest("compute-mixed", 2, 2)
             + [first_of_kind("compute-mixed", "graph")])
    counts = []
    for _ in range(2):
        trace = tracer.Tracer()
        trace.install()
        try:
            for index, item in enumerate(batch):
                failures: list[str] = []
                assert trace.item_span(index, run.run_checked, items, item, failures) is not None
        finally:
            trace.uninstall()
        counts.append(trace.exact_counts())
        assert trace.spans and all(span[2] is not None for span in trace.spans)
    assert counts[0] == counts[1]
    assert all(counts[0][key] > 0 for key in ("chromatic.cmf.edge_subsets",
                                              "hopf.coproduct.terms_nominal",
                                              "chromatic.cmf_by_enumeration.colorings"))
    assert chromac.cmf is not None and not hasattr(chromac.cmf, "__wrapped__")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in declared["per_layer"]] == list(trace.metrics(1.0)) + ["trace.overhead_ratio"]
    assert {m["name"] for m in declared["end_to_end"]} == set(run.summarize([0.001], [0.1], 1.0))


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "forest-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
