"""Weighted graphs: components, subset types, subsets statistics, text
format, and tree/forest generation."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from chromac import (GraphFormatError, VectorPartition, WeightedGraph,
                     all_labeled_trees, counterexample_pair, disjoint_union,
                     parse_graph, path_graph, random_forest, serialize_graph,
                     star_graph, tree_from_pruefer)

from conftest import (component_type, connected_components, ext_int_counts, induced_subgraph,
                      random_simple_graph)


# ---------------------------------------------------------------------------
# Validation


def test_rejects_loop():
    with pytest.raises(GraphFormatError):
        WeightedGraph(2, ((1,), (1,)), ((0, 0),))


def test_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError):
        WeightedGraph(2, ((1,), (1,)), ((0, 1), (1, 0)))


def test_rejects_out_of_range_edge():
    with pytest.raises(GraphFormatError):
        WeightedGraph(2, ((1,), (1,)), ((0, 2),))


def test_rejects_nonpositive_weight():
    with pytest.raises(GraphFormatError):
        WeightedGraph(1, ((0,),), ())


def test_rejects_weight_dimension_mismatch():
    with pytest.raises(GraphFormatError):
        WeightedGraph(2, ((1,), (1, 2)), (), r=1)
    with pytest.raises(GraphFormatError):
        WeightedGraph(1, ((1,),), (), r=2)


def test_edges_are_normalized():
    g = WeightedGraph(3, ((1,), (1,), (1,)), ((2, 0), (1, 0)))
    assert g.edges == ((0, 1), (0, 2))


# ---------------------------------------------------------------------------
# Components and subset types


def test_components_of_path_subset(t1):
    comps = connected_components(t1, [(0, 1), (2, 3)])
    assert [c.vertices for c in comps] == [(0, 1), (2, 3), (4,)]
    assert [c.weight for c in comps] == [(3,), (5,), (1,)]
    assert [c.size for c in comps] == [2, 2, 1]


def test_component_type_of_path_subset(t1):
    p = component_type(t1, [(0, 1), (2, 3)])
    assert p == VectorPartition.of([(2, 5), (2, 3), (1, 1)])


def test_component_type_extremes(t1):
    assert component_type(t1, t1.edges) == VectorPartition.of([(5, 9)])
    singletons = component_type(t1, [])
    assert singletons == VectorPartition.of([(1, 2), (1, 1), (1, 2), (1, 3), (1, 1)])


def test_component_type_grade_is_size_and_weight():
    rng = random.Random(5)
    for _ in range(25):
        g = random_simple_graph(rng, rng.randint(0, 6))
        subset = [e for e in g.edges if rng.random() < 0.5]
        p = component_type(g, subset)
        assert p.grade == (g.n, *g.total_weight) or (g.n == 0 and p.parts == ())


def _bfs_components(n, edges):
    adjacency = {v: [] for v in range(n)}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen: set[int] = set()
    result = []
    for start in range(n):
        if start in seen:
            continue
        stack, group = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            group.append(v)
            for u in adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        result.append(tuple(sorted(group)))
    return result


def test_components_match_bfs_oracle():
    rng = random.Random(31)
    for _ in range(40):
        g = random_simple_graph(rng, rng.randint(1, 7), density=0.3)
        subset = tuple(e for e in g.edges if rng.random() < 0.6)
        got = [c.vertices for c in connected_components(g, subset)]
        assert got == _bfs_components(g.n, subset)


# ---------------------------------------------------------------------------
# Induced subgraphs and subset statistics


def test_induced_subgraph_example(t1):
    sub = induced_subgraph(t1, [0, 2])
    assert sub.n == 2
    assert sub.weights == ((2,), (2,))
    assert sub.edges == ()


def test_induced_subgraph_keeps_inner_edges(t1):
    sub = induced_subgraph(t1, [1, 2, 3])
    assert sub.edges == ((0, 1), (1, 2))
    assert sub.weights == ((1,), (2,), (3,))


def test_ext_int_example(t1, t2):
    assert ext_int_counts(t1, [0, 2]) == (3, 0)
    assert ext_int_counts(t2, [1, 4]) == (3, 0)
    assert ext_int_counts(t1, range(5)) == (0, 4)
    assert ext_int_counts(t1, []) == (0, 0)


def test_ext_int_complement_identity():
    rng = random.Random(37)
    for _ in range(40):
        g = random_simple_graph(rng, rng.randint(1, 7))
        subset = [v for v in range(g.n) if rng.random() < 0.5]
        complement = [v for v in range(g.n) if v not in subset]
        ext_a, int_a = ext_int_counts(g, subset)
        ext_b, int_b = ext_int_counts(g, complement)
        assert ext_a == ext_b
        assert ext_a + int_a + int_b == g.edge_count


def test_disjoint_union_shifts_edges():
    a = path_graph([1, 2])
    b = star_graph(3, [1, 1])
    u = disjoint_union(a, b)
    assert u.n == 5
    assert u.weights == ((1,), (2,), (3,), (1,), (1,))
    assert u.edges == ((0, 1), (2, 3), (2, 4))


# ---------------------------------------------------------------------------
# Trees and forests


def test_pruefer_small_cases():
    assert tree_from_pruefer((), 1) == ()
    assert tree_from_pruefer((), 2) == ((0, 1),)
    assert tree_from_pruefer((0, 0), 4) == ((0, 1), (0, 2), (0, 3))
    for seq, n in (((1,), 2), ((-1,), 3), ((5,), 3), ((0, 4), 4)):  # a length, then entries
        with pytest.raises(ValueError):
            tree_from_pruefer(seq, n)


def test_all_labeled_trees_counts():
    for n, expected in [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)]:
        trees = list(all_labeled_trees(n))
        assert len(trees) == expected
        assert len(set(trees)) == expected  # Pruefer decoding is injective
        for edges in trees:
            g = WeightedGraph(n, ((1,),) * n, edges)
            assert g.edge_count == n - 1
            assert g.is_forest()
            assert len(connected_components(g, edges)) == 1


def test_random_forest_is_deterministic_and_acyclic():
    a = random_forest(8, max_weight=4, seed=42)
    b = random_forest(8, max_weight=4, seed=42)
    assert a == b
    assert a.is_forest()
    assert all(1 <= w[0] <= 4 for w in a.weights)
    assert random_forest(8, max_weight=4, seed=43) != a


def test_random_forest_edge_cases():
    assert random_forest(0, seed=1).n == 0
    single = random_forest(1, max_weight=2, r=3, seed=1)
    assert single.n == 1
    assert len(single.weights[0]) == 3


def test_random_forest_multiweight():
    g = random_forest(6, max_weight=3, r=2, seed=9)
    assert g.r == 2
    assert all(len(w) == 2 and all(1 <= c <= 3 for c in w) for w in g.weights)


# ---------------------------------------------------------------------------
# Text format


CANONICAL = """n 3
r 1
weight 0 2
weight 1 1
weight 2 5
edge 0 1
edge 1 2
"""


def test_round_trip_from_canonical_text():
    g = parse_graph(CANONICAL)
    assert serialize_graph(g) == CANONICAL
    assert g == path_graph([2, 1, 5])


def test_round_trip_from_graph():
    rng = random.Random(41)
    for _ in range(20):
        g = random_simple_graph(rng, rng.randint(0, 6), r=rng.randint(1, 2))
        assert parse_graph(serialize_graph(g)) == g


def test_parse_allows_comments_and_blank_lines():
    text = "# a path\n\nn 2\nweight 0 1   # light\nweight 1 2\nedge 0 1\n"
    assert parse_graph(text) == path_graph([1, 2])


def test_parse_errors():
    cases = [
        ("weight 0 1\n", "missing n"),
        ("n 1\nn 1\nweight 0 1\n", "duplicate n"),
        ("n 1\nweight 0 x\n", "non-integer"),
        ("n 1\nvertex 0 1\n", "unknown directive"),
        ("n 2\nweight 0 1\n", "missing weight"),
        ("n 1\nweight 0 1\nweight 0 2\n", "duplicate weight"),
        ("n 1\nweight 0 1\nweight 1 1\n", "out-of-range"),
        ("n 2\nweight 0 1\nweight 1 1\nedge 0\n", "two endpoints"),
        ("n 2\nweight 0 1\nweight 1 1\nedge 0 0\n", "loop"),
        ("n 2\nweight 0 1\nweight 1 1\nedge 0 1\nedge 0 1\n", "duplicate edge"),
        ("n 1\nr 2\nweight 0 1\n", "dimension"),
        ("n 1\nr 1\nr 1\nweight 0 1\n", "duplicate r"),
        ("n 1 2\nweight 0 1\n", "n takes one value"),
        ("n 1\nr\nweight 0 1\n", "r takes one value"),
        ("n 1\nweight 0\n", "weight needs a vertex"),
    ]
    for text, fragment in cases:
        with pytest.raises(GraphFormatError, match=fragment):
            parse_graph(text)


def test_parse_error_messages_stay_short():
    with pytest.raises(GraphFormatError) as missing:
        parse_graph("n 3000000\nweight 5 1\n")
    message = str(missing.value)
    assert len(message) < 1024
    assert "missing weight for 2999999 of 3000000 vertices" in message
    assert "[0, 1, 2, 3, 4, 6, 7, 8, 9, 10] ..." in message
    extra = "".join(f"weight {v} 1\n" for v in range(1, 5000))
    with pytest.raises(GraphFormatError) as out_of_range:
        parse_graph("n 1\nweight 0 1\n" + extra)
    message = str(out_of_range.value)
    assert len(message) < 1024
    assert "weight for 4999 out-of-range vertices: [1, 2" in message
    with pytest.raises(GraphFormatError, match=r"missing weight for 1 of 2 vertices: \[1\]$"):
        parse_graph("n 2\nweight 0 1\n")


def test_shipped_graph_files_match_builders():
    data = Path(__file__).resolve().parent.parent / "data"
    t1, t2 = counterexample_pair()
    assert parse_graph((data / "t1.graph").read_text(encoding="utf-8")) == t1
    assert parse_graph((data / "t2.graph").read_text(encoding="utf-8")) == t2
