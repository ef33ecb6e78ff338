"""Chromatic bases from graph families and their transition matrices."""

from __future__ import annotations

import time

import pytest

from chromac import (CapExceededError, MacMahonElement, VectorPartition,
                     WeightedGraph, bases, cmf, cycle_graph, family_graph,
                     is_triangular_with_unit_diagonal, matrix_to_text,
                     partitions_of, path_graph, realizable_partitions,
                     single_vertex, star_family, transition_matrix)

from conftest import transition_matrix_by_family_graphs


def vp(*parts):
    return VectorPartition.of(parts, width=2)


def path_family(n: int, w: int) -> WeightedGraph:
    if w < n:
        raise ValueError("total weight below vertex count")
    return path_graph([w - n + 1] + [1] * (n - 1))


def cycle_family(n: int, w: int) -> WeightedGraph:
    if n >= 3:
        return cycle_graph([w - n + 1] + [1] * (n - 1))
    return star_family(n, w)


# ---------------------------------------------------------------------------
# The star family


def test_star_family_shapes():
    g = star_family(3, 5)
    assert g.weights == ((3,), (1,), (1,))
    assert g.edges == ((0, 1), (0, 2))
    assert star_family(2, 2).weights == ((1,), (1,))
    assert star_family(1, 4) == single_vertex(4)


def test_star_family_rejects_infeasible_pairs():
    with pytest.raises(ValueError):
        star_family(0, 5)
    with pytest.raises(ValueError, match="below the vertex count"):
        star_family(3, 2)


# ---------------------------------------------------------------------------
# Realizable partitions of a multidegree


def test_realizable_partitions_small():
    assert realizable_partitions((2, 2)) == [vp((2, 2)), vp((1, 1), (1, 1))]
    assert realizable_partitions((3, 3)) == [
        vp((3, 3)), vp((2, 2), (1, 1)), vp((1, 1), (1, 1), (1, 1))]
    assert realizable_partitions((3, 4)) == [
        vp((3, 4)),
        vp((2, 2), (1, 2)), vp((2, 3), (1, 1)),
        vp((1, 2), (1, 1), (1, 1))]


def test_realizable_partitions_are_the_filtered_positive_partitions():
    for n in range(1, 10):
        for w in range(1, 13):
            expected = [p for p in partitions_of((n, w), positive_parts=True)
                        if all(part[1] >= part[0] for part in p.parts)]
            assert realizable_partitions((n, w)) == sorted(
                expected, key=VectorPartition.sort_key), (n, w)


def test_realizable_partitions_empty_cases():
    assert realizable_partitions((4, 3)) == []
    assert realizable_partitions((0, 0)) == []
    assert realizable_partitions((0, 3)) == []
    with pytest.raises(ValueError):
        realizable_partitions((-1, 2))


def test_cmf_support_is_realizable():
    # subset types always have parts with weight >= size, so every CMF
    # of the right multidegree expands over the realizable partitions
    for g in [path_graph([2, 1, 1]), cycle_graph([1, 2, 1, 1]),
              star_family(4, 6)]:
        allowed = set(realizable_partitions((g.n, g.total_weight[0])))
        assert set(cmf(g).terms) <= allowed


# ---------------------------------------------------------------------------
# Family graphs for partitions


def test_family_graph_disjoint_union():
    g = family_graph(star_family, vp((2, 2), (1, 1)))
    assert g.n == 3
    assert g.edges == ((0, 1),)
    assert g.weights == ((1,), (1,), (1,))


def test_family_graph_validates_members():
    with pytest.raises(ValueError, match=r"part \(2,2\)"):
        family_graph(lambda n, w: single_vertex(w), vp((2, 2)))
    with pytest.raises(ValueError, match="not connected"):
        family_graph(lambda n, w: WeightedGraph(n, ((w - n + 1,),) + ((1,),) * (n - 1), ()),
                     vp((2, 3)))
    with pytest.raises(ValueError, match="scalar"):
        family_graph(lambda n, w: WeightedGraph(1, ((w - 1, 1),), (), r=2), vp((1, 2)))


# ---------------------------------------------------------------------------
# Transition matrices


def test_transition_matrix_trivial():
    assert transition_matrix(star_family, (1, 1)) == [[1]]
    assert transition_matrix(star_family, (1, 7)) == [[1]]
    assert transition_matrix(star_family, (4, 3)) == []


def test_transition_matrix_two_by_two():
    assert transition_matrix(star_family, (2, 2)) == [[-1, 1], [0, 1]]
    assert transition_matrix(star_family, (2, 3)) == [[-1, 1], [0, 1]]


def test_transition_matrices_triangular():
    for n in range(1, 5):
        for w in range(1, 7):
            for family in (star_family, path_family):
                matrix = transition_matrix(family, (n, w))
                assert is_triangular_with_unit_diagonal(matrix), (family, n, w)


def test_transition_matrices_match_the_per_row_family_graphs():
    for family in (star_family, path_family, cycle_family):
        for n in range(1, 8):
            for w in range(1, 11):
                assert transition_matrix(family, (n, w)) == \
                    transition_matrix_by_family_graphs(family, (n, w)), (family, n, w)


def test_transition_matrix_computes_one_cmf_per_distinct_part(monkeypatch):
    calls = []

    def counting_cmf(g, *args, **kwargs):
        calls.append(g.n)
        return cmf(g, *args, **kwargs)

    monkeypatch.setattr(bases, "cmf", counting_cmf)
    index = realizable_partitions((7, 10))
    parts = {part for p in index for part in p.parts}
    transition_matrix(star_family, (7, 10))
    assert len(calls) == len(parts) == 25
    assert len(index) == 94


def test_transition_matrix_keeps_the_star_family_edge_cap():
    # the first row is the 32-vertex star itself
    with pytest.raises(CapExceededError, match="^31 edges exceeds the cap of 30$"):
        transition_matrix(star_family, (32, 32))


@pytest.mark.parametrize("multidegree", [(12, 24), (20, 40)])
def test_transition_matrix_refuses_more_rows_than_its_budget(multidegree):
    # 30,798 rows at (12, 24); the enumeration stops at the budget
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=(
            rf"^multidegree \({multidegree[0]},{multidegree[1]}\) has more than 4096 "
            "realizable partitions, the row budget of a transition matrix$")):
        transition_matrix(star_family, multidegree)
    assert time.perf_counter() - start < 1.0


def test_the_row_budget_admits_exactly_its_count(monkeypatch):
    monkeypatch.setattr(bases, "TRANSITION_MATRIX_ROWS", 94)
    assert len(transition_matrix(star_family, (7, 10))) == 94
    monkeypatch.setattr(bases, "TRANSITION_MATRIX_ROWS", 93)
    with pytest.raises(CapExceededError, match="more than 93 realizable partitions"):
        realizable_partitions((7, 10))


def test_transition_matrix_rejects_support_outside_the_index(monkeypatch):
    def bad_cmf(g):
        if g.n == 1:
            return MacMahonElement.power_sum(VectorPartition.of([(1, 0), (0, 1)]))
        return cmf(g)

    monkeypatch.setattr(bases, "cmf", bad_cmf)
    with pytest.raises(RuntimeError, match=r"^CMF support \[\(1,0\),\(1,0\),\(0,1\),\(0,1\)\] "
                                           "outside the realizable partitions$"):
        transition_matrix(star_family, (2, 2))


@pytest.mark.parametrize("family, multidegree, message", [
    (lambda n, w: star_family(n, w + (n == 1)), (3, 4), r"part \(1,2\) has 1 vertices"),
    (lambda n, w: WeightedGraph(n, ((w - n + 1,),) + ((1,),) * (n - 1), ()) if n == 2
     else star_family(n, w), (4, 5), r"part \(2,3\) is not connected"),
    (lambda n, w: single_vertex((w, 1)) if n == 1 else star_family(n, w), (2, 2), "scalar"),
])
def test_transition_matrix_validates_members_as_the_per_row_oracle(family, multidegree, message):
    with pytest.raises(ValueError, match=message) as raised:
        transition_matrix(family, multidegree)
    with pytest.raises(ValueError) as expected:
        transition_matrix_by_family_graphs(family, multidegree)
    assert str(raised.value) == str(expected.value)


def test_cycle_family_is_not_a_basis():
    # a connected non-tree member picks up extra spanning subgraphs:
    # the triangle's full-support coefficient is 2, not a unit
    matrix = transition_matrix(cycle_family, (3, 3))
    assert matrix[0][0] == 2
    assert not is_triangular_with_unit_diagonal(matrix)


def test_triangularity_predicate():
    assert is_triangular_with_unit_diagonal([])
    assert is_triangular_with_unit_diagonal([[1]])
    assert is_triangular_with_unit_diagonal([[-1, 5], [0, 1]])
    assert not is_triangular_with_unit_diagonal([[0]])
    assert not is_triangular_with_unit_diagonal([[1, 0], [2, 1]])
    with pytest.raises(ValueError, match="square"):
        is_triangular_with_unit_diagonal([[1, 2]])


def test_matrix_to_text():
    assert matrix_to_text([[-1, 1], [0, 1]]) == "-1\t1\n0\t1"
    assert matrix_to_text([]) == ""
