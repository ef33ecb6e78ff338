"""CMF, subset-type tables, EGDP and their specializations."""

from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromac import (CapExceededError, LaurentPolynomial, MacMahonElement,
                     NotApplicableError, VectorPartition, WeightedGraph,
                     beta_table, chromatic, cmf, cmf_by_enumeration,
                     cycle_graph, disjoint_union, egdp, egdp_variables,
                     path_graph, random_forest, serialize_graph,
                     single_vertex, specialize_csf, specialize_egdp,
                     star_graph)
from chromac.cli import main

from conftest import (beta_by_edge_subsets, cmf_by_edge_subsets, colorings_by_product,
                      egdp_by_vertex_subsets, random_simple_graph, specialize_csf_two_pass,
                      specialize_egdp_two_pass, substitute_one)


def vp(*parts):
    return VectorPartition.of(parts, width=len(parts[0]) if parts else 2)


def p_(*parts):
    return MacMahonElement.power_sum(vp(*parts))


# ---------------------------------------------------------------------------
# CMF


def test_cmf_single_vertex():
    assert cmf(single_vertex(3)) == p_((1, 3))


def test_cmf_edge():
    expected = p_((1, 2), (1, 1)) - p_((2, 3))
    assert cmf(path_graph([1, 2])) == expected


def test_cmf_empty_graph():
    g = WeightedGraph(0, (), (), 1)
    assert cmf(g) == MacMahonElement.one(2)


def test_cmf_of_forest_has_signed_nonnegative_coefficients():
    g = path_graph([2, 1, 3])
    element = cmf(g)
    for partition, coeff in element.terms.items():
        sign = -1 if (g.n - partition.length) & 1 else 1
        assert coeff * sign > 0


def test_cmf_multiplicative_over_disjoint_union():
    from chromac import disjoint_union
    rng = random.Random(3)
    for _ in range(10):
        a = random_simple_graph(rng, rng.randint(0, 4))
        b = random_simple_graph(rng, rng.randint(0, 4))
        assert cmf(disjoint_union(a, b)) == cmf(a) * cmf(b)


def test_cmf_respects_edge_cap(t1):
    with pytest.raises(CapExceededError):
        cmf(t1, max_edges=3)


# ---------------------------------------------------------------------------
# Subset-type tables


def test_beta_table_row_sums(t1):
    table = beta_table(t1)
    assert sum(table.values()) == 2 ** t1.edge_count
    by_length: dict[int, int] = {}
    for partition, count in table.items():
        assert count > 0
        by_length[partition.length] = by_length.get(partition.length, 0) + count
    for length, total in by_length.items():
        assert total == math.comb(t1.edge_count, t1.n - length)
    assert by_length[3] == 6


def test_beta_table_matches_cmf_signs(t1):
    table = beta_table(t1)
    element = cmf(t1)
    assert set(table) == set(element.terms)
    for partition, count in table.items():
        sign = -1 if (t1.n - partition.length) & 1 else 1
        assert element.coefficient(partition) == sign * count


def test_beta_table_rejects_cycles():
    with pytest.raises(NotApplicableError, match="cycle"):
        beta_table(cycle_graph([1, 1, 1]))


def test_beta_table_respects_edge_cap(t1):
    with pytest.raises(CapExceededError, match="4 edges exceeds the cap of 3"):
        beta_table(t1, max_edges=3)


# ---------------------------------------------------------------------------
# Forest dynamic programs against the subset definitions


def _oracle_forests() -> list[WeightedGraph]:
    """Seeded random forests with r = 1, 2, 3 and n <= 12, plus the empty
    graph, single vertices, isolated vertices and several trees."""
    graphs = [WeightedGraph(0, (), (), r) for r in (1, 2, 3)]
    graphs += [single_vertex(w) for w in (1, (2, 1), (1, 3, 2))]
    graphs.append(WeightedGraph(4, ((1,), (2,), (1,), (3,)), ()))
    graphs.append(disjoint_union(disjoint_union(path_graph([1, 2, 1]), star_graph(2, [1, 1, 3])),
                                 single_vertex(2)))
    rng = random.Random(4242)
    for r in (1, 2, 3):
        for _ in range(12):
            graphs.append(random_forest(rng.randint(2, 12), max_weight=rng.choice([1, 2, 4]),
                                        r=r, seed=rng.randrange(2 ** 32)))
    return graphs


def test_forest_dp_matches_subset_oracles():
    for g in _oracle_forests():
        assert g.is_forest()
        assert cmf(g) == cmf_by_edge_subsets(g), g
        assert beta_table(g) == beta_by_edge_subsets(g), g
        assert egdp(g) == egdp_by_vertex_subsets(g), g
        # the frontier dynamic program handles forests too
        assert chromatic._frontier_type_counts(g) == chromatic._forest_type_counts(g), g
        # the forest one roots each tree by the walk: every step touches at
        # most one placed neighbour, its parent, placed before it
        placed: list[int] = []
        for v, frontier, touching, _ in chromatic._frontier_steps(g):
            assert len(touching) <= 1 and all(frontier[i] in placed for i in touching), g
            placed.append(v)
        assert sorted(placed) == list(range(g.n)), g


def test_cyclic_sweeps_match_subset_oracles():
    rng = random.Random(61)
    graphs = [cycle_graph([1, 2, 1, 3]), cycle_graph([(1, 2), (2, 1), (1, 1)])]
    graphs += [random_simple_graph(rng, rng.randint(3, 6), r=rng.randint(1, 2), density=0.6)
               for _ in range(12)]
    for g in graphs:
        assert cmf(g) == cmf_by_edge_subsets(g), g
        assert egdp(g) == egdp_by_vertex_subsets(g), g


def complete_graph(weights) -> WeightedGraph:
    n = len(weights)
    return WeightedGraph(n, tuple(weights), tuple((u, v) for u in range(n) for v in range(u + 1, n)),
                         len(weights[0]))


def petersen_graph(weights) -> WeightedGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return WeightedGraph(10, tuple(weights), tuple(outer + spokes + inner))


def widest_frontier(g: WeightedGraph) -> int:
    """Most placed vertices with an unplaced neighbour at once, in the
    frontier dynamic programs' placement order."""
    adjacency = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    placed: set[int] = set()
    widest = 0
    for v, *_ in chromatic._frontier_steps(g):
        placed.add(v)
        widest = max(widest, sum(1 for u in placed if adjacency[u] - placed))
    return widest


def chord_star(k: int) -> WeightedGraph:
    """The star with leaf weights 1, 2, 4, ..., 2^(k-1) and a chord
    between its first two leaves."""
    star = star_graph(1, [2 ** i for i in range(k)])
    return WeightedGraph(star.n, star.weights, star.edges + ((1, 2),))


def _cyclic_oracle_graphs() -> list[WeightedGraph]:
    """Seeded random graphs with a cycle (r = 1, 2, 3, n <= 9, at most 12
    edges), K3-K6, a cycle next to a tree and an isolated vertex, the
    chord star with k = 12, whose centre closes with thousands of
    distinct codes, and the Petersen graph, whose placement order keeps
    five vertices open."""
    rng = random.Random(5151)
    graphs = []
    for r in (1, 2, 3):
        while len(graphs) < 8 * r:
            g = random_simple_graph(rng, rng.randint(3, 9), r=r, max_weight=3,
                                    density=rng.uniform(0.3, 0.7))
            if not g.is_forest() and g.edge_count <= 12:
                graphs.append(g)
    graphs += [complete_graph([(i % 3 + 1,) for i in range(n)]) for n in (3, 4, 5, 6)]
    graphs.append(complete_graph([(1, 2), (2, 1), (1, 1), (2, 2)]))
    graphs.append(disjoint_union(disjoint_union(cycle_graph([2, 1, 1, 3]), star_graph(1, [2, 2])),
                                 single_vertex(4)))
    graphs.append(chord_star(12))
    graphs.append(petersen_graph([i % 2 + 1 for i in range(10)]))
    return graphs


def test_frontier_dp_matches_edge_subsets():
    graphs = _cyclic_oracle_graphs()
    assert widest_frontier(graphs[-1]) >= 5
    for g in graphs:
        assert not g.is_forest()
        assert cmf(g) == cmf_by_edge_subsets(g), g
        assert egdp(g) == egdp_by_vertex_subsets(g), g


def test_cycle_csf_gives_the_chromatic_polynomial():
    # p_lambda at k ones is k^len(lambda), so the CSF of the n-cycle
    # evaluates to its chromatic polynomial (k-1)^n + (-1)^n (k-1)
    for n in range(3, 21):
        csf = specialize_csf(cmf(cycle_graph([i % 3 + 1 for i in range(n)])), "cardinality")
        for k in (2, 3):
            value = sum(c * k ** partition.length for partition, c in csf.terms.items())
            assert value == (k - 1) ** n + (-1) ** n * (k - 1), (n, k)


def test_two_color_truncation_of_a_16_vertex_20_edge_graph():
    rng = random.Random(7)
    side = [rng.randrange(2) for _ in range(16)]  # planted 2-coloring
    edges: set[tuple[int, int]] = set()
    while len(edges) < 20:
        u, v = rng.sample(range(16), 2)
        if side[u] != side[v]:
            edges.add((min(u, v), max(u, v)))
    g = WeightedGraph(16, tuple((rng.randint(1, 3),) for _ in range(16)), tuple(sorted(edges)))
    assert not g.is_forest()
    truncated = cmf(g).truncate(2)
    assert not truncated.is_zero()
    assert truncated == cmf_by_enumeration(g, 2)


def test_caps_raise_before_the_frontier_dp(monkeypatch, capsys, tmp_path):
    def no_work(g):
        raise AssertionError("work started before the cap check")

    monkeypatch.setattr(chromatic, "_frontier_type_counts", no_work)
    long_cycle = cycle_graph([1] * 31)
    with pytest.raises(CapExceededError, match="^31 edges exceeds the cap of 30$"):
        cmf(long_cycle)
    path = tmp_path / "c31.graph"
    path.write_text(serialize_graph(long_cycle))
    assert main(["compute", str(path), "--invariant", "cmf"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: 31 edges exceeds the cap of 30\n")


def test_caps_raise_before_the_forest_dp(monkeypatch):
    # the dynamic program would be instant here; the caps still hold
    def no_work(g):
        raise AssertionError("work started before the cap check")

    monkeypatch.setattr(chromatic, "_frontier_steps", no_work)
    long_path = path_graph([1] * 32)
    with pytest.raises(CapExceededError, match="^31 edges exceeds the cap of 30$"):
        cmf(long_path)
    with pytest.raises(CapExceededError, match="^31 edges exceeds the cap of 30$"):
        beta_table(long_path)
    with pytest.raises(CapExceededError, match="^32 vertices exceeds the cap of 25$"):
        egdp(long_path)
    with pytest.raises(NotApplicableError, match="cycle"):
        beta_table(cycle_graph([1] * 40))  # the forest check comes first


def test_forest_dp_refuses_the_power_of_two_star_early(capsys, tmp_path):
    """With leaf weights 1, 2, 4, ... every edge subset of the star has its
    own type, so the root's merge closes 2^k distinct codes and each state
    needs a digit for each: live states times closed codes pass
    CMF_STATE_DIGITS at k = 14.  At k = 16 the refusal comes as the
    root's codes close, long before the states would fill gigabytes."""
    assert len(cmf(star_graph(1, [2 ** i for i in range(12)])).terms) == 2 ** 12
    star = star_graph(1, [2 ** i for i in range(16)])
    message = (f"the forest CMF dynamic program exceeds its budget of "
               f"{chromatic.CMF_STATE_DIGITS} live states times closed codes")
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=f"^{message}$"):
        cmf(star)
    assert time.perf_counter() - start < 1
    path = tmp_path / "star16.graph"
    path.write_text(serialize_graph(star))
    assert main(["compute", str(path), "--invariant", "beta"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_forest_dp_budget_bounds_the_merge_products(monkeypatch):
    # on this path the product that builds a parent's states passes a
    # budget of 10,000 before any closing code does
    path = path_graph([1, 2, 3] * 4)
    assert cmf(path) == cmf_by_edge_subsets(path)
    monkeypatch.setattr(chromatic, "CMF_STATE_DIGITS", 10_000)
    with pytest.raises(CapExceededError, match="^the forest CMF dynamic program exceeds its "
                                               "budget of 10000 live states times closed codes$"):
        cmf(path)


def test_cyclic_dp_refuses_the_power_of_two_chord_star_early(capsys, tmp_path):
    """The centre's component closes at the last placement with its own
    code in nearly every state, so live states times closed codes pass
    CMF_STATE_DIGITS at k = 14, as on the star without the chord.  At
    k = 16 the refusal comes during that placement, long before the
    states would fill gigabytes."""
    star = chord_star(16)
    message = (f"the CMF dynamic program exceeds its budget of "
               f"{chromatic.CMF_STATE_DIGITS} live states times closed codes")
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=f"^{message}$"):
        cmf(star)
    assert time.perf_counter() - start < 1
    path = tmp_path / "chord16.graph"
    path.write_text(serialize_graph(star))
    assert main(["compute", str(path), "--invariant", "cmf"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_egdp_budget_raises_before_the_step_that_could_exceed_it(monkeypatch, capsys, tmp_path):
    # K_n keeps 2^placed live terms, so a budget of 64 admits K6 and
    # stops K7 and K8 before their seventh vertex is placed
    monkeypatch.setattr(chromatic, "EGDP_LIVE_TERMS", 64)
    k6 = complete_graph([(i % 3 + 1,) for i in range(6)])
    assert egdp(k6) == egdp_by_vertex_subsets(k6)
    message = "the EGDP dynamic program may exceed its budget of 64 live terms"
    k8 = complete_graph([(1,)] * 8)
    with pytest.raises(CapExceededError, match=f"^{message}$"):
        egdp(k8)
    path = tmp_path / "k8.graph"
    path.write_text(serialize_graph(k8))
    assert main(["compute", str(path), "--invariant", "egdp"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_cmf_budget_raises_once_the_states_pass_it(monkeypatch, capsys, tmp_path):
    # a budget of 32 states admits C6 and K5 and stops K6 and the 3x3 grid
    monkeypatch.setattr(chromatic, "CMF_LIVE_STATES", 32)
    for g in (cycle_graph([1, 2, 3, 1, 2, 3]), complete_graph([(i % 3 + 1,) for i in range(5)])):
        assert cmf(g) == cmf_by_edge_subsets(g)
    grid = WeightedGraph(9, tuple((v % 3 + 1,) for v in range(9)),
                         tuple(sorted([(v, v + 1) for v in range(9) if v % 3 < 2]
                                      + [(v, v + 3) for v in range(6)])))
    message = "the CMF dynamic program exceeds its budget of 32 live states"
    for g in (complete_graph([(1,)] * 6), grid):
        with pytest.raises(CapExceededError, match=f"^{message}$"):
            cmf(g)
    path = tmp_path / "grid.graph"
    path.write_text(serialize_graph(grid))
    assert main(["compute", str(path), "--invariant", "cmf"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def _lift(g: WeightedGraph) -> WeightedGraph:
    """The graph with a leading weight coordinate 1 per vertex, so that
    the weights of a vertex set carry its size."""
    return WeightedGraph(g.n, tuple((1, *w) for w in g.weights), g.edges, g.r + 1)


def _contract(g: WeightedGraph, edge: tuple[int, int]) -> WeightedGraph:
    """G / e: the ends u < v of e become vertex u with the sum of their
    weights, e goes and parallel edges merge."""
    u, v = edge
    label = [u if x == v else x - (x > v) for x in range(g.n)]
    weights = [list(w) for x, w in enumerate(g.weights) if x != v]
    weights[u] = [a + b for a, b in zip(g.weights[u], g.weights[v])]
    edges = {tuple(sorted((label[a], label[b]))) for a, b in g.edges if (a, b) != edge}
    return WeightedGraph(g.n - 1, tuple(map(tuple, weights)), tuple(sorted(edges)), g.r)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2))
def test_cmf_deletion_contraction(seed, r):
    # cmf(G) = cmf(G - e) - cmf(G / e), where the contracted vertex counts
    # as two vertices: the size travels as a weight coordinate of the lift
    # and specialize_csf drops the size coordinate of the lifted CMF
    rng = random.Random(seed)
    g = random_simple_graph(rng, rng.randint(2, 6), r=r, max_weight=3,
                            density=rng.uniform(0.3, 0.8))
    if not g.edges:
        g = WeightedGraph(g.n, g.weights, ((0, 1),), g.r)
    edge = rng.choice(g.edges)
    deleted = WeightedGraph(g.n, g.weights, tuple(e for e in g.edges if e != edge), g.r)
    assert specialize_csf(cmf(_lift(g)), "weight") == cmf(g)
    assert cmf(g) == cmf(deleted) - specialize_csf(cmf(_contract(_lift(g), edge)), "weight")


def _with_a_triangle(g: WeightedGraph) -> WeightedGraph:
    edges = sorted(set(g.edges) | {(0, 1), (0, 2), (1, 2)})
    return WeightedGraph(g.n, g.weights, tuple(edges), g.r)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2))
def test_egdp_and_cmf_multiply_over_disjoint_unions_of_cyclic_graphs(seed, r):
    rng = random.Random(seed)
    a, b = (_with_a_triangle(random_simple_graph(rng, rng.randint(3, 6), r=r, max_weight=3,
                                                 density=rng.uniform(0.2, 0.6)))
            for _ in range(2))
    union = disjoint_union(a, b)
    assert egdp(union) == egdp(a) * egdp(b)
    assert cmf(union) == cmf(a) * cmf(b)


# ---------------------------------------------------------------------------
# CSF specializations


def test_specialize_edge_weight_only():
    element = cmf(path_graph([1, 2]))
    expected = (MacMahonElement.power_sum(VectorPartition.of([(2,), (1,)]))
                - MacMahonElement.power_sum(VectorPartition.of([(3,)])))
    assert specialize_csf(element, "weight") == expected


def test_specialize_edge_cardinality_only():
    element = cmf(path_graph([1, 2]))
    expected = (MacMahonElement.power_sum(VectorPartition.of([(1,), (1,)]))
                - MacMahonElement.power_sum(VectorPartition.of([(2,)])))
    assert specialize_csf(element, "cardinality") == expected


def test_specialize_merges_collisions():
    element = p_((1, 2)) + p_((1, 1))
    merged = specialize_csf(element, "cardinality")
    assert merged == 2 * MacMahonElement.power_sum(VectorPartition.of([(1,)]))


def test_specialize_drops_zero_parts():
    element = MacMahonElement.power_sum(vp((0, 1)))
    projected = specialize_csf(element, "cardinality")
    assert projected == MacMahonElement.one(1)


def test_specialize_rejects_bad_mode():
    with pytest.raises(ValueError):
        specialize_csf(p_((1, 1)), "color")
    with pytest.raises(NotApplicableError, match="^element has no weight coordinates$"):
        specialize_csf(MacMahonElement.power_sum(vp((2,))), "weight")


@st.composite
def csf_inputs(draw):
    """An element of width 2 or 3 and a slot to keep.  Parts may have size
    0 or weight 0, and a term may get a twin that differs only in the
    dropped slots, with the opposite coefficient, so that the projections
    collide and cancel."""
    width = draw(st.sampled_from([2, 3]))
    keep = draw(st.sampled_from(["cardinality", "weight"]))
    part = st.tuples(*[st.integers(0, 2)] * width).filter(any)
    terms: dict[VectorPartition, int] = {}
    for parts, coeff in draw(st.lists(st.tuples(st.lists(part, max_size=4), st.integers(-3, 3)),
                                      max_size=6)):
        twins = [(parts, coeff)]
        if draw(st.booleans()):
            moved = [((p[0], *(c + 1 for c in p[1:])) if keep == "cardinality"
                      else (p[0] + 1, *p[1:])) for p in parts]
            twins.append((moved, -coeff))
        for twin, c in twins:
            key = VectorPartition.of(twin, width=width)
            terms[key] = terms.get(key, 0) + c
    return MacMahonElement(width, terms), keep


@settings(max_examples=150, deadline=None)
@given(csf_inputs())
def test_specialize_csf_matches_the_two_pass_oracle(case):
    element, keep = case
    assert specialize_csf(element, keep) == specialize_csf_two_pass(element, keep)


def test_wcsf_counterexample(t1, t2):
    assert specialize_csf(cmf(t1), "weight") == specialize_csf(cmf(t2), "weight")
    assert specialize_csf(cmf(t1), "cardinality") == specialize_csf(cmf(t2), "cardinality")
    assert cmf(t1) != cmf(t2)


# ---------------------------------------------------------------------------
# EGDP


def test_egdp_edge_golden():
    names = egdp_variables(1)
    expected = LaurentPolynomial(names, {
        (0, 0, 0, 0): 1,   # empty set
        (1, 1, 1, 0): 1,   # the weight-1 endpoint
        (1, 1, 2, 0): 1,   # the weight-2 endpoint
        (0, 2, 3, 1): 1,   # both endpoints
    })
    assert egdp(path_graph([1, 2])) == expected


def test_egdp_counts_subsets(t1):
    poly = egdp(t1)
    assert sum(poly.terms.values()) == 2 ** t1.n
    assert poly.coefficient({"w": 3, "x": 2, "y": 4}) == 1


def test_egdp_complement_symmetry():
    rng = random.Random(53)
    for _ in range(20):
        g = random_simple_graph(rng, rng.randint(0, 6))
        n, w, e = g.n, g.total_weight[0], g.edge_count
        poly = egdp(g)
        for (a, b, c, d), coeff in poly.terms.items():
            mirrored = (a, n - b, w - c, e - a - d)
            assert poly.terms.get(mirrored) == coeff


def test_egdp_weight_specialization_identity():
    rng = random.Random(59)
    for _ in range(20):
        g = random_simple_graph(rng, rng.randint(0, 6))
        names = egdp_variables(1)
        y = LaurentPolynomial.variable(names, "y")
        product = LaurentPolynomial.constant(names, 1)
        for weight in g.weights:
            product = product * (LaurentPolynomial.constant(names, 1) + y ** weight[0])
        assert substitute_one(egdp(g), ["w", "x", "z"]) == product


def test_egdp_respects_vertex_cap(t1):
    with pytest.raises(CapExceededError):
        egdp(t1, max_vertices=3)


def test_egdp_multiweight_variables():
    g = WeightedGraph(2, ((1, 2), (2, 1)), ((0, 1),), r=2)
    poly = egdp(g)
    assert poly.variables == ("w", "x", "y1", "y2", "z")
    assert poly.coefficient({}) == 1
    assert poly.coefficient({"x": 2, "y1": 3, "y2": 3, "z": 1}) == 1


# ---------------------------------------------------------------------------
# Degree-polynomial specializations


def test_wgdp_edge_golden():
    poly = specialize_egdp(egdp(path_graph([1, 2])), "wgdp")
    names = ("x", "y", "z")
    x = LaurentPolynomial.variable(names, "x")
    y = LaurentPolynomial.variable(names, "y")
    z = LaurentPolynomial.variable(names, "z")
    one = LaurentPolynomial.constant(names, 1)
    assert poly == one + x * y + (x ** 2) * y + (x ** 3) * z


def test_gdp_edge_golden():
    poly = specialize_egdp(egdp(path_graph([1, 2])), "gdp")
    names = ("x", "y", "z")
    x = LaurentPolynomial.variable(names, "x")
    y = LaurentPolynomial.variable(names, "y")
    z = LaurentPolynomial.variable(names, "z")
    one = LaurentPolynomial.constant(names, 1)
    assert poly == one + 2 * x * y + (x ** 2) * z


def test_wgdp_counterexample(t1, t2):
    wgdp1 = specialize_egdp(egdp(t1), "wgdp")
    wgdp2 = specialize_egdp(egdp(t2), "wgdp")
    assert wgdp1.coefficient({"x": 4, "y": 3}) == 1
    assert wgdp2.coefficient({"x": 4, "y": 3}) == 2
    assert specialize_egdp(egdp(t1), "gdp") == specialize_egdp(egdp(t2), "gdp")


def test_wgdp_requires_scalar_weights():
    g = WeightedGraph(2, ((1, 2), (2, 1)), ((0, 1),), r=2)
    with pytest.raises(NotApplicableError):
        specialize_egdp(egdp(g), "wgdp")
    specialize_egdp(egdp(g), "gdp")  # the unweighted projection is fine


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2))
def test_specialize_egdp_matches_the_two_pass_oracle(seed, r):
    rng = random.Random(seed)
    poly = egdp(random_simple_graph(rng, rng.randint(0, 7), r=r, max_weight=3,
                                    density=rng.uniform(0, 0.8)))
    assert specialize_egdp(poly, "gdp") == specialize_egdp_two_pass(poly, "gdp")
    if r == 1:
        assert specialize_egdp(poly, "wgdp") == specialize_egdp_two_pass(poly, "wgdp")
    else:
        with pytest.raises(NotApplicableError, match="requires scalar weights"):
            specialize_egdp(poly, "wgdp")


def test_specialize_egdp_rejects_other_rings():
    poly = LaurentPolynomial.constant(("a", "b"), 1)
    with pytest.raises(NotApplicableError):
        specialize_egdp(poly, "gdp")
    with pytest.raises(ValueError):
        specialize_egdp(egdp(path_graph([1])), "egdp")


# ---------------------------------------------------------------------------
# Coloring enumeration oracle


def test_truncated_cmf_of_edge_with_one_color_vanishes():
    element = cmf(path_graph([1, 2]))
    assert element.truncate(1).is_zero()
    assert cmf_by_enumeration(path_graph([1, 2]), 1).is_zero()


def test_oracle_agrees_on_small_graphs():
    graphs = [
        single_vertex(2),
        path_graph([1, 2, 1]),
        cycle_graph([2, 1, 3]),
        star_graph(2, [1, 1, 1]),
        WeightedGraph(3, ((1, 2), (2, 1), (1, 1)), ((0, 1), (1, 2)), r=2),
    ]
    for g in graphs:
        for colors in range(4):
            assert cmf(g).truncate(colors) == cmf_by_enumeration(g, colors)


def test_oracle_respects_coloring_cap():
    g = path_graph([1] * 10)
    with pytest.raises(CapExceededError):
        cmf_by_enumeration(g, 3, max_colorings=100)


@st.composite
def coloring_graphs(draw):
    """A simple graph with n <= 7 and r in {1, 2}, from empty to complete."""
    n = draw(st.integers(0, 7))
    r = draw(st.integers(1, 2))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    taken = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    weights = tuple(tuple(draw(st.integers(1, 3)) for _ in range(r)) for _ in range(n))
    return WeightedGraph(n, weights, tuple(e for e, t in zip(pairs, taken) if t), r)


@settings(max_examples=80, deadline=None)
@given(coloring_graphs(), st.integers(0, 4))
@example(WeightedGraph(0, (), (), 1), 3)
@example(WeightedGraph(0, (), (), 2), 0)
@example(WeightedGraph(5, ((1,), (2,), (3,), (1,), (2,)), ((0, 1), (2, 3)), 1), 3)  # and vertex 4
@example(WeightedGraph(7, tuple((v % 3 + 1, 1) for v in range(7)),
                       ((0, 1), (0, 2), (1, 2), (4, 5), (5, 6)), 2), 4)
def test_backtracking_enumeration_matches_the_product_oracle(g, colors):
    assert cmf_by_enumeration(g, colors) == colorings_by_product(g, colors)


def test_enumeration_colors_a_long_edgeless_graph_without_recursion():
    g = WeightedGraph(3000, ((2,),) * 3000, (), 1)
    start = time.perf_counter()
    poly = cmf_by_enumeration(g, 1)
    assert time.perf_counter() - start < 1
    assert poly.terms == {(3000, 6000): 1}


def test_enumeration_refuses_colors_past_the_exponent_budget():
    # k colors are refused when k terms of 2k exponents would pass 2^23,
    # so from k = 2049 on: one vertex's 4000 terms would on their own, and
    # 10^9 colors on the empty graph pass the coloring cap (one coloring)
    # but are refused before 2 * 10^9 variable names are built
    empty = WeightedGraph(0, (), (), 1)
    for g, colors in ((single_vertex(1), 4000), (empty, 2049), (empty, 10 ** 9)):
        with pytest.raises(CapExceededError,
                           match=f"^the {colors}-color coloring enumeration exceeds its "
                                 "budget of 8388608 live exponents$"):
            cmf_by_enumeration(g, colors)
    assert cmf_by_enumeration(empty, 2048).terms == {(0,) * 4096: 1}


def test_enumeration_raises_once_its_terms_pass_the_exponent_budget(monkeypatch):
    # 60 live exponents are 10 terms of 3 colors times 2 slots: the triangle
    # has 6 and three isolated vertices with weights 1, 2, 4 have 27
    monkeypatch.setattr(chromatic, "TRUNCATE_LIVE_EXPONENTS", 60)
    triangle = cycle_graph([1, 2, 4])
    assert cmf_by_enumeration(triangle, 3) == colorings_by_product(triangle, 3)
    with pytest.raises(CapExceededError, match="^the 3-color coloring enumeration exceeds its "
                                               "budget of 60 live exponents$"):
        cmf_by_enumeration(WeightedGraph(3, ((1,), (2,), (4,)), (), 1), 3)
