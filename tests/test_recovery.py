"""The closed-form route from a forest's subset-type table to its EGDP."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import chromac.hopf
import chromac.recovery
from chromac import (NotApplicableError, VectorPartition, WeightedGraph, all_labeled_trees,
                     beta_table, cmf, egdp, path_graph, random_forest, recover_egdp_explicit,
                     recover_egdp_hopf, single_vertex, star_graph)
from chromac.algebra import _expand_one_minus_u

from conftest import (choose, partition_binomial, recover_egdp_explicit_per_type,
                      recovery_coefficient, signed_binomial_sum,
                      signed_binomial_sum_literal, weight_patterns)


def vp(*parts):
    return VectorPartition.of(parts, width=2)


# ---------------------------------------------------------------------------
# The binomial identity behind the cancellation


@given(st.integers(0, 40), st.integers(0, 45))
def test_signed_binomial_sum_matches_literal(set_size, q):
    assert signed_binomial_sum_literal(set_size, q) == signed_binomial_sum(set_size, q)


def test_signed_binomial_sum_values():
    assert signed_binomial_sum_literal(5, 5) == 1
    assert signed_binomial_sum_literal(5, 3) == 0
    assert signed_binomial_sum_literal(0, 0) == 1
    assert signed_binomial_sum_literal(0, 2) == 0


def test_signed_binomial_sum_rejects_negative_size():
    with pytest.raises(ValueError):
        signed_binomial_sum_literal(-1, 0)
    with pytest.raises(ValueError):
        signed_binomial_sum(-2, 0)


# ---------------------------------------------------------------------------
# Per-type coefficients, frozen from a hand computation on the weighted
# edge 1--2 (n=2, e=1, types (2,3) and {(1,1),(1,2)})


def test_recovery_coefficient_edge_values():
    whole = vp((2, 3))
    split = vp((1, 1), (1, 2))
    assert recovery_coefficient(whole, 0, 0, 0, 0, n=2, e=1) == -1
    assert recovery_coefficient(split, 0, 0, 0, 0, n=2, e=1) == 0
    assert recovery_coefficient(split, 1, 1, 1, 0, n=2, e=1) == 1
    assert recovery_coefficient(split, 1, 1, 2, 0, n=2, e=1) == 1
    assert recovery_coefficient(whole, 0, 2, 3, 1, n=2, e=1) == -1
    assert recovery_coefficient(whole, 1, 1, 1, 0, n=2, e=1) == 0


def test_recovery_coefficient_validation():
    with pytest.raises(ValueError):
        recovery_coefficient(vp((1, 1)), -1, 0, 0, 0, n=1, e=0)
    with pytest.raises(NotApplicableError):
        recovery_coefficient(VectorPartition.of([(1, 1, 1)], width=3),
                             0, 0, 0, 0, n=1, e=0)


def _signed_grid(table, n, w, e):
    """Pointwise assembly, term by term, for cross-checking the
    bucketed implementation."""
    grid = {}
    for a in range(e + 1):
        for b in range(n + 1):
            for c in range(w + 1):
                for d in range(e + 1):
                    total = 0
                    for partition, count in table.items():
                        type_sign = -1 if (n - partition.length) & 1 else 1
                        total += count * type_sign * recovery_coefficient(
                            partition, a, b, c, d, n=n, e=e)
                    if total:
                        grid[(a, b, c, d)] = total
    return grid


def test_bucketed_assembly_matches_pointwise():
    rng = random.Random(107)
    for trial in range(8):
        g = random_forest(rng.randint(1, 6), max_weight=3, seed=2000 + trial)
        table = beta_table(g)
        w = g.total_weight[0]
        recovered = recover_egdp_explicit(table, g.n, w, g.edge_count)
        assert dict(recovered.terms) == _signed_grid(table, g.n, w, g.edge_count)


def test_tree_specialization_of_the_coefficient():
    # on a tree e = n - 1, so the sign is (-1)^(n-1-a) and the outer
    # binomial picks n-1-a-d elements; spelled out independently here
    def tree_coefficient(partition, a, b, c, d, n):
        from chromac import partitions_of
        if b == 0 and c == 0:
            candidates = [VectorPartition(2, ())]
        else:
            candidates = partitions_of((b, c), positive_parts=True)
        total = 0
        for omega in candidates:
            multiplicity = partition_binomial(partition, omega)
            if multiplicity == 0:
                continue  # the term vanishes; skipping keeps binomials in range
            total += (multiplicity * choose(b - omega.length, d)
                      * choose(n - partition.length + omega.length - b,
                               n - 1 - a - d))
        return (-1 if (n - 1 - a) & 1 else 1) * total

    from chromac import WeightedGraph
    for edges in all_labeled_trees(4):
        for weights in weight_patterns(4, 3):
            g = WeightedGraph(4, weights, edges)
            w = g.total_weight[0]
            for partition in beta_table(g):
                for a in range(4):
                    for b in range(5):
                        for c in range(w + 1):
                            for d in range(4):
                                assert recovery_coefficient(
                                    partition, a, b, c, d, n=4, e=3
                                ) == tree_coefficient(partition, a, b, c, d, 4)


# ---------------------------------------------------------------------------
# End to end: the table determines the EGDP


def _explicit(g):
    return recover_egdp_explicit(beta_table(g), g.n, g.total_weight[0],
                                 g.edge_count)


def test_explicit_route_small_graphs(t1, t2):
    from chromac import WeightedGraph
    for g in [WeightedGraph(0, (), ()), single_vertex(3), path_graph([1, 2]),
              path_graph([2, 2, 1]), star_graph(2, [1, 1, 1]), t1, t2]:
        assert _explicit(g) == egdp(g)


def test_explicit_route_random_forests():
    rng = random.Random(109)
    for trial in range(25):
        g = random_forest(rng.randint(0, 8), max_weight=4, seed=3000 + trial)
        assert _explicit(g) == egdp(g)


def test_both_routes_expand_the_same_grid_on_forests(monkeypatch):
    """On a forest's CMF the two routes hand `_expand_one_minus_u` the same
    w unit and the same nonzero bucket entries (so the explicit route's
    negative-top filter drops nothing) and get the same nonzero grid back:
    the premise on which `verify` runs the Hopf route alone."""
    handed = []

    def spy(buckets, w_unit):
        grid = _expand_one_minus_u(buckets, w_unit)
        handed.append((w_unit,
                       {(p, q, code): c for p, by_q in buckets.items()
                        for q, codes in by_q.items() for code, c in codes.items() if c},
                       {code: c for code, c in grid.items() if c}))
        return grid

    monkeypatch.setattr(chromac.hopf, "_expand_one_minus_u", spy)
    monkeypatch.setattr(chromac.recovery, "_expand_one_minus_u", spy)
    forests = [WeightedGraph(n, tuple((x,) for x in weights), edges)
               for n in range(1, 6) for edges in all_labeled_trees(n)
               for weights in itertools.product((1, 2), repeat=n)]
    rng = random.Random(127)
    forests += [random_forest(rng.randint(1, 16), max_weight=rng.choice([1, 2, 4]),
                              seed=rng.randrange(2 ** 32)) for _ in range(100)]
    for g in forests:
        handed.clear()
        element = cmf(g)
        recover_egdp_hopf(element)
        recover_egdp_explicit({p: abs(c) for p, c in element.terms.items()},
                              g.n, g.total_weight[0], g.edge_count)
        assert len(handed) == 2 and handed[0] == handed[1], g


def test_explicit_route_grade_mismatch():
    with pytest.raises(ValueError, match="multidegree"):
        recover_egdp_explicit({vp((1, 1)): 1}, 2, 3, 1)


def test_explicit_route_rejects_wider_weights():
    with pytest.raises(NotApplicableError):
        recover_egdp_explicit({VectorPartition.of([(1, 1, 1)], width=3): 1},
                              1, 1, 0)


def test_explicit_route_flags_corrupted_tables():
    table = beta_table(path_graph([1, 2]))
    # undercounting edges starves the grid and breaks the subset count
    with pytest.raises(ValueError, match="sum to"):
        recover_egdp_explicit(table, 2, 3, 0)
    # overcounting them scales the EGDP by a power of w, which only the
    # type counts' sum catches
    with pytest.raises(ValueError, match="^type counts sum to 2, expected 2\\^2;"):
        recover_egdp_explicit(table, 2, 3, 2)
    inflated = dict(table)
    inflated[vp((1, 1), (1, 2))] = 2
    with pytest.raises(ValueError, match="sum to"):
        recover_egdp_explicit(inflated, 2, 3, 1)
    with pytest.raises(ValueError, match=r"ext,size,weight,internal"):
        recover_egdp_explicit({vp((2, 3)): -1}, 2, 3, 1)


def _outcome(route, *args):
    """The route's value, or the type and message of what it raised."""
    try:
        return route(*args)
    except ValueError as exc:  # NotApplicableError is a ValueError
        return type(exc), str(exc)


def test_bucketed_explicit_route_matches_per_type_oracle():
    rng = random.Random(113)
    cases = []
    for _ in range(40):
        g = random_forest(rng.randint(0, 9), max_weight=rng.choice([1, 3, 5]),
                          seed=rng.randrange(2 ** 32))
        table = beta_table(g)
        n, w, e = g.n, g.total_weight[0], g.edge_count
        bumped = dict(table)
        key = rng.choice(sorted(table, key=VectorPartition.sort_key))
        bumped[key] += rng.choice([-2, -1, 1, 3])
        cases += [(table, n, w, e), (bumped, n, w, e),
                  (table, n, w + 1, e), (table, n, w, e + 1), (table, n, w, max(e - 1, 0))]
    wide = VectorPartition.of([(1, 1, 1)], width=3)
    cases += [({vp((1, 1)): 1, wide: 1}, 1, 1, 0), ({wide: 1, vp((2, 1)): 1}, 1, 1, 0),
              ({vp((1, 2)): 1, vp((2, 3)): 1}, 1, 2, 0), ({}, 0, 0, 0), ({}, 2, 3, 1),
              ({vp((2, 3)): -1}, 2, 3, 1), ({vp((1, 1), (1, 2)): 1, vp((2, 3)): 1}, 2, 3, 1)]
    # a zero-size part gives sub-multisets with more parts than vertices,
    # and two types of one length with opposite counts cancel to weight 0
    cancel = {vp((2, 3), (1, 1)): 1, vp((2, 2), (1, 2)): -1}
    cases += [({vp((2, 1), (0, 2)): 1}, 2, 3, e) for e in (0, 1, 2)]
    cases += [(cancel, 3, 4, e) for e in (1, 2)]
    raised = 0
    for args in cases:
        expected = _outcome(recover_egdp_explicit_per_type, *args)
        assert _outcome(recover_egdp_explicit, *args) == expected, args
        raised += isinstance(expected, tuple)
    assert raised >= len(cases) // 2


@st.composite
def explicit_inputs(draw):
    """A random forest's table with up to three more width-2 types of its
    multidegree, each one of its types with a part split in two (so some
    have a part of size 0), at counts from -2 to 2, zero included; and e
    within one of n - c, for c the least type length."""
    g = random_forest(draw(st.integers(0, 6)), max_weight=draw(st.integers(1, 3)),
                      seed=draw(st.integers(0, 2 ** 32 - 1)))
    table = beta_table(g)
    types = sorted(table, key=VectorPartition.sort_key)
    for _ in range(draw(st.integers(0, 3))):
        parts = list(draw(st.sampled_from(types)).parts)
        if parts:
            size, weight = parts.pop(draw(st.integers(0, len(parts) - 1)))
            split = (draw(st.integers(0, size)), draw(st.integers(0, weight)))
            parts += [part for part in (split, (size - split[0], weight - split[1])) if any(part)]
        table[vp(*parts)] = draw(st.integers(-2, 2))
    c = min(p.length for p in table)
    e = g.n - c + draw(st.sampled_from([-1, 0, 1]))
    return table, g.n, g.total_weight[0], e


@given(explicit_inputs())
@example(({vp((2, 1), (0, 2)): 1, vp((1, 1), (1, 2)): -1, vp((2, 3)): 0}, 2, 3, 1))
def test_explicit_route_matches_per_type_oracle_on_drawn_tables(args):
    """Value-or-error parity with the per-type oracle, which skips each
    negative binomial top itself, for the explicit route's dropped (p, q)
    buckets and its radix, which depends on e."""
    assert _outcome(recover_egdp_explicit, *args) == \
        _outcome(recover_egdp_explicit_per_type, *args), args
