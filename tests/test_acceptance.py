"""Acceptance gate: the quantitative claims the library is built around.

One test per criterion.  Each prints a single PASS/FAIL line (bypassing
pytest capture so the lines always land in the console) and enforces its
runtime bound where one is stated.  All arithmetic is exact; every
comparison is equality of integer-coefficient objects.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

import conftest

from chromac import (LaurentPolynomial, MacMahonElement, WeightedGraph,
                     all_labeled_trees, beta_table, cmf, cmf_by_enumeration,
                     coproduct, counterexample_pair, cycle_graph, egdp,
                     is_triangular_with_unit_diagonal, partitions_of,
                     random_forest, recover_egdp_explicit, recover_egdp_hopf,
                     recover_stats, specialize_csf, specialize_egdp,
                     star_family, symbolic_counting_image,
                     transition_matrix, truncation_variables)
from chromac.graphs import RANDOM_FOREST_MAX_WEIGHTS, tree_from_pruefer

from conftest import (FINGERPRINT_PRIME, antipode_convolution, beta_by_edge_subsets,
                      choose, coproduct_respects_product, counit,
                      double_coproduct_left, double_coproduct_right, egdp_at,
                      gamma_at, gamma_by_contraction_at, gamma_by_terms_at,
                      induced_subgraph, random_element, random_point,
                      swap, tensor_product, tensor_sum, weight_patterns)


def _line(number: int, label: str, verdict: str, elapsed: float) -> None:
    result = {"number": number, "label": label, "verdict": verdict,
              "seconds": round(elapsed, 3)}
    print(conftest.acceptance_line(result))
    conftest.acceptance_results.append(result)


@contextmanager
def report(number: int, label: str, bound: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _line(number, label, "FAIL", time.perf_counter() - start)
        raise
    elapsed = time.perf_counter() - start
    within = bound is None or elapsed < bound
    _line(number, label, "PASS" if within else "FAIL", elapsed)
    assert within, f"criterion {number} took {elapsed:.2f}s, bound {bound}s"


def _tree_suite(n_max: int, weight_max: int, exhaustive_n_max: int):
    """Labeled trees with scalar weights: every weight assignment up to
    exhaustive_n_max vertices, deterministic covering patterns beyond."""
    for n in range(1, n_max + 1):
        if n <= exhaustive_n_max:
            assignments = [tuple(a) for a in
                           itertools.product(range(1, weight_max + 1), repeat=n)]
        else:
            assignments = weight_patterns(n, weight_max)
        for edges in all_labeled_trees(n):
            for weights in assignments:
                yield WeightedGraph(n, weights, edges)


# ---------------------------------------------------------------------------


def test_acceptance_1_weight_swapped_pair():
    with report(1, "weight-swapped pair separation", bound=1.0):
        t1, t2 = counterexample_pair()
        c1, c2 = cmf(t1), cmf(t2)
        assert specialize_csf(c1, "weight") == specialize_csf(c2, "weight")
        wgdp1 = specialize_egdp(egdp(t1), "wgdp")
        wgdp2 = specialize_egdp(egdp(t2), "wgdp")
        assert wgdp1.coefficient({"x": 4, "y": 3}) == 1
        assert wgdp2.coefficient({"x": 4, "y": 3}) == 2
        names = truncation_variables(2, 2)  # x1 y1 x2 y2
        assert c1.truncate(2) == LaurentPolynomial(
            names, {(3, 5, 2, 4): 1, (2, 4, 3, 5): 1})
        assert c2.truncate(2) == LaurentPolynomial(
            names, {(3, 4, 2, 5): 1, (2, 5, 3, 4): 1})


def test_acceptance_2_coloring_oracle_equivalence(corpus):
    with report(2, "truncation equals the coloring oracle", bound=60.0):
        assert len(corpus) >= 200
        assert all(g.n <= 6 for g in corpus)
        for g in corpus:
            element = cmf(g)
            for k in (1, 2, 3):
                assert element.truncate(k) == cmf_by_enumeration(g, k), (g, k)


def test_acceptance_3_forest_expansion_identities():
    with report(3, "forest expansion identities", bound=60.0):
        checked = 0
        for g in _tree_suite(6, 3, exhaustive_n_max=4):
            element = cmf(g)
            table = beta_table(g)
            assert table == beta_by_edge_subsets(g), g
            n, e = g.n, g.edge_count
            assert set(element.terms) == set(table)
            by_length: Counter = Counter()
            for partition, beta in table.items():
                assert beta >= 0
                sign = -1 if (n - partition.length) & 1 else 1
                assert element.terms[partition] == sign * beta
                by_length[partition.length] += beta
            for ell in range(1, n + 1):
                assert by_length.get(ell, 0) == choose(e, n - ell), (g, ell)
            checked += 1
        assert checked >= 5000


def test_acceptance_4_hopf_axioms():
    with report(4, "Hopf axioms", bound=60.0):
        elements = [MacMahonElement.one(2)]
        for a in range(5):
            for b in range(7):
                if (a, b) == (0, 0):
                    continue
                for partition in partitions_of((a, b), positive_parts=False):
                    elements.append(MacMahonElement.power_sum(partition))
        rng = random.Random(48611)
        elements.extend(random_element(rng) for _ in range(100))
        for element in elements:
            assert double_coproduct_left(element) == double_coproduct_right(element)
            assert swap(coproduct(element)) == coproduct(element)
            expected = counit(element) * MacMahonElement.one(2)
            assert antipode_convolution(element) == expected
        small = [MacMahonElement.power_sum(p)
                 for a in range(3) for b in range(4) if (a, b) != (0, 0)
                 for p in partitions_of((a, b), positive_parts=False)]
        for x in small:
            for y in small:
                assert coproduct_respects_product(x, y)
        for _ in range(100):
            assert coproduct_respects_product(random_element(rng),
                                              random_element(rng))


def test_acceptance_5_cmf_coproduct_identity(corpus):
    with report(5, "CMF coproduct identity"):
        for g in corpus:
            lhs = coproduct(cmf(g))
            products = []
            for mask in range(1 << g.n):
                inside = [v for v in range(g.n) if mask >> v & 1]
                outside = [v for v in range(g.n) if not mask >> v & 1]
                products.append(tensor_product(cmf(induced_subgraph(g, inside)),
                                               cmf(induced_subgraph(g, outside))))
            assert lhs == tensor_sum(g.r + 1, products), g


def _assert_both_routes(g: WeightedGraph) -> None:
    expected = egdp(g)
    assert recover_egdp_hopf(cmf(g)) == expected, g
    table = beta_table(g)
    assert recover_egdp_explicit(
        table, g.n, g.total_weight[0], g.edge_count) == expected, g


def test_acceptance_6_both_recovery_routes():
    with report(6, "EGDP recovery by both routes", bound=300.0):
        checked = 0
        for g in _tree_suite(6, 3, exhaustive_n_max=4):
            _assert_both_routes(g)
            checked += 1
        rng = random.Random(69)
        for _ in range(200):
            g = random_forest(rng.randint(1, 8), max_weight=4,
                              seed=rng.randrange(2 ** 32))
            _assert_both_routes(g)
            checked += 1
        assert checked >= 5200


def _pair_patterns(n: int) -> list[tuple[tuple[int, int], ...]]:
    pool = [(1, 1), (1, 2), (2, 1), (2, 2)]
    patterns = {
        tuple((1, 1) for _ in range(n)),
        tuple((2, 2) for _ in range(n)),
        tuple(pool[i % 4] for i in range(n)),
        tuple(pool[-1 - (i % 4)] for i in range(n)),
    }
    return sorted(patterns)


def test_acceptance_7_multiweight_recovery():
    with report(7, "two-coordinate weight recovery"):
        pool = [(1, 1), (1, 2), (2, 1), (2, 2)]
        for n in range(1, 6):
            if n <= 3:
                assignments = [tuple(a) for a in itertools.product(pool, repeat=n)]
            else:
                assignments = _pair_patterns(n)
            for edges in all_labeled_trees(n):
                for weights in assignments:
                    g = WeightedGraph(n, weights, edges, r=2)
                    assert recover_egdp_hopf(cmf(g)) == egdp(g), g


def test_acceptance_8_star_basis_matrices():
    with report(8, "star family transition matrices", bound=60.0):
        for n in range(1, 5):
            for w in range(1, 7):
                matrix = transition_matrix(star_family, (n, w))
                assert is_triangular_with_unit_diagonal(matrix), (n, w)


def test_acceptance_9_counting_functional(corpus):
    with report(9, "counting map on forests"):
        def check(g: WeightedGraph) -> None:
            names = ("t", "u") + tuple(
                f"v{i}" for i in range(1, g.r + 1)) if g.r > 1 else ("t", "u", "v")
            exponents = (g.n, g.edge_count) + g.total_weight
            expected = LaurentPolynomial.monomial(names, exponents)
            assert symbolic_counting_image(cmf(g)) == expected, g

        for g in corpus:
            if g.is_forest():
                check(g)
        for g in _tree_suite(6, 3, exhaustive_n_max=4):
            check(g)
        rng = random.Random(69)
        for _ in range(200):
            check(random_forest(rng.randint(1, 8), max_weight=4,
                                seed=rng.randrange(2 ** 32)))
        for n in range(1, 6):
            for edges in all_labeled_trees(n):
                for weights in _pair_patterns(n):
                    check(WeightedGraph(n, weights, edges, r=2))
        with pytest.raises(ValueError, match="monomial"):
            recover_stats(cmf(cycle_graph([1, 1, 1, 1])))


def test_acceptance_10_recovery_at_scale():
    with report(10, "EGDP recovery of forests with n = 14-20", bound=20.0):
        rng = random.Random(2026)
        for n in range(14, 21):
            g = random_forest(n, max_weight=3, seed=rng.randrange(2 ** 32))
            expected = egdp(g)
            assert recover_egdp_hopf(cmf(g)) == expected, g
            if n <= 16:
                table = beta_table(g)
                assert recover_egdp_explicit(
                    table, g.n, g.total_weight[0], g.edge_count) == expected, g


def test_acceptance_11_recovery_identity_fingerprint():
    with report(11, "recovery identity at a random point, n = 50-10,000", bound=30.0):
        rng = random.Random(2111)
        for i in range(100):
            n = round(50 * 200 ** (i / 99))  # geometric from 50 to 10,000
            r = 2 if i % 2 and 2 * n <= RANDOM_FOREST_MAX_WEIGHTS else 1
            g = random_forest(n, max_weight=3, r=r, seed=rng.randrange(2 ** 32))
            point = random_point(rng, r)
            w_power = pow(point[0], g.n - g.edge_count, FINGERPRINT_PRIME)
            assert gamma_at(g, point) == w_power * egdp_at(g, point) % FINGERPRINT_PRIME, (n, r)


def test_acceptance_12_cyclic_cmf_fingerprint():
    # the whole CMF of graphs with a cycle, past cmf_by_enumeration's cap
    # (n >= 15 at 3 colors); more extra edges soon reach CMF_STATE_DIGITS
    with report(12, "cyclic CMF at a random point, n = 10-16", bound=30.0):
        rng = random.Random(2112)
        for _ in range(24):
            n, r = rng.randint(10, 16), rng.randint(1, 2)
            tree = set(tree_from_pruefer([rng.randrange(n) for _ in range(n - 2)], n))
            chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
            edges = tree | set(rng.sample(chords, rng.randint(1, 5)))
            weights = [tuple(rng.randint(1, 3) for _ in range(r)) for _ in range(n)]
            g = WeightedGraph(n, weights, edges, r)
            point = random_point(rng, r)
            assert gamma_by_terms_at(cmf(g), point) == gamma_by_contraction_at(g, point), g
