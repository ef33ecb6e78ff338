"""Coproduct, antipode, convolution, the counting map and the
convolution route from a forest CMF to its EGDP."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromac import (CapExceededError, LaurentPolynomial, LinearFunctional,
                     MacMahonElement, VectorPartition, WeightedGraph, antipode,
                     beta_table, cmf, convolve, coproduct, cycle_graph, egdp,
                     egdp_convolution, hopf, partitions_of, path_graph,
                     random_forest, recover_egdp_explicit, recover_egdp_hopf,
                     recover_stats, single_vertex, symbolic_counting_image)

from conftest import (antipode_convolution, cmf_by_edge_subsets, coproduct_by_positions,
                      coproduct_respects_product, counit, counting_functional,
                      counting_image_by_functional, double_coproduct_left,
                      double_coproduct_right, egdp_convolution_by_coproduct,
                      induced_subgraph, random_element, random_simple_graph,
                      recover_egdp_explicit_per_type, swap, tensor_product, tensor_sum,
                      truncate_by_products)


def vp(*parts):
    return VectorPartition.of(parts, width=len(parts[0]) if parts else 2)


def p_(*parts):
    return MacMahonElement.power_sum(vp(*parts))


EMPTY = VectorPartition.of([], width=2)


# ---------------------------------------------------------------------------
# Coproduct and antipode


def test_coproduct_of_unit():
    assert coproduct(MacMahonElement.one(2)).terms == {(EMPTY, EMPTY): 1}


def test_coproduct_of_two_distinct_parts():
    result = coproduct(p_((1, 1), (1, 2)))
    both = vp((1, 2), (1, 1))
    assert result.terms == {
        (both, EMPTY): 1,
        (vp((1, 1)), vp((1, 2))): 1,
        (vp((1, 2)), vp((1, 1))): 1,
        (EMPTY, both): 1,
    }


def test_coproduct_counts_repeated_parts():
    result = coproduct(p_((1, 1), (1, 1)))
    pair = vp((1, 1), (1, 1))
    assert result.terms == {
        (pair, EMPTY): 1,
        (vp((1, 1)), vp((1, 1))): 2,
        (EMPTY, pair): 1,
    }


def test_the_coproduct_budget_admits_exactly_its_count(monkeypatch):
    # 3 * 2 splits of the first symbol and 2 of the second
    element = p_((1, 1), (1, 1), (1, 2)) + p_((2, 3))
    monkeypatch.setattr(hopf, "COPRODUCT_SPLITS", 8)
    assert coproduct(element) == coproduct_by_positions(element)
    monkeypatch.setattr(hopf, "COPRODUCT_SPLITS", 7)
    with pytest.raises(CapExceededError,
                       match="^the coproduct exceeds its budget of 7 multiplicity splits$"):
        coproduct(element)


def test_coproduct_is_linear():
    rng = random.Random(61)
    for _ in range(10):
        a, b = random_element(rng), random_element(rng)
        assert coproduct(a + b) == tensor_sum(2, [coproduct(a), coproduct(b)])


def test_coproduct_matches_the_position_subsets():
    # every basis element that acceptance 4 checks the Hopf axioms on
    elements = [MacMahonElement.one(2)]
    for a in range(5):
        for b in range(7):
            if (a, b) != (0, 0):
                elements.extend(MacMahonElement.power_sum(p)
                                for p in partitions_of((a, b), positive_parts=False))
    rng = random.Random(83)
    elements.extend(random_element(rng, width=width, max_terms=4, max_coord=1)
                    for width in (1, 2, 3) for _ in range(50))
    for element in elements:
        assert coproduct(element) == coproduct_by_positions(element), element


def test_antipode_signs():
    assert antipode(p_((1, 3))) == (-1) * p_((1, 3))
    assert antipode(p_((1, 1), (2, 3))) == p_((1, 1), (2, 3))
    assert antipode(MacMahonElement.one(2)) == MacMahonElement.one(2)


def test_antipode_is_an_involution_and_multiplicative():
    rng = random.Random(67)
    for _ in range(10):
        a, b = random_element(rng), random_element(rng)
        assert antipode(antipode(a)) == a
        assert antipode(a * b) == antipode(a) * antipode(b)


# ---------------------------------------------------------------------------
# Hopf axioms on small inputs (the full sweep runs in the acceptance suite)


def test_coassociativity_small():
    rng = random.Random(71)
    for _ in range(10):
        element = random_element(rng)
        assert double_coproduct_left(element) == double_coproduct_right(element)


def test_cocommutativity_small():
    rng = random.Random(73)
    for _ in range(10):
        element = random_element(rng)
        assert swap(coproduct(element)) == coproduct(element)


def test_compatibility_small():
    rng = random.Random(79)
    for _ in range(10):
        assert coproduct_respects_product(random_element(rng), random_element(rng))


def test_antipode_law_small():
    rng = random.Random(83)
    for _ in range(10):
        element = random_element(rng)
        expected = counit(element) * MacMahonElement.one(2)
        assert antipode_convolution(element) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 7), st.integers(1, 2), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_cmf_antipode(n, r, forest, seed):
    # Stanley's broken-circuit sign, the premise of both CMF dynamic
    # programs' unsigned counts: (-1)^n S(cmf(G)) has positive coefficients
    rng = random.Random(seed)
    if forest:
        g = random_forest(n, max_weight=3, r=r, seed=seed)
    else:  # at most 12 edges keep the 2^e oracle small
        g = random_simple_graph(rng, n, r=r, max_weight=3, density=rng.uniform(0.3, 0.8))
        g = WeightedGraph(n, g.weights, g.edges[:12], r)
    element = cmf(g)
    signed = antipode(cmf_by_edge_subsets(g)) * (-1) ** n
    assert all(coeff > 0 for coeff in signed.terms.values())
    assert signed == antipode(element) * (-1) ** n
    if g.is_forest():
        assert signed == MacMahonElement(r + 1, beta_table(g))
    assert antipode_convolution(element) == counit(element) * MacMahonElement.one(r + 1)


# ---------------------------------------------------------------------------
# Functionals and convolution


def _truncation_functional(colors: int, sign: bool = False) -> LinearFunctional:
    names = (f"x{j}" for j in range(1, colors + 1))
    from chromac import truncation_variables
    variables = truncation_variables(2, colors)

    def rule(partition: VectorPartition) -> LaurentPolynomial:
        element = MacMahonElement.power_sum(partition)
        if sign:
            element = antipode(element)
        return element.truncate(colors)

    return LinearFunctional(variables, rule)


def test_functional_is_linear():
    f = _truncation_functional(2)
    rng = random.Random(89)
    for _ in range(10):
        a, b = random_element(rng), random_element(rng)
        assert f(a + b) == f(a) + f(b)
        assert f(3 * a) == 3 * f(a)


def test_functional_rejects_wrong_ring():
    bad = LinearFunctional(("x",), lambda p: LaurentPolynomial.constant(("y",), 1))
    with pytest.raises(ValueError):
        bad.on_basis(EMPTY)


def test_convolution_with_counit_is_identity():
    from chromac import truncation_variables
    variables = truncation_variables(2, 2)
    f = _truncation_functional(2)

    def counit_rule(partition: VectorPartition) -> LaurentPolynomial:
        value = 1 if partition.length == 0 else 0
        return LaurentPolynomial.constant(variables, value)

    eps = LinearFunctional(variables, counit_rule)
    rng = random.Random(97)
    for _ in range(10):
        element = random_element(rng)
        assert convolve(eps, f, element) == f(element)
        assert convolve(f, eps, element) == f(element)


def test_antipode_law_through_truncation():
    # truncation is a ring map, so convolving the antipode-composed
    # truncation against plain truncation must give the counit
    f = _truncation_functional(2, sign=True)
    g = _truncation_functional(2)
    for partition in [vp((1, 1)), vp((2, 3)), vp((1, 1), (1, 2)), vp((1, 1), (1, 1))]:
        result = convolve(f, g, MacMahonElement.power_sum(partition))
        assert result.is_zero()


def test_convolve_rejects_mismatched_rings():
    f = _truncation_functional(2)
    g = _truncation_functional(3)
    with pytest.raises(ValueError):
        convolve(f, g, p_((1, 1)))


# ---------------------------------------------------------------------------
# Counting map


def test_counting_functional_golden():
    names = ("t", "u", "v")
    t = LaurentPolynomial.variable(names, "t")
    u = LaurentPolynomial.variable(names, "u")
    v = LaurentPolynomial.variable(names, "v")
    f = counting_functional(t, u, [v])
    value = f.on_basis(vp((2, 3)))
    assert value == (t ** 2) * (LaurentPolynomial.constant(names, 1) - u) * (v ** 3)
    assert value.to_text() == "+1 t^2 v^3 -1 t^2 u v^3"
    assert f.on_basis(EMPTY) == LaurentPolynomial.constant(names, 1)


def test_counting_functional_needs_a_polynomial():
    with pytest.raises(ValueError):
        counting_functional(1, 0, [1])


def test_counting_image_of_forest_is_a_monomial():
    rng = random.Random(101)
    for trial in range(15):
        g = random_forest(rng.randint(0, 7), max_weight=3, seed=trial)
        image = symbolic_counting_image(cmf(g))
        expected = LaurentPolynomial.monomial(
            ("t", "u", "v"), (g.n, g.edge_count, g.total_weight[0]))
        assert image == expected


def test_recover_stats_golden(t1):
    stats = recover_stats(cmf(t1))
    assert (stats.n, stats.e, stats.weight, stats.c) == (5, 4, (9,), 1)


def test_recover_stats_small_cases():
    stats = recover_stats(cmf(single_vertex(3)))
    assert (stats.n, stats.e, stats.weight, stats.c) == (1, 0, (3,), 1)
    empty = recover_stats(cmf(WeightedGraph(0, (), (), 1)))
    assert (empty.n, empty.e, empty.weight, empty.c) == (0, 0, (0,), 0)


def test_recover_stats_multiweight():
    g = path_graph([(1, 2), (2, 1), (1, 1)])
    stats = recover_stats(cmf(g))
    assert (stats.n, stats.e, stats.weight, stats.c) == (3, 2, (4, 4), 1)


def test_recover_stats_rejects_cycles():
    with pytest.raises(ValueError, match="monomial"):
        recover_stats(cmf(cycle_graph([1, 1, 1, 1])))


def test_recover_stats_rejects_scaled_elements():
    with pytest.raises(ValueError, match="coefficient"):
        recover_stats(2 * cmf(single_vertex(1)))


# ---------------------------------------------------------------------------
# Convolution route to the EGDP


def test_egdp_convolution_single_vertex():
    assert egdp_convolution(cmf(single_vertex(3))).to_text() == "+1 w +1 w x y^3"


def test_egdp_convolution_edge():
    names = ("w", "x", "y", "z")
    w = LaurentPolynomial.variable(names, "w")
    assert egdp_convolution(cmf(path_graph([1, 2]))) == w * egdp(path_graph([1, 2]))


def test_egdp_convolution_counts_components():
    g = WeightedGraph(3, ((1,), (2,), (1,)), ((0, 1),))  # edge plus isolated vertex
    names = ("w", "x", "y", "z")
    w = LaurentPolynomial.variable(names, "w")
    assert egdp_convolution(cmf(g)) == (w ** 2) * egdp(g)


def test_recovery_routes_expand_per_bucket_not_per_code(monkeypatch):
    """On the 30-vertex path with weights 1,2 each route's kernel, the one
    in `hopf._convolution_buckets`, gives over 20,000 codes, and the
    expansion after it runs add_product once per (p, q) bucket and once
    per p, not once per code."""
    from chromac import algebra, hopf
    element = cmf(path_graph([1, 2] * 15))
    table = {partition: abs(coeff) for partition, coeff in element.terms.items()}
    calls = 0
    kernel_ends: list[tuple[int, int]] = []  # (codes, add_product calls so far)
    real_product = algebra.add_product
    real_kernel = hopf.character_sum

    def counted_product(*args):
        nonlocal calls
        calls += 1
        return real_product(*args)

    def counted_kernel(*args):
        codes = real_kernel(*args)
        kernel_ends.append((len(codes), calls))
        return codes

    monkeypatch.setattr(algebra, "add_product", counted_product)
    monkeypatch.setattr(hopf, "character_sum", counted_kernel)
    for name, route in (("hopf", lambda: egdp_convolution(element)),
                        ("explicit", lambda: recover_egdp_explicit(table, 30, 45, 29))):
        kernel_ends.clear()
        calls = 0
        route()
        (codes, calls_in_kernel), = kernel_ends
        assert codes > 20_000, name
        assert calls - calls_in_kernel < 1_000, name


def test_recovery_on_forests():
    rng = random.Random(103)
    for trial in range(20):
        g = random_forest(rng.randint(0, 7), max_weight=3, seed=1000 + trial)
        assert recover_egdp_hopf(cmf(g)) == egdp(g)


def test_recovery_multiweight():
    g = path_graph([(1, 2), (2, 1), (1, 1), (3, 2)])
    assert recover_egdp_hopf(cmf(g)) == egdp(g)
    forest = random_forest(6, max_weight=2, r=3, seed=7)
    assert recover_egdp_hopf(cmf(forest)) == egdp(forest)


def test_recovery_rejects_non_forests():
    with pytest.raises(ValueError):
        recover_egdp_hopf(cmf(cycle_graph([1, 2, 1])))


def test_recovery_rejects_a_w_exponent_below_the_component_count():
    # recover_stats reads c = 3 off this element, but its convolution has
    # a term with w^2
    element = (-2 * p_((2, 1), (1, 5)) + 2 * p_((2, 4), (1, 2))
               + p_((1, 2), (1, 2), (1, 2)))
    with pytest.raises(ValueError, match="^negative w-exponents remain after removing the "
                                         "component factor; the element is not the CMF of "
                                         "a forest$"):
        recover_egdp_hopf(element)


# ---------------------------------------------------------------------------
# Trie-kernel evaluations against their definitional routes


def _outcome(fn, element):
    """The value, or the type and message of the ValueError raised instead."""
    try:
        return fn(element)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _oracle_inputs() -> list[MacMahonElement]:
    rng = random.Random(107)
    elements = []
    for r in (1, 2, 3):
        for trial in range(12):
            g = random_forest(rng.randint(0, 7), max_weight=3, r=r, seed=2000 + 50 * r + trial)
            elements.append(cmf(g))
    for weights in ([1, 1, 1], [1, 2, 3], [2, 1, 2, 1], [1, 2, 1, 3, 2],
                    [(1, 2), (2, 1), (1, 1)]):
        elements.append(cmf(cycle_graph(weights)))
    for width in (1, 2, 3):
        for _ in range(40):
            elements.append(random_element(rng, width=width, max_terms=4))
    for g in (path_graph([1, 2, 1, 3]), random_forest(6, max_weight=2, r=2, seed=5)):
        elements.append(3 * cmf(g))
        elements.append(-2 * cmf(g))
    elements.append(MacMahonElement.zero(2))
    elements.append(MacMahonElement.one(2))
    elements.append(MacMahonElement.one(1))
    elements.append(MacMahonElement.power_sum(VectorPartition.of([(2,), (1,), (1,)])))
    return elements


def test_bucketed_evaluation_matches_coproduct_route():
    for element in _oracle_inputs():
        assert _outcome(egdp_convolution, element) == \
            _outcome(egdp_convolution_by_coproduct, element), element
        assert _outcome(symbolic_counting_image, element) == \
            _outcome(counting_image_by_functional, element), element


def test_explicit_route_matches_per_type_oracle_on_oracle_inputs():
    """Value-or-error parity of recover_egdp_explicit with the per-type
    oracle, on the signed element and on its absolute values as tables,
    with (n, w) from the first symbol and e = n - the least length (the
    forest's edge count when the element is a forest CMF)."""
    for element in _oracle_inputs():
        support = element.support()
        grade = support[0].grade if support else (0,)
        n, w = grade[0], sum(grade[1:])
        e = max(0, n - min((p.length for p in support), default=0))
        for table in (element.terms, {p: abs(c) for p, c in element.terms.items()}):
            for edges in {e, max(0, e - 1)}:
                assert _outcome(lambda t: recover_egdp_explicit(t, n, w, edges), table) == \
                    _outcome(lambda t: recover_egdp_explicit_per_type(t, n, w, edges), table), \
                    (element, n, w, edges)


def test_truncation_matches_product_oracle_on_oracle_inputs():
    for element in _oracle_inputs():
        for colors in range(4):
            assert _outcome(lambda el: el.truncate(colors), element) == \
                _outcome(lambda el: truncate_by_products(el, colors), element), (element, colors)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.integers(1, 3), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
def test_hopf_recovery_of_random_forests(n, max_weight, r, seed):
    g = random_forest(n, max_weight=max_weight, r=r, seed=seed)
    assert recover_egdp_hopf(cmf(g)) == egdp(g)


def test_negative_powers_raise_as_on_the_coproduct_route():
    lone = p_((0, 1))
    for fn in (egdp_convolution, symbolic_counting_image, recover_egdp_hopf):
        with pytest.raises(ValueError, match="negative powers"):
            fn(lone)
    # Every symbol has n >= l, so only the convolution meets a negative
    # power; the Hopf route stops first at the two-monomial image.
    mixed = p_((0, 1), (2, 1)) + p_((1, 1))
    with pytest.raises(ValueError, match="negative powers"):
        egdp_convolution(mixed)
    assert symbolic_counting_image(mixed).to_text() == "+1 t v +1 t^2 v^2"
    with pytest.raises(ValueError, match="single monomial"):
        recover_egdp_hopf(mixed)
    with pytest.raises(ValueError, match="negative powers"):
        recover_egdp_hopf(p_((0, 1), (2, 1)))
    # The offending statistics of the two symbols cancel bucket for
    # bucket; the coproduct route still meets each symbol and raises.
    with pytest.raises(ValueError, match="negative powers"):
        egdp_convolution(p_((2, 2), (2, 0), (0, 1)) - p_((2, 1), (2, 1), (0, 1)))
    with pytest.raises(ValueError, match="negative powers"):
        symbolic_counting_image(p_((0, 1), (0, 3)) - p_((0, 2), (0, 2)))
    with pytest.raises(ValueError, match="width >= 2"):
        symbolic_counting_image(MacMahonElement.power_sum(VectorPartition.of([(1,)])))


# ---------------------------------------------------------------------------
# CMF coproduct identity (spot check; the corpus sweep is in acceptance)


def test_cmf_coproduct_identity_small():
    for g in [path_graph([1, 2, 1]), cycle_graph([2, 1, 3]),
              WeightedGraph(3, ((1, 1), (2, 1), (1, 2)), ((0, 1), (1, 2)), r=2)]:
        lhs = coproduct(cmf(g))
        products = []
        for mask in range(1 << g.n):
            inside = [v for v in range(g.n) if mask >> v & 1]
            outside = [v for v in range(g.n) if not mask >> v & 1]
            products.append(tensor_product(cmf(induced_subgraph(g, inside)),
                                           cmf(induced_subgraph(g, outside))))
        assert lhs == tensor_sum(g.r + 1, products)
