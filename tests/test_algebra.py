"""Vector partitions, power-sum arithmetic and Laurent polynomials."""

from __future__ import annotations

import itertools
import math
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from chromac import (CapExceededError, LaurentPolynomial, MacMahonElement, TensorElement,
                     VectorPartition, cmf, partitions_of, path_graph, truncation_variables)
from chromac.algebra import (_expand_one_minus_u, _one_minus_u_power, add_product,
                             character_sum, pack, unpack)

from conftest import (character_sum_per_node, choose, expand_one_minus_u_per_code,
                      partition_binomial, random_element, rename, substitute_one, swap,
                      tensor_product, tensor_sum, truncate_by_products)


def vp(*parts: tuple[int, ...]) -> VectorPartition:
    return VectorPartition.of(parts, width=len(parts[0]) if parts else 2)


# ---------------------------------------------------------------------------
# Canonical form


def test_canonical_order_is_descending_lex():
    p = VectorPartition.of([(1, 2), (2, 3), (1, 2)])
    assert p.parts == ((2, 3), (1, 2), (1, 2))


def test_partition_rejects_zero_part():
    with pytest.raises(ValueError):
        VectorPartition.of([(0, 0), (1, 1)])


def test_partition_rejects_negative_coordinate():
    with pytest.raises(ValueError):
        VectorPartition.of([(1, -1)])


def test_partition_rejects_mixed_widths():
    with pytest.raises(ValueError):
        VectorPartition(2, ((1, 2), (1, 2, 3)))


def test_empty_partition_needs_width():
    with pytest.raises(ValueError):
        VectorPartition.of([])
    assert VectorPartition.of([], width=3).parts == ()


def test_grade_and_length():
    p = vp((2, 3), (1, 2), (1, 2))
    assert p.grade == (4, 7)
    assert p.length == 3


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
                min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_canonical_form_is_order_independent(parts, rng):
    shuffled = list(parts)
    rng.shuffle(shuffled)
    assert VectorPartition.of(parts) == VectorPartition.of(shuffled)


# ---------------------------------------------------------------------------
# Enumeration


def _partitions_oracle(target, positive):
    """Independent enumeration: choose a multiplicity for each candidate
    part in a fixed order."""
    width = len(target)
    candidates = []
    for flat in range(math.prod(c + 1 for c in target)):
        vec = []
        rest = flat
        for c in target:
            vec.append(rest % (c + 1))
            rest //= c + 1
        vec = tuple(vec)
        if not any(vec):
            continue
        if positive and not all(c >= 1 for c in vec):
            continue
        candidates.append(vec)
    found = set()

    def rec(i, remaining, acc):
        if not any(remaining):
            found.add(tuple(sorted(acc, reverse=True)))
            return
        if i == len(candidates):
            return
        part = candidates[i]
        copies = 0
        current = remaining
        while True:
            rec(i + 1, current, acc)
            if all(p <= r for p, r in zip(part, current)):
                current = tuple(r - p for r, p in zip(current, part))
                copies += 1
                acc.extend([part])
            else:
                break
        del acc[len(acc) - copies:]

    rec(0, tuple(target), [])
    return {VectorPartition.of(parts, width=width) for parts in found}


def test_positive_partitions_of_2_2():
    assert set(partitions_of((2, 2))) == {vp((2, 2)), vp((1, 1), (1, 1))}


def test_all_nonzero_partitions_of_2_1():
    expected = {
        vp((2, 1)),
        vp((2, 0), (0, 1)),
        vp((1, 1), (1, 0)),
        vp((1, 0), (1, 0), (0, 1)),
    }
    assert set(partitions_of((2, 1), positive_parts=False)) == expected


def test_partitions_match_oracle():
    for target in [(3, 3), (2, 4), (4, 2), (1, 5), (3, 0)]:
        for positive in (True, False):
            got = partitions_of(target, positive_parts=positive)
            assert len(got) == len(set(got))  # no duplicates
            assert set(got) == _partitions_oracle(target, positive)
            assert all(p.grade == target for p in got)


def test_positive_partitions_are_a_subset():
    for target in [(2, 3), (3, 2)]:
        assert set(partitions_of(target)) <= set(partitions_of(target, positive_parts=False))


def test_partitions_deterministic_order():
    assert partitions_of((3, 4)) == partitions_of((3, 4))


def test_partitions_reject_bad_targets():
    with pytest.raises(ValueError):
        partitions_of((0, 0))
    with pytest.raises(ValueError):
        partitions_of((-1, 2))


def test_partitions_of_width_three():
    got = partitions_of((1, 1, 1))
    assert got == [VectorPartition.of([(1, 1, 1)])]


# ---------------------------------------------------------------------------
# Binomials


@given(st.integers(0, 30), st.integers(-5, 35))
def test_choose_matches_math_comb(a, b):
    expected = math.comb(a, b) if 0 <= b <= a else 0
    assert choose(a, b) == expected


def test_choose_rejects_negative_top():
    with pytest.raises(ValueError):
        choose(-1, 0)


def test_partition_binomial_examples():
    lam = vp((2, 3), (1, 1), (1, 1), (1, 1))
    assert partition_binomial(lam, lam) == 1
    assert partition_binomial(lam, vp((1, 1), (1, 1))) == 3  # C(3,2)
    assert partition_binomial(lam, vp((2, 3), (1, 1))) == 3  # C(1,1)*C(3,1)
    assert partition_binomial(lam, vp((2, 2))) == 0
    assert partition_binomial(vp((1, 1)), vp((1, 1), (1, 1))) == 0  # too many copies
    assert partition_binomial(lam, VectorPartition.of([], width=2)) == 1


# ---------------------------------------------------------------------------
# MacMahon elements


def test_product_concatenates_partitions():
    a = MacMahonElement.power_sum(vp((1, 1)))
    b = MacMahonElement.power_sum(vp((2, 3), (1, 1)))
    assert (a * b).terms == {vp((2, 3), (1, 1), (1, 1)): 1}


def test_one_is_the_unit():
    one = MacMahonElement.one(2)
    e = random_element(random.Random(7))
    assert one * e == e
    assert e * one == e


def test_addition_merges_and_prunes():
    p = MacMahonElement.power_sum(vp((1, 2)))
    assert (p + (-1) * p).is_zero()
    assert (p + p).coefficient(vp((1, 2))) == 2


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        MacMahonElement.one(2) + MacMahonElement.one(3)
    with pytest.raises(ValueError):
        MacMahonElement(3, {vp((1, 2)): 1})


def test_product_grading():
    rng = random.Random(11)
    for _ in range(30):
        a, b = random_element(rng), random_element(rng)
        product = a * b
        grades_a = {p.grade for p in a.terms}
        grades_b = {p.grade for p in b.terms}
        for p in product.terms:
            assert p.grade in {tuple(x + y for x, y in zip(ga, gb))
                               for ga in grades_a for gb in grades_b}


def test_product_is_bilinear():
    rng = random.Random(13)
    for _ in range(20):
        a, b, c = random_element(rng), random_element(rng), random_element(rng)
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c


def test_serialization_golden():
    e = MacMahonElement.power_sum(vp((1, 2), (1, 1))) - MacMahonElement.power_sum(vp((2, 3)))
    assert e.to_text() == "-1 * p[(2,3)]\n+1 * p[(1,2),(1,1)]"
    assert MacMahonElement.zero(2).to_text() == "0"
    assert MacMahonElement.one(2).to_text() == "+1 * p[]"


# ---------------------------------------------------------------------------
# Construction


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any), max_size=6))
def test_from_canonical_equals_and_hashes_like_of(parts):
    """The trusted constructor, with or without a grade, builds the
    partition that the checked one builds from the same parts."""
    checked = VectorPartition.of(parts, width=2)
    for grade in (None, checked.grade):
        trusted = VectorPartition.from_canonical(2, checked.parts, grade)
        assert trusted == checked and trusted.grade == checked.grade
        assert hash(trusted) == hash(checked) == hash((2, checked.parts))


ELEMENT_MAKERS = {
    "macmahon": (lambda terms: MacMahonElement(2, terms), vp((1, 2)), vp((2, 3), (1, 1)),
                 vp((1, 2, 3)), "partition width 3 does not match element width 2"),
    "laurent": (lambda terms: LaurentPolynomial(("x", "y"), terms), (1, 2), (0, -1),
                (1, 2, 3), "exponent tuple (1, 2, 3) does not match variables ('x', 'y')"),
}


@pytest.mark.parametrize("kind", ELEMENT_MAKERS)
def test_construction_copies_the_terms_and_prunes_zeros(kind):
    """Whether or not there is a zero to prune, an element owns its terms:
    changing the caller's dict afterwards does not reach them."""
    make, key, other, _, _ = ELEMENT_MAKERS[kind]
    for source in ({key: 3}, {key: 3, other: 0}):
        element = make(source)
        assert element.terms == {key: 3}
        source[key] = 5
        source[other] = 7
        assert element.terms == {key: 3}
    assert make({key: 0, other: 0}).is_zero()


@pytest.mark.parametrize("kind", ELEMENT_MAKERS)
def test_construction_checks_keep_their_messages(kind):
    """A key of the wrong width or length is refused with the same message
    whether or not a zero coefficient is pruned beside it."""
    make, key, other, wrong, message = ELEMENT_MAKERS[kind]
    for source in ({key: 1, wrong: 2}, {key: 1, other: 0, wrong: 2}):
        with pytest.raises(ValueError, match=re.escape(message)):
            make(source)


# ---------------------------------------------------------------------------
# Truncation


def test_truncate_single_part():
    e = MacMahonElement.power_sum(vp((1, 2)))
    names = truncation_variables(2, 2)
    assert names == ("x1", "y1", "x2", "y2")
    expected = LaurentPolynomial(names, {(1, 2, 0, 0): 1, (0, 0, 1, 2): 1})
    assert e.truncate(2) == expected


def test_truncate_two_parts_one_color():
    e = MacMahonElement.power_sum(vp((1, 1), (1, 1)))
    expected = LaurentPolynomial(("x1", "y1"), {(2, 2): 1})
    assert e.truncate(1) == expected


def test_truncate_zero_colors():
    assert MacMahonElement.power_sum(vp((1, 1))).truncate(0).is_zero()
    one = MacMahonElement.one(2).truncate(0)
    assert one == LaurentPolynomial.constant((), 1)


def test_truncate_is_a_ring_map():
    rng = random.Random(17)
    for _ in range(15):
        a, b = random_element(rng), random_element(rng)
        for k in (1, 2, 3):
            assert (a * b).truncate(k) == a.truncate(k) * b.truncate(k)
            assert (a + b).truncate(k) == a.truncate(k) + b.truncate(k)


def test_truncate_matches_products():
    rng = random.Random(23)
    elements = [MacMahonElement.zero(2), MacMahonElement.one(2), MacMahonElement.one(4),
                -3 * MacMahonElement.power_sum(vp((2, 1), (1, 3), (1, 3)))]
    elements += [random_element(rng, width=rng.randint(2, 4), max_terms=4, max_coord=3)
                 for _ in range(60)]
    for element in elements:
        for colors in range(5):
            assert element.truncate(colors) == truncate_by_products(element, colors), element


def test_truncate_errors_match_products():
    width_one = MacMahonElement.power_sum(VectorPartition.of([(2,)]))
    cases = [(MacMahonElement.power_sum(vp((1, 1))), -1, "number of colors must be >= 0"),
             (MacMahonElement.zero(2), -2, "number of colors must be >= 0"),
             (width_one, -1, "number of colors must be >= 0"),
             (width_one, 2, "truncation needs width >= 2"),
             (MacMahonElement.one(1), 0, "truncation needs width >= 2")]
    for element, colors, message in cases:
        with pytest.raises(ValueError, match=message) as packed:
            element.truncate(colors)
        with pytest.raises(ValueError) as by_products:
            truncate_by_products(element, colors)
        assert str(packed.value) == str(by_products.value)


def test_truncation_budget_on_the_ten_vertex_unit_path():
    """11 colors fit the live-exponent budget and 12 do not; 12 colors
    would give 336,336 monomials of 24 exponents."""
    element = cmf(path_graph([1] * 10))
    assert len(element.truncate(11).terms) == 173_745
    with pytest.raises(CapExceededError, match="12-color truncation exceeds its budget"):
        element.truncate(12)


def test_truncation_variables_r2():
    assert truncation_variables(3, 2) == ("x1", "y1_1", "y2_1", "x2", "y1_2", "y2_2")


# ---------------------------------------------------------------------------
# The character-sum kernel


@st.composite
def kernel_elements(draw):
    """Elements of width 1-3 with repeated parts, the empty partition and
    coefficients of both signs."""
    width = draw(st.integers(1, 3))
    part = st.tuples(*[st.integers(0, 2)] * width).filter(any)
    terms: dict[VectorPartition, int] = {}
    for parts in draw(st.lists(st.lists(part, max_size=4), max_size=6)):
        key = VectorPartition.of(parts, width=width)
        terms[key] = terms.get(key, 0) + draw(st.integers(-3, 3))
    return MacMahonElement(width, terms)


def _kernel_image(kind: str, radix: int):
    """A part's image on packed (part, extra) codes: one monomial that sees
    only the part's coordinates, or a binomial with a negative count."""
    def image(part):
        if kind == "monomial":
            return {pack((*part, 0), radix): 1}
        return {pack((*part, 0), radix): 1, pack((*part, 1), radix): -2}
    return image


_canceling = (MacMahonElement.power_sum(vp((1, 1), (1, 1))) -
              MacMahonElement.power_sum(vp((2, 2))))


@example(MacMahonElement.zero(2), "binomial")
@example(MacMahonElement.one(1), "binomial")
@example(_canceling, "monomial")
@given(kernel_elements(), st.sampled_from(["monomial", "binomial"]))
def test_character_sum_matches_per_symbol_products(element, kind):
    radix = 2 + max((max(*p.grade, p.length) for p in element.terms), default=0)
    image = _kernel_image(kind, radix)
    names = tuple(f"v{i}" for i in range(element.width + 1))

    def poly(codes):
        return LaurentPolynomial(names, {unpack(code, radix, len(names)): count
                                         for code, count in codes.items()})

    expected = LaurentPolynomial.zero(names)
    reached = set()
    for partition, coeff in element.terms.items():
        product = LaurentPolynomial.constant(names, coeff)
        for part in partition.parts:
            product = product * poly(image(part))
        expected = expected + product
        reached |= {sum(codes) for codes in
                    itertools.product(*(image(part) for part in partition.parts))}
    result = character_sum(element.terms, image)
    assert poly(result) == expected
    # every code some symbol reaches is kept, even where its sum cancels
    assert set(result) == reached


def test_character_sum_keeps_canceled_codes():
    radix = 4
    result = character_sum(_canceling.terms, _kernel_image("monomial", radix))
    assert result == {pack((2, 2, 0), radix): 0}


_leaves = MacMahonElement(2, {vp((1, 1)): 1, vp((2, 1)): -1, vp((1, 2)): 2})


@example(_leaves, [1, -1], 1)  # a trie of leaves only: the first close raises
@example(_leaves, [1, -1], 5)  # the third close raises
@example(_leaves, [1, 1, 1], 3)  # passed after the first of three image terms of the second close
@example(MacMahonElement.one(2) + MacMahonElement(2, {vp((1, 1), (1, 1)): 3}), [2, 1], 2)
@example(_canceling, [1, 1], None)
@given(kernel_elements(), st.lists(st.integers(-2, 2), min_size=1, max_size=4),
       st.none() | st.integers(0, 30))
def test_character_sum_matches_the_per_node_oracle(element, counts, budget):
    """The same sums, or CapExceededError with the same message in the
    same close.  Both kernels compute a part's image at its first close,
    so equal image calls up to the error mean that the same closes ran;
    on a trie of leaves with distinct parts every close makes one."""
    def outcome(kernel):
        calls: list[tuple[int, ...]] = []

        def image(part):
            calls.append(part)
            return {pack((*part, j), 8): count for j, count in enumerate(counts)}

        try:
            return kernel(element.terms, image, budget), calls
        except CapExceededError as exc:
            return str(exc), calls

    assert outcome(character_sum) == outcome(character_sum_per_node)


@pytest.mark.parametrize("width", range(1, 10))
def test_unpacker_matches_unpack(width):
    """unpack inverts pack on the zero vector, the all-(radix - 1) vector
    and random vectors."""
    rng = random.Random(width)
    for radix in (2, 3, 10, 41):
        vectors = [(0,) * width, (radix - 1,) * width,
                   *(tuple(rng.randrange(radix) for _ in range(width)) for _ in range(100))]
        for vector in vectors:
            assert unpack(pack(vector, radix), radix, width) == vector


def test_add_product_adds_into_total():
    total = {5: 1}
    assert add_product(total, {0: 2, 1: 3}, {4: 1, 5: -1}) is total
    assert total == {4: 2, 5: 2, 6: -3}


def test_add_product_budget_bounds_the_total():
    assert add_product({}, {0: 1, 1: 1}, {0: 1, 4: 1}, budget=4) == {0: 1, 1: 1, 4: 1, 5: 1}
    total: dict[int, int] = {}
    with pytest.raises(CapExceededError, match="budget of 3 live terms"):
        add_product(total, {0: 1, 1: 1}, {0: 1, 4: 1}, budget=3)
    assert len(total) == 4  # one term of the smaller factor past the budget


# ---------------------------------------------------------------------------
# The bucketed (1 - u) expansion

_RADIX = 8  # packed (w, x, z), so w_unit is _RADIX ** 2


@st.composite
def expansion_buckets(draw):
    """Buckets for p, q in 0..4 of packed (w, x, z) codes with z below 4,
    so z + p stays below the radix while w may go negative, with
    coefficients of both signs and zero, and codes shared across buckets."""
    code = st.builds(lambda w, x, z: pack((w, x, z), _RADIX),
                     st.integers(0, 3), st.integers(0, 7), st.integers(0, 3))
    small = st.dictionaries(code, st.integers(-3, 3), max_size=4)
    return draw(st.dictionaries(st.integers(0, 4),
                                st.dictionaries(st.integers(0, 4), small, max_size=3),
                                max_size=3))


_shared = pack((1, 2, 0), _RADIX)


@example({0: {0: {_shared: 2}}})
@example({2: {0: {}}, 0: {3: {pack((0, 1, 1), _RADIX): -1}}})
@example({1: {1: {_shared: 1}}, 2: {0: {_shared: -1}}})  # cancels to zero
@example({3: {2: {pack((0, 5, 3), _RADIX): 1, pack((3, 0, 0), _RADIX): 0}}})
@given(expansion_buckets())
def test_bucketed_expansion_matches_per_code_oracle(buckets):
    result = _expand_one_minus_u(buckets, _RADIX ** 2)
    expected = expand_one_minus_u_per_code(buckets, _RADIX ** 2)
    assert {c: v for c, v in result.items() if v} == {c: v for c, v in expected.items() if v}


@pytest.mark.parametrize("buckets", [{-1: {0: {}}}, {0: {-2: {1: 5}}}, {1: {0: {1: 1}}, 0: {-1: {}}}])
def test_bucketed_expansion_rejects_negative_powers(buckets):
    with pytest.raises(ValueError) as reference:
        _one_minus_u_power(-1)
    with pytest.raises(ValueError) as raised:
        _expand_one_minus_u(buckets, _RADIX ** 2)
    with pytest.raises(ValueError) as oracle:
        expand_one_minus_u_per_code(buckets, _RADIX ** 2)
    assert str(raised.value) == str(oracle.value) == str(reference.value)


# ---------------------------------------------------------------------------
# Laurent polynomials


def _ring(*names):
    return tuple(names)


def test_laurent_basic_arithmetic():
    names = _ring("x", "y")
    x = LaurentPolynomial.variable(names, "x")
    y = LaurentPolynomial.variable(names, "y")
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (x - x).is_zero()


def test_laurent_ring_mismatch():
    a = LaurentPolynomial.variable(("x",), "x")
    b = LaurentPolynomial.variable(("y",), "y")
    with pytest.raises(ValueError):
        a + b


def test_laurent_negative_powers():
    names = _ring("w", "z")
    w = LaurentPolynomial.variable(names, "w")
    z = LaurentPolynomial.variable(names, "z")
    inv = w ** -1
    assert inv * w == LaurentPolynomial.constant(names, 1)
    assert (w ** -2).terms == {(-2, 0): 1}
    assert ((-1) * w) ** -3 == (-1) * (w ** -3)
    with pytest.raises(ValueError):
        (w + z) ** -1
    with pytest.raises(ValueError):
        (2 * w) ** -1


def test_laurent_coefficient_lookup():
    names = _ring("x", "y", "z")
    x = LaurentPolynomial.variable(names, "x")
    y = LaurentPolynomial.variable(names, "y")
    p = 3 * x * x * y + x
    assert p.coefficient({"x": 2, "y": 1}) == 3
    assert p.coefficient({"x": 1}) == 1
    assert p.coefficient({"x": 5}) == 0


def test_laurent_substitute_one():
    names = _ring("w", "x")
    w = LaurentPolynomial.variable(names, "w")
    x = LaurentPolynomial.variable(names, "x")
    p = w * x + w
    assert substitute_one(p, ["w"]) == x + LaurentPolynomial.constant(names, 1)
    assert substitute_one(w + x, ["w", "x"]) == LaurentPolynomial.constant(names, 2)


def test_laurent_rename():
    names = _ring("w", "x")
    w = LaurentPolynomial.variable(names, "w")
    x = LaurentPolynomial.variable(names, "x")
    renamed = rename(w * x, {"w": "b", "x": "a"}, ("a", "b"))
    assert renamed == (LaurentPolynomial.variable(("a", "b"), "a")
                       * LaurentPolynomial.variable(("a", "b"), "b"))
    with pytest.raises(ValueError):
        rename(w * x, {"w": "a"}, ("a",))  # x still occurs


def test_laurent_text_golden():
    names = _ring("w", "x", "y", "z")
    w = LaurentPolynomial.variable(names, "w")
    x = LaurentPolynomial.variable(names, "x")
    y = LaurentPolynomial.variable(names, "y")
    p = w + w * x * (y ** 3)
    assert p.to_text() == "+1 w +1 w x y^3"
    assert LaurentPolynomial.zero(names).to_text() == "0"
    assert LaurentPolynomial.constant(names, -2).to_text() == "-2"
    assert (w ** -1).to_text() == "+1 w^-1"


def test_laurent_text_orders_by_degree_then_descending():
    names = ("x1", "y1", "x2", "y2")
    p = LaurentPolynomial(names, {(3, 5, 2, 4): 1, (2, 4, 3, 5): 1})
    assert p.to_text() == "+1 x1^3 y1^5 x2^2 y2^4 +1 x1^2 y1^4 x2^3 y2^5"


# ---------------------------------------------------------------------------
# Tensor elements


def test_tensor_swap_is_an_involution():
    rng = random.Random(23)
    a, b = random_element(rng), random_element(rng)
    t = tensor_product(a, b)
    assert swap(swap(t)) == t
    assert swap(tensor_product(a, b)) == tensor_product(b, a)


def test_tensor_addition_and_pruning():
    a = MacMahonElement.power_sum(vp((1, 1)))
    t = tensor_product(a, a)
    assert TensorElement(2, {key: 0 for key in t.terms}).terms == {}
    assert tensor_sum(2, [t, t]).terms == {key: 2 * c for key, c in t.terms.items()}


def test_tensor_text_golden():
    one = MacMahonElement.one(2)
    a = MacMahonElement.power_sum(vp((1, 1)))
    t = tensor_sum(2, [tensor_product(a, one), tensor_product(one, a)])
    assert t.to_text() == "+1 * p[] (x) p[(1,1)]\n+1 * p[(1,1)] (x) p[]"
