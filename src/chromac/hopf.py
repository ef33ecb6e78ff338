"""Hopf structure on the power-sum basis and convolution-based recovery.

The coproduct splits the parts of a basis symbol over all position
subsets, grouped by how many copies of each distinct part go left, up
to a budget of such splits; the antipode rescales by (-1)^length, and
linear functionals into a Laurent ring can be convolved through the
coproduct.  The counting functional sends a basis symbol of
multidegree (n, w) and length l to t^n (1-u)^(n-l) v^w; on the CMF of
a forest with e edges this collapses to the single monomial t^n u^e v^w,
which is what makes the degree-polynomial recovery work.

The counting image and the convolution of two counting functionals
never build the coproduct.  A counting functional reads only the grade
and the length of a basis symbol, so the counting image sums the
coefficients per (grade, length) and expands each (1 - u)^k once.  Both
counting functionals are multiplicative over parts and every p_part is
primitive, so their convolution is the product over parts of f + g
(the character calculus of combinatorial Hopf algebras,
Aguiar-Bergeron-Sottile, Compositio Math. 142, 2006); it is evaluated
by the trie kernel `character_sum` on packed statistics, whose sums
are bucketed by their powers of (1 - z/w) and (1 - 1/w) and expanded
once per bucket.  The explicit route of `recovery` takes its buckets
from the same pass, `_convolution_buckets`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

from .algebra import (LaurentPolynomial, MacMahonElement, TensorElement, Vector,
                      VectorPartition, _expand_one_minus_u, _one_minus_u_power,
                      character_sum, pack, unpack)
from .chromatic import egdp_variables
from .errors import CapExceededError, NotApplicableError

COPRODUCT_SPLITS = 1 << 20  # multiplicity splits, so tensor terms, of one coproduct


def coproduct(element: MacMahonElement) -> TensorElement:
    """Split each basis symbol over all subsets of its part positions.

    Subsets that take the same number k_i of the m_i copies of each
    distinct part give the same tensor, so each choice of counts is one
    term with coefficient prod C(m_i, k_i).  Both sides keep the parts in
    descending order, so they are built without re-sorting.  The choices,
    prod (m_i + 1) per basis symbol, are counted first, and past
    `COPRODUCT_SPLITS` of them nothing is built."""
    symbols = [(list(partition.multiplicities().items()), coeff)  # parts descending
               for partition, coeff in element.terms.items()]
    if sum(math.prod(m + 1 for _, m in groups) for groups, _ in symbols) > COPRODUCT_SPLITS:
        raise CapExceededError(
            f"the coproduct exceeds its budget of {COPRODUCT_SPLITS} multiplicity splits")
    terms: dict[tuple[VectorPartition, VectorPartition], int] = {}
    width = element.width
    for groups, coeff in symbols:
        for counts in itertools.product(*(range(m + 1) for _, m in groups)):
            left: tuple[Vector, ...] = ()
            right: tuple[Vector, ...] = ()
            ways = coeff
            for (part, m), k in zip(groups, counts):
                left += (part,) * k
                right += (part,) * (m - k)
                ways *= math.comb(m, k)
            key = (VectorPartition.from_canonical(width, left),
                   VectorPartition.from_canonical(width, right))
            terms[key] = terms.get(key, 0) + ways
    return TensorElement(width, terms)


def antipode(element: MacMahonElement) -> MacMahonElement:
    """Rescale each basis symbol by (-1)^length."""
    return MacMahonElement(element.width, {
        p: -c if p.length & 1 else c for p, c in element.terms.items()})


@dataclass
class LinearFunctional:
    """Linear map from the power-sum algebra to a Laurent ring, given by
    its values on basis symbols."""

    variables: tuple[str, ...]
    rule: Callable[[VectorPartition], LaurentPolynomial]
    _cache: dict[VectorPartition, LaurentPolynomial] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def on_basis(self, partition: VectorPartition) -> LaurentPolynomial:
        value = self._cache.get(partition)
        if value is None:
            value = self.rule(partition)
            if value.variables != self.variables:
                raise ValueError("functional rule produced a value in the wrong ring")
            self._cache[partition] = value
        return value

    def __call__(self, element: MacMahonElement) -> LaurentPolynomial:
        acc: dict[tuple[int, ...], int] = {}
        for partition, coeff in element.terms.items():
            for exps, c in self.on_basis(partition).terms.items():
                acc[exps] = acc.get(exps, 0) + coeff * c
        return LaurentPolynomial(self.variables, acc)


def convolve(f: LinearFunctional, g: LinearFunctional,
             element: MacMahonElement) -> LaurentPolynomial:
    """Convolution product (f * g)(element) through the coproduct."""
    if f.variables != g.variables:
        raise ValueError("functionals take values in different rings")
    acc: dict[tuple[int, ...], int] = {}
    for (left, right), coeff in coproduct(element).terms.items():
        product = f.on_basis(left) * g.on_basis(right)
        for exps, c in product.terms.items():
            acc[exps] = acc.get(exps, 0) + coeff * c
    return LaurentPolynomial(f.variables, acc)


def counting_variables(width: int) -> tuple[str, ...]:
    r = width - 1
    if r < 0:
        raise ValueError("counting map needs width >= 1")
    if r == 1:
        return ("t", "u", "v")
    return ("t", "u", *(f"v{i}" for i in range(1, r + 1)))


def symbolic_counting_image(element: MacMahonElement) -> LaurentPolynomial:
    """Image of the element under the counting map with formal t, u, v.

    Sums the coefficients of each (grade, length) = ((n, w), l) and
    expands t^n (1-u)^(n-l) v^w once per bucket."""
    names = counting_variables(element.width)
    buckets: dict[tuple[Vector, int], int] = {}
    for partition, coeff in element.terms.items():
        key = (partition.grade, partition.length)
        buckets[key] = buckets.get(key, 0) + coeff
    acc: dict[tuple[int, ...], int] = {}
    for (grade, length), coeff in buckets.items():
        n, weight = grade[0], grade[1:]
        for k, c in enumerate(_one_minus_u_power(n - length)):
            key = (n, k, *weight)
            acc[key] = acc.get(key, 0) + coeff * c
    return LaurentPolynomial(names, acc)


@dataclass(frozen=True)
class ForestStats:
    """Vertex count, edge count, total weight and component count."""

    n: int
    e: int
    weight: tuple[int, ...]
    c: int

    def to_text(self) -> str:
        return f"n={self.n} e={self.e} w={','.join(map(str, self.weight))} c={self.c}"


def recover_stats(element: MacMahonElement) -> ForestStats:
    """Read (n, e, w, c) off the counting-map image of a forest CMF."""
    image = symbolic_counting_image(element)
    if len(image.terms) != 1:
        raise NotApplicableError("counting-map image is not a single monomial; "
                                 "the element is not the CMF of a forest")
    (exps, coeff), = image.terms.items()
    if coeff != 1:
        raise NotApplicableError(f"counting-map image has coefficient {coeff}, not 1; "
                                 "the element is not the CMF of a forest")
    n, e = exps[0], exps[1]
    return ForestStats(n, e, tuple(exps[2:]), n - e)


def egdp_convolution(element: MacMahonElement) -> LaurentPolynomial:
    """Convolution of two counting functionals that evaluates, on the CMF
    of a forest with c components, to w^c times the forest's EGDP.

    The functionals are p_Lambda -> t^n (1-u)^(n-l) v^w at (t, u, v) =
    (w x, z/w, y) and at (w, 1/w, 1).  For a sub-multiset Omega of Lambda
    with grade (a, y) and length b, the convolution takes
    w^n x^a y^y (1 - z/w)^p (1 - 1/w)^q with p = a - b and
    q = (n - a) - (l - b), where (n, ...) is the grade and l the length
    of Lambda; `_convolution_buckets` sums these per (p, q) bucket."""
    return _shifted_convolution(element, 0)


def recover_egdp_hopf(element: MacMahonElement) -> LaurentPolynomial:
    """Recover the EGDP of a forest from its CMF via the convolution map,
    divided by w^c for the c components that `recover_stats` reads off."""
    return _shifted_convolution(element, -recover_stats(element).c)


def _shifted_convolution(element: MacMahonElement, w_shift: int) -> LaurentPolynomial:
    """w^w_shift times the convolution.  With w the top digit, a negative
    power of w is a negative code; only a negative shift leaves one."""
    names = egdp_variables(element.width - 1)
    radix = 1 + max((max(*p.grade, p.length) for p in element.terms), default=0)
    grid = _expand_one_minus_u(_convolution_buckets(element.terms, element.width, radix, w_shift),
                               radix ** (element.width + 1))
    if any(code < 0 for code, coeff in grid.items() if coeff):
        raise ValueError("negative w-exponents remain after removing the "
                         "component factor; the element is not the CMF of a forest")
    return LaurentPolynomial(names, {unpack(code, radix, len(names)): coeff
                                     for code, coeff in grid.items() if coeff})


def _convolution_buckets(terms: dict[VectorPartition, int], width: int, radix: int,
                         w_shift: int) -> dict[int, dict[int, dict[int, int]]]:
    """The convolution's buckets for `_expand_one_minus_u`: per (p, q),
    the packed monomials w^(n + w_shift) x^a y^y with their coefficients.

    `character_sum` sums the coefficients per (n, l, b, a, y): a part
    adds its size and 1 to (n, l), and either nothing or 1 and itself to
    (b, a, y).  Each prefix (n, l, b, a) of the sums is decoded once,
    the y digits carried along as an offset.  Every prefix comes from a
    basis symbol in the support, so each gets its bucket even where the
    coefficients cancel.  The radix must exceed every grade coordinate
    and length."""
    zeros = (0,) * width

    def image(part: Vector) -> dict[int, int]:
        base = pack((part[0], 1, 0, *zeros), radix)
        return {base: 1, base + pack((0, 0, 1, *part), radix): 1}

    w_unit = radix ** (width + 1)  # w^1 in the packed monomials
    y_span = radix ** (width - 1)  # the y digits end a kernel code
    prefixes: dict[int, tuple[dict[int, int], int]] = {}
    buckets: dict[int, dict[int, dict[int, int]]] = {}
    for key, coeff in character_sum(terms, image).items():
        prefix, y = divmod(key, y_span)
        slot = prefixes.get(prefix)
        if slot is None:
            n, length, sub_length, a = unpack(prefix, radix, 4)
            p = a - sub_length
            codes = buckets.setdefault(p, {}).setdefault(n - length - p, {})
            slot = prefixes[prefix] = codes, (n + w_shift) * w_unit + a * radix * y_span
        if coeff:
            codes, base = slot
            codes[base + y * radix] = coeff  # w^(n + w_shift) x^a y^y
    return buckets
