"""Hopf structure on the power-sum basis and convolution-based recovery.

The coproduct splits the parts of a basis symbol over all position
subsets, the antipode rescales by (-1)^length, and linear functionals
into a Laurent ring can be convolved through the coproduct.  The
counting functional sends a basis symbol of multidegree (n, w) and
length l to t^n (1-u)^(n-l) v^w; on the CMF of a forest with e edges
this collapses to the single monomial t^n u^e v^w, which is what makes
the degree-polynomial recovery work.

Because a counting functional reads only the grade and the length of a
basis symbol, the counting image and the convolution of two counting
functionals never build the coproduct.  They bin the element by those
statistics (for the convolution: of every sub-multiset of parts and of
the whole partition, with multiplicities from products of binomials) and
write the binomial expansion of each (1 - u)^k straight into the result.
This is the character calculus of combinatorial Hopf algebras
(Aguiar-Bergeron-Sottile, Compositio Math. 142, 2006).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .algebra import (LaurentPolynomial, MacMahonElement, TensorElement,
                      Vector, VectorPartition, submultiset_stats, unpack)
from .chromatic import egdp_variables


def coproduct(element: MacMahonElement) -> TensorElement:
    """Split each basis symbol over all subsets of its part positions."""
    terms: dict[tuple[VectorPartition, VectorPartition], int] = {}
    for partition, coeff in element.terms.items():
        length = partition.length
        for mask in range(1 << length):
            left = partition.restrict(i for i in range(length) if mask >> i & 1)
            right = partition.restrict(i for i in range(length) if not mask >> i & 1)
            key = (left, right)
            terms[key] = terms.get(key, 0) + coeff
    return TensorElement(element.width, terms)


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
        default_factory=dict, repr=False, compare=False)

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


def counting_functional(t: LaurentPolynomial | int, u: LaurentPolynomial | int,
                        v: Iterable[LaurentPolynomial | int]) -> LinearFunctional:
    """The functional p_Lambda -> t^n (1-u)^(n-l) v1^w1 ... vr^wr for
    Lambda of multidegree (n, w1, ..., wr) and length l."""
    vs = list(v)
    polys = [p for p in (t, u, *vs) if isinstance(p, LaurentPolynomial)]
    if not polys:
        raise ValueError("at least one of t, u, v must be a Laurent polynomial")
    names = polys[0].variables

    def lift(p: LaurentPolynomial | int) -> LaurentPolynomial:
        return p if isinstance(p, LaurentPolynomial) else LaurentPolynomial.constant(names, p)

    t_poly, u_poly = lift(t), lift(u)
    v_polys = [lift(p) for p in vs]
    one_minus_u = LaurentPolynomial.constant(names, 1) - u_poly

    def rule(partition: VectorPartition) -> LaurentPolynomial:
        grade = partition.grade
        if len(grade) != len(v_polys) + 1:
            raise ValueError(f"partition width {len(grade)} does not match {len(v_polys)} weight slots")
        n = grade[0]
        value = (t_poly ** n) * (one_minus_u ** (n - partition.length))
        for v_poly, w in zip(v_polys, grade[1:]):
            value = value * (v_poly ** w)
        return value

    return LinearFunctional(names, rule)


def counting_variables(width: int) -> tuple[str, ...]:
    r = width - 1
    if r < 1:
        raise ValueError("counting map needs width >= 2")
    if r == 1:
        return ("t", "u", "v")
    return ("t", "u", *(f"v{i}" for i in range(1, r + 1)))


def _one_minus_u_power(k: int) -> list[int]:
    """Coefficients of u^0, ..., u^k in (1 - u)^k.  A negative k raises
    what LaurentPolynomial.__pow__ raises for (1 - u) ** k."""
    if k < 0:
        raise ValueError("negative powers only for unit monomials")
    return [-math.comb(k, i) if i & 1 else math.comb(k, i) for i in range(k + 1)]


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


def recover_stats(element: MacMahonElement) -> ForestStats:
    """Read (n, e, w, c) off the counting-map image of a forest CMF."""
    image = symbolic_counting_image(element)
    if len(image.terms) != 1:
        raise ValueError("counting-map image is not a single monomial; "
                         "the element is not the CMF of a forest")
    (exps, coeff), = image.terms.items()
    if coeff != 1:
        raise ValueError(f"counting-map image has coefficient {coeff}, not 1; "
                         "the element is not the CMF of a forest")
    n, e = exps[0], exps[1]
    return ForestStats(n, e, tuple(exps[2:]), n - e)


def egdp_convolution(element: MacMahonElement) -> LaurentPolynomial:
    """Convolution of two counting functionals that evaluates, on the CMF
    of a forest with c components, to w^c times the forest's EGDP.

    The functionals are f = counting_functional(w x, z/w, y) and
    g = counting_functional(w, 1/w, 1).  For a sub-multiset Omega of
    Lambda with grade (a, y) and length b, f(p_Omega) g(p_(Lambda-Omega))
    is w^n x^a y^y (1 - z/w)^p (1 - 1/w)^q with p = a - b and
    q = (n - a) - (l - b), where (n, ...) is the grade and l the length
    of Lambda.  So the coefficients are summed per (n, l, a, y, b) and
    each bucket is expanded once."""
    names = egdp_variables(element.width - 1)
    radix = 1 + max((max(*p.grade, p.length) for p in element.terms), default=0)
    buckets: dict[tuple[int, int, int], int] = {}
    for partition, coeff in element.terms.items():
        n, length = partition.grade[0], partition.length
        for key, count in submultiset_stats(partition, radix).items():
            bucket = (n, length, key)
            buckets[bucket] = buckets.get(bucket, 0) + coeff * count
    acc: dict[tuple[int, ...], int] = {}
    for (n, length, key), coeff in buckets.items():
        sub_length, *grade = unpack(key, radix, element.width + 1)
        p = grade[0] - sub_length
        # every bucket comes from a basis symbol in the support, so even
        # one whose coefficients cancel must be a valid power
        z_coeffs = _one_minus_u_power(p)
        w_coeffs = _one_minus_u_power(n - length - p)
        for i, ci in enumerate(z_coeffs):
            ci *= coeff
            for j, cj in enumerate(w_coeffs):
                monomial = (n - i - j, *grade, i)
                acc[monomial] = acc.get(monomial, 0) + ci * cj
    return LaurentPolynomial(names, acc)


def recover_egdp_hopf(element: MacMahonElement) -> LaurentPolynomial:
    """Recover the EGDP of a forest from its CMF via the convolution map."""
    stats = recover_stats(element)
    shifted = egdp_convolution(element).shift("w", -stats.c)
    if shifted.min_exponent("w") < 0:
        raise ValueError("negative w-exponents remain after removing the "
                         "component factor; the element is not the CMF of a forest")
    return shifted
