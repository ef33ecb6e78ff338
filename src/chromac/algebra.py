"""Exact arithmetic for MacMahon symmetric functions in the power-sum basis.

A vector partition is an unordered multiset of nonzero vectors in N^m,
kept in canonical form (parts sorted in descending lexicographic order).
Elements of the algebra are finite integer linear combinations of
power-sum basis symbols indexed by vector partitions; products multiply
basis symbols by concatenating partitions.  Truncations to finitely many
colors land in a Laurent polynomial ring, which is also represented
sparsely with exact integer coefficients.

Every map that is multiplicative over parts (the truncation here, the
convolution of two counting functionals and the explicit recovery
formula) is evaluated by one kernel, `character_sum`, on polynomials
whose exponent vectors are packed into integers, and both recovery
routes multiply the kernel's sums by their powers of (1 - u) with
`_expand_one_minus_u`, one product per power rather than per sum.
Every product of packed polynomials goes through `add_product`: the
kernel's trie-node closes, the (1 - u) expansion, the forest CMF
dynamic program's merges and the rows of the transition matrices.
`unpack` decodes every packed code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .errors import CapExceededError

Vector = tuple[int, ...]
Exponents = tuple[int, ...]

TRUNCATE_LIVE_EXPONENTS = 1 << 23  # terms times variables of a truncation being evaluated


# ---------------------------------------------------------------------------
# Vector partitions


@dataclass(frozen=True)
class VectorPartition:
    """Canonical multiset of nonzero vectors in N^width.

    Parts are stored sorted in descending lexicographic order, so two
    partitions are equal iff their part multisets are equal.
    """

    width: int
    parts: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("partition width must be >= 1")
        for part in self.parts:
            if len(part) != self.width:
                raise ValueError(f"part {part} does not have width {self.width}")
            if any(c < 0 for c in part):
                raise ValueError(f"part {part} has a negative coordinate")
            if not any(part):
                raise ValueError("zero vectors are not allowed as parts")
        ordered = tuple(sorted(self.parts, reverse=True))
        if ordered != self.parts:
            object.__setattr__(self, "parts", ordered)
        object.__setattr__(self, "_hash", hash((self.width, self.parts)))

    @classmethod
    def from_canonical(cls, width: int, parts: tuple[Vector, ...],
                       grade: Vector | None = None) -> VectorPartition:
        """Trusted constructor for parts already valid and in descending
        order; skips the checks, for callers that build many partitions,
        and takes the grade from a caller that knows it.  Like the checked
        constructor it stores the hash as it builds the partition."""
        partition = object.__new__(cls)
        store = object.__setattr__
        store(partition, "width", width)
        store(partition, "parts", parts)
        if grade is not None:
            store(partition, "grade", grade)
        store(partition, "_hash", hash((width, parts)))
        return partition

    @classmethod
    def of(cls, parts: Iterable[Iterable[int]], width: int | None = None) -> VectorPartition:
        """Canonicalize an iterable of parts; width is required when empty."""
        tuples = tuple(tuple(p) for p in parts)
        if width is None:
            if not tuples:
                raise ValueError("width is required for the empty partition")
            width = len(tuples[0])
        return cls(width, tuples)

    @property
    def length(self) -> int:
        return len(self.parts)

    @cached_property
    def grade(self) -> Vector:
        """Coordinatewise sum of the parts (the multidegree)."""
        total = [0] * self.width
        for part in self.parts:
            for i, c in enumerate(part):
                total[i] += c
        return tuple(total)

    def __hash__(self) -> int:  # stored by both constructors, read without an instance dict
        return self._hash

    def multiplicities(self) -> dict[Vector, int]:
        counts: dict[Vector, int] = {}
        for part in self.parts:
            counts[part] = counts.get(part, 0) + 1
        return counts

    def sort_key(self) -> tuple:
        """Total order used everywhere: grade, then length, then parts."""
        return (self.grade, self.length, self.parts)

    def __str__(self) -> str:
        inner = ",".join("(" + ",".join(str(c) for c in part) + ")" for part in self.parts)
        return f"[{inner}]"


_partition_cache: dict[tuple[tuple[int, ...], bool], tuple[VectorPartition, ...]] = {}


def partitions_of(target: Iterable[int], positive_parts: bool = True) -> list[VectorPartition]:
    """All vector partitions of the target vector, in deterministic order.

    With positive_parts=True only parts with every coordinate >= 1 are
    used; otherwise any nonzero vector in N^width is allowed.  Partitions
    come out with parts descending, ordered lexicographically descending
    as sequences.
    """
    goal = tuple(target)
    if any(c < 0 for c in goal):
        raise ValueError(f"target has a negative coordinate: {goal}")
    if not any(goal):
        raise ValueError("target must not be the zero vector")
    cached = _partition_cache.get((goal, positive_parts))
    if cached is not None:
        return list(cached)
    width = len(goal)
    pool = [vec for vec in itertools.product(*(range(c, -1, -1) for c in goal))
            if any(vec) and (all(vec) or not positive_parts)]
    results: list[VectorPartition] = []

    def extend(remaining: Vector, start: int, acc: list[Vector]) -> None:
        if not any(remaining):
            results.append(VectorPartition(width, tuple(acc)))
            return
        for i in range(start, len(pool)):
            part = pool[i]
            if all(p <= r for p, r in zip(part, remaining)):
                acc.append(part)
                extend(tuple(r - p for r, p in zip(remaining, part)), i, acc)
                acc.pop()

    extend(goal, 0, [])
    _partition_cache[(goal, positive_parts)] = tuple(results)
    return results


def pack(vector: Iterable[int], radix: int) -> int:
    """One integer for a vector of coordinates below radix, most
    significant first.  Adding codes adds the vectors as long as no
    coordinate sum reaches radix, and integer order is the lexicographic
    order of the vectors."""
    code = 0
    for c in vector:
        code = code * radix + c
    return code


def unpack(code: int, radix: int, width: int) -> Vector:
    """Inverse of pack for vectors with width coordinates."""
    digits = []
    for _ in range(width):
        code, digit = divmod(code, radix)
        digits.append(digit)
    digits.reverse()
    return tuple(digits)


def add_product(total: dict[int, int], a: dict[int, int], b: dict[int, int],
                budget: int | None = None) -> dict[int, int]:
    """Add the product of two polynomials on packed exponent codes into
    total, and return total.  Every code the product reaches is kept, even
    where its coefficient cancels to zero.  With a budget, raise
    CapExceededError once total holds more terms than that; it is checked
    after each term of the smaller factor, so total never holds more than
    the budget plus the size of the larger factor."""
    if len(a) < len(b):
        a, b = b, a
    get = total.get
    for code_b, count_b in b.items():
        for code_a, count_a in a.items():
            code = code_a + code_b
            total[code] = get(code, 0) + count_a * count_b
        if budget is not None and len(total) > budget:
            raise CapExceededError(f"a product exceeds its budget of {budget} live terms")
    return total


def _one_minus_u_power(k: int) -> list[int]:
    """Coefficients of u^0, ..., u^k in (1 - u)^k.  A negative k raises
    what LaurentPolynomial.__pow__ raises for (1 - u) ** k."""
    if k < 0:
        raise ValueError("negative powers only for unit monomials")
    return [-math.comb(k, i) if i & 1 else math.comb(k, i) for i in range(k + 1)]


def _expand_one_minus_u(buckets: dict[int, dict[int, dict[int, int]]],
                        w_unit: int) -> dict[int, int]:
    """Sum of coeff * code * (1 - z/w)^p (1 - 1/w)^q over the codes of
    buckets[p][q], on packed codes whose last digit is the power of z and
    where w_unit is the code of w.  (1 - 1/w)^q multiplies each q bucket
    once and (1 - z/w)^p the sum over the q buckets of each p once, so each
    power is expanded once per bucket, whatever its number of codes, and
    built once per call.  Every p and q key is expanded, even over an
    empty bucket, so a negative one raises."""
    q_powers = {q: {-j * w_unit: c for j, c in enumerate(_one_minus_u_power(q))}
                for q in {q for by_q in buckets.values() for q in by_q}}
    total: dict[int, int] = {}
    for p, by_q in buckets.items():
        inner: dict[int, int] = {}
        for q, codes in by_q.items():
            add_product(inner, codes, q_powers[q])
        add_product(total, inner,
                    {i * (1 - w_unit): c for i, c in enumerate(_one_minus_u_power(p))})
    return total


def character_sum(terms: dict[VectorPartition, int],
                  image: Callable[[Vector], dict[int, int]],
                  budget: int | None = None) -> dict[int, int]:
    """Sum over the basis symbols of their coefficient times the product
    of image(part) over their parts, on packed exponent codes.

    Read smallest part first, the symbols' parts form a trie, so symbols
    that share their smallest parts share the product over them.  The
    trie is evaluated bottom up with a stack: a node holds the sum, over
    the symbols below it, of their coefficient times the product of the
    images of their later parts, and closing a node adds that sum times
    the image of its own part into its parent with one add_product call.
    Each distinct part's image is computed at its first close.  Like
    add_product, the result keeps every code that some symbol reaches,
    even where the coefficients cancel.  A budget bounds the terms of
    every node's sum; a sum only grows, so a close raises exactly when it
    leaves its parent with more terms than the budget."""
    images: dict[Vector, dict[int, int]] = {}
    path: list[Vector] = []
    sums: list[dict[int, int]] = [{}]  # sums[d]: the open node at depth d

    def close() -> None:
        part = path.pop()
        values = images.get(part)
        if values is None:
            values = images[part] = image(part)
        node = sums.pop()
        add_product(sums[-1], node, values, budget)

    for parts, coeff in sorted((p.parts[::-1], c) for p, c in terms.items()):
        shared = 0
        limit = min(len(path), len(parts))
        while shared < limit and path[shared] == parts[shared]:
            shared += 1
        for _ in range(len(path) - shared):
            close()
        for part in parts[shared:]:
            path.append(part)
            sums.append({})
        sums[-1][0] = coeff  # a new node: symbols sort before their extensions
    while path:
        close()
    return sums[0]


def _without_zeros(terms: dict) -> dict:
    """A copy of terms without its zero coefficients.  With no zero it is a
    plain copy, which reuses the keys' stored hashes instead of hashing
    each key again."""
    if 0 in terms.values():
        return {key: c for key, c in terms.items() if c != 0}
    return dict(terms)


# ---------------------------------------------------------------------------
# Laurent polynomials


@dataclass(frozen=True)
class LaurentPolynomial:
    """Sparse Laurent polynomial with integer coefficients.

    Terms map exponent tuples (one slot per variable, possibly negative)
    to nonzero coefficients.  Operations require identical variable
    tuples on both operands.
    """

    variables: tuple[str, ...]
    terms: dict[Exponents, int]

    def __post_init__(self) -> None:
        pruned = _without_zeros(self.terms)
        for e in pruned:
            if len(e) != len(self.variables):
                raise ValueError(f"exponent tuple {e} does not match variables {self.variables}")
        object.__setattr__(self, "terms", pruned)

    @classmethod
    def zero(cls, variables: Iterable[str]) -> LaurentPolynomial:
        return cls(tuple(variables), {})

    @classmethod
    def constant(cls, variables: Iterable[str], value: int) -> LaurentPolynomial:
        names = tuple(variables)
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def monomial(cls, variables: Iterable[str], exponents: Iterable[int],
                 coefficient: int = 1) -> LaurentPolynomial:
        return cls(tuple(variables), {tuple(exponents): coefficient})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str, power: int = 1) -> LaurentPolynomial:
        names = tuple(variables)
        exps = [0] * len(names)
        exps[names.index(name)] = power
        return cls(names, {tuple(exps): 1})

    def _check_ring(self, other: LaurentPolynomial) -> None:
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        self._check_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return LaurentPolynomial(self.variables, terms)

    def __neg__(self) -> LaurentPolynomial:
        return LaurentPolynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: LaurentPolynomial) -> LaurentPolynomial:
        return self + (-other)

    def __mul__(self, other: LaurentPolynomial | int) -> LaurentPolynomial:
        if isinstance(other, int):
            return LaurentPolynomial(self.variables,
                                     {e: c * other for e, c in self.terms.items()})
        self._check_ring(other)
        terms: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return LaurentPolynomial(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> LaurentPolynomial:
        if exponent < 0:
            if len(self.terms) == 1:
                (e, c), = self.terms.items()
                if c in (1, -1):
                    coeff = c if exponent % 2 else 1
                    return LaurentPolynomial(
                        self.variables, {tuple(x * exponent for x in e): coeff})
            raise ValueError("negative powers only for unit monomials")
        result = LaurentPolynomial.constant(self.variables, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def coefficient(self, exponents: dict[str, int]) -> int:
        key = tuple(exponents.get(name, 0) for name in self.variables)
        return self.terms.get(key, 0)

    def to_text(self) -> str:
        """Terms in graded order: total degree ascending, then exponents descending."""
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in sorted(self.terms.items(),
                                  key=lambda item: (sum(item[0]), tuple(-x for x in item[0]))):
            factors = [f"{coeff:+d}"]
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            pieces.append(" ".join(factors))
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_text()


# ---------------------------------------------------------------------------
# MacMahon elements


def truncation_variables(width: int, colors: int) -> tuple[str, ...]:
    """Variable names for the k-color truncation: per color one cardinality
    variable x_j and one weight variable per weight coordinate."""
    if width < 2:
        raise ValueError("truncation needs width >= 2 (cardinality plus weights)")
    r = width - 1
    names: list[str] = []
    for j in range(1, colors + 1):
        names.append(f"x{j}")
        if r == 1:
            names.append(f"y{j}")
        else:
            names.extend(f"y{i}_{j}" for i in range(1, r + 1))
    return tuple(names)


@dataclass(frozen=True)
class MacMahonElement:
    """Integer linear combination of power-sum basis symbols p_Lambda."""

    width: int
    terms: dict[VectorPartition, int]

    def __post_init__(self) -> None:
        pruned = _without_zeros(self.terms)
        for p in pruned:
            if p.width != self.width:
                raise ValueError(f"partition width {p.width} does not match element width {self.width}")
        object.__setattr__(self, "terms", pruned)

    @classmethod
    def zero(cls, width: int) -> MacMahonElement:
        return cls(width, {})

    @classmethod
    def one(cls, width: int) -> MacMahonElement:
        return cls(width, {VectorPartition(width, ()): 1})

    @classmethod
    def power_sum(cls, partition: VectorPartition, coefficient: int = 1) -> MacMahonElement:
        return cls(partition.width, {partition: coefficient})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, partition: VectorPartition) -> int:
        return self.terms.get(partition, 0)

    def support(self) -> list[VectorPartition]:
        return sorted(self.terms, key=VectorPartition.sort_key)

    def _check_width(self, other: MacMahonElement) -> None:
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")

    def __add__(self, other: MacMahonElement) -> MacMahonElement:
        self._check_width(other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms.get(p, 0) + c
        return MacMahonElement(self.width, terms)

    def __neg__(self) -> MacMahonElement:
        return MacMahonElement(self.width, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: MacMahonElement) -> MacMahonElement:
        return self + (-other)

    def __mul__(self, other: MacMahonElement | int) -> MacMahonElement:
        if isinstance(other, int):
            return MacMahonElement(self.width, {p: c * other for p, c in self.terms.items()})
        self._check_width(other)
        terms: dict[VectorPartition, int] = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                key = VectorPartition(self.width, p1.parts + p2.parts)
                terms[key] = terms.get(key, 0) + c1 * c2
        return MacMahonElement(self.width, terms)

    __rmul__ = __mul__

    def truncate(self, colors: int) -> LaurentPolynomial:
        """Expand in the k-color variables: each part contributes a sum of
        one monomial per color, and a basis symbol multiplies its parts.

        Exponent vectors are packed into integers, one digit group of
        width coordinates per color, in a radix above every grade
        coordinate of the element, which no exponent of a product of its
        parts can reach; so a part's image is its k color codes, and
        `character_sum` multiplies and sums them.  A term has k * width
        exponents, so each sum of the kernel may hold
        TRUNCATE_LIVE_EXPONENTS / (k * width) terms; past that, checked as
        the products run, it raises CapExceededError."""
        if colors < 0:
            raise ValueError("number of colors must be >= 0")
        budget = TRUNCATE_LIVE_EXPONENTS // max(1, colors * self.width)  # in terms
        exceeded = (f"the {colors}-color truncation exceeds its budget of "
                    f"{TRUNCATE_LIVE_EXPONENTS} live exponents")
        if colors > budget:  # a part's image alone has `colors` terms
            raise CapExceededError(exceeded)
        names = truncation_variables(self.width, colors)
        radix = 1 + max((c for p in self.terms for c in p.grade), default=0)
        color_step = radix ** self.width

        def image(part: Vector) -> dict[int, int]:
            code = pack(part, radix)
            return {code * color_step ** (colors - 1 - j): 1 for j in range(colors)}

        try:
            codes = character_sum(self.terms, image, budget)
        except CapExceededError:
            raise CapExceededError(exceeded) from None
        return LaurentPolynomial(names, {unpack(key, radix, len(names)): count
                                         for key, count in codes.items() if count})

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        return "\n".join(f"{self.terms[partition]:+d} * p{partition}"
                         for partition in self.support())

    def __str__(self) -> str:
        return self.to_text()


# ---------------------------------------------------------------------------
# Tensor squares


@dataclass(frozen=True)
class TensorElement:
    """Integer combination of basis tensors p_Lambda (x) p_Omega."""

    width: int
    terms: dict[tuple[VectorPartition, VectorPartition], int]

    def __post_init__(self) -> None:
        pruned = _without_zeros(self.terms)
        for left, right in pruned:
            if left.width != self.width or right.width != self.width:
                raise ValueError("tensor factor width does not match element width")
        object.__setattr__(self, "terms", pruned)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (k[0].sort_key(), k[1].sort_key()))
        return "\n".join(f"{self.terms[k]:+d} * p{k[0]} (x) p{k[1]}" for k in keys)

    def __str__(self) -> str:
        return self.to_text()
