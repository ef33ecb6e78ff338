"""Closed-form recovery of the EGDP of a forest from its subset-type table.

For a forest with n vertices, total weight w and e edges, the number of
vertex subsets A with ext(A) = a, |A| = b, wt(A) = c, int(A) = d is a
signed binomial sum over the subset-type table: each type Lambda
contributes (-1)^(n - len(Lambda)) times a coefficient that sums over
sub-partitions of multidegree (b, c).  The engine of the cancellation
is the identity  sum_k C(P, k) (-1)^(k + q) C(k, q) = [P == q]; the
tests check it term by term and evaluate the per-type coefficient
pointwise as oracles for the assembly below, which sums the signed
counts of all types at once with the trie kernel `character_sum`.
"""

from __future__ import annotations

from .algebra import (LaurentPolynomial, VectorPartition, _expand_one_minus_u, character_sum,
                      pack, unpack)
from .errors import NotApplicableError


def recover_egdp_explicit(table: dict[VectorPartition, int], n: int,
                          total_weight: int, e: int) -> LaurentPolynomial:
    """Assemble the EGDP of a forest from its subset-type table.

    Equivalent to summing count * (-1)^(n - length) times each type's
    pointwise coefficient over the table for every statistics tuple.  A
    sub-multiset of a type with size b, weight c and length l enters only
    through (b, c, l) and the type's length, so `character_sum` sums the
    signed counts per (type length, l, b, c) over all types (a part adds
    1 to the type length, and either nothing or 1 and itself to (l, b, c)).
    Each prefix (type length, l, b) of the sums is decoded once, the c
    digit carried along as an offset, and the sums are bucketed by their
    binomial tops for `_expand_one_minus_u`.
    """
    signed: dict[VectorPartition, int] = {}
    for partition, count in table.items():
        if partition.width != 2:
            raise NotApplicableError("the explicit route requires scalar weights (width 2 types)")
        if partition.grade != (n, total_weight):
            raise ValueError(f"type {partition} does not have multidegree ({n},{total_weight})")
        signed[partition] = -count if (n - partition.length) & 1 else count
    radix = 1 + max(n, total_weight, e, *(p.length for p in table))
    one_part = pack((1, 0, 0, 0), radix)

    def image(part: tuple[int, ...]) -> dict[int, int]:
        return {one_part: 1, one_part + pack((0, 1, *part), radix): 1}

    w_unit = radix ** 3  # w^1 in the packed (a, b, c, d)
    prefixes: dict[int, tuple[dict[int, int], int] | None] = {}
    buckets: dict[int, dict[int, dict[int, int]]] = {}
    for stats, weight in character_sum(signed, image).items():
        if not weight:
            continue
        prefix, c0 = divmod(stats, radix)
        if prefix not in prefixes:
            length, l0, b0 = unpack(prefix, radix, 3)
            inside_top = b0 - l0
            outside_top = n - length + l0 - b0
            prefixes[prefix] = None if inside_top < 0 or outside_top < 0 else (
                buckets.setdefault(inside_top, {}).setdefault(outside_top, {}),
                e * w_unit + b0 * radix * radix)
        slot = prefixes[prefix]
        if slot is not None:
            codes, base = slot
            codes[base + c0 * radix] = weight  # w^e x^b0 y^c0
    # w^e (1 - z/w)^inside_top (1 - 1/w)^outside_top; with w the top
    # digit, the terms with a negative power of w are the negative codes
    grid = _expand_one_minus_u(buckets, w_unit)
    terms: dict[tuple[int, ...], int] = {}
    total = 0
    for key in sorted(key for key, value in grid.items() if value and key >= 0):
        value = grid[key]
        a, b0, c0, d = unpack(key, radix, 4)
        if value < 0:
            raise ValueError(f"negative reconstructed coefficient {value} at "
                             f"(ext,size,weight,internal)=({a},{b0},{c0},{d}); "
                             "the table is not a forest subset-type table for these parameters")
        terms[a, b0, c0, d] = value
        total += value
    if total != 2 ** n:
        raise ValueError(f"reconstructed coefficients sum to {total}, expected 2^{n}; "
                         "the table is not a forest subset-type table for these parameters")
    return LaurentPolynomial(("w", "x", "y", "z"), terms)
