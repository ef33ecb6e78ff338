"""Closed-form recovery of the EGDP of a forest from its subset-type table.

For a forest with n vertices, total weight w and e edges, the number of
vertex subsets A with ext(A) = a, |A| = b, wt(A) = c, int(A) = d is a
signed binomial sum over the subset-type table: each type Lambda
contributes (-1)^(n - len(Lambda)) times a coefficient that sums over
sub-partitions of multidegree (b, c).  The engine of the cancellation
is the identity  sum_k C(P, k) (-1)^(k + q) C(k, q) = [P == q]; the
tests check it term by term and evaluate the per-type coefficient
pointwise as oracles for the bucketed assembly below.
"""

from __future__ import annotations

import math

from .algebra import LaurentPolynomial, VectorPartition, submultiset_stats, unpack
from .errors import NotApplicableError


def recover_egdp_explicit(table: dict[VectorPartition, int], n: int,
                          total_weight: int, e: int) -> LaurentPolynomial:
    """Assemble the EGDP of a forest from its subset-type table.

    Equivalent to summing count * (-1)^(n - length) times each type's
    pointwise coefficient over the table for every statistics tuple.  A
    sub-multiset of a type with size b, weight c and length l enters only
    through (b, c, l) and the type's length, so the signed counts are
    summed per such bucket over all types, and each bucket's binomials
    are expanded once.
    """
    radix = 1 + max((max(*p.grade, p.length) for p in table), default=0)
    buckets: dict[tuple[int, int], int] = {}  # (type length, packed (l, b, c))
    for partition, count in table.items():
        if partition.width != 2:
            raise NotApplicableError("the explicit route requires scalar weights (width 2 types)")
        if partition.grade != (n, total_weight):
            raise ValueError(f"type {partition} does not have multidegree ({n},{total_weight})")
        base = -count if (n - partition.length) & 1 else count
        for stats, mult in submultiset_stats(partition, radix).items():
            key = (partition.length, stats)
            buckets[key] = buckets.get(key, 0) + base * mult
    grid: dict[tuple[int, int, int, int], int] = {}
    for (length, stats), weight in buckets.items():
        l0, b0, c0 = unpack(stats, radix, 3)
        inside_top = b0 - l0
        outside_top = n - length + l0 - b0
        if not weight or inside_top < 0 or outside_top < 0:
            continue
        for d in range(0, min(e, inside_top) + 1):
            contribution = weight * math.comb(inside_top, d)
            for a in range(max(0, e - d - outside_top), e - d + 1):
                term = contribution * math.comb(outside_top, e - a - d)
                key = (a, b0, c0, d)
                grid[key] = grid.get(key, 0) + (-term if (e - a) & 1 else term)
    terms: dict[tuple[int, ...], int] = {}
    total = 0
    for key in sorted(grid):
        value = grid[key]
        if value < 0:
            a, b0, c0, d = key
            raise ValueError(f"negative reconstructed coefficient {value} at "
                             f"(ext,size,weight,internal)=({a},{b0},{c0},{d}); "
                             "the table is not a forest subset-type table for these parameters")
        if value:
            terms[key] = value
            total += value
    if total != 2 ** n:
        raise ValueError(f"reconstructed coefficients sum to {total}, expected 2^{n}; "
                         "the table is not a forest subset-type table for these parameters")
    return LaurentPolynomial(("w", "x", "y", "z"), terms)
