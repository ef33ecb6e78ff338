"""Closed-form recovery of the EGDP of a forest from its subset-type table.

For a forest with n vertices, total weight w and e edges, the number of
vertex subsets A with ext(A) = a, |A| = b, wt(A) = c, int(A) = d is a
signed binomial sum over the subset-type table: each type Lambda
contributes (-1)^(n - len(Lambda)) times a coefficient that sums over
sub-partitions of multidegree (b, c).  The engine of the cancellation
is the identity  sum_k C(P, k) (-1)^(k + q) C(k, q) = [P == q]; the
tests check it term by term and evaluate the per-type coefficient
pointwise as oracles for the assembly below.  The binomial tops are the
powers of (1 - z/w) and (1 - 1/w) in the Hopf route's convolution, so
the assembly sums the signed counts of all types at once with that
route's kernel-to-buckets pass, `hopf._convolution_buckets`.

On a forest's table (the CMF's coefficients in absolute value) this
route expands the same grid as `hopf.recover_egdp_hopf`, so it returns
the EGDP whenever that route does; `chromac verify` therefore runs the
Hopf route alone.  The tests check this route on its own, against the
EGDP frontier dynamic program and the per-type pointwise oracle.
"""

from __future__ import annotations

from .algebra import LaurentPolynomial, VectorPartition, _expand_one_minus_u, unpack
from .chromatic import egdp_variables
from .errors import NotApplicableError
from .hopf import _convolution_buckets


def recover_egdp_explicit(table: dict[VectorPartition, int], n: int,
                          total_weight: int, e: int) -> LaurentPolynomial:
    """Assemble the EGDP of a forest from its subset-type table.

    Equivalent to summing count * (-1)^(n - length) times each type's
    pointwise coefficient over the table for every statistics tuple.  A
    sub-multiset of a type with size b, weight c and length l enters only
    through (b, c, l) and the type's length L, as in the Hopf route with
    the grade n fixed: the binomial tops p = b - l and
    q = (n - b) - (L - l) are its powers of (1 - z/w) and (1 - 1/w), so
    `_convolution_buckets` sums the signed counts per (p, q) with the
    monomials at w^e.  A negative top contributes nothing, so those
    buckets are dropped before `_expand_one_minus_u`.
    """
    signed: dict[VectorPartition, int] = {}
    for partition, count in table.items():
        if partition.width != 2:
            raise NotApplicableError("the explicit route requires scalar weights (width 2 types)")
        if partition.grade != (n, total_weight):
            raise ValueError(f"type {partition} does not have multidegree ({n},{total_weight})")
        signed[partition] = -count if (n - partition.length) & 1 else count
    radix = 1 + max(n, total_weight, e, *(p.length for p in table))
    buckets = _convolution_buckets(signed, 2, radix, e - n)
    # w^e (1 - z/w)^p (1 - 1/w)^q; with w the top digit, the terms with a
    # negative power of w are the negative codes
    grid = _expand_one_minus_u({p: {q: codes for q, codes in by_q.items() if q >= 0}
                                for p, by_q in buckets.items() if p >= 0}, radix ** 3)
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
    if sum(table.values()) != 2 ** e:  # one count per edge subset
        raise ValueError(f"type counts sum to {sum(table.values())}, expected 2^{e}; "
                         "the table is not a forest subset-type table for these parameters")
    return LaurentPolynomial(egdp_variables(1), terms)
