"""Chromatic bases of the positive-part algebra from families of
connected weighted graphs.

A family assigns to each feasible (size, weight) pair a connected
weighted graph.  Multiplying CMFs over the parts of a vector partition
and expanding in the power-sum basis gives a transition matrix; for
tree-shaped families it is triangular with entries +-1 on the diagonal
under the canonical partition order, so the family CMFs form a basis.

The CMF is multiplicative over disjoint unions, so the row of a
partition is the product of its members' CMFs, and the family graph of
the definition, the disjoint union of the members, is never built.
`transition_matrix` checks and computes one CMF per distinct part, of
that part's member alone, and multiplies each row's members in turn.
A matrix has one row per realizable partition, at most
`TRANSITION_MATRIX_ROWS` of them.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

from .algebra import Vector, VectorPartition, add_product
from .chromatic import cmf
from .errors import CapExceededError
from .graphs import UnionFind, WeightedGraph, single_vertex, star_graph

Family = Callable[[int, int], WeightedGraph]

# realizable partitions of one multidegree, so a transition matrix has at
# most 2^24 entries (about 130 MB of row slots)
TRANSITION_MATRIX_ROWS = 2 ** 12


def star_family(n: int, w: int) -> WeightedGraph:
    """Star with center weight w - n + 1 and n - 1 leaves of weight 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    if w < n:
        raise ValueError(f"total weight {w} is below the vertex count {n}; "
                         "every vertex needs weight >= 1")
    if n == 1:
        return single_vertex(w)
    return star_graph(w - n + 1, [1] * (n - 1))


def realizable_partitions(multidegree: tuple[int, int]) -> list[VectorPartition]:
    """Vector partitions of (N, W) whose parts (n_i, w_i) all satisfy
    w_i >= n_i >= 1, i.e. are sizes and weights of connected weighted
    graphs.  Sorted by length, then lexicographically; every subset type
    of every graph of this multidegree is such a partition.

    Parts are chosen largest first, each at most the one before, and only
    where what remains stays realizable: a part's excess w_i - n_i is at
    most the excess of what is left of (N, W).  They index the rows of a
    transition matrix, so past `TRANSITION_MATRIX_ROWS` of them the
    enumeration stops with CapExceededError."""
    n, w = multidegree
    if n < 0 or w < 0:
        raise ValueError("multidegree coordinates must be >= 0")
    found: list[VectorPartition] = []
    parts: list[Vector] = []

    def extend(size: int, weight: int, largest: Vector) -> None:
        if not size:
            if len(found) == TRANSITION_MATRIX_ROWS:
                raise CapExceededError(
                    f"multidegree ({n},{w}) has more than {TRANSITION_MATRIX_ROWS} realizable "
                    "partitions, the row budget of a transition matrix")
            found.append(VectorPartition.from_canonical(2, tuple(parts), (n, w)))
            return
        excess = weight - size
        for a in range(min(size, largest[0]), 0, -1):
            top = min(largest[1], a + excess) if a == largest[0] else a + excess
            bottom = a + excess if a == size else a  # the last part takes the rest
            for b in range(top, bottom - 1, -1):
                parts.append((a, b))
                extend(size - a, weight - b, (a, b))
                parts.pop()

    if n and w >= n:
        extend(n, w, (n, w))
    return sorted(found, key=VectorPartition.sort_key)


def _member(family: Family, part: Vector) -> WeightedGraph:
    """The family's member for one part, checked for scalar weights, then
    for the part's size and weight, then for one component: n - 1 of its
    edges must each join two components of a union-find."""
    size, weight = part
    member = family(size, weight)
    if member.r != 1:
        raise ValueError("family members must have scalar weights")
    if member.n != size or member.total_weight != (weight,):
        raise ValueError(f"family graph for part ({size},{weight}) has "
                         f"{member.n} vertices and weight {member.total_weight}")
    components = UnionFind(member.n)
    if sum(components.union(u, v) for u, v in member.edges) != member.n - 1:
        raise ValueError(f"family graph for part ({size},{weight}) is not connected")
    return member


def transition_matrix(family: Family, multidegree: tuple[int, int]) -> list[list[int]]:
    """Square matrix of family-product CMFs in the power-sum basis.

    Row i holds the coefficients of the CMF of partition i's members'
    disjoint union on the realizable partitions, in canonical order.

    A partition is a packed code with one multiplicity digit per distinct
    part, as in the forest CMF, so multiplying CMFs adds codes.  Each
    distinct part's member CMF is computed once, in the order the rows
    first use it, and a row is the product of its members' CMFs.  The
    first row's member, of the whole multidegree, is computed before the
    partitions are enumerated, so its own caps apply before the row
    budget of `realizable_partitions`."""
    n, w = multidegree
    digit = n.bit_length()  # room for every multiplicity
    shifts: dict[Vector, int] = {}  # part -> shift of its multiplicity digit

    def code(partition: VectorPartition) -> int:
        return sum(1 << shifts.setdefault(part, digit * len(shifts)) for part in partition.parts)

    @cache
    def member(part: Vector) -> dict[int, int]:
        element = cmf(_member(family, part))
        return {code(p): c for p, c in element.terms.items()}

    if w >= n >= 1:
        member((n, w))
    index = realizable_partitions(multidegree)
    column = {code(p): j for j, p in enumerate(index)}
    matrix = []
    for partition in index:
        product = {0: 1}
        for part in partition.parts:
            product = add_product({}, product, member(part))
        row = [0] * len(index)
        for support, coeff in product.items():
            if support in column:
                row[column[support]] = coeff
            elif coeff:
                parts_at = [part for part, shift in shifts.items()
                            for _ in range(support >> shift & (1 << digit) - 1)]
                raise RuntimeError(f"CMF support {VectorPartition(2, tuple(parts_at))} "
                                   "outside the realizable partitions")
        matrix.append(row)
    return matrix


def is_triangular_with_unit_diagonal(matrix: list[list[int]]) -> bool:
    """True iff the matrix is upper triangular in the canonical order with
    every diagonal entry +1 or -1 (hence unimodularly invertible)."""
    for i, row in enumerate(matrix):
        if len(row) != len(matrix):
            raise ValueError("matrix is not square")
        if abs(row[i]) != 1:
            return False
        if any(row[j] != 0 for j in range(i)):
            return False
    return True


def matrix_to_text(matrix: list[list[int]]) -> str:
    return "\n".join("\t".join(str(entry) for entry in row) for row in matrix)
