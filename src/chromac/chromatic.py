"""Chromatic invariants of weighted graphs.

The chromatic MacMahon symmetric function (CMF) of a graph with weight
vectors in P^r lives in the width r+1 power-sum algebra: by inclusion-
exclusion over edge subsets S, each S contributes (-1)^|S| times the
basis symbol of its component type.  Truncating to k colors recovers
the generating function of proper k-colorings, which is also computed
here by direct enumeration as an independent cross-check.

The extended generalized degree polynomial (EGDP) records, for every
vertex subset A, the external edge count, cardinality, weight and
internal edge count of A as a monomial w^ext x^|A| y^weight z^int.
"""

from __future__ import annotations

import itertools

from .algebra import LaurentPolynomial, MacMahonElement, VectorPartition, truncation_variables
from .errors import CapExceededError, NotApplicableError
from .graphs import WeightedGraph

DEFAULT_MAX_EDGES = 30
DEFAULT_MAX_VERTICES = 25
DEFAULT_MAX_COLORINGS = 10 ** 7


def _subset_type(g: WeightedGraph, mask: int) -> VectorPartition:
    """Component type of (V, S) for the edge subset encoded by mask."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    m = mask
    while m:
        low = m & -m
        u, v = g.edges[low.bit_length() - 1]
        ru, rv = find(u), find(v)
        if ru != rv:
            if rv < ru:
                ru, rv = rv, ru
            parent[rv] = ru
        m ^= low
    agg: dict[int, list[int]] = {}
    for v in range(g.n):
        root = find(v)
        entry = agg.get(root)
        if entry is None:
            agg[root] = [1, *g.weights[v]]
        else:
            entry[0] += 1
            for i, c in enumerate(g.weights[v]):
                entry[i + 1] += c
    parts = tuple(sorted((tuple(e) for e in agg.values()), reverse=True))
    return VectorPartition(g.r + 1, parts)


def cmf(g: WeightedGraph, max_edges: int = DEFAULT_MAX_EDGES) -> MacMahonElement:
    """Chromatic MacMahon symmetric function, expanded over edge subsets."""
    if g.edge_count > max_edges:
        raise CapExceededError(f"{g.edge_count} edges exceeds the cap of {max_edges}")
    terms: dict[VectorPartition, int] = {}
    for mask in range(1 << g.edge_count):
        key = _subset_type(g, mask)
        sign = -1 if mask.bit_count() & 1 else 1
        terms[key] = terms.get(key, 0) + sign
    return MacMahonElement(g.r + 1, terms)


def beta_table(g: WeightedGraph, max_edges: int = DEFAULT_MAX_EDGES) -> dict[VectorPartition, int]:
    """For a forest: number of edge subsets of each component type.

    These counts carry the full CMF of the forest, since the subset type
    determines |S| there (length n - |S|), making the signs uniform per
    type with no cancellation.
    """
    if not g.is_forest():
        raise NotApplicableError(
            "input graph contains a cycle; the table is only defined for forests")
    if g.edge_count > max_edges:
        raise CapExceededError(f"{g.edge_count} edges exceeds the cap of {max_edges}")
    table: dict[VectorPartition, int] = {}
    for mask in range(1 << g.edge_count):
        key = _subset_type(g, mask)
        table[key] = table.get(key, 0) + 1
    return table


def specialize_csf(element: MacMahonElement, keep: str) -> MacMahonElement:
    """Project each part to its cardinality slot or to its weight slots,
    dropping parts that become zero and merging collisions."""
    if keep == "cardinality":
        new_width, slicer = 1, (lambda part: part[:1])
    elif keep == "weight":
        if element.width < 2:
            raise NotApplicableError("element has no weight coordinates")
        new_width, slicer = element.width - 1, (lambda part: part[1:])
    else:
        raise ValueError(f"keep must be 'cardinality' or 'weight', got {keep!r}")
    terms: dict[VectorPartition, int] = {}
    for partition, coeff in element.terms.items():
        parts = tuple(p for p in (slicer(part) for part in partition.parts) if any(p))
        key = VectorPartition(new_width, parts)
        terms[key] = terms.get(key, 0) + coeff
    return MacMahonElement(new_width, terms)


def egdp_variables(r: int) -> tuple[str, ...]:
    if r == 1:
        return ("w", "x", "y", "z")
    return ("w", "x", *(f"y{i}" for i in range(1, r + 1)), "z")


def egdp(g: WeightedGraph, max_vertices: int = DEFAULT_MAX_VERTICES) -> LaurentPolynomial:
    """Extended generalized degree polynomial: one monomial
    w^ext(A) x^|A| y^wt(A) z^int(A) per vertex subset A."""
    if g.n > max_vertices:
        raise CapExceededError(f"{g.n} vertices exceeds the cap of {max_vertices}")
    names = egdp_variables(g.r)
    terms: dict[tuple[int, ...], int] = {}
    for mask in range(1 << g.n):
        size = mask.bit_count()
        weight = [0] * g.r
        for v in range(g.n):
            if mask >> v & 1:
                for i, c in enumerate(g.weights[v]):
                    weight[i] += c
        external = internal = 0
        for u, v in g.edges:
            inside = (mask >> u & 1) + (mask >> v & 1)
            if inside == 1:
                external += 1
            elif inside == 2:
                internal += 1
        key = (external, size, *weight, internal)
        terms[key] = terms.get(key, 0) + 1
    return LaurentPolynomial(names, terms)


def specialize_egdp(poly: LaurentPolynomial, target: str) -> LaurentPolynomial:
    """Project the EGDP to the weighted degree polynomial
    (x^wt y^ext z^int, scalar weights only) or to the plain degree
    polynomial (x^|A| y^ext z^int)."""
    names = poly.variables
    if names[:2] != ("w", "x") or names[-1] != "z":
        raise NotApplicableError(f"not an extended degree polynomial ring: {names}")
    weight_vars = names[2:-1]
    if target == "wgdp":
        if weight_vars != ("y",):
            raise NotApplicableError("weighted degree polynomial requires scalar weights (r=1)")
        return poly.substitute_one(["x"]).rename({"y": "x", "w": "y", "z": "z"}, ("x", "y", "z"))
    if target == "gdp":
        return poly.substitute_one(weight_vars).rename(
            {"x": "x", "w": "y", "z": "z"}, ("x", "y", "z"))
    raise ValueError(f"target must be 'wgdp' or 'gdp', got {target!r}")


def cmf_by_enumeration(g: WeightedGraph, colors: int,
                       max_colorings: int = DEFAULT_MAX_COLORINGS) -> LaurentPolynomial:
    """Truncated CMF by brute force over all proper colorings with the
    given number of colors.  Independent of the edge-subset expansion."""
    if colors < 0:
        raise ValueError("number of colors must be >= 0")
    if colors ** g.n > max_colorings:
        raise CapExceededError(f"{colors}^{g.n} colorings exceeds the cap of {max_colorings}")
    names = truncation_variables(g.r + 1, colors)
    block = g.r + 1
    terms: dict[tuple[int, ...], int] = {}
    for coloring in itertools.product(range(colors), repeat=g.n):
        if any(coloring[u] == coloring[v] for u, v in g.edges):
            continue
        exps = [0] * len(names)
        for v, color in enumerate(coloring):
            exps[color * block] += 1
            for i, c in enumerate(g.weights[v]):
                exps[color * block + 1 + i] += c
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + 1
    return LaurentPolynomial(names, terms)
