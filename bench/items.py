"""Running one item through chromac's public API, and checking its outputs.

`run_item` makes only library calls and is what the timed loop times;
`forget_caches` runs before it, untimed.
`check_item` compares the outputs with oracles that do not share the
route under test: the definitional EGDP against both recovery routes,
the generator's own facts against `recover_stats`, the coloring
enumeration against CMF truncations, and closed-form identities on the
EGDP, the beta table and the chromatic polynomial.  It returns a list of
failure descriptions, empty when every check holds.

Library functions are looked up on the `chromac` package at call time,
so that a traced run sees the wrappers installed there.
"""

from __future__ import annotations

from math import comb

import chromac
from workloads import Item

TRUNCATION_COLORS = (2, 3)


def forget_caches(item: Item) -> None:
    """Drop the vector partitions the library memoises, before a stars
    item, so that every stars item enumerates them again instead of
    timing only cache hits after the first round."""
    if item.kind == "stars":
        chromac.algebra._partition_cache.clear()


def run_item(item: Item) -> dict:
    api = chromac
    if item.kind == "stars":
        return {"matrix": api.transition_matrix(api.star_family, item.multidegree)}
    g = api.parse_graph(item.text)
    out: dict = {"graph": (g.n, g.edge_count, g.r)}
    if item.kind == "forest":
        out["egdp"] = api.egdp(g)
        element = api.cmf(g)
        out["cmf"] = element
        out["hopf"] = api.recover_egdp_hopf(element)
        stats = api.recover_stats(element)
        out["stats"] = (stats.n, stats.e, tuple(stats.weight), stats.c)
        if g.r == 1:
            table = api.beta_table(g)
            out["beta"] = table
            out["explicit"] = api.recover_egdp_explicit(table, g.n, g.total_weight[0], g.edge_count)
    elif item.kind == "graph":
        element = api.cmf(g)
        out["cmf"] = element
        out["wcsf"] = api.specialize_csf(element, "weight")
        out["csf"] = api.specialize_csf(element, "cardinality")
        for k in TRUNCATION_COLORS:
            out[f"truncate{k}"] = element.truncate(k)
            out[f"colorings{k}"] = api.cmf_by_enumeration(g, k)
    elif item.kind == "big-forest":
        poly = api.egdp(g)
        out["egdp"] = poly
        out["wgdp"] = api.specialize_egdp(poly, "wgdp")
        out["gdp"] = api.specialize_egdp(poly, "gdp")
        out["cmf"] = api.cmf(g)
        out["beta"] = api.beta_table(g)
    else:
        raise ValueError(f"unknown item kind {item.kind!r}")
    return out


def egdp_moments(item: Item, poly) -> list[str]:
    """Exact moments over all 2^n vertex subsets A: each vertex lies in A
    for half of them, each edge is external for half and internal for a
    quarter of them."""
    n, e = item.n, item.e
    names = poly.variables
    x, w, z = names.index("x"), names.index("w"), names.index("z")
    total = sum(poly.terms.values())
    sums = [sum(c * exps[i] for exps, c in poly.terms.items()) for i in (x, w, z)]
    expected = [n * 2 ** (n - 1), e * 2 ** (n - 1), (e * 2 ** n) // 4]
    failures = []
    if total != 2 ** n:
        failures.append(f"egdp coefficient sum {total} != 2^{n}")
    if any(c < 0 for c in poly.terms.values()):
        failures.append("egdp has a negative coefficient")
    for label, got, want in zip(("x", "w", "z"), sums, expected):
        if got != want:
            failures.append(f"egdp sum of {label}-exponents {got} != {want}")
    return failures


def beta_identities(item: Item, element, table) -> list[str]:
    """For a forest: |CMF coefficient| = beta on the same support, and the
    edge subsets with l components number C(e, n - l)."""
    failures = []
    if set(element.terms) != set(table):
        failures.append("cmf support differs from the beta table's types")
    elif any(abs(c) != table[p] for p, c in element.terms.items()):
        failures.append("|cmf coefficient| != beta")
    by_length: dict[int, int] = {}
    for p, count in table.items():
        by_length[p.length] = by_length.get(p.length, 0) + count
    for length in range(item.n + 1):
        want = comb(item.e, item.n - length) if item.n - length <= item.e else 0
        if by_length.get(length, 0) != want:
            failures.append(f"beta over length {length} sums to "
                            f"{by_length.get(length, 0)}, expected {want}")
    return failures


def chromatic_value(element, k: int) -> int:
    """Number of proper k-colorings read off a specialised CMF: each
    power-sum symbol of length l contributes k^l."""
    return sum(c * k ** p.length for p, c in element.terms.items())


def triangular_unit_diagonal(matrix: list[list[int]]) -> bool:
    size = len(matrix)
    return all(len(row) == size and abs(row[i]) == 1 and not any(row[:i])
               for i, row in enumerate(matrix))


def check_item(item: Item, out: dict) -> list[str]:
    if item.kind == "stars":
        matrix = out["matrix"]
        if not matrix or not triangular_unit_diagonal(matrix):
            return [f"star matrix for {item.multidegree} is not unit triangular"]
        return []
    failures = []
    if out["graph"] != (item.n, item.e, item.r):
        failures.append(f"parsed graph {out['graph']} != {(item.n, item.e, item.r)}")
    if "egdp" in out:
        failures += egdp_moments(item, out["egdp"])
    if item.kind == "forest":
        if out["hopf"] != out["egdp"]:
            failures.append("hopf route != egdp")
        want = (item.n, item.e, item.total_weight, item.components)
        if out["stats"] != want:
            failures.append(f"recover_stats {out['stats']} != {want}")
        if item.r == 1:
            if out["explicit"] != out["egdp"]:
                failures.append("explicit route != egdp")
            failures += beta_identities(item, out["cmf"], out["beta"])
    elif item.kind == "graph":
        for k in TRUNCATION_COLORS:
            colorings = out[f"colorings{k}"]
            if out[f"truncate{k}"] != colorings:
                failures.append(f"truncate({k}) != coloring enumeration")
            count = sum(colorings.terms.values())
            for spec in ("wcsf", "csf"):
                if chromatic_value(out[spec], k) != count:
                    failures.append(f"{spec} at {k} colors != {count} colorings")
    elif item.kind == "big-forest":
        n = item.n
        for spec, slot, total in (("wgdp", "x", item.total_weight[0]), ("gdp", "x", n)):
            poly = out[spec]
            i = poly.variables.index(slot)
            if sum(poly.terms.values()) != 2 ** n:
                failures.append(f"{spec} coefficient sum != 2^{n}")
            if sum(c * exps[i] for exps, c in poly.terms.items()) != total * 2 ** (n - 1):
                failures.append(f"{spec} sum of {slot}-exponents != {total}*2^{n - 1}")
        failures += beta_identities(item, out["cmf"], out["beta"])
    return failures
