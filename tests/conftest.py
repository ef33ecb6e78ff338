"""Shared fixtures: the weight-swapped path pair, a deterministic graph
corpus, weight patterns for exhaustive tree sweeps, the helpers that
only tests use (the binomial; the tensor product, sum and factor swap;
the counting functional; a graph's connected components and subset
statistics: the component type of an edge subset, the induced subgraph
and the external and internal edge counts of a vertex subset), Hopf-axiom
checkers used by both the unit and acceptance suites, and definitional
oracles for the CMF and EGDP dynamic programs and the three-pass form of
their shared walk, fingerprint oracles that evaluate both sides of the
recovery identity at a point modulo a prime
(Gamma of the CMF of any graph too, by deletion and contraction),
the packed truncation, the coloring enumeration, the one-pass
specialisations, the grouped coproduct, the trie-kernel Hopf evaluations, the trie kernel's
node-by-node products, the bucketed (1 - u) expansion, the explicit
recovery route and the product transition matrices (the family graph of
a partition, the disjoint union of its checked members, row by row)."""

from __future__ import annotations

import heapq
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable

import pytest

from chromac import (LaurentPolynomial, LinearFunctional, MacMahonElement,
                     NotApplicableError, TensorElement, VectorPartition,
                     WeightedGraph, antipode, cmf, convolve, coproduct,
                     counterexample_pair, cycle_graph, disjoint_union,
                     egdp_variables, partitions_of, path_graph,
                     realizable_partitions, star_graph, truncation_variables)
from chromac.algebra import Vector, _one_minus_u_power, add_product, unpack
from chromac.bases import Family
from chromac.graphs import UnionFind
from chromac.hopf import counting_variables


# one {number, label, verdict, seconds} record per acceptance criterion run
acceptance_results: list[dict] = []


def acceptance_line(result: dict) -> str:
    return (f"ACCEPTANCE {result['number']} {result['label']}: {result['verdict']} "
            f"({result['seconds']:.2f}s)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_results:
        terminalreporter.section("acceptance criteria")
        for result in acceptance_results:
            terminalreporter.write_line(acceptance_line(result))
        terminalreporter.write_line("ACCEPTANCE_JSON " + json.dumps(acceptance_results))


@pytest.fixture(scope="session")
def t1():
    return counterexample_pair()[0]


@pytest.fixture(scope="session")
def t2():
    return counterexample_pair()[1]


def weight_patterns(n: int, max_weight: int) -> list[tuple[int, ...]]:
    """Deterministic scalar weight assignments covering [1, max_weight]."""
    patterns = {
        tuple([1] * n),
        tuple((i % max_weight) + 1 for i in range(n)),
        tuple(max_weight - (i % max_weight) for i in range(n)),
    }
    return sorted(patterns)


def random_simple_graph(rng: random.Random, n: int, r: int = 1,
                        max_weight: int = 4, density: float = 0.4) -> WeightedGraph:
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < density)
    weights = tuple(tuple(rng.randint(1, max_weight) for _ in range(r)) for _ in range(n))
    return WeightedGraph(n, weights, edges, r)


@pytest.fixture(scope="session")
def corpus() -> list[WeightedGraph]:
    """Fixed list of >= 200 graphs with n <= 6: paths, cycles, stars,
    random graphs, plus a few two-dimensional weightings."""
    graphs: list[WeightedGraph] = []
    for n in range(1, 7):
        for pattern in weight_patterns(n, 4):
            graphs.append(path_graph(pattern))
    for n in range(3, 7):
        for pattern in weight_patterns(n, 4):
            graphs.append(cycle_graph(pattern))
    for n in range(2, 7):
        for pattern in weight_patterns(n, 4):
            graphs.append(star_graph(pattern[0], pattern[1:]))
    rng = random.Random(20260814)
    while len(graphs) < 200:
        graphs.append(random_simple_graph(rng, rng.randint(1, 6)))
    for seed in range(8):
        rng2 = random.Random(seed)
        graphs.append(random_simple_graph(rng2, rng2.randint(1, 5), r=2, max_weight=3))
    return graphs


def random_element(rng: random.Random, width: int = 2,
                   max_terms: int = 3, max_coord: int = 2) -> MacMahonElement:
    terms: dict[VectorPartition, int] = {}
    for _ in range(rng.randint(0, max_terms)):
        parts = []
        for _ in range(rng.randint(0, 3)):
            vec = (0,) * width
            while not any(vec):
                vec = tuple(rng.randint(0, max_coord) for _ in range(width))
            parts.append(vec)
        p = VectorPartition.of(parts, width=width)
        terms[p] = terms.get(p, 0) + rng.randint(-5, 5)
    return MacMahonElement(width, terms)


# ---------------------------------------------------------------------------
# Binomials, tensor products and counting functionals, by definition


def choose(a: int, b: int) -> int:
    """Binomial coefficient, 0 when b < 0 or b > a.  Requires a >= 0."""
    if a < 0:
        raise ValueError(f"negative top in binomial coefficient: {a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def partition_binomial(lam: VectorPartition, omega: VectorPartition) -> int:
    """Product over distinct parts of C(multiplicity in lam, multiplicity in omega)."""
    if lam.width != omega.width:
        raise ValueError("partition widths differ")
    lam_counts = lam.multiplicities()
    result = 1
    for part, m in omega.multiplicities().items():
        result *= choose(lam_counts.get(part, 0), m)
        if result == 0:
            return 0
    return result


def tensor_product(left: MacMahonElement, right: MacMahonElement) -> TensorElement:
    if left.width != right.width:
        raise ValueError("width mismatch")
    terms: dict[tuple[VectorPartition, VectorPartition], int] = {}
    for p1, c1 in left.terms.items():
        for p2, c2 in right.terms.items():
            key = (p1, p2)
            terms[key] = terms.get(key, 0) + c1 * c2
    return TensorElement(left.width, terms)


def tensor_sum(width: int, tensors: Iterable[TensorElement]) -> TensorElement:
    """Sum of tensor elements of the given width."""
    terms: dict[tuple[VectorPartition, VectorPartition], int] = {}
    for tensor in tensors:
        for key, c in tensor.terms.items():
            terms[key] = terms.get(key, 0) + c
    return TensorElement(width, terms)


def swap(tensor: TensorElement) -> TensorElement:
    """The tensor with its two factors exchanged in every term."""
    return TensorElement(tensor.width,
                         {(right, left): c for (left, right), c in tensor.terms.items()})


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


# ---------------------------------------------------------------------------
# Definitional oracle for the grouped coproduct


def coproduct_by_positions(element: MacMahonElement) -> TensorElement:
    """coproduct by definition: each basis symbol split over all 2^length
    subsets of its part positions, one term per subset."""
    terms: dict[tuple[VectorPartition, VectorPartition], int] = {}
    for partition, coeff in element.terms.items():
        parts, width = partition.parts, partition.width
        for mask in range(1 << len(parts)):
            left = VectorPartition(width, tuple(p for i, p in enumerate(parts) if mask >> i & 1))
            right = VectorPartition(width, tuple(p for i, p in enumerate(parts) if not mask >> i & 1))
            key = (left, right)
            terms[key] = terms.get(key, 0) + coeff
    return TensorElement(element.width, terms)


# ---------------------------------------------------------------------------
# Hopf axiom checkers

TripleTerms = dict[tuple[VectorPartition, VectorPartition, VectorPartition], int]


def _basis(p: VectorPartition) -> MacMahonElement:
    return MacMahonElement.power_sum(p)


def double_coproduct_left(element: MacMahonElement) -> TripleTerms:
    """(coproduct (x) id) after coproduct, as a triple-tensor term map."""
    acc: TripleTerms = {}
    for (left, right), c in coproduct(element).terms.items():
        for (a, b), c2 in coproduct(_basis(left)).terms.items():
            key = (a, b, right)
            acc[key] = acc.get(key, 0) + c * c2
    return {k: v for k, v in acc.items() if v}


def double_coproduct_right(element: MacMahonElement) -> TripleTerms:
    """(id (x) coproduct) after coproduct."""
    acc: TripleTerms = {}
    for (left, right), c in coproduct(element).terms.items():
        for (a, b), c2 in coproduct(_basis(right)).terms.items():
            key = (left, a, b)
            acc[key] = acc.get(key, 0) + c * c2
    return {k: v for k, v in acc.items() if v}


def antipode_convolution(element: MacMahonElement) -> MacMahonElement:
    """Multiply after (antipode (x) id) after coproduct; the antipode law
    says this equals the coefficient of the empty partition times 1."""
    acc = MacMahonElement.zero(element.width)
    for (left, right), c in coproduct(element).terms.items():
        acc = acc + c * (antipode(_basis(left)) * _basis(right))
    return acc


def counit(element: MacMahonElement) -> int:
    return element.coefficient(VectorPartition(element.width, ()))


def coproduct_respects_product(a: MacMahonElement, b: MacMahonElement) -> bool:
    lhs = coproduct(a * b)
    terms: dict[tuple[VectorPartition, VectorPartition], int] = {}
    for (l1, r1), c1 in coproduct(a).terms.items():
        for (l2, r2), c2 in coproduct(b).terms.items():
            key = (VectorPartition(a.width, l1.parts + l2.parts),
                   VectorPartition(a.width, r1.parts + r2.parts))
            terms[key] = terms.get(key, 0) + c1 * c2
    return lhs == TensorElement(a.width, terms)


# ---------------------------------------------------------------------------
# Definitional oracles for the trie-kernel Hopf evaluations


def egdp_convolution_by_coproduct(element: MacMahonElement) -> LaurentPolynomial:
    """egdp_convolution by definition: the two counting functionals
    convolved through the materialised coproduct."""
    r = element.width - 1
    names = egdp_variables(r)
    w = LaurentPolynomial.variable(names, "w")
    x = LaurentPolynomial.variable(names, "x")
    z = LaurentPolynomial.variable(names, "z")
    ys = [LaurentPolynomial.variable(names, name) for name in names[2:-1]]
    f = counting_functional(w * x, (w ** -1) * z, ys)
    g = counting_functional(w, w ** -1, [1] * r)
    return convolve(f, g, element)


def counting_image_by_functional(element: MacMahonElement) -> LaurentPolynomial:
    """symbolic_counting_image by definition: the counting functional with
    formal t, u, v applied basis symbol by basis symbol."""
    names = counting_variables(element.width)
    t = LaurentPolynomial.variable(names, "t")
    u = LaurentPolynomial.variable(names, "u")
    vs = [LaurentPolynomial.variable(names, name) for name in names[2:]]
    return counting_functional(t, u, vs)(element)


# ---------------------------------------------------------------------------
# Definitional oracle for the packed truncation


def truncate_by_products(element: MacMahonElement, colors: int) -> LaurentPolynomial:
    """MacMahonElement.truncate by definition: every basis symbol is the
    product of its parts' Laurent polynomials, one monomial per color."""
    if colors < 0:
        raise ValueError("number of colors must be >= 0")
    names = truncation_variables(element.width, colors)
    block = element.width  # variables per color: x_j plus the weight slots
    part_cache: dict[tuple[int, ...], LaurentPolynomial] = {}

    def part_poly(part: tuple[int, ...]) -> LaurentPolynomial:
        poly = part_cache.get(part)
        if poly is None:
            terms: dict[tuple[int, ...], int] = {}
            for j in range(colors):
                exps = [0] * len(names)
                exps[j * block] = part[0]
                for i in range(1, element.width):
                    exps[j * block + i] = part[i]
                terms[tuple(exps)] = 1
            poly = LaurentPolynomial(names, terms)
            part_cache[part] = poly
        return poly

    total = LaurentPolynomial.zero(names)
    for partition, coeff in element.terms.items():
        product = LaurentPolynomial.constant(names, coeff)
        for part in partition.parts:
            product = product * part_poly(part)
        total = total + product
    return total


# ---------------------------------------------------------------------------
# Definitional oracles for the coloring enumeration and the specialisations


def colorings_by_product(g: WeightedGraph, colors: int) -> LaurentPolynomial:
    """cmf_by_enumeration by definition: all colors^n colorings, each
    tested edge by edge, the proper ones adding their monomial."""
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


def substitute_one(poly: LaurentPolynomial, names: Iterable[str]) -> LaurentPolynomial:
    """Set the given variables to 1, keeping the ambient variable tuple."""
    drop = {poly.variables.index(name) for name in names}
    terms: dict[tuple[int, ...], int] = {}
    for e, c in poly.terms.items():
        key = tuple(0 if i in drop else x for i, x in enumerate(e))
        terms[key] = terms.get(key, 0) + c
    return LaurentPolynomial(poly.variables, terms)


def rename(poly: LaurentPolynomial, mapping: dict[str, str],
           new_variables: Iterable[str]) -> LaurentPolynomial:
    """Move terms into a new ring; unmapped variables must not occur."""
    names = tuple(new_variables)
    slots: list[int | None] = []
    for old in poly.variables:
        slots.append(names.index(mapping[old]) if old in mapping else None)
    terms: dict[tuple[int, ...], int] = {}
    for e, c in poly.terms.items():
        key = [0] * len(names)
        for i, x in enumerate(e):
            if slots[i] is None:
                if x != 0:
                    raise ValueError(f"variable {poly.variables[i]} still occurs")
            else:
                key[slots[i]] += x
        k = tuple(key)
        terms[k] = terms.get(k, 0) + c
    return LaurentPolynomial(names, terms)


def specialize_csf_two_pass(element: MacMahonElement, keep: str) -> MacMahonElement:
    """specialize_csf by definition: every projected term goes through the
    validating VectorPartition constructor."""
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


def specialize_egdp_two_pass(poly: LaurentPolynomial, target: str) -> LaurentPolynomial:
    """specialize_egdp by definition: set the dropped variables to 1, then
    rename the rest into the ring (x, y, z)."""
    names = poly.variables
    if names[:2] != ("w", "x") or names[-1] != "z":
        raise NotApplicableError(f"not an extended degree polynomial ring: {names}")
    weight_vars = names[2:-1]
    if target == "wgdp":
        if weight_vars != ("y",):
            raise NotApplicableError("weighted degree polynomial requires scalar weights (r=1)")
        return rename(substitute_one(poly, ["x"]), {"y": "x", "w": "y", "z": "z"}, ("x", "y", "z"))
    if target == "gdp":
        return rename(substitute_one(poly, weight_vars), {"x": "x", "w": "y", "z": "z"},
                      ("x", "y", "z"))
    raise ValueError(f"target must be 'wgdp' or 'gdp', got {target!r}")


# ---------------------------------------------------------------------------
# Subset statistics of a graph


@dataclass(frozen=True)
class Component:
    vertices: tuple[int, ...]
    weight: Vector

    @property
    def size(self) -> int:
        return len(self.vertices)


def connected_components(g: WeightedGraph,
                         subset: Iterable[tuple[int, int]]) -> tuple[Component, ...]:
    """Components of (V, subset), ordered by minimum vertex index."""
    uf = UnionFind(g.n)
    for u, v in subset:
        uf.union(u, v)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(uf.find(v), []).append(v)
    components = []
    for root in sorted(groups):
        vertices = tuple(groups[root])
        weight = [0] * g.r
        for v in vertices:
            for i, c in enumerate(g.weights[v]):
                weight[i] += c
        components.append(Component(vertices, tuple(weight)))
    return tuple(components)


def component_type(g: WeightedGraph, subset: Iterable[tuple[int, int]]) -> VectorPartition:
    """Vector partition with one part (size, weight...) per component of (V, subset)."""
    parts = [(c.size,) + c.weight for c in connected_components(g, subset)]
    return VectorPartition(g.r + 1, tuple(parts))


def induced_subgraph(g: WeightedGraph, vertices: Iterable[int]) -> WeightedGraph:
    """Subgraph on the given vertices, re-indexed 0..|A|-1 in sorted order."""
    chosen = sorted(set(vertices))
    index = {v: i for i, v in enumerate(chosen)}
    edges = tuple((index[u], index[v]) for u, v in g.edges if u in index and v in index)
    return WeightedGraph(len(chosen), tuple(g.weights[v] for v in chosen), edges, g.r)


def ext_int_counts(g: WeightedGraph, vertices: Iterable[int]) -> tuple[int, int]:
    """(external, internal) edge counts for a vertex subset: external edges
    meet the subset in exactly one endpoint, internal ones in both."""
    chosen = set(vertices)
    external = internal = 0
    for u, v in g.edges:
        inside = (u in chosen) + (v in chosen)
        if inside == 1:
            external += 1
        elif inside == 2:
            internal += 1
    return external, internal


# ---------------------------------------------------------------------------
# Definitional oracles for the CMF and EGDP dynamic programs


def _edge_subsets(g: WeightedGraph):
    for mask in range(1 << g.edge_count):
        yield [edge for i, edge in enumerate(g.edges) if mask >> i & 1]


def cmf_by_edge_subsets(g: WeightedGraph) -> MacMahonElement:
    """The CMF by definition: (-1)^|S| times the component type of (V, S),
    summed over all edge subsets S."""
    terms: dict[VectorPartition, int] = {}
    for subset in _edge_subsets(g):
        key = component_type(g, subset)
        terms[key] = terms.get(key, 0) + (-1) ** len(subset)
    return MacMahonElement(g.r + 1, terms)


def frontier_steps_three_pass(g: WeightedGraph):
    """The walk of `chromatic._frontier_steps` in three passes: a heap loop
    that records the order (the unplaced vertex with the most placed
    neighbours, ties to the smaller index), a loop that records the step
    placing each vertex's last neighbour, and a replay of the order that
    builds the frontiers.  Yields the same (v, frontier, touching,
    staying) per step."""
    adjacency: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    placed_neighbours = [0] * g.n
    placed = [False] * g.n
    heap = [(0, v) for v in range(g.n)]
    order: list[int] = []
    while heap:
        minus_count, v = heapq.heappop(heap)
        if placed[v] or -minus_count != placed_neighbours[v]:
            continue
        placed[v] = True
        order.append(v)
        for u in adjacency[v]:
            if not placed[u]:
                placed_neighbours[u] += 1
                heapq.heappush(heap, (-placed_neighbours[u], u))
    last = [-1] * g.n
    for step, v in enumerate(order):
        for u in adjacency[v]:
            last[u] = step
    frontier: list[int] = []
    for step, v in enumerate(order):
        frontier.append(v)
        touching = [i for i, u in enumerate(frontier) if u in adjacency[v]]
        staying = [i for i, u in enumerate(frontier) if last[u] > step]
        yield v, frontier, touching, staying
        frontier = [frontier[i] for i in staying]


def closed_types_by_bit_walk(states: dict[int, int], shifts: dict[int, int], low: int,
                             digit: int, radix: int,
                             grade: tuple[int, ...]) -> dict[VectorPartition, int]:
    """The CMF DPs' decode one digit at a time, lowest set bit first: each
    state's closed-component digits become the parts of its type, signed
    (-1)^(n - length), with the graph's grade.  The reference for the
    chunked decode `chromatic._closed_types`."""
    n, width = grade[0], len(grade)
    part_at = {shift: unpack(code, radix, width) for code, shift in shifts.items()}
    mask = (1 << digit) - 1
    counts = {}
    for state, count in states.items():
        parts: list[tuple[int, ...]] = []
        while state:
            shift = low + ((state & -state).bit_length() - 1 - low) // digit * digit
            times = state >> shift & mask
            parts += [part_at[shift]] * times
            state -= times << shift
        parts.sort(reverse=True)
        counts[VectorPartition.from_canonical(width, tuple(parts), grade)] = (
            -count if (n - len(parts)) & 1 else count)
    return counts


def beta_by_edge_subsets(g: WeightedGraph) -> dict[VectorPartition, int]:
    """Number of edge subsets S with each component type of (V, S)."""
    table: dict[VectorPartition, int] = {}
    for subset in _edge_subsets(g):
        key = component_type(g, subset)
        table[key] = table.get(key, 0) + 1
    return table


def egdp_by_vertex_subsets(g: WeightedGraph) -> LaurentPolynomial:
    """The EGDP by definition: w^ext x^|A| y^wt z^int over all vertex
    subsets A."""
    terms: dict[tuple[int, ...], int] = {}
    for mask in range(1 << g.n):
        chosen = [v for v in range(g.n) if mask >> v & 1]
        external, internal = ext_int_counts(g, chosen)
        weight = [sum(g.weights[v][i] for v in chosen) for i in range(g.r)]
        key = (external, len(chosen), *weight, internal)
        terms[key] = terms.get(key, 0) + 1
    return LaurentPolynomial(egdp_variables(g.r), terms)


# ---------------------------------------------------------------------------
# Fingerprint oracles for the recovery identity Gamma(CMF(F)) = w^c EGDP(F)
#
# Gamma, the convolution of the two counting functionals, is multiplicative
# over parts (Aguiar-Bergeron-Sottile 2006): a part of size a and weight y
# goes to H(a, y) = alpha beta^a y^y + gamma delta^a with beta = x (w - z),
# delta = w - 1, alpha = 1 / (1 - z/w) and gamma = 1 / (1 - 1/w).  Both
# sides of the identity are then O(n) tree DPs at a point modulo a prime;
# a false identity of degree O(n) agrees at a random point with
# probability O(n / 2^61) (Schwartz-Zippel).

FINGERPRINT_PRIME = (1 << 61) - 1


def random_point(rng: random.Random, r: int) -> tuple[int, ...]:
    """A point (w, x, y_1, ..., y_r, z) modulo FINGERPRINT_PRIME, in the
    order of egdp_variables(r), with w not 0 or 1 and z != w, so that
    1 - z/w and 1 - 1/w can be inverted."""
    w = rng.randrange(2, FINGERPRINT_PRIME)
    z = w
    while z == w:
        z = rng.randrange(FINGERPRINT_PRIME)
    return (w, *(rng.randrange(FINGERPRINT_PRIME) for _ in range(r + 1)), z)


def evaluate_at(poly: LaurentPolynomial, point: tuple[int, ...]) -> int:
    """The polynomial at the point modulo FINGERPRINT_PRIME; a negative
    exponent takes the inverse."""
    total = 0
    for exponents, coeff in poly.terms.items():
        for value, e in zip(point, exponents):
            coeff = coeff * pow(value, e, FINGERPRINT_PRIME) % FINGERPRINT_PRIME
        total += coeff
    return total % FINGERPRINT_PRIME


def _y_power(ys: Iterable[int], weight: Iterable[int]) -> int:
    value = 1
    for y, c in zip(ys, weight):
        value = value * pow(y, c, FINGERPRINT_PRIME) % FINGERPRINT_PRIME
    return value


def _children_first(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """(vertex, parent) for every vertex of the forest on 0..n-1, children
    before their parent; a root's parent is -1."""
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    parent: list[int | None] = [None] * n
    order: list[int] = []
    for root in range(n):
        if parent[root] is not None:
            continue
        parent[root] = -1
        head = len(order)
        order.append(root)
        while head < len(order):  # breadth first, parents before children
            v = order[head]
            head += 1
            for u in neighbours[v]:
                if parent[u] is None:
                    parent[u] = v
                    order.append(u)
                elif u != parent[v]:
                    raise ValueError("the graph has a cycle")
    return [(v, parent[v]) for v in reversed(order)]


def egdp_at(g: WeightedGraph, point: tuple[int, ...]) -> int:
    """EGDP(g) at the point: per vertex v, the subsets of its subtree with
    v in A (inside) and not (outside); an edge to a child is internal,
    external or neither as the child is inside or outside."""
    w, x, *ys, z = point
    inside = [x * _y_power(ys, weight) for weight in g.weights]
    outside = [1] * g.n
    value = 1
    for v, p in _children_first(g.n, g.edges):
        if p < 0:
            value = value * (inside[v] + outside[v]) % FINGERPRINT_PRIME
        else:
            inside[p] = inside[p] * (z * inside[v] + w * outside[v]) % FINGERPRINT_PRIME
            outside[p] = outside[p] * (w * inside[v] + outside[v]) % FINGERPRINT_PRIME
    return value


def _gamma_constants(point: tuple[int, ...]) -> tuple[int, int, int, int]:
    w, x, *_, z = point
    w_inverse = pow(w, -1, FINGERPRINT_PRIME)
    alpha = pow(1 - z * w_inverse, -1, FINGERPRINT_PRIME)
    gamma = pow(1 - w_inverse, -1, FINGERPRINT_PRIME)
    return alpha, x * (w - z) % FINGERPRINT_PRIME, gamma, (w - 1) % FINGERPRINT_PRIME


def _gamma_of_forest(edges: Iterable[tuple[int, int]], us: list[int], vs: list[int],
                     point: tuple[int, ...]) -> int:
    """Gamma of the forest's CMF at the point, vertex v opening its
    component at U = us[v] and V = vs[v]; see gamma_at.  Updates us and
    vs in place."""
    alpha, _, gamma, _ = _gamma_constants(point)
    value = 1
    for v, p in _children_first(len(us), edges):
        closed = alpha * us[v] + gamma * vs[v]
        if p < 0:
            value = value * closed % FINGERPRINT_PRIME
        else:
            us[p] = us[p] * (closed - us[v]) % FINGERPRINT_PRIME
            vs[p] = vs[p] * (closed - vs[v]) % FINGERPRINT_PRIME
    return value


def gamma_at(g: WeightedGraph, point: tuple[int, ...]) -> int:
    """Gamma(CMF(g)) at the point without building the CMF.  CMF(g) sums
    (-1)^|S| p_type(S) over edge subsets S, so each vertex carries, over
    the subsets of its subtree, the signed sums U of beta^size y^weight
    and V of delta^size of its open component, each times the H of the
    components already closed.  The edge to a child c is left out, closing
    c's component (a factor K = alpha U_c + gamma V_c), or kept with sign
    -1, merging it (a factor U_c or V_c)."""
    _, beta, _, delta = _gamma_constants(point)
    ys = point[2:-1]
    return _gamma_of_forest(
        g.edges, [beta * _y_power(ys, weight) % FINGERPRINT_PRIME for weight in g.weights],
        [delta] * g.n, point)


def gamma_by_contraction_at(g: WeightedGraph, point: tuple[int, ...]) -> int:
    """Gamma(CMF(g)) at the point for any graph, by deletion and
    contraction.  For an edge e that closes a cycle, the edge subsets
    without e are those of g - e, and those with e are the subsets of
    g / e with the opposite sign, so CMF(g) = CMF(g - e) - CMF(g / e), where
    the contracted vertex carries the sum of both sizes and both weights.
    An edge that becomes a loop makes that branch 0 (a subset with it and
    the same subset without it cancel), and parallel edges count once (the
    nonempty subsets of a parallel class sum to the sign of one edge).  At
    a forest, gamma_at's DP runs with each vertex opening its component at
    U = beta^size y^weight and V = delta^size."""
    _, beta, _, delta = _gamma_constants(point)
    ys = point[2:-1]

    def evaluate(sizes: list[int], weights: list[Vector], edges: list[tuple[int, int]]) -> int:
        union = UnionFind(len(sizes))
        cycle = next((e for e in edges if not union.union(*e)), None)
        if cycle is None:
            return _gamma_of_forest(
                edges, [pow(beta, size, FINGERPRINT_PRIME) * _y_power(ys, weight)
                        % FINGERPRINT_PRIME for size, weight in zip(sizes, weights)],
                [pow(delta, size, FINGERPRINT_PRIME) for size in sizes], point)
        u, v = cycle  # u < v: v merges into u, and the vertices after v move down one
        deleted = [e for e in edges if e != cycle]
        value = evaluate(sizes, weights, deleted)
        label = [x if x < v else u if x == v else x - 1 for x in range(len(sizes))]
        contracted = sorted({(min(label[a], label[b]), max(label[a], label[b]))
                             for a, b in deleted})
        if all(a != b for a, b in contracted):
            merged_sizes = sizes[:v] + sizes[v + 1:]
            merged_sizes[u] += sizes[v]
            merged_weights = weights[:v] + weights[v + 1:]
            merged_weights[u] = tuple(a + b for a, b in zip(weights[u], weights[v]))
            value -= evaluate(merged_sizes, merged_weights, contracted)
        return value % FINGERPRINT_PRIME

    return evaluate([1] * g.n, list(g.weights), list(g.edges))


def gamma_by_terms_at(element: MacMahonElement, point: tuple[int, ...]) -> int:
    """Gamma(element) at the point, term by term: coeff times the product
    of H(part) over the parts, H computed once per distinct part."""
    alpha, beta, gamma, delta = _gamma_constants(point)
    ys = point[2:-1]
    images: dict[Vector, int] = {}
    total = 0
    for partition, coeff in element.terms.items():
        for part in partition.parts:
            image = images.get(part)
            if image is None:
                size = part[0]
                image = images[part] = (
                    alpha * pow(beta, size, FINGERPRINT_PRIME) * _y_power(ys, part[1:])
                    + gamma * pow(delta, size, FINGERPRINT_PRIME)) % FINGERPRINT_PRIME
            coeff = coeff * image % FINGERPRINT_PRIME
        total += coeff
    return total % FINGERPRINT_PRIME


# ---------------------------------------------------------------------------
# Pointwise oracles and the per-type oracle for the explicit recovery route


def signed_binomial_sum_literal(set_size: int, q: int) -> int:
    """sum over k of C(set_size, k) (-1)^(k+q) C(k, q), term by term."""
    if set_size < 0:
        raise ValueError("set size must be >= 0")
    total = 0
    for k in range(set_size + 1):
        sign = -1 if (k + q) & 1 else 1
        total += sign * choose(set_size, k) * choose(k, q)
    return total


def signed_binomial_sum(set_size: int, q: int) -> int:
    """Closed form of the literal sum: 1 if set_size == q else 0."""
    if set_size < 0:
        raise ValueError("set size must be >= 0")
    return 1 if set_size == q else 0


def recovery_coefficient(partition: VectorPartition, a: int, b: int, c: int, d: int,
                         *, n: int, e: int) -> int:
    """Contribution of one subset type to the count of vertex subsets with
    statistics (ext, size, weight, internal) = (a, b, c, d)."""
    if partition.width != 2:
        raise NotApplicableError("the explicit route requires scalar weights (width 2 types)")
    if min(a, b, c, d) < 0:
        raise ValueError("statistics must be >= 0")
    if b == 0 and c == 0:
        candidates = [VectorPartition(2, ())]
    else:
        candidates = partitions_of((b, c), positive_parts=True)
    sign = -1 if (e - a) & 1 else 1
    total = 0
    for omega in candidates:
        multiplicity = partition_binomial(partition, omega)
        if multiplicity == 0:
            continue
        inside = choose(b - omega.length, d)
        if inside == 0:
            continue
        outside_top = n - partition.length + omega.length - b
        if outside_top < 0:
            continue  # cannot happen when partition is a subset type
        total += multiplicity * inside * choose(outside_top, e - a - d)
    return sign * total


def recover_egdp_explicit_per_type(table: dict[VectorPartition, int], n: int,
                                   total_weight: int, e: int) -> LaurentPolynomial:
    """recover_egdp_explicit type by type: every sub-multiset of every
    type expands its own binomials into the grid."""
    grid: dict[tuple[int, int, int, int], int] = {}
    for partition, count in table.items():
        if partition.width != 2:
            raise NotApplicableError("the explicit route requires scalar weights (width 2 types)")
        if partition.grade != (n, total_weight):
            raise ValueError(f"type {partition} does not have multidegree ({n},{total_weight})")
        type_sign = -1 if (n - partition.length) & 1 else 1
        base = count * type_sign
        # sub-multisets of the parts, with the product of per-part binomials
        subsets: list[tuple[int, int, int, int]] = [(0, 0, 0, 1)]  # (b, c, length, multiplicity)
        for part, m in partition.multiplicities().items():
            extended = []
            for b0, c0, l0, mult in subsets:
                for take in range(m + 1):
                    extended.append((b0 + take * part[0], c0 + take * part[1],
                                     l0 + take, mult * choose(m, take)))
            subsets = extended
        for b0, c0, l0, mult in subsets:
            inside_top = b0 - l0
            outside_top = n - partition.length + l0 - b0
            if inside_top < 0 or outside_top < 0:
                continue
            for d in range(0, min(e, inside_top) + 1):
                inside = choose(inside_top, d)
                contribution = base * mult * inside
                for a in range(max(0, e - d - outside_top), e - d + 1):
                    outside = choose(outside_top, e - a - d)
                    sign = -1 if (e - a) & 1 else 1
                    key = (a, b0, c0, d)
                    grid[key] = grid.get(key, 0) + sign * contribution * outside
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
    if sum(table.values()) != 2 ** e:  # one count per edge subset
        raise ValueError(f"type counts sum to {sum(table.values())}, expected 2^{e}; "
                         "the table is not a forest subset-type table for these parameters")
    return LaurentPolynomial(("w", "x", "y", "z"), terms)


# ---------------------------------------------------------------------------
# Definitional oracle for the bucketed (1 - u) expansion


def expand_one_minus_u_per_code(buckets: dict[int, dict[int, dict[int, int]]],
                                w_unit: int) -> dict[int, int]:
    """_expand_one_minus_u code by code: every code of buckets[p][q] is
    multiplied on its own by the expansion of (1 - z/w)^p (1 - 1/w)^q,
    built once per (p, q)."""
    total: dict[int, int] = {}
    for p, by_q in buckets.items():
        for q, codes in by_q.items():
            expansion = {i - (i + j) * w_unit: ci * cj  # z^i w^-(i+j)
                         for i, ci in enumerate(_one_minus_u_power(p))
                         for j, cj in enumerate(_one_minus_u_power(q))}
            for code, coeff in codes.items():
                add_product(total, {code: coeff}, expansion)
    return total


# ---------------------------------------------------------------------------
# The trie kernel with one product call per node


def character_sum_per_node(terms: dict[VectorPartition, int],
                           image: Callable[[Vector], dict[int, int]],
                           budget: int | None = None) -> dict[int, int]:
    """character_sum closing each trie node with one add_product call: the
    node's sum times its part's image is added into its parent, the
    budget checked after each term of the smaller factor."""
    images: dict[Vector, dict[int, int]] = {}
    path: list[Vector] = []
    sums: list[dict[int, int]] = [{}]

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
        sums[-1][0] = coeff
    while path:
        close()
    return sums[0]


# ---------------------------------------------------------------------------
# Definitional oracle for the product transition matrices


def family_graph(family: Family, partition: VectorPartition) -> WeightedGraph:
    """Disjoint union of family members, one per part of the partition,
    each checked for scalar weights, its part's size and weight, and one
    component."""
    graph = WeightedGraph(0, (), (), 1)
    for size, weight in partition.parts:
        member = family(size, weight)
        if member.r != 1:
            raise ValueError("family members must have scalar weights")
        if member.n != size or member.total_weight != (weight,):
            raise ValueError(f"family graph for part ({size},{weight}) has "
                             f"{member.n} vertices and weight {member.total_weight}")
        if len(connected_components(member, member.edges)) != 1:
            raise ValueError(f"family graph for part ({size},{weight}) is not connected")
        graph = disjoint_union(graph, member)
    return graph


def transition_matrix_by_family_graphs(family: Family,
                                       multidegree: tuple[int, int]) -> list[list[int]]:
    """transition_matrix by definition: one disjoint-union family graph
    per realizable partition, and the CMF of each as its row."""
    index = realizable_partitions(multidegree)
    position = {p: j for j, p in enumerate(index)}
    matrix: list[list[int]] = []
    for partition in index:
        element = cmf(family_graph(family, partition))
        row = [0] * len(index)
        for support, coeff in element.terms.items():
            if support not in position:
                raise RuntimeError(f"CMF support {support} outside the realizable partitions")
            row[position[support]] = coeff
        matrix.append(row)
    return matrix
