"""Vertex-weighted simple graphs and the combinatorics the algebra needs.

Vertices are 0..n-1.  Each vertex carries a weight vector in P^r (every
coordinate >= 1); the scalar-weight case is r = 1.  Edges are unordered
pairs stored as (u, v) with u < v, without loops or multiedges.  One
union-find serves every connectivity check: `is_forest` here and the
connectivity of a family member in `bases`.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .algebra import Vector
from .errors import CapExceededError

Edge = tuple[int, int]

RANDOM_FOREST_MAX_WEIGHTS = 10 ** 4  # weight coordinates n * r of one random forest


class GraphFormatError(ValueError):
    """Raised when graph text cannot be parsed or fails validation."""


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx  # smaller index wins, keeps roots deterministic
        return True


def _normalize_weight(w: int | Iterable[int]) -> Vector:
    if isinstance(w, int):
        return (w,)
    return tuple(w)


@dataclass(frozen=True)
class WeightedGraph:
    n: int
    weights: tuple[Vector, ...]
    edges: tuple[Edge, ...]
    r: int = 1

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphFormatError("vertex count must be >= 0")
        weights = tuple(_normalize_weight(w) for w in self.weights)
        if len(weights) != self.n:
            raise GraphFormatError(f"expected {self.n} weights, got {len(weights)}")
        if self.r < 1:
            raise GraphFormatError("weight dimension must be >= 1")
        for i, w in enumerate(weights):
            if len(w) != self.r:
                raise GraphFormatError(f"weight of vertex {i} has dimension {len(w)}, expected {self.r}")
            if any(c < 1 for c in w):
                raise GraphFormatError(f"weight of vertex {i} must have all coordinates >= 1")
        edges = []
        for u, v in self.edges:
            if u == v:
                raise GraphFormatError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphFormatError(f"edge ({u},{v}) out of range")
            edges.append((min(u, v), max(u, v)))
        edges.sort()
        for e, f in zip(edges, edges[1:]):
            if e == f:
                raise GraphFormatError(f"duplicate edge {e}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "edges", tuple(edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> Vector:
        total = [0] * self.r
        for w in self.weights:
            for i, c in enumerate(w):
                total[i] += c
        return tuple(total)

    def is_forest(self) -> bool:
        uf = UnionFind(self.n)
        return all(uf.union(u, v) for u, v in self.edges)


def disjoint_union(a: WeightedGraph, b: WeightedGraph) -> WeightedGraph:
    if a.r != b.r:
        raise ValueError("weight dimensions differ")
    shifted = tuple((u + a.n, v + a.n) for u, v in b.edges)
    return WeightedGraph(a.n + b.n, a.weights + b.weights, a.edges + shifted, a.r)


# ---------------------------------------------------------------------------
# Builders


def single_vertex(weight: int | Iterable[int]) -> WeightedGraph:
    w = _normalize_weight(weight)
    return WeightedGraph(1, (w,), (), len(w))


def path_graph(weights: Iterable[int | Iterable[int]]) -> WeightedGraph:
    ws = tuple(_normalize_weight(w) for w in weights)
    n = len(ws)
    edges = tuple((i, i + 1) for i in range(n - 1))
    return WeightedGraph(n, ws, edges, len(ws[0]) if ws else 1)


def cycle_graph(weights: Iterable[int | Iterable[int]]) -> WeightedGraph:
    ws = tuple(_normalize_weight(w) for w in weights)
    n = len(ws)
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)
    return WeightedGraph(n, ws, edges, len(ws[0]))


def star_graph(center_weight: int | Iterable[int],
               leaf_weights: Iterable[int | Iterable[int]]) -> WeightedGraph:
    ws = (_normalize_weight(center_weight),) + tuple(_normalize_weight(w) for w in leaf_weights)
    edges = tuple((0, i) for i in range(1, len(ws)))
    return WeightedGraph(len(ws), ws, edges, len(ws[0]))


def counterexample_pair() -> tuple[WeightedGraph, WeightedGraph]:
    """Two weighted 5-paths with equal weighted chromatic symmetric function
    but different extended degree data."""
    return path_graph([2, 1, 2, 3, 1]), path_graph([2, 3, 1, 2, 1])


# ---------------------------------------------------------------------------
# Tree and forest generation


def tree_from_pruefer(seq: Iterable[int], n: int) -> tuple[Edge, ...]:
    """Labeled tree on 0..n-1 from a Pruefer sequence of length n-2."""
    seq = tuple(seq)
    if n < 1:
        raise ValueError("need n >= 1")
    if len(seq) != max(n - 2, 0):
        raise ValueError(f"sequence length must be {max(n - 2, 0)} for n={n}")
    if n == 1:
        return ()
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return tuple(sorted(edges))


def all_labeled_trees(n: int) -> Iterator[tuple[Edge, ...]]:
    """Edge sets of all n**(n-2) labeled trees on 0..n-1."""
    if n == 1:
        yield ()
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield tree_from_pruefer(seq, n)


def random_forest(n: int, max_weight: int = 4, r: int = 1,
                  seed: int | None = None) -> WeightedGraph:
    """Random weighted forest: uniform random labeled tree (via a random
    Pruefer sequence) with each edge deleted independently with
    probability 1/4, and i.i.d. uniform weights in [1, max_weight]^r."""
    if n < 0:
        raise ValueError("need n >= 0")
    if max_weight < 1:
        raise ValueError("need max_weight >= 1")
    if n * r > RANDOM_FOREST_MAX_WEIGHTS:
        raise CapExceededError(f"{n} * {r} weight coordinates exceeds the cap of "
                               f"{RANDOM_FOREST_MAX_WEIGHTS}")
    rng = random.Random(seed)
    weights = tuple(tuple(rng.randint(1, max_weight) for _ in range(r)) for _ in range(n))
    if n <= 1:
        return WeightedGraph(n, weights, (), r)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    edges = tuple(e for e in tree_from_pruefer(seq, n) if rng.random() >= 0.25)
    return WeightedGraph(n, weights, edges, r)


# ---------------------------------------------------------------------------
# Text format

# A graph file is line oriented:  "n <count>", "r <dim>" (optional,
# default 1), one "weight <vertex> <c1> ... <cr>" line per vertex and
# one "edge <u> <v>" line per edge.  '#' starts a comment.


def parse_graph(text: str) -> WeightedGraph:
    n: int | None = None
    r = 1
    saw_r = False
    weight_lines: dict[int, Vector] = {}
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            values = [int(x) for x in fields[1:]]
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer field in {raw!r}")
        key = fields[0]
        if key == "n":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate n")
            if len(values) != 1:
                raise GraphFormatError(f"line {lineno}: n takes one value")
            n = values[0]
        elif key == "r":
            if saw_r:
                raise GraphFormatError(f"line {lineno}: duplicate r")
            if len(values) != 1:
                raise GraphFormatError(f"line {lineno}: r takes one value")
            r = values[0]
            saw_r = True
        elif key == "weight":
            if len(values) < 2:
                raise GraphFormatError(f"line {lineno}: weight needs a vertex and coordinates")
            if values[0] in weight_lines:
                raise GraphFormatError(f"line {lineno}: duplicate weight for vertex {values[0]}")
            weight_lines[values[0]] = tuple(values[1:])
        elif key == "edge":
            if len(values) != 2:
                raise GraphFormatError(f"line {lineno}: edge takes two endpoints")
            edges.append((values[0], values[1]))
        else:
            raise GraphFormatError(f"line {lineno}: unknown directive {key!r}")
    if n is None:
        raise GraphFormatError("missing n line")
    # an error lists at most the first ten vertices, so that a huge n
    # cannot make a huge message
    present = sum(1 for v in weight_lines if 0 <= v < n)
    if present < n:
        missing = (v for v in range(n) if v not in weight_lines)
        raise GraphFormatError(f"missing weight for {n - present} of {n} vertices: "
                               + _first_ten(missing, n - present))
    extra = [v for v in weight_lines if not 0 <= v < n]
    if extra:
        raise GraphFormatError(f"weight for {len(extra)} out-of-range vertices: "
                               + _first_ten(extra, len(extra)))
    weights = tuple(weight_lines[v] for v in range(n))
    return WeightedGraph(n, weights, tuple(edges), r)


def _first_ten(vertices: Iterable[int], count: int) -> str:
    shown = list(itertools.islice(vertices, 10))
    return f"{shown} ..." if count > len(shown) else f"{shown}"


def serialize_graph(g: WeightedGraph) -> str:
    lines = [f"n {g.n}", f"r {g.r}"]
    for v in range(g.n):
        lines.append(f"weight {v} " + " ".join(str(c) for c in g.weights[v]))
    for u, v in g.edges:
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"
