"""Seeded item lists for the three benchmark workloads.

The generator is self-contained: it draws trees from random Pruefer
sequences and writes graph-file text itself, so the inputs of a seed do
not change when the library changes.  Alongside the text, every item
carries the facts the oracles need (n, e, r, total weight, component
count), computed here from the edge list rather than by the library.

An item list is a sequence of rounds.  Every round has the same fixed
shape (kind, vertex count, edge count, weight range and dimension per
slot).  Round i takes its weighted graph structures from a random
stream fixed by i; the seed chooses vertex labels and slot order.  A run
stops between items when its time is up, so fixed round shapes and
structures keep the work in a run nearly the same from seed to seed.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

WORKLOADS = ("forest-sweep", "forest-deep", "compute-mixed")


@dataclass(frozen=True)
class Item:
    """One unit of closed-loop work.

    kind is "forest" (verify one forest by every route), "graph" (compute
    a cyclic graph's CMF and its truncations), "big-forest" (compute a
    large forest's EGDP, its specialisations and its beta table) or
    "stars" (star-family transition matrix of a multidegree).
    """

    kind: str
    text: str = ""
    n: int = 0
    e: int = 0
    r: int = 1
    total_weight: tuple[int, ...] = ()
    components: int = 0
    multidegree: tuple[int, int] = (0, 0)

    def shape(self) -> tuple:
        return (self.kind, self.n, self.e, self.r, self.multidegree)


def pruefer_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labelled tree on 0..n-1."""
    if n <= 1:
        return []
    seq = [rng.randrange(n) for _ in range(n - 2)]
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
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return sorted(edges)


def count_components(n: int, edges: list[tuple[int, int]]) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components


def graph_item(shape: random.Random, rng: random.Random, kind: str, n: int,
               edges: list[tuple[int, int]], max_weight: int, r: int = 1) -> Item:
    """Place the weights (from `shape`), relabel the vertices at random
    (from `rng`) and write the graph file.  Each weight coordinate takes
    the values 1..max_weight in turn before shuffling, so the weight
    multiset depends only on n and max_weight."""
    columns = []
    for _ in range(r):
        column = [i % max_weight + 1 for i in range(n)]
        shape.shuffle(column)
        columns.append(column)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
    weights: list[tuple[int, ...]] = [()] * n
    for v, w in enumerate(zip(*columns)):
        weights[perm[v]] = w
    lines = [f"n {n}", f"r {r}"]
    lines += [f"weight {v} " + " ".join(map(str, w)) for v, w in enumerate(weights)]
    lines += [f"edge {u} {v}" for u, v in edges]
    total = tuple(sum(w[i] for w in weights) for i in range(r))
    return Item(kind, "\n".join(lines) + "\n", n, len(edges), r, total,
                count_components(n, edges))


def forest(shape: random.Random, n: int, deleted: int) -> list[tuple[int, int]]:
    """Random labelled tree on n vertices with exactly `deleted` edges removed."""
    edges = pruefer_tree(shape, n)
    for _ in range(deleted):
        edges.pop(shape.randrange(len(edges)))
    return edges


def deep_tree(shape: random.Random, kind: str, n: int) -> list[tuple[int, int]]:
    """Path, caterpillar (spine of n // 2 with legs hung on random spine
    vertices) or uniform random tree."""
    if kind == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "caterpillar":
        spine = n // 2
        return ([(i, i + 1) for i in range(spine - 1)]
                + [(shape.randrange(spine), v) for v in range(spine, n)])
    return pruefer_tree(shape, n)


def cyclic_graph(shape: random.Random, n: int, e: int) -> list[tuple[int, int]]:
    """Connected graph with exactly e > n - 1 edges and a planted proper
    3-coloring, so that its 3-color truncation is never zero: a random
    tree that joins every vertex to an earlier one of another class, plus
    random chords between classes."""
    classes = [i % 3 for i in range(n)]
    shape.shuffle(classes)
    order = [classes.index(c) for c in range(3)]
    rest = [v for v in range(n) if v not in order]
    shape.shuffle(rest)
    order += rest
    edges = set()
    for i, v in enumerate(order[1:], start=1):
        u = shape.choice([w for w in order[:i] if classes[w] != classes[v]])
        edges.add((min(u, v), max(u, v)))
    while len(edges) < e:
        u, v = shape.sample(range(n), 2)
        if classes[u] != classes[v]:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


# Round shapes.  Each entry is one slot of a round; one round takes 1-6 s
# on a 2-core machine and no single item dominates it.

# (n, deleted edges, max weight, r): trees (deleted = 0) as in the
# exhaustive sweep of `chromac verify`, random forests as in its random
# mode, and one slot in ten with two-coordinate weights.
SWEEP_ROUND = (
    [(n, 0, 3, 1) for n in (3, 4, 4, 5, 5, 6, 6, 7)]
    + [(n, d, 4, 1) for n, d in ((4, 1), (5, 1), (6, 1), (6, 2), (7, 1), (7, 2), (8, 1), (8, 2))]
    + [(5, 0, 2, 2), (6, 1, 2, 2)]
)

# (shape, n, max weight): distinct weights (max weight = n) make every
# edge subset's type distinct, so the coproduct keeps all 2^(n-e) 3^e
# nominal terms; one or two weight levels at n = 10..13 give as many
# nominal terms again, most of them merged by collisions.
DEEP_ROUND = (("path", 8, 8), ("caterpillar", 8, 8), ("random", 8, 8),
              ("path", 10, 2), ("random", 10, 2),
              ("caterpillar", 12, 1), ("random", 12, 1), ("path", 13, 1))

# ("graph", n, e, max weight, r), ("big-forest", n, deleted, max weight),
# ("stars", vertex count, total weight).  Four slots are cheaper and four
# dearer than the 15-vertex forest, whose cost is set by its 2^15 vertex
# subsets alone, so the median item is that forest in every round.
MIXED_ROUND = (
    ("stars", 7, 10), ("stars", 8, 10), ("stars", 8, 11),
    ("graph", 7, 12, 3, 1), ("graph", 8, 14, 3, 1), ("graph", 8, 14, 3, 2),
    ("graph", 9, 14, 3, 1),
    ("big-forest", 15, 3, 4), ("big-forest", 16, 4, 4),
)

ROUNDS = {"forest-sweep": SWEEP_ROUND, "forest-deep": DEEP_ROUND, "compute-mixed": MIXED_ROUND}

# One small slot on each workload's code path, for the untimed warm-up
# item (for compute-mixed a stars item, so that partition enumeration is
# part of set-up).
WARM_UP = {"forest-sweep": (SWEEP_ROUND[0],), "forest-deep": (("path", 6, 6),),
           "compute-mixed": (MIXED_ROUND[0],)}


def round_items(workload: str, slots, shape: random.Random, rng: random.Random) -> list[Item]:
    """One item per slot: weighted graph structures from `shape`, vertex
    labels from `rng`."""
    if workload == "forest-sweep":
        items = [graph_item(shape, rng, "forest", n, forest(shape, n, d), w, r)
                 for n, d, w, r in slots]
    elif workload == "forest-deep":
        items = [graph_item(shape, rng, "forest", n, deep_tree(shape, kind, n), w)
                 for kind, n, w in slots]
    elif workload == "compute-mixed":
        items = []
        for kind, *params in slots:
            if kind == "graph":
                n, e, w, r = params
                items.append(graph_item(shape, rng, "graph", n, cyclic_graph(shape, n, e), w, r))
            elif kind == "big-forest":
                n, d, w = params
                items.append(graph_item(shape, rng, "big-forest", n, forest(shape, n, d), w))
            else:
                items.append(Item("stars", multidegree=tuple(params)))
    return items


def build_rounds(workload: str, seed: int, rounds: int) -> list[list[Item]]:
    """The first `rounds` rounds of the workload's item list for a seed.

    Round i draws its weighted graph structures from a stream fixed by i
    alone, and the seed chooses vertex labels and slot order.  An item's
    cost follows its weighted structure (where equal weights sit decides
    how many subset types collide), so a run's work stays nearly the same
    from seed to seed while every seed gives other graph files."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    result = []
    for i in range(rounds):
        items = round_items(workload, ROUNDS[workload], random.Random(f"{workload}:round:{i}"), rng)
        rng.shuffle(items)
        result.append(items)
    return result


def warm_up_item(workload: str, seed: int) -> Item:
    rng = random.Random(f"{workload}:{seed}:warm-up")
    return round_items(workload, WARM_UP[workload], rng, rng)[0]
