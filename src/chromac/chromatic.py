"""Chromatic invariants of weighted graphs.

The chromatic MacMahon symmetric function (CMF) of a graph with weight
vectors in P^r lives in the width r+1 power-sum algebra: by inclusion-
exclusion over edge subsets S, each S contributes (-1)^|S| times the
basis symbol of its component type.  Truncating to k colors recovers
the generating function of proper k-colorings, which is also computed
here by backtracking over those colorings as an independent cross-check.

The extended generalized degree polynomial (EGDP) records, for every
vertex subset A, the external edge count, cardinality, weight and
internal edge count of A as a monomial w^ext x^|A| y^weight z^int.

On a forest the CMF comes from a dynamic program over each tree, rooted
by the walk that all three graph dynamic programs share, which merges
every child into its parent, so its cost follows the number of distinct
partial results rather than 2^e edge subsets; a forest's subset-type
table (beta) is read off its CMF.  The CMF of a graph with a cycle and
the EGDP of every graph come from frontier dynamic programs that place
the vertices one at a time along that walk: the CMF's keeps, per state,
the components that are still open, the EGDP's the in/out bits of the
placed vertices that still have an unplaced neighbour.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Iterator

from .algebra import (TRUNCATE_LIVE_EXPONENTS, LaurentPolynomial, MacMahonElement,
                      VectorPartition, add_product, pack, truncation_variables, unpack)
from .errors import CapExceededError, NotApplicableError
from .graphs import WeightedGraph

DEFAULT_MAX_EDGES = 30
DEFAULT_MAX_VERTICES = 25
DEFAULT_MAX_COLORINGS = 10 ** 7
EGDP_LIVE_TERMS = 1 << 19  # (frontier bits, exponent) terms of the EGDP dynamic program
CMF_LIVE_STATES = 1 << 19  # states of the CMF frontier dynamic program being built
CMF_STATE_DIGITS = 1 << 27  # live states times distinct closed codes of both CMF DPs


def cmf(g: WeightedGraph, max_edges: int = DEFAULT_MAX_EDGES) -> MacMahonElement:
    """Chromatic MacMahon symmetric function.

    The coefficient of a component type has the sign (-1)^(n - length)
    (on a forest every edge subset of that type has n - length edges; in
    general by Stanley's broken-circuit theorem), so the dynamic programs
    count without signs, `_forest_type_counts` on a forest and
    `_frontier_type_counts` on any other graph, and `_closed_types` signs
    each count as it decodes its type.
    """
    if g.edge_count > max_edges:
        raise CapExceededError(f"{g.edge_count} edges exceeds the cap of {max_edges}")
    terms = _forest_type_counts(g) if g.is_forest() else _frontier_type_counts(g)
    return MacMahonElement(g.r + 1, terms)


def beta_table(g: WeightedGraph, max_edges: int = DEFAULT_MAX_EDGES) -> dict[VectorPartition, int]:
    """For a forest: number of edge subsets of each component type.

    These counts carry the full CMF of the forest, since the subset type
    determines |S| there (length n - |S|), making the signs uniform per
    type with no cancellation; so the table is read off the CMF as the
    absolute values of its coefficients.
    """
    if not g.is_forest():
        raise NotApplicableError(
            "input graph contains a cycle; the table is only defined for forests")
    return {partition: abs(coeff) for partition, coeff in cmf(g, max_edges).terms.items()}


def _forest_type_counts(g: WeightedGraph) -> dict[VectorPartition, int]:
    """Signed number of edge subsets of a forest per component type, by
    dynamic programming over each rooted tree.

    A component (size, weight...) is a packed code.  A subtree's state is
    one integer: in its low bits the code of the component that holds the
    root (still open), and above them one digit per distinct closed
    component, counting how often it occurs.  Codes have room for every
    sum of parts and digits for n, so joining two states adds them.
    Merging a child into its parent, the edge between them is either in
    the subset (the open codes add) or not (the child's open component
    closes).  Tree roots merge into a virtual vertex with an empty open
    component, always without the edge.  The trees are rooted by the walk
    `_frontier_steps`, which grows each tree from its smallest vertex, so
    every vertex has at most one placed neighbour, its parent, and comes
    after it; children merge in reverse walk order.  Every state is as
    wide as the run's distinct closed codes, so the live states of a
    merge times those codes count against `CMF_STATE_DIGITS`:
    when a code closes for the first time, and in the product that builds
    the parent's states.
    """
    radix = max(g.n, *g.total_weight) + 1
    width = g.r + 1
    low = (radix ** width).bit_length()
    digit = g.n.bit_length()
    open_mask = (1 << low) - 1
    shifts: dict[int, int] = {}  # code of a closed component -> shift of its digit
    states = [{pack((1, *w), radix): 1} for w in g.weights]
    states.append({0: 1})
    exceeded = CapExceededError(f"the forest CMF dynamic program exceeds its budget of "
                                f"{CMF_STATE_DIGITS} live states times closed codes")
    for v, frontier, touching, _ in reversed(list(_frontier_steps(g))):
        parent = frontier[touching[0]] if touching else g.n
        child = states[v]
        offers = dict(child) if parent < g.n else {}
        for state, count in child.items():
            code = state & open_mask
            shift = shifts.get(code)
            if shift is None:
                shift = shifts[code] = low + digit * len(shifts)
                if len(offers) * len(shifts) > CMF_STATE_DIGITS:
                    raise exceeded
            key = state - code + (1 << shift)  # open code 0: never a key of child
            offers[key] = offers.get(key, 0) + count
        try:
            states[parent] = add_product({}, states[parent], offers,
                                         CMF_STATE_DIGITS // max(1, len(shifts)))
        except CapExceededError:
            raise exceeded from None
        child.clear()
    return _closed_types(states[g.n], shifts, low, digit, radix, width, g.n)


def _frontier_steps(g: WeightedGraph) -> Iterator[tuple[int, list[int], list[int], list[int]]]:
    """The walk of all three graph dynamic programs: all vertices, one at
    a time, each next one the unplaced vertex with the most placed
    neighbours, ties to the smaller index, so that the frontier (the placed
    vertices that still have an unplaced neighbour) stays narrow.

    Yields per vertex v: v, the frontier with v appended, the positions
    in it of v's placed neighbours and the positions that stay on the
    frontier once v is placed."""
    adjacency: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    placed_neighbours = [0] * g.n
    placed = [False] * g.n
    heap = [(0, v) for v in range(g.n)]  # sorted, hence a heap
    order: list[int] = []
    while heap:
        minus_count, v = heapq.heappop(heap)
        if placed[v] or -minus_count != placed_neighbours[v]:
            continue  # an entry superseded by a later push
        placed[v] = True
        order.append(v)
        for u in adjacency[v]:
            if not placed[u]:
                placed_neighbours[u] += 1
                heapq.heappush(heap, (-placed_neighbours[u], u))
    last = [-1] * g.n  # the step that places each vertex's last neighbour
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


def _frontier_type_counts(g: WeightedGraph) -> dict[VectorPartition, int]:
    """CMF coefficient of every component type, for any graph, by a
    dynamic program that places the vertices one at a time.

    The frontier is the placed vertices that still have an unplaced
    neighbour.  A state has three parts: the closed components, as the
    multiset digit integer of `_forest_type_counts`; the open component
    of each frontier vertex, labelled by first occurrence; and the packed
    code (size, weight...) of each open component.  Placing v, each edge
    to a placed neighbour is left out or taken, which flips the sign.
    Taking an edge whose ends are already joined leaves the components as
    they are, so the two choices cancel.  What survives joins v to any
    set of distinct components that it touches, each joined component
    flipping the sign once however many edges reach it; so a state's
    sign is (-1)^(placed vertices - components), its count stays positive
    and `_closed_types` signs it.  A vertex leaves the frontier once all its
    neighbours are placed, and a component with no frontier vertex left
    closes.  Every state is as wide as the run's distinct closed codes, as
    in the forest DP.  Before each state's moves, the states of the
    placement count against the budget `CMF_LIVE_STATES`, and those states
    times the closed codes against `CMF_STATE_DIGITS`, so neither is passed
    by more than the moves of one state.
    """
    radix = max(g.n, *g.total_weight) + 1
    width = g.r + 1
    digit = g.n.bit_length()
    shifts: dict[int, int] = {}  # code of a closed component -> shift of its digit
    states: dict[tuple, int] = {(0, (), ()): 1}  # (closed, labels, codes) -> count
    for v, _, touching, staying in _frontier_steps(g):
        code_v = pack((1, *g.weights[v]), radix)
        moves: dict[tuple[int, ...], list[_Move]] = {}
        placed: dict[tuple, int] = {}
        for (closed, labels, codes), count in states.items():
            if len(placed) > CMF_LIVE_STATES:
                raise CapExceededError(
                    f"the CMF dynamic program exceeds its budget of {CMF_LIVE_STATES} live states")
            if len(placed) * len(shifts) > CMF_STATE_DIGITS:
                raise CapExceededError(f"the CMF dynamic program exceeds its budget of "
                                       f"{CMF_STATE_DIGITS} live states times closed codes")
            plan = moves.get(labels)
            if plan is None:
                plan = moves[labels] = _frontier_moves(labels, touching, staying)
            for joins, sources, new_labels, shut_labels in plan:
                joined = code_v
                for label in joins:
                    joined += codes[label]
                shut = closed
                for label in shut_labels:
                    shut += 1 << shifts.setdefault(joined if label < 0 else codes[label],
                                                   digit * len(shifts))
                key = (shut, new_labels,
                       tuple([joined if label < 0 else codes[label] for label in sources]))
                placed[key] = placed.get(key, 0) + count
        states = placed
    return _closed_types({closed: count for (closed, _, _), count in states.items()},
                         shifts, 0, digit, radix, width, g.n)


# (labels joined to the new vertex, old label of each new label, new
# labels, old labels that close), with -1 for the new vertex's component
_Move = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _frontier_moves(labels: tuple[int, ...], touching: list[int],
                    staying: list[int]) -> list[_Move]:
    """Every way to place a vertex after frontier states with these labels:
    one move per set of distinct components joined to it.  `touching`
    holds the positions of its neighbours among the labels, `staying` the
    positions that stay on the frontier, the new vertex at len(labels)."""
    touched = sorted({labels[i] for i in touching})
    moves = []
    for choice in range(1 << len(touched)):
        joins = tuple(label for j, label in enumerate(touched) if choice >> j & 1)
        sources: list[int] = []
        new_labels = []
        for i in staying:
            label = -1 if i == len(labels) or labels[i] in joins else labels[i]
            if label not in sources:
                sources.append(label)
            new_labels.append(sources.index(label))
        shut = tuple(label for label in (*range(len(set(labels))), -1)
                     if label not in joins and label not in sources)
        moves.append((joins, tuple(sources), tuple(new_labels), shut))
    return moves


def _closed_types(states: dict[int, int], shifts: dict[int, int], low: int, digit: int,
                  radix: int, width: int, n: int) -> dict[VectorPartition, int]:
    """Component types with their counts, each signed (-1)^(n - length) as
    in the CMF, from states whose closed components are one multiplicity
    digit per distinct component code, at the shifts given, above `low`
    bits that are zero."""
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
        counts[VectorPartition.from_canonical(width, tuple(parts))] = (
            -count if (n - len(parts)) & 1 else count)
    return counts


def specialize_csf(element: MacMahonElement, keep: str) -> MacMahonElement:
    """Project each part to its cardinality slot or to its weight slots,
    dropping parts that become zero and merging collisions."""
    if keep == "cardinality":
        new_width, slots = 1, slice(0, 1)
    elif keep == "weight":
        if element.width < 2:
            raise NotApplicableError("element has no weight coordinates")
        new_width, slots = element.width - 1, slice(1, None)
    else:
        raise ValueError(f"keep must be 'cardinality' or 'weight', got {keep!r}")
    sums: dict[tuple[tuple[int, ...], ...], int] = {}  # canonical parts -> coefficient
    for partition, coeff in element.terms.items():
        parts = sorted((p for p in (part[slots] for part in partition.parts) if any(p)),
                       reverse=True)
        key = tuple(parts)
        sums[key] = sums.get(key, 0) + coeff
    return MacMahonElement(new_width, {VectorPartition.from_canonical(new_width, parts): coeff
                                       for parts, coeff in sums.items()})


def egdp_variables(r: int) -> tuple[str, ...]:
    if r == 1:
        return ("w", "x", "y", "z")
    return ("w", "x", *(f"y{i}" for i in range(1, r + 1)), "z")


def egdp(g: WeightedGraph, max_vertices: int = DEFAULT_MAX_VERTICES) -> LaurentPolynomial:
    """Extended generalized degree polynomial: one monomial
    w^ext(A) x^|A| y^wt(A) z^int(A) per vertex subset A.

    A frontier dynamic program along `_frontier_steps`.  A term is one
    integer: the in/out bits of the frontier vertices, bit v for vertex v,
    above the packed exponent (ext, size, weight..., int) of the placed
    part of A, so that subsets that agree on the frontier merge.  Placing v
    classifies its edges to placed vertices, which are all on the
    frontier: external when exactly one end is in A, internal when both
    are.  A placement at most doubles the live terms, so the budget
    `EGDP_LIVE_TERMS` is checked before each one.
    """
    if g.n > max_vertices:
        raise CapExceededError(f"{g.n} vertices exceeds the cap of {max_vertices}")
    slots = g.r + 3
    radix = max(g.n, g.edge_count, *g.total_weight) + 1
    low = (radix ** slots).bit_length()
    external = radix ** (slots - 1)
    terms = {0: 1}
    for v, frontier, touching, staying in _frontier_steps(g):
        if 2 * len(terms) > EGDP_LIVE_TERMS:
            raise CapExceededError(
                f"the EGDP dynamic program may exceed its budget of {EGDP_LIVE_TERMS} live terms")
        touch = sum(1 << low + frontier[i] for i in touching)
        keep = (1 << low) - 1 + sum(1 << low + frontier[i] for i in staying)
        # v in A, its edges all external; v's bit only if v stays
        code_in = pack((len(touching), 1, *g.weights[v], 0), radix) + (keep & 1 << low + v)
        placed: dict[int, int] = {}
        for key, count in terms.items():
            inside = (key & touch).bit_count()  # v's placed neighbours in A
            kept = key & keep
            out = kept + inside * external
            placed[out] = placed.get(out, 0) + count
            in_ = kept + code_in + inside * (1 - external)  # those edges internal instead
            placed[in_] = placed.get(in_, 0) + count
        terms = placed
    return LaurentPolynomial(egdp_variables(g.r), {unpack(code, radix, slots): count
                                                   for code, count in terms.items()})


def specialize_egdp(poly: LaurentPolynomial, target: str) -> LaurentPolynomial:
    """Project the EGDP to the weighted degree polynomial
    (x^wt y^ext z^int, scalar weights only) or to the plain degree
    polynomial (x^|A| y^ext z^int), reading each exponent tuple
    (ext, size, weight..., int) once."""
    names = poly.variables
    if names[:2] != ("w", "x") or names[-1] != "z":
        raise NotApplicableError(f"not an extended degree polynomial ring: {names}")
    if target == "wgdp":
        if names[2:-1] != ("y",):
            raise NotApplicableError("weighted degree polynomial requires scalar weights (r=1)")
        xyz = itemgetter(2, 0, 3)
    elif target == "gdp":
        xyz = itemgetter(1, 0, len(names) - 1)
    else:
        raise ValueError(f"target must be 'wgdp' or 'gdp', got {target!r}")
    terms: dict[tuple[int, ...], int] = {}
    for exps, coeff in poly.terms.items():
        key = xyz(exps)
        terms[key] = terms.get(key, 0) + coeff
    return LaurentPolynomial(("x", "y", "z"), terms)


def cmf_by_enumeration(g: WeightedGraph, colors: int,
                       max_colorings: int = DEFAULT_MAX_COLORINGS) -> LaurentPolynomial:
    """Truncated CMF as the generating function of the proper colorings
    with the given number of colors, independent of the CMF.

    Backtracking with an explicit stack colors the vertices one at a time
    in breadth-first order, each only with colors its earlier neighbours
    do not use, adding its exponents on the way down and subtracting them
    on the way back; so the cost follows the number of proper colorings,
    though the cap counts all colors^n.  Terms of colors * (r + 1)
    exponents count against TRUNCATE_LIVE_EXPONENTS as in truncate: too
    many colors for one vertex's terms are refused before anything is
    built, and past it as terms are added the search raises
    CapExceededError."""
    if colors < 0:
        raise ValueError("number of colors must be >= 0")
    if colors ** g.n > max_colorings:
        raise CapExceededError(f"{colors}^{g.n} colorings exceeds the cap of {max_colorings}")
    block = g.r + 1
    budget = TRUNCATE_LIVE_EXPONENTS // max(1, colors * block)  # in terms
    exceeded = CapExceededError(f"the {colors}-color coloring enumeration exceeds its "
                                f"budget of {TRUNCATE_LIVE_EXPONENTS} live exponents")
    if colors > budget:
        raise exceeded
    names = truncation_variables(block, colors)
    neighbours: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    order: list[int] = []
    position = [-1] * g.n
    head = 0
    for root in range(g.n):  # breadth first, from each vertex not reached yet
        if position[root] < 0:
            position[root] = len(order)
            order.append(root)
        while head < len(order):
            for u in neighbours[order[head]]:
                if position[u] < 0:
                    position[u] = len(order)
                    order.append(u)
            head += 1
    earlier = [[position[u] for u in neighbours[v] if position[u] < i]
               for i, v in enumerate(order)]
    exponents = [(1, *g.weights[v]) for v in order]
    exps = [0] * len(names)
    if not g.n:
        return LaurentPolynomial(names, {tuple(exps): 1})
    terms: dict[tuple[int, ...], int] = {}
    color = [-1] * g.n  # per position, its color now, -1 for none
    untried = [list(range(colors))]  # per position being colored, the colors left to try
    while untried:
        i = len(untried) - 1
        if color[i] >= 0:  # back from the colors below: take position i's color off
            base = color[i] * block
            for t, x in enumerate(exponents[i]):
                exps[base + t] -= x
            color[i] = -1
        if not untried[i]:
            untried.pop()
            continue
        color[i] = untried[i].pop()
        base = color[i] * block
        for t, x in enumerate(exponents[i]):
            exps[base + t] += x
        if i + 1 < g.n:
            used = {color[j] for j in earlier[i + 1]}
            untried.append([c for c in range(colors) if c not in used])
            continue
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + 1
        if len(terms) > budget:
            raise exceeded
    return LaurentPolynomial(names, terms)
