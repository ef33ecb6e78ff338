"""Chromatic invariants of weighted graphs.

The chromatic MacMahon symmetric function (CMF) of a graph with weight
vectors in P^r lives in the width r+1 power-sum algebra: by inclusion-
exclusion over edge subsets S, each S contributes (-1)^|S| times the
basis symbol of its component type.  Truncating to k colors recovers
the generating function of proper k-colorings, which is also computed
here, as an independent cross-check, by a frontier dynamic program over
those colorings.

The extended generalized degree polynomial (EGDP) records, for every
vertex subset A, the external edge count, cardinality, weight and
internal edge count of A as a monomial w^ext x^|A| y^weight z^int.

On a forest the CMF comes from a dynamic program over each tree, rooted
by the walk that all three graph dynamic programs share, which merges
every child into its parent, so its cost follows the number of distinct
partial results rather than 2^e edge subsets; a forest's subset-type
table (beta) is read off its CMF.  The CMF of a graph with a cycle, the
EGDP of every graph and the coloring oracle come from frontier dynamic
programs that place the vertices one at a time along that walk: the
CMF's keeps, per state, the components that are still open, the EGDP's
the in/out bits of the placed vertices that still have an unplaced
neighbour, the oracle's their colors.
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
    return _closed_types(states[g.n], shifts, low, digit, radix, (g.n, *g.total_weight))


def _frontier_steps(g: WeightedGraph) -> Iterator[tuple[int, list[int], list[int], list[int]]]:
    """The walk of all three graph dynamic programs and of the coloring
    oracle: all vertices, one at a time, each next one the unplaced vertex
    with the most placed neighbours, ties to the smaller index, so that
    the frontier (the placed vertices that still have an unplaced
    neighbour) stays narrow.

    Yields per vertex v: v, the frontier with v appended, the positions
    in it of v's placed neighbours and the positions that stay on the
    frontier once v is placed."""
    adjacency: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    unplaced = [len(neighbours) for neighbours in adjacency]  # neighbours not yet placed
    placed = [False] * g.n
    heap = [(0, v) for v in range(g.n)]  # sorted, hence a heap; keys are minus placed counts
    frontier: list[int] = []
    while heap:
        minus_count, v = heapq.heappop(heap)
        if placed[v] or minus_count != unplaced[v] - len(adjacency[v]):
            continue  # an entry superseded by a later push
        placed[v] = True
        for u in adjacency[v]:
            unplaced[u] -= 1
            if not placed[u]:
                heapq.heappush(heap, (unplaced[u] - len(adjacency[u]), u))
        frontier.append(v)
        touching = [i for i, u in enumerate(frontier) if u in adjacency[v]]
        staying = [i for i, u in enumerate(frontier) if unplaced[u] > 0]
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
                         shifts, 0, digit, radix, (g.n, *g.total_weight))


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
                  radix: int, grade: tuple[int, ...]) -> dict[VectorPartition, int]:
    """Component types with their counts, each signed (-1)^(n - length) as
    in the CMF, from states whose closed components are one multiplicity
    digit per distinct component code, at the shifts given, above `low`
    bits that are zero.  Every type partitions the whole graph, so each
    gets the graph's grade (n, total weight...) as it is built.

    A state is read top down in chunks of four digits: the top
    nonzero chunk is found from the bit length, its parts are looked up
    by position and value (decoded digit by digit the first time that
    chunk occurs in the call) and the chunk is cleared, so the work
    follows the nonzero chunks rather than the width of the state."""
    n, width = grade[0], len(grade)
    part_at = {shift: unpack(code, radix, width) for code, shift in shifts.items()}
    mask = (1 << digit) - 1
    span = 4 * digit  # bits of a chunk
    chunk_parts: dict[int, list[tuple[int, ...]]] = {}  # position and value -> parts
    build = VectorPartition.from_canonical
    counts = {}
    for state, count in states.items():
        parts: list[tuple[int, ...]] = []
        while state:
            at = low + (state.bit_length() - 1 - low) // span * span
            chunk = state >> at
            key = at << span | chunk
            found = chunk_parts.get(key)
            if found is None:
                found = chunk_parts[key] = []
                for shift in range(at, at + span, digit):
                    times = chunk >> shift - at & mask
                    if times:
                        found += [part_at[shift]] * times
            parts += found
            state ^= chunk << at
        parts.sort(reverse=True)
        counts[build(width, tuple(parts), grade)] = -count if (n - len(parts)) & 1 else count
    return counts


def specialize_csf(element: MacMahonElement, keep: str) -> MacMahonElement:
    """Project each part to its cardinality slot or to its weight slots,
    dropping parts that become zero and merging collisions.  Each
    distinct part is projected once per call."""
    if keep == "cardinality":
        new_width, slots = 1, slice(0, 1)
    elif keep == "weight":
        if element.width < 2:
            raise NotApplicableError("element has no weight coordinates")
        new_width, slots = element.width - 1, slice(1, None)
    else:
        raise ValueError(f"keep must be 'cardinality' or 'weight', got {keep!r}")
    images: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}  # part -> () or (projection,)
    sums: dict[tuple[tuple[int, ...], ...], int] = {}  # canonical parts -> coefficient
    for partition, coeff in element.terms.items():
        parts: list[tuple[int, ...]] = []
        for part in partition.parts:
            image = images.get(part)
            if image is None:
                image = images[part] = (part[slots],) if any(part[slots]) else ()
            parts += image
        parts.sort(reverse=True)
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


def cmf_by_enumeration(g: WeightedGraph, colors: int) -> LaurentPolynomial:
    """Truncated CMF as the generating function of the proper colorings
    with the given number of colors, independent of the CMF.

    A frontier dynamic program along `_frontier_steps`, like `egdp`: a
    state is the colors of the frontier vertices, by frontier position,
    and the placed vertices' exponents packed as `truncate` packs them,
    so colorings that agree on both merge.  Placing v gives it every
    color that no placed neighbour (all on the frontier) holds.  The cap
    counts all colors^n colorings.  A state of colors * (r + 1) exponents
    counts against TRUNCATE_LIVE_EXPONENTS as in truncate: too many
    colors for one vertex's states are refused before anything is built,
    and past it, checked after each state's moves, the program raises
    CapExceededError."""
    if colors < 0:
        raise ValueError("number of colors must be >= 0")
    if colors ** g.n > DEFAULT_MAX_COLORINGS:
        raise CapExceededError(
            f"{colors}^{g.n} colorings exceeds the cap of {DEFAULT_MAX_COLORINGS}")
    block = g.r + 1
    budget = TRUNCATE_LIVE_EXPONENTS // max(1, colors * block)  # in states
    exceeded = CapExceededError(f"the {colors}-color coloring enumeration exceeds its "
                                f"budget of {TRUNCATE_LIVE_EXPONENTS} live exponents")
    if colors > budget:
        raise exceeded
    names = truncation_variables(block, colors)
    radix = max(g.n, *g.total_weight) + 1
    steps = [radix ** (block * (colors - 1 - c)) for c in range(colors)]  # color c's digit group
    states: dict[tuple[tuple[int, ...], int], int] = {((), 0): 1}  # (held, exponents) -> count
    for v, _, touching, staying in _frontier_steps(g):
        code = pack((1, *g.weights[v]), radix)
        codes = [code * step for step in steps]
        placed: dict[tuple[tuple[int, ...], int], int] = {}
        for (held, exps), count in states.items():
            used = {held[i] for i in touching}
            for c in range(colors):
                if c not in used:
                    held_c = (*held, c)
                    key = (tuple([held_c[i] for i in staying]), exps + codes[c])
                    placed[key] = placed.get(key, 0) + count
            if len(placed) > budget:
                raise exceeded
        states = placed
    return LaurentPolynomial(names, {unpack(exps, radix, len(names)): count
                                     for (_, exps), count in states.items()})
