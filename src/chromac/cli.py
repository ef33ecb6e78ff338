"""Command-line interface.

Canonical data goes to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 failed verification, 2 unreadable input, 3 size cap
exceeded, 4 invariant not applicable to the input.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from typing import Any, Callable, Iterator

from .algebra import MacMahonElement
from .bases import is_triangular_with_unit_diagonal, matrix_to_text, star_family, transition_matrix
from .chromatic import (DEFAULT_MAX_EDGES, DEFAULT_MAX_VERTICES, beta_table, cmf, egdp,
                        specialize_csf, specialize_egdp)
from .errors import CapExceededError, NotApplicableError
from .graphs import (GraphFormatError, WeightedGraph, all_labeled_trees,
                     counterexample_pair, parse_graph, random_forest, serialize_graph)
from .hopf import (antipode, coproduct, egdp_convolution, recover_egdp_hopf,
                   recover_stats, symbolic_counting_image)

_EXIT_CODES = {GraphFormatError: 2, CapExceededError: 3, NotApplicableError: 4}

GRAPH_FILE_CHARS = 1 << 22  # characters read from one graph file; a longer file is refused


def _int_at_least(least: int) -> Callable[[str], int]:
    """argparse type for an integer option that must be at least `least`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports a non-integer as an "invalid int value"
    return parse


def _load_graph(path: str) -> WeightedGraph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read(GRAPH_FILE_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}")
    if len(text) > GRAPH_FILE_CHARS:
        raise CapExceededError(f"{path} is longer than the cap of {GRAPH_FILE_CHARS} characters")
    return parse_graph(text)


# --invariant, in --help order: a base invariant (cmf, beta_table or egdp) and its projection
_INVARIANTS: dict[str, Callable[[WeightedGraph, argparse.Namespace], Any]] = {
    "cmf": lambda g, args: cmf(g, max_edges=args.max_edges),
    "wcsf": lambda g, args: specialize_csf(cmf(g, max_edges=args.max_edges), "weight"),
    "csf": lambda g, args: specialize_csf(cmf(g, max_edges=args.max_edges), "cardinality"),
    "beta": lambda g, args: MacMahonElement(g.r + 1, beta_table(g, max_edges=args.max_edges)),
    "egdp": lambda g, args: egdp(g, max_vertices=args.max_vertices),
    "wgdp": lambda g, args: specialize_egdp(egdp(g, max_vertices=args.max_vertices), "wgdp"),
    "gdp": lambda g, args: specialize_egdp(egdp(g, max_vertices=args.max_vertices), "gdp"),
}

_HOPF_OPS: dict[str, Callable[[MacMahonElement], Any]] = {  # --op, applied to the cmf
    "coproduct": coproduct, "antipode": antipode, "phi": symbolic_counting_image,
    "gamma": egdp_convolution, "stats": recover_stats,
}


def cmd_compute(args: argparse.Namespace) -> int:
    g = _load_graph(args.path)
    if args.truncate is not None and args.invariant != "cmf":
        raise NotApplicableError("--truncate applies only to the cmf invariant")
    value = _INVARIANTS[args.invariant](g, args)
    print((value if args.truncate is None else value.truncate(args.truncate)).to_text())
    return 0


def cmd_hopf(args: argparse.Namespace) -> int:
    print(_HOPF_OPS[args.op](cmf(_load_graph(args.path), max_edges=args.max_edges)).to_text())
    return 0


def _verify_forests(args: argparse.Namespace) -> Iterator[WeightedGraph]:
    """The forests `verify` checks: every labeled tree with every weight
    assignment up to n_max vertices, or random forests."""
    if args.mode == "exhaustive":
        single = list(itertools.product(range(1, args.weight_max + 1), repeat=args.r))
        for n in range(1, args.n_max + 1):
            for edges in all_labeled_trees(n):
                for weights in itertools.product(single, repeat=n):
                    yield WeightedGraph(n, weights, edges, args.r)
    else:
        rng = random.Random(args.seed)
        for _ in range(args.trials):
            n = rng.randint(1, args.n_max)
            yield random_forest(n, args.weight_max, args.r, seed=rng.randrange(2 ** 32))


def cmd_verify(args: argparse.Namespace) -> int:
    checked = 0
    for g in _verify_forests(args):
        # egdp first, so its vertex cap refuses a large forest early.  Only
        # the Hopf route is checked: on a forest the explicit route expands
        # the same convolution grid, so it returns the EGDP whenever this
        # route does; the tests check it against egdp on their own.
        expected = egdp(g)
        if recover_egdp_hopf(cmf(g)) != expected:
            print("FAIL: hopf route mismatch", file=sys.stderr)
            print(serialize_graph(g), end="")
            print("RESULT: FAIL")
            return 1
        checked += 1
    print(f"mode: {args.mode}")
    print(f"checked: {checked} forests")
    print("RESULT: PASS")
    return 0


def cmd_counterexample(args: argparse.Namespace) -> int:
    t1, t2 = counterexample_pair()
    cmf1, cmf2 = cmf(t1), cmf(t2)
    wcsf_equal = specialize_csf(cmf1, "weight") == specialize_csf(cmf2, "weight")
    csf_equal = specialize_csf(cmf1, "cardinality") == specialize_csf(cmf2, "cardinality")
    wgdp1 = specialize_egdp(egdp(t1), "wgdp")
    wgdp2 = specialize_egdp(egdp(t2), "wgdp")
    coeff1 = wgdp1.coefficient({"x": 4, "y": 3})
    coeff2 = wgdp2.coefficient({"x": 4, "y": 3})
    trunc_distinct = cmf1.truncate(2) != cmf2.truncate(2)
    print(f"wCSF equal: {'yes' if wcsf_equal else 'no'}")
    print(f"CSF equal: {'yes' if csf_equal else 'no'}")
    print(f"wGDP x^4 y^3 coefficient: {coeff1} vs {coeff2}")
    print(f"CMF(k=2) distinct: {'yes' if trunc_distinct else 'no'}")
    ok = wcsf_equal and csf_equal and coeff1 != coeff2 and trunc_distinct
    return 0 if ok else 1


def cmd_bases_check(args: argparse.Namespace) -> int:
    all_ok = True
    for n in range(1, args.n_max + 1):
        for w in range(1, args.weight_max + 1):
            matrix = transition_matrix(star_family, (n, w))
            ok = is_triangular_with_unit_diagonal(matrix)
            all_ok = all_ok and ok
            status = "ok" if ok else "FAIL"
            print(f"multidegree ({n},{w}): size {len(matrix)} {status}")
            if args.show_matrices and matrix:
                print(matrix_to_text(matrix))
    print(f"RESULT: {'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def cmd_random_forest(args: argparse.Namespace) -> int:
    g = random_forest(args.n, args.max_weight, args.r, seed=args.seed)
    print(serialize_graph(g), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromac",
        description="Chromatic MacMahon symmetric functions of weighted graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="invariants of a graph file")
    compute.add_argument("path")
    compute.add_argument("--invariant", required=True, choices=list(_INVARIANTS))
    compute.add_argument("--truncate", type=_int_at_least(0), default=None, metavar="K",
                         help="expand the cmf in K colors")
    compute.add_argument("--max-edges", type=_int_at_least(0), default=DEFAULT_MAX_EDGES)
    compute.add_argument("--max-vertices", type=_int_at_least(0), default=DEFAULT_MAX_VERTICES)
    compute.set_defaults(func=cmd_compute)

    hopf = sub.add_parser("hopf", help="Hopf-structure computations on the cmf")
    hopf.add_argument("path")
    hopf.add_argument("--op", required=True, choices=list(_HOPF_OPS))
    hopf.add_argument("--max-edges", type=_int_at_least(0), default=DEFAULT_MAX_EDGES)
    hopf.set_defaults(func=cmd_hopf)

    verify = sub.add_parser("verify", help="check the Hopf EGDP recovery route on forests")
    verify.add_argument("--mode", choices=["exhaustive", "random"], default="random")
    verify.add_argument("--n-max", type=_int_at_least(1), default=5)
    verify.add_argument("--weight-max", type=_int_at_least(1), default=2)
    verify.add_argument("--r", type=_int_at_least(1), default=1)
    verify.add_argument("--trials", type=_int_at_least(1), default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    counter = sub.add_parser("counterexample",
                             help="two weighted trees with equal wCSF but different wGDP")
    counter.set_defaults(func=cmd_counterexample)

    bases = sub.add_parser("bases", help="chromatic basis checks")
    bases_sub = bases.add_subparsers(dest="bases_command", required=True)
    check = bases_sub.add_parser("check", help="star-family transition matrices")
    check.add_argument("--n-max", type=_int_at_least(1), default=4)
    check.add_argument("--weight-max", type=_int_at_least(1), default=6)
    check.add_argument("--show-matrices", action="store_true")
    check.set_defaults(func=cmd_bases_check)

    forest = sub.add_parser("random-forest", help="emit a random weighted forest")
    forest.add_argument("--n", type=_int_at_least(0), required=True)
    forest.add_argument("--max-weight", type=_int_at_least(1), default=4)
    forest.add_argument("--r", type=_int_at_least(1), default=1)
    forest.add_argument("--seed", type=int, default=0)
    forest.set_defaults(func=cmd_random_forest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


if __name__ == "__main__":
    raise SystemExit(main())
