"""Span tracing of chromac's public functions from outside the library.

`Tracer.install()` replaces each traced function wherever a caller looks
it up: on its defining module, on the `chromac` package and on every
chromac module that bound it by `from ... import` (so `chromac.bases.cmf`
and `chromac.hopf.coproduct` are traced too), and, for methods, on the
class.  Each call of a span function records (id, parent, item, name,
start, end) in memory.  The hot `LaurentPolynomial.__mul__` and
`__pow__` record no spans; their calls and time are only aggregated.

Self time is a call's duration minus the duration of the traced calls
made directly inside it, so every second of a traced pass is attributed
to exactly one traced function or to the benchmark's own item span.
Work counts are derived from each call's arguments and return value and
are computed outside the timed interval of the call and of its callers.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

import chromac
from chromac import algebra

CountFn = Callable[[Counter, tuple, object], None]


def _count_cmf(counts: Counter, args: tuple, result) -> None:
    counts["chromatic.cmf.edge_subsets"] += 2 ** args[0].edge_count
    counts["chromatic.cmf.terms_out"] += len(result.terms)


def _count_egdp(counts: Counter, args: tuple, result) -> None:
    counts["chromatic.egdp.vertex_subsets"] += 2 ** args[0].n
    counts["chromatic.egdp.terms_out"] += len(result.terms)


def _count_colorings(counts: Counter, args: tuple, result) -> None:
    counts["chromatic.cmf_by_enumeration.colorings"] += args[1] ** args[0].n


def _count_coproduct(counts: Counter, args: tuple, result) -> None:
    counts["hopf.coproduct.terms_nominal"] += sum(2 ** p.length for p in args[0].terms)
    counts["hopf.coproduct.terms_distinct"] += len(result.terms)


def _count_truncate(counts: Counter, args: tuple, result) -> None:
    counts["algebra.truncate.monomials_out"] += len(result.terms)


def _count_partitions(counts: Counter, args: tuple, result) -> None:
    counts["algebra.partitions_of.partitions_out"] += len(result)


def _count_types(counts: Counter, args: tuple, result) -> None:
    counts["recovery.recover_egdp_explicit.types_in"] += len(args[0])


# (span name, module attribute path, work counter).  Both specialisations
# share one span name.
SPAN_FUNCTIONS: tuple[tuple[str, str, CountFn | None], ...] = (
    ("graphs.parse_graph", "graphs.parse_graph", None),
    ("algebra.partitions_of", "algebra.partitions_of", _count_partitions),
    ("chromatic.cmf", "chromatic.cmf", _count_cmf),
    ("chromatic.egdp", "chromatic.egdp", _count_egdp),
    ("chromatic.beta_table", "chromatic.beta_table", None),
    ("chromatic.cmf_by_enumeration", "chromatic.cmf_by_enumeration", _count_colorings),
    ("chromatic.specialize", "chromatic.specialize_csf", None),
    ("chromatic.specialize", "chromatic.specialize_egdp", None),
    ("hopf.recover_egdp_hopf", "hopf.recover_egdp_hopf", None),
    ("hopf.recover_stats", "hopf.recover_stats", None),
    ("hopf.egdp_convolution", "hopf.egdp_convolution", None),
    ("hopf.convolve", "hopf.convolve", None),
    ("hopf.coproduct", "hopf.coproduct", _count_coproduct),
    ("recovery.recover_egdp_explicit", "recovery.recover_egdp_explicit", _count_types),
    ("bases.transition_matrix", "bases.transition_matrix", None),
    ("bases.realizable_partitions", "bases.realizable_partitions", None),
)

# (name, class, method, record a span, work counter)
METHODS = (
    ("algebra.truncate", algebra.MacMahonElement, "truncate", True, _count_truncate),
    ("algebra.laurent_mul", algebra.LaurentPolynomial, "__mul__", False, None),
    ("algebra.laurent_pow", algebra.LaurentPolynomial, "__pow__", False, None),
)

MODULES = ("graphs", "algebra", "chromatic", "hopf", "recovery", "bases")

# Work counts that depend only on the inputs and outputs, never on timing.
EXACT_COUNTS = (
    "chromatic.cmf.edge_subsets", "chromatic.egdp.vertex_subsets",
    "hopf.coproduct.terms_nominal", "chromatic.cmf_by_enumeration.colorings",
    "chromatic.cmf.terms_out", "hopf.coproduct.terms_distinct",
    "chromatic.egdp.terms_out", "algebra.truncate.monomials_out",
    "algebra.partitions_of.partitions_out", "recovery.recover_egdp_explicit.types_in",
    "algebra.laurent_mul.calls", "algebra.laurent_pow.calls",
)

# (metric, numerator, denominator, scale): per-unit costs and useful shares.
DERIVED = (
    ("chromatic.cmf.us_per_edge_subset", "chromatic.cmf.self_s", "chromatic.cmf.edge_subsets", 1e6),
    ("chromatic.cmf.output_ratio", "chromatic.cmf.terms_out", "chromatic.cmf.edge_subsets", 1),
    ("chromatic.egdp.us_per_vertex_subset", "chromatic.egdp.self_s",
     "chromatic.egdp.vertex_subsets", 1e6),
    ("chromatic.egdp.output_ratio", "chromatic.egdp.terms_out", "chromatic.egdp.vertex_subsets", 1),
    ("hopf.coproduct.distinct_ratio", "hopf.coproduct.terms_distinct",
     "hopf.coproduct.terms_nominal", 1),
    ("hopf.convolve.us_per_coproduct_term", "hopf.convolve.self_s",
     "hopf.coproduct.terms_distinct", 1e6),
)


def unit(metric: str) -> str:
    stat = metric.rsplit(".", 1)[1]
    if stat == "self_s":
        return "s"
    if stat.startswith("us_per"):
        return "us"
    if stat == "share" or stat.endswith("ratio"):
        return "ratio"
    return "count"


class Tracer:
    """In-memory spans, per-name call counts and self times, work counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int | None, str, float, float]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.item: int | None = None
        self._stack: list[list] = []  # per open call: [child seconds, span id]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, record: bool, count: CountFn | None) -> Callable:
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                calls[name] += 1
                self_s[name] += end - start - frame[0]
                if record:
                    self.spans.append((span_id, parent[1] if parent else None,
                                       self.item, name, start, end))
                if parent is not None:
                    parent[0] += end - start
            if count is not None:
                count(self.counts, args, result)
                if parent is not None:
                    # counting is tracer work: keep it out of the parent's self time
                    parent[0] += perf_counter() - end
            return result

        traced.__wrapped__ = fn
        return traced

    def item_span(self, item: int, fn: Callable, *args):
        """Run fn(*args) as the root span of one item."""
        self.item = item
        try:
            return self.wrap("bench.item", fn, True, None)(*args)
        finally:
            self.item = None

    def _replace(self, original: object, wrapper: object, namespaces) -> None:
        for namespace in namespaces:
            target = vars(namespace)
            for attr, value in list(target.items()):
                if value is original:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "chromac" or key.startswith("chromac.")]
        for name, path, count in SPAN_FUNCTIONS:
            module, attr = path.split(".")
            original = getattr(getattr(chromac, module), attr)
            self._replace(original, self.wrap(name, original, True, count), modules)
        for name, cls, attr, record, count in METHODS:
            original = vars(cls)[attr]
            # replaces aliases too, e.g. LaurentPolynomial.__rmul__
            self._replace(original, self.wrap(name, original, record, count), [cls])

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._restore):
            setattr(namespace, attr, value)
        self._restore.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of a traced pass that took wall_s seconds."""
        s = self.self_s

        def per(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        m: dict[str, float] = {}
        for name in sorted({n for n, _, _ in SPAN_FUNCTIONS} | {n for n, *_ in METHODS}):
            m[f"{name}.self_s"] = s[name]
        m["algebra.laurent_mul.calls"] = self.calls["algebra.laurent_mul"]
        m["algebra.laurent_pow.calls"] = self.calls["algebra.laurent_pow"]
        for key in EXACT_COUNTS:
            m.setdefault(key, self.counts[key])
        for name, numerator, denominator, scale in DERIVED:
            m[name] = per(scale * m[numerator], m[denominator])
        for module in MODULES:
            module_s = sum(v for k, v in s.items() if k.startswith(module + "."))
            m[f"{module}.share"] = per(module_s, wall_s)
        m["bench.share"] = per(s["bench.item"], wall_s)
        return m

    def exact_counts(self) -> dict[str, int]:
        m = self.metrics(1.0)
        return {key: int(m[key]) for key in EXACT_COUNTS}

    def dump(self, path) -> None:
        fields = ("id", "parent", "item", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)
