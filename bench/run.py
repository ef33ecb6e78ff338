"""chromac benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload forest-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from `src/`; no
build step is needed.  The process builds the workload's fixed item list
from --seed, runs one untimed warm-up item, then calls chromac's public
API item after item (the next starts only when the previous one has
finished) until --seconds have passed and the round in progress is done,
cycling through the list.  Every item's outputs are checked against
oracles (see items.py).

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json.  With --trace 1 the run instead
takes a fixed prefix of the item list and times it twice with span
wrappers installed, alternating with two passes without them.  It
writes the spans of the first traced pass to .bench_out/, reports its
per-layer metrics, and fails if the exact work counts of the two traced
passes differ.

The exit code is 0 when every item passed its checks, 1 when one failed
or raised, and 2 when the library or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Rounds in the fixed item list (cycled if a run gets through all of it)
# and rounds in the traced prefix.
LIST_ROUNDS = {"forest-sweep": 64, "forest-deep": 16, "compute-mixed": 16}
TRACE_ROUNDS = {"forest-sweep": 4, "forest-deep": 1, "compute-mixed": 2}
SETUP_PROBES = 9
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

# Per-unit costs measured once before this benchmark existed (ROADMAP.md).
BASELINE_US = {"chromatic.cmf.us_per_edge_subset": (22, 29),
               "chromatic.egdp.us_per_vertex_subset": (6, 8)}


def require_library() -> None:
    if not (ROOT / "src" / "chromac" / "__init__.py").is_file():
        print(f"error: no chromac package under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)


def run_checked(items_mod, item, failures: list[str]) -> float | None:
    """Run one item and check it.  Returns the seconds spent in library
    calls, or None after recording why the item raised or failed."""
    items_mod.forget_caches(item)
    start = time.perf_counter()
    try:
        out = items_mod.run_item(item)
    except Exception:
        failures.append(f"{item.kind} item raised:\n{traceback.format_exc()}")
        return None
    elapsed = time.perf_counter() - start
    problems = items_mod.check_item(item, out)
    if problems:
        failures.append(f"{item.kind} item failed its checks: {problems}\n{item.text}")
        return None
    return elapsed


def set_up(workload: str, seed: int):
    """Import the library, build the item rounds and run the warm-up item."""
    sys.path.insert(0, str(ROOT / "src"))
    import items as items_mod  # imports chromac
    import workloads
    rounds = workloads.build_rounds(workload, seed, LIST_ROUNDS[workload])
    failures: list[str] = []
    run_checked(items_mod, workloads.warm_up_item(workload, seed), failures)
    return items_mod, rounds, failures


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its first timed item,
    once per probe process, each waited for before the next starts."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(seed), "--probe"],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
            code = probe.wait()
        if code != 0 or line.strip() != "ready":
            print(f"error: set-up probe exited with code {code}", file=sys.stderr)
            sys.exit(1)
        samples.append(elapsed)
    return samples


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_level(count: int) -> float:
    """Highest whole percentile that leaves at least TAIL_BEYOND samples
    above it, and at least the median."""
    return max(50.0, math.floor(100 * (count - TAIL_BEYOND) / count)) if count else 50.0


def timed_loop(items_mod, rounds, seconds: float):
    """Closed loop over the rounds until the time is up, always finishing
    the round in progress so that every run measures the same mix of
    items.  Returns per-item seconds (inf for a failed item) and failure
    notes."""
    times: list[float] = []
    failures: list[str] = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        for item in rounds[len(times) // len(rounds[0]) % len(rounds)]:
            elapsed = run_checked(items_mod, item, failures)
            times.append(math.inf if elapsed is None else elapsed)
    return times, failures


def summarize(times: list[float], setup_samples: list[float], seconds: float) -> dict:
    """End-to-end metrics from per-item seconds (inf for a failed item,
    which so misses every latency limit) and set-up samples."""
    ordered = sorted(times)
    ok = [t for t in times if math.isfinite(t)]
    window_ms = 1000 * seconds  # stands in for a failed item's time

    def ms(t: float) -> float:
        return 1000 * t if math.isfinite(t) else window_ms

    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "items_per_s": (len(ok) / sum(ok) if ok else 0.0, "1/s"),
        "item_p50_ms": (ms(percentile(ordered, 50)), "ms"),
        "item_tail_ms": (ms(percentile(ordered, tail_level(len(ordered)))), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_pct": (100 * len(ok) / len(times), "%"),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, list[str]]:
    setup_samples = measure_setup(workload, seed)
    items_mod, rounds, failures = set_up(workload, seed)
    times, loop_failures = timed_loop(items_mod, rounds, seconds)
    failures += loop_failures
    metrics = summarize(times, setup_samples, seconds)
    failed = sum(1 for t in times if not math.isfinite(t))
    level = tail_level(len(times))
    print(f"workload {workload}  seed {seed}  items {len(times)}  failed {failed}"
          f"  error_rate {failed / len(times):.4f}")
    print(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setup_samples)}")
    print(f"item_tail_ms is p{level:g} of {len(times)} samples "
          f"({len(times) - math.ceil(level / 100 * len(times))} above it)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:14s} {value:12.4f} {unit}")
    return metrics, len(times) + 1, failures  # + the warm-up item


def traced(workload: str, seed: int) -> tuple[dict, int, list[str]]:
    items_mod, rounds, failures = set_up(workload, seed)
    import tracer
    prefix = [it for r in rounds[:TRACE_ROUNDS[workload]] for it in r]

    def untraced_pass() -> float:
        start = time.perf_counter()
        for item in prefix:
            run_checked(items_mod, item, failures)
        return time.perf_counter() - start

    def traced_pass() -> tuple[tracer.Tracer, float]:
        trace = tracer.Tracer()
        trace.install()
        try:
            start = time.perf_counter()
            for index, item in enumerate(prefix):
                trace.item_span(index, run_checked, items_mod, item, failures)
            return trace, time.perf_counter() - start
        finally:
            trace.uninstall()

    # Untraced and traced passes alternate, so that drift in machine speed
    # mostly cancels in the overhead ratio.  The second traced pass checks
    # that the exact work counts repeat within this process.
    untraced_s = untraced_pass()
    trace, traced_s = traced_pass()
    untraced_s += untraced_pass()
    repeat, repeat_s = traced_pass()
    if repeat.exact_counts() != trace.exact_counts():
        failures.append(f"exact work counts differ between two traced passes: "
                        f"{trace.exact_counts()} != {repeat.exact_counts()}")

    m = trace.metrics(traced_s)
    m["trace.overhead_ratio"] = (traced_s + repeat_s) / untraced_s
    metrics = {name: (value, tracer.unit(name)) for name, value in m.items()}

    OUT_DIR.mkdir(exist_ok=True)
    trace.dump(OUT_DIR / f"spans-{workload}-seed{seed}.json")

    print(f"workload {workload}  seed {seed}  traced items {len(prefix)}  "
          f"wall {traced_s:.3f} + {repeat_s:.3f} s traced, {untraced_s:.3f} s untraced")
    for name, (value, unit) in metrics.items():
        note = ""
        if name in BASELINE_US:
            low, high = BASELINE_US[name]
            within = "within" if low <= value <= high else "OUTSIDE"
            note = f"   (ROADMAP baseline {low}-{high} us: {within})" if value else ""
        print(f"  {name:48s} {value:14.6g} {unit}{note}")
    shares = {module: m[f"{module}.share"] for module in tracer.MODULES}
    top = max(shares, key=shares.get)
    print(f"largest module share: {top} ({shares[top]:.3f}); hopf.share {shares['hopf']:.3f}")
    return metrics, 4 * len(prefix) + 1, failures


def main(argv: list[str] | None = None) -> int:
    sys.dont_write_bytecode = True  # every set-up compiles the code the same way
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)

    if args.probe:
        _, _, failures = set_up(args.workload, args.seed)
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        print("ready", flush=True)
        return 0

    require_library()
    if args.trace:
        metrics, attempted, failures = traced(args.workload, args.seed)
    else:
        metrics, attempted, failures = end_to_end(args.workload, args.seed, args.seconds)
    for failure in failures:
        print(failure, file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
