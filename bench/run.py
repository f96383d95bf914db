"""Seeded benchmark of ``nwtk``: one workload per run, closed loop.

Run from the root of a checkout:

    python3 bench/run.py --workload sphere-corpus --seed 1 --seconds 10 --trace 0

One caller in one process sends each item only after the previous one
returned.  Items come in rounds that are a function of the seed; the run
times whole rounds until ``--seconds`` of item time have passed, and checks
each item against reference code right after it, outside the timed region.
Item times are scaled to a reference machine speed (see ``calibrate``).
The last line
of standard output is one JSON object: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A run also writes its result, input properties and
environment to ``.bench_out/``; a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from array import array
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from spans import NullTracer, Tracer  # noqa: E402

SETUP_REPEATS = 7
CALIBRATE_EVERY_S = 0.25
STEADY_TOLERANCE = 0.1  # largest relative change of speed across a timed segment
CALIBRATION_S = 0.010  # reference duration of ``calibrate`` that times are scaled to
# modules a set-up imports afresh each time it is repeated
FRESH_MODULES = ("nwtk", "workloads", "reference", "fixtures", "oracles")
REQUIRED = (
    "BENCHMARK.json",
    os.path.join("src", "nwtk", "__init__.py"),
    os.path.join("tests", "oracles.py"),
    os.path.join("tests", "fixtures.py"),
    os.path.join("tests", "test_acceptance.py"),
)


def setup(root, workload, seed, tiny):
    """Import ``nwtk`` and the workload afresh, build its fixed machines and
    make the first round.  Returns (seconds, workload, first round, digest)."""
    for name in list(sys.modules):
        if name.split(".")[0] in FRESH_MODULES:
            del sys.modules[name]
    start = perf_counter()
    module = importlib.import_module("workloads")
    wl = module.WORKLOADS[workload](seed, tiny)
    first = wl.make_round(0)
    elapsed = perf_counter() - start
    return elapsed, wl, first, digest(wl, first)


def digest(wl, items) -> str:
    text = repr(items) + getattr(wl, "digest_text", "")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def calibrate() -> float:
    """Seconds a fixed pure-Python job takes now: breadth-first search,
    sorting and hashing over a fixed graph, with no ``nwtk`` code.  The
    median of three runs tracks the machine's current speed."""
    n = 1500
    adj = [((i * 7 + 1) % n, (i * 13 + 5) % n, (i + 1) % n) for i in range(n)]
    samples = []
    for _ in range(5):
        start = perf_counter()
        for _ in range(4):
            dist = {0: 0}
            order = [0]
            head = 0
            while head < len(order):
                v = order[head]
                head += 1
                for u in adj[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        order.append(u)
            keys = sorted((dist[v] % 17, adj[v]) for v in order)
            frozenset(k for k, _ in keys)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def run_rounds(wl, first, tracer, *, seconds=None, rounds=None):
    """Run whole rounds, timing each item and checking it right after.

    Stops after ``rounds`` rounds, or once item time reaches ``seconds``.
    After every ``CALIBRATE_EVERY_S`` of item time, ``calibrate`` measures
    the machine's speed outside the timed region.  The items timed in
    between are scaled to a machine where the calibration takes
    ``CALIBRATION_S``, by the mean of the measurements on either side.
    When those two differ by more than ``STEADY_TOLERANCE``, the machine's
    speed changed under the items: they still count as attempted and are
    checked, but their times go to ``unsteady`` instead of ``scaled``.
    Round ``i`` repeats round ``i % wl.distinct_rounds``; the first two
    steady times of each distinct item go to ``repeats``.
    """
    phase = {
        "items": 0, "raw_s": 0.0, "steady_s": 0.0, "scaled": array("f"),
        "unsteady": array("f"), "factors": [], "failures": [], "stats": {},
        "rounds": 0, "repeats": {},
    }
    stats = phase["stats"]
    segment = []
    where = []  # per timed item of the segment: its two repeat arrays and index
    segment_s = 0.0
    before = calibrate()

    def rescale():
        nonlocal before, segment_s
        after = calibrate()
        factor = 2 * CALIBRATION_S / (before + after)
        phase["factors"].append(factor)
        phase["items"] += len(segment)
        phase["raw_s"] += segment_s
        if abs(after - before) <= STEADY_TOLERANCE * min(after, before):
            phase["steady_s"] += segment_s
            phase["scaled"].extend(t * factor for t in segment)
            for t, (first, second, k) in zip(segment, where):
                if math.isnan(first[k]):
                    first[k] = t * factor
                elif math.isnan(second[k]):
                    second[k] = t * factor
        else:
            phase["unsteady"].extend(t * factor for t in segment)
        segment.clear()
        where.clear()
        segment_s = 0.0
        before = after

    items = first
    while True:
        index = phase["rounds"]
        detail = index < wl.trace_rounds
        slot = phase["repeats"].get(index % wl.distinct_rounds)
        if slot is None:
            slot = tuple(array("f", [math.nan]) * len(items) for _ in range(2))
            phase["repeats"][index % wl.distinct_rounds] = slot
        for k, item in enumerate(items):
            message = None
            t0 = perf_counter()
            try:
                out = tracer.item(phase["items"] + len(segment), wl.run, item, tracer)
            except Exception as exc:  # an item that raises counts as failed
                message = f"raised {exc!r}"
            elapsed = perf_counter() - t0
            segment.append(elapsed)
            where.append((*slot, k))
            segment_s += elapsed
            if message is None:
                try:
                    message = wl.check(item, out, stats, detail)
                except Exception as exc:  # a check that cannot run is a failure too
                    message = f"check raised {exc!r}"
                del out
            if message:
                phase["failures"].append(f"round {index} item {k}: {message}")
            if segment_s >= CALIBRATE_EVERY_S:
                rescale()
        if segment:
            rescale()
        phase["failures"] += [f"round {index}: {m}" for m in wl.end_round(stats)]
        phase["rounds"] += 1
        if (rounds is not None and phase["rounds"] >= rounds) or (
            seconds is not None and phase["raw_s"] >= seconds
        ):
            phase["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            return phase
        items = wl.make_round(phase["rounds"] % wl.distinct_rounds)
        gc.collect()


def total_time(phase) -> float:
    """Calibrated time of every item, steady or not."""
    return sum(phase["scaled"]) + sum(phase["unsteady"])


def item_times(phase):
    """The steady item times; every item time when no segment was steady."""
    return phase["scaled"] or phase["unsteady"]


def tail_rank(n) -> int:
    """Index, in ascending order, of p99 by nearest rank.  It leaves ten
    samples or more above it once there are 1100."""
    return max(math.ceil(0.99 * n) - 1, 0)


def repeat_tail(phase):
    """Tail percentile, over the distinct items timed steadily twice, of the
    lesser of each one's first two steady times, and the number of such
    items.  A stall that hits one timing of an item does not reach the
    tail.  Over every item time when no item has two."""
    best = [
        min(a, b)
        for first, second in phase["repeats"].values()
        for a, b in zip(first, second)
        if not math.isnan(b)
    ] or item_times(phase)
    ordered = sorted(best)
    return ordered[tail_rank(len(ordered))], len(ordered)


def end_to_end(phase, setups):
    """The end-to-end metrics as (value, samples), from calibrated times."""
    times = item_times(phase)
    n = len(times)
    tail, distinct = repeat_tail(phase)
    return {
        "items_per_s": (phase["items"] / total_time(phase), phase["items"]),
        "item_p50_ms": (statistics.median(times) * 1e3, n),
        "item_p99_ms": (tail * 1e3, distinct),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (phase["peak_rss_mb"], 1),
    }


# input properties recorded by the checks, under their per-layer names
COUNTERS = {
    "colors_max": "sphere_automaton.chi_coloring.colors_max",
    "degree_max": "sphere_automaton.chi_coloring.degree_max",
    "members": "sphere_automaton.canonical_run.members",
    "frontier_peak": "automata.mvpa_step.frontier_peak",
    "frontier_sum": "automata.mvpa_step.frontier_sum",
    "mvpa_to_mnwa.rows_out": "automata.mvpa_to_mnwa.rows_out",
    "mnwa_to_mvpa.rows_out": "automata.mnwa_to_mvpa.rows_out",
    "degeneralize.rows_out": "automata.degeneralize.rows_out",
    "product.rows_out": "automata.product.rows_out",
    "checked": "grids.verify_reduction.checked",
    "found": "circularity.circular_witness.found",
}


def per_layer(tracer, stats, untraced_s, traced_s):
    """Per-layer metrics as (value, samples): self time and calls per span
    name, counters from the checks, and the tracing overheads.  Also the
    summed item time, under ``_item_s``."""
    out = {}
    spans = tracer.self_times()
    items = spans.get("item", (0.0, 0))[1]
    for name, (own, calls) in spans.items():
        if name.endswith(".first"):
            out[f"{name[:-6]}.first_self_s"] = (own, calls)
        elif name != "item":
            out[f"{name}.self_s"] = (own, calls)
            out[f"{name}.calls"] = (calls, calls)
    computed = 0
    distinct = 0
    for r in (0, 1, 2):
        if f"keys_r{r}" in stats:
            count = len(stats[f"keys_r{r}"])
            out[f"spheres.sphere_key.distinct_r{r}"] = (count, stats[f"keys_computed_r{r}"])
            computed += stats[f"keys_computed_r{r}"]
            distinct += count
    if computed:
        out["spheres.sphere_key.shared_frac"] = (1 - distinct / computed, computed)
    for key, name in COUNTERS.items():
        if key in stats:
            out[name] = (stats[key], items)
    total = sum(end - start for name, start, end, *_ in tracer.spans if name == "item")
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1, items)
    out["trace.unattributed_frac"] = (spans.get("item", (0.0, 0))[0] / total, items)
    out["_item_s"] = total
    return out


def properties(stats, rounds, items, first_digest):
    hist = stats.get("length_hist", {})
    positions = stats.get("positions", 0)
    props = {
        "rounds": rounds,
        "items": items,
        "first_round_digest": first_digest,
        "length_hist": {str(k): hist[k] for k in sorted(hist)},
    }
    if "pending" in stats and positions:
        props["pending_share"] = stats["pending"] / positions
    if "pending_calls" in stats and positions:
        props["pending_call_share"] = stats["pending_calls"] / positions
    for key, value in sorted(stats.items()):
        if key.startswith("keys_r"):
            props[f"distinct_{key}"] = len(value)
        elif key not in ("length_hist", "pending", "pending_calls", "positions"):
            props[key] = value
    return props


def environment(root) -> dict:
    files = sorted(glob.glob(os.path.join(root, "src", "nwtk", "*.py")))
    h = hashlib.sha256()
    for path in files:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nwtk_commit": git_head(root),
        "nwtk_source_sha256": h.hexdigest()[:16],
    }


def git_head(root) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head, encoding="utf-8") as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def bench(root, workload, seed, seconds, trace, tiny=False):
    """Run one workload; returns the full result as a dict."""
    for sub in ("src", "tests"):
        path = os.path.join(root, sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    setups = []
    raw_setups = []
    digests = set()
    for _ in range(SETUP_REPEATS):
        elapsed, wl, first, first_digest = setup(root, workload, seed, tiny)
        setups.append(elapsed * CALIBRATION_S / calibrate())
        raw_setups.append(elapsed)
        digests.add(first_digest)
    deterministic = len(digests) == 1
    result = {"workload": workload, "seed": seed, "trace": trace, "deterministic_inputs": deterministic}
    if not trace:
        phase = run_rounds(wl, first, NullTracer(), seconds=seconds)
        metrics = end_to_end(phase, setups)
        result["raw_item_s"] = phase["raw_s"]
        result["raw_setup_s"] = statistics.median(raw_setups)
        result["steady_frac"] = phase["steady_s"] / phase["raw_s"]
        failures = phase["failures"]
        attempted = phase["items"]
    else:
        untraced = run_rounds(wl, first, NullTracer(), rounds=wl.trace_rounds)
        tracer = Tracer()
        phase = run_rounds(wl, wl.make_round(0), tracer, rounds=wl.trace_rounds)
        failures = untraced["failures"] + phase["failures"]
        attempted = untraced["items"] + phase["items"]
        layer = per_layer(tracer, phase["stats"], total_time(untraced), total_time(phase))
        result["item_s"] = layer.pop("_item_s")
        metrics = layer
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"))
    result.update(
        attempted=attempted,
        failed=len(failures),
        fail_frac=len(failures) / attempted,
        failures=failures[:20],
        metrics=metrics,
        properties=properties(phase["stats"], phase["rounds"], phase["items"], sorted(digests)[0]),
        calibration_factors=phase["factors"],
        environment=environment(root),
    )
    result["known_defects"] = wl.known_defects()
    result["correct"] = deterministic and not failures
    return result


def report(result, spec) -> dict:
    """Print the human-readable lines; return the contract's JSON object."""
    key = "per_layer" if result["trace"] else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in spec[key]]
    metrics = result["metrics"]
    print(
        f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['attempted']} items in {result['properties']['rounds']} rounds, "
        f"{result['failed']} failed, inputs deterministic: {result['deterministic_inputs']}"
    )
    for name, unit in wanted + [("fail_frac", "frac")]:
        if name == "fail_frac":
            value, n = result["fail_frac"], result["attempted"]
        else:
            value, n = metrics.get(name, (0, 0))
        share = ""
        if result["trace"] and name.endswith("self_s") and result.get("item_s"):
            share = f"  {100 * value / result['item_s']:5.1f}% of item time"
        print(f"  {name:<44} {value:>14.6g} {unit:<6} n={n}{share}")
    for message in result["failures"]:
        print(f"  failure: {message}")
    for message in result["known_defects"]:
        print(f"  known defect, kept out of the items: {message}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics.get(name, (0, 0))[0], "unit": unit} for name, unit in wanted
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(names)}", file=sys.stderr)
        return 2
    result = bench(root, args.workload, args.seed, args.seconds, args.trace)
    line = report(result, spec)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True, default=repr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
