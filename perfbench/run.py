"""Cold-query benchmark for cpltl.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A query is one check_exists, check_fixed, check_forall or optimize_mc call
on a generated system and formula.  Every query runs in a fresh interpreter,
one at a time (a closed loop with a single client), because every
`cpltl check` invocation pays the cold cost: the checker's process-wide
automaton cache would otherwise make a repeated query about 200x faster.

The seed fixes the workload's query set.  The run answers the whole set
round(S / PASS_SECONDS) times, at least twice, so a run measures about S
seconds; a fixed number of passes keeps the percentiles at the same ranks
in every run.  Times are scaled to a reference host speed by
a probe that each query process runs before it imports cpltl (see
`end_to_end`).  Every answer is checked against an expected answer from
outside the pipeline, then the README's CLI examples are replayed.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates traced and
untraced passes (at least three: two traced, one untraced), reports per-layer
metrics from the traced ones, checks that the per-layer counts repeat
exactly between traced passes, and reports the tracing overhead.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Run details (per-query outcomes, spans of the last
traced pass) go to `.perfbench_out/` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

# Per-query cap.  The slowest query of any workload takes under 3 s on a
# 2-core box, far enough below the cap that no verdict flips between
# timeout and answer.
QUERY_CAP_S = 40.0
# No query starts unless it can end by then, so a run exits within 180 s
# even when every query hits the cap.
RUN_LIMIT_S = 150.0
REPLAY_DEADLINE_S = 170.0
# One pass over the workload's query set takes about this long on a 2-core
# box at this commit; a run makes round(S / pass seconds) passes.
PASS_SECONDS = {"product-heavy": 16.0, "budget-heavy": 17.0}
# The speed probe's median time (query.speed_probe) on a 2-core Intel Xeon
# VM.  It fixes only the scale of the reported times: they read as seconds
# on a host running at that speed.
PROBE_REFERENCE_S = 0.100
TAIL_BEYOND = 10

END_TO_END = {
    "query_total_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def run_query(query, traced: bool, cap: float, spans_path=None) -> dict:
    """One query in a fresh interpreter.  A query past the cap is killed
    and recorded as a timeout that cost the cap."""
    spec = dict(query.spec(), trace=traced, spans_path=spans_path)
    launch = time.monotonic()
    spec["launch"] = launch
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "query.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            timeout=cap,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "latency_s": cap}
    wall = time.monotonic() - launch
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"status": "error", "error": tail[0], "latency_s": wall}
    out = json.loads(lines[-1])
    if out["status"] == "error":
        out["latency_s"] = wall
        return out
    wrong = [
        f"{key}: expected {want!r}, got {out['answer'].get(key)!r}"
        for key, want in query.expect.items()
        if out["answer"].get(key) != want
    ] + out["problems"]
    if wrong:
        out["status"] = "wrong"
        out["wrong"] = wrong
    return out


def run_pass(queries, traced: bool, started: float, spans_dir=None) -> list:
    outcomes = []
    for query in queries:
        left = RUN_LIMIT_S - (time.monotonic() - started)
        if left < QUERY_CAP_S:
            out = {"status": "timeout", "latency_s": QUERY_CAP_S, "not_started": True}
        else:
            spans_path = None
            if spans_dir is not None:
                spans_path = os.path.join(spans_dir, query.name + ".json")
            out = run_query(query, traced, QUERY_CAP_S, spans_path)
        out["query"] = query.name
        out["traced"] = traced
        outcomes.append(out)
    return outcomes


def tail_latency(latencies) -> tuple:
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the maximum when there are too few samples."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    if len(ordered) <= TAIL_BEYOND:
        rank = len(ordered) - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def normalized(outcome: dict, key: str) -> float:
    """A time of an answered query at the reference host speed: the time
    as measured, times PROBE_REFERENCE_S over that process's probe time.
    A timeout or an error keeps the time it cost."""
    if "probe_s" not in outcome:
        return outcome[key]
    return outcome[key] * PROBE_REFERENCE_S / outcome["probe_s"]


def end_to_end(passes) -> tuple:
    """End-to-end metrics from times normalized to the reference speed.

    The host's speed drifts by tens of percent over minutes, so raw times
    of runs made minutes apart differ by more than any change worth
    finding.  Each query process times a fixed probe before it imports
    cpltl, and each of its times is scaled by the probe (`normalized`).
    query_total_s sums each query's median time over the passes; a timeout
    counts as the cap.  The percentiles and setup_s take every run of every
    query.
    """
    slots = list(zip(*passes))
    typical = [statistics.median(normalized(o, "latency_s") for o in slot) for slot in slots]
    runs = [normalized(o, "latency_s") for p in passes for o in p]
    tail, percentile = tail_latency(runs)
    setups = [normalized(o, "setup_s") for p in passes for o in p if "setup_s" in o]
    probes = [o["probe_s"] for p in passes for o in p if "probe_s" in o]
    rss = [o["rss_mb"] for p in passes for o in p if "rss_mb" in o]
    metrics = {
        "query_total_s": sum(typical),
        "latency_p50_s": statistics.median(runs),
        "latency_tail_s": tail,
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": max(rss) if rss else float("nan"),
    }
    notes = {
        "pass_totals_s": [sum(o["latency_s"] for o in p) for p in passes],
        "probe_median_s": statistics.median(probes) if probes else float("nan"),
        "tail_percentile": percentile,
        "samples": len(runs),
    }
    return metrics, notes


def per_layer(traced_passes, untraced_passes) -> tuple:
    """Workload sums of the per-query layer metrics: the median over traced
    passes for times, the (identical) value for counts."""
    sums = []
    absent = set()
    for p in traced_passes:
        total: dict = {}
        for o in p:
            absent.update(o.get("absent", ()))
            for name, value in o.get("layers", {}).items():
                if name == "automata.nba_used_ratio":
                    used, states = total.get(name, (0, 0))
                    total[name] = (used + value[0], states + value[1])
                elif name == "optimize.probe_max":
                    total[name] = max(total.get(name, 0), value)
                else:
                    total[name] = total.get(name, 0) + value
        if "automata.nba_used_ratio" in total:
            used, states = total["automata.nba_used_ratio"]
            total["automata.nba_used_ratio"] = used / states if states else 0.0
        sums.append(total)
    metrics = {}
    for name in tracing.METRICS:
        values = [s[name] for s in sums if name in s]
        if values:
            metrics[name] = statistics.median(values)
    if untraced_passes:
        traced_total = statistics.median(sum(o["latency_s"] for o in p) for p in traced_passes)
        plain_total = statistics.median(sum(o["latency_s"] for o in p) for p in untraced_passes)
        metrics["tracing.overhead_s"] = traced_total - plain_total
    return metrics, sorted(absent)


def determinism_problems(traced_passes) -> list:
    """Counts that differ between traced passes of the same query."""
    seen: dict = {}
    problems = []
    for p in traced_passes:
        for o in p:
            if o["status"] != "ok":
                continue
            for name in tracing.DETERMINISTIC:
                if name not in o["layers"]:
                    continue
                key = (o["query"], name)
                value = o["layers"][name]
                if key in seen and seen[key] != value:
                    problems.append(f"{o['query']} {name}: {seen[key]} then {value}")
                seen.setdefault(key, value)
    return problems


def anchor_report(queries, outcomes) -> list:
    """Re-anchor counts (ROADMAP.md) against this run's answers."""
    lines = []
    for query in queries:
        if not query.anchor:
            continue
        got = next((o["answer"] for o in outcomes
                    if o["query"] == query.name and "answer" in o), {})
        for key, want in query.anchor.items():
            have = got.get(key)
            mark = "same" if have == want else "differs"
            lines.append(f"anchor {query.name} {key}: re-anchor {want}, now {have} ({mark})")
    return lines


def readme_replay(timeout: float) -> list:
    """README CLI examples in a fresh interpreter; returns problems."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "replay.py")],
            capture_output=True, text=True, timeout=timeout, cwd=OUT,
        )
    except subprocess.TimeoutExpired:
        return ["README replay timed out"]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"README replay failed: {proc.stderr.strip()[-300:]}"]
    return json.loads(lines[-1])["problems"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import cpltl
    except ImportError as exc:
        print(f"error: cannot import cpltl from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(cpltl.__file__).startswith(src + os.sep):
        print(f"error: cpltl was imported from {cpltl.__file__}, not {src}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    started = time.monotonic()
    queries = workloads.build(args.workload, args.seed)
    build_s = time.monotonic() - started
    # A traced run needs two traced passes for the determinism check.
    min_passes = 3 if args.trace else 2
    n_passes = max(min_passes, round(args.seconds / PASS_SECONDS[args.workload]))
    passes = []
    spans_dir = None
    if args.trace:
        spans_dir = os.path.join(OUT, f"spans-{args.workload}-{args.seed}")
        os.makedirs(spans_dir, exist_ok=True)
    while len(passes) < n_passes and time.monotonic() - started < RUN_LIMIT_S - QUERY_CAP_S:
        traced = bool(args.trace) and len(passes) % 2 == 0
        passes.append(run_pass(queries, traced, started,
                               spans_dir if traced else None))

    outcomes = [o for p in passes for o in p]
    failed = [o for o in outcomes if o["status"] != "ok"]
    wrong = [o for o in outcomes if o["status"] == "wrong"]
    problems = [f"{o['query']}: {'; '.join(o['wrong'])}" for o in wrong]
    replay_budget = max(5.0, REPLAY_DEADLINE_S - (time.monotonic() - started))
    problems += [f"README: {p}" for p in readme_replay(replay_budget)]

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"queries={len(queries)} passes={len(passes)} build_s={build_s:.3f}")
    if args.trace:
        traced = [p for p in passes if p[0]["traced"]]
        untraced = [p for p in passes if not p[0]["traced"]]
        values, absent = per_layer(traced, untraced)
        for name in absent:
            print(f"warning: span {name} absent; its metrics are not reported",
                  file=sys.stderr)
        drift = determinism_problems(traced)
        for line in drift:
            print(f"DETERMINISM FAILURE: {line}", file=sys.stderr)
        problems += [f"nondeterministic count: {line}" for line in drift]
        units = {name: unit for name, (unit, _) in tracing.METRICS.items()}
        units["tracing.overhead_s"] = "s"
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    else:
        values, notes = end_to_end(passes)
        print(f"raw pass_totals_s={[round(t, 3) for t in notes['pass_totals_s']]} "
              f"probe_median_s={notes['probe_median_s']:.4f} "
              f"(reference {PROBE_REFERENCE_S})")
        print(f"latency_tail_s is p{notes['tail_percentile']:.1f} "
              f"of {notes['samples']} samples")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"failed_ratio={len(failed)}/{len(outcomes)}")
    for o in failed:
        print(f"failed {o['query']}: {o['status']} {o.get('error', '')}".rstrip())
    for line in anchor_report(queries, outcomes):
        print(line)
    for line in problems:
        print(f"INCORRECT: {line}", file=sys.stderr)

    detail = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w") as fh:
        json.dump({"passes": passes, "problems": problems, "metrics": metrics}, fh)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
