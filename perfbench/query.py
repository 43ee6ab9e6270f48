"""Answer one benchmark query in a fresh interpreter.

Reads a JSON query spec on stdin and prints one JSON line: the answer,
time-to-verdict (perf_counter around the library call), set-up time (from
the launch instant the parent recorded to inputs parsed, less the speed
probe), the speed probe's time, peak RSS at the verdict (before the
re-check), the problems found by re-checking the answer and, when traced,
the query's per-layer metrics.  A traced query writes its spans, as
[name, start, end, parent index, attrs] lists, to the spec's `spans_path`.

Run by run.py; `python3 perfbench/query.py < spec.json` answers one spec.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def speed_probe() -> float:
    """Seconds this process takes for a fixed pure-Python graph search.

    It runs first thing, before cpltl is imported, with the collector off,
    so nothing the checker does can change its cost; only the host's speed
    at that moment can.  run.py divides the query's times by it.
    """
    gc.disable()
    start = time.perf_counter()
    n = 1500
    succ = {i: ((i * 7 + 1) % n, (i * 13 + 5) % n, (i * i + 3) % n) for i in range(n)}
    for _ in range(16):
        seen = {(0, 0)}
        stack = [(0, 0)]
        while stack:
            v, c = stack.pop()
            for w in succ[v]:
                key = (w, (c + w) % 5)
                if key not in seen:
                    seen.add(key)
                    stack.append(key)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _answer(kind: str, result) -> dict:
    if kind == "exists":
        witness = result.witness
        return {
            "holds": result.holds,
            "bound": result.bound,
            "nba_states": result.automaton_states,
            "product_vertices": result.product_vertices,
            "product_edges": result.product_edges,
            "witness_len": 0 if witness is None else len(witness[0]) + len(witness[1]),
        }
    if kind == "fixed":
        return {"holds": result.holds, "fixed_explored": result.explored}
    if kind == "forall":
        return {"holds": result.holds, "bound": result.bound}
    return {
        "status": result.status,
        "value": result.value,
        "probes": result.probes,
        "bound": result.bound,
    }


def recheck(kind: str, system, phi, valuation, result) -> list:
    """Replay the answer's evidence outside the timed call: every exists
    witness through verify_pumpable, every counterexample through the
    trace semantics."""
    from cpltl import modelcheck
    from cpltl.formula import And, chi_formula, eliminate_parametric_always, negate, relativize
    from cpltl.system import trace_of
    from cpltl.trace import evaluate

    problems = []
    if kind == "exists" and result.witness is not None:
        target = And(
            negate(relativize(eliminate_parametric_always(phi), system.d)),
            chi_formula(system.d),
        )
        # The checker's own automaton cache, when it still has one, saves
        # translating the same formula a second time.
        translate = getattr(modelcheck, "_pipeline_nba", modelcheck.ltl_to_nba)
        graph = modelcheck.build_product(system, translate(target))
        problems += modelcheck.verify_pumpable(graph, *result.witness)
    path = None
    if kind == "fixed":
        path = result.counterexample
    elif kind == "forall":
        path, valuation = result.counterexample, result.corner
    if path is not None and evaluate(trace_of(system, path), 0, dict(valuation), phi):
        problems.append("counterexample satisfies the formula")
    if kind in ("fixed", "forall") and result.holds != (path is None):
        problems.append("verdict and counterexample disagree")
    return problems


def answer(spec: dict, probe_s: float) -> dict:
    tracer = None
    restore: list = []
    absent: list = []
    import cpltl  # noqa: F401  (the import is part of set-up)

    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        restore, absent = tracing.install(tracer)
    from cpltl import formula, modelcheck, optimize, system as systems

    sys_obj = systems.parse_system(spec["system"])
    phi = formula.parse(spec["formula"])
    setup_s = time.monotonic() - spec["launch"] - probe_s
    kind = spec["kind"]
    valuation = spec.get("valuation") or {}
    start = time.perf_counter()
    if kind == "exists":
        result = modelcheck.check_exists(sys_obj, phi)
    elif kind == "fixed":
        result = modelcheck.check_fixed(sys_obj, phi, valuation)
    elif kind == "forall":
        result = modelcheck.check_forall(sys_obj, phi)
    elif kind == "optimize":
        result = optimize.optimize_mc(sys_obj, phi, spec["objective"])
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    latency_s = time.perf_counter() - start
    out = {"status": "ok", "setup_s": setup_s, "latency_s": latency_s, "probe_s": probe_s,
           "rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracing.uninstall(restore)
        out["layers"] = tracing.query_metrics(tracer.spans, absent)
        out["absent"] = absent
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w") as fh:
                json.dump(tracer.spans, fh)
    out["answer"] = _answer(kind, result)
    out["problems"] = recheck(kind, sys_obj, phi, valuation, result)
    return out


def main() -> int:
    probe_s = speed_probe()
    spec = json.loads(sys.stdin.read())
    try:
        out = answer(spec, probe_s)
    except Exception as exc:  # reported to the parent as the query's error
        out = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
    out.setdefault("rss_mb", _peak_rss_mb())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
