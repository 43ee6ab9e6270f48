"""Per-layer spans recorded from outside the checker.

`install` replaces functions at the module attribute where each caller
looks them up (for example `cpltl.modelcheck.ltl_to_nba`, which
`check_exists` calls), so the package itself stays untouched.  A span
records its name, start, end and parent span; spans stay in memory until
the query ends.  Functions called per explored node are recorded as one
summary span per parent, holding their call count and busy time, so a long
budget search does not keep a span per call.

A span's self time is its duration minus the part of that interval its
children cover.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute, span name, leaf).  A leaf is called per explored node
# and has no traced children.
WRAP_POINTS = (
    ("cpltl.formula", "parse", "formula.parse", False),
    ("cpltl.system", "parse_system", "system.parse_system", False),
    ("cpltl.modelcheck", "check_exists", "modelcheck.check_exists", False),
    ("cpltl.modelcheck", "check_forall", "modelcheck.check_forall", False),
    ("cpltl.modelcheck", "check_fixed", "modelcheck.check_fixed", False),
    ("cpltl.optimize", "check_fixed", "optimize.probe", False),
    ("cpltl.optimize", "optimize_mc", "optimize.optimize_mc", False),
    ("cpltl.modelcheck", "valuation_upper_bound", "modelcheck.valuation_upper_bound", False),
    ("cpltl.optimize", "valuation_upper_bound", "modelcheck.valuation_upper_bound", False),
    ("cpltl.modelcheck", "ltl_to_nba", "automata.ltl_to_nba", False),
    ("cpltl.modelcheck", "build_product", "modelcheck.build_product", False),
    ("cpltl.modelcheck", "pumpable_fair_path", "modelcheck.pumpable_fair_path", False),
    ("cpltl.modelcheck", "verify_pumpable", "modelcheck.verify_pumpable", False),
    ("cpltl.modelcheck", "find_accepting_lasso", "automata.find_accepting_lasso", False),
    ("cpltl.modelcheck", "cost_nba", "automata.cost_nba", False),
    ("cpltl.automata", "CostBuchiAutomaton.successors", "automata.cost_successors", True),
    ("cpltl.modelcheck", "evaluate", "trace.evaluate", False),
)

# metric -> (unit, span names it is computed from)
METRICS = {
    "formula.parse_s": ("s", ("formula.parse",)),
    "system.parse_s": ("s", ("system.parse_system",)),
    "automata.translate_s": ("s", ("automata.ltl_to_nba",)),
    "automata.translate_calls": ("count", ("automata.ltl_to_nba",)),
    "automata.nba_states": ("count", ("automata.ltl_to_nba",)),
    "automata.nba_edges": ("count", ("automata.ltl_to_nba",)),
    "automata.translate_closure": ("count", ("automata.ltl_to_nba",)),
    "automata.nba_used_ratio": ("1", ("modelcheck.build_product",)),
    "modelcheck.product_s": ("s", ("modelcheck.build_product",)),
    "modelcheck.product_vertices": ("count", ("modelcheck.build_product",)),
    "modelcheck.product_edges": ("count", ("modelcheck.build_product",)),
    "modelcheck.pumpable_s": ("s", ("modelcheck.pumpable_fair_path",)),
    "automata.lasso_s": ("s", ("automata.find_accepting_lasso",)),
    "automata.lasso_nodes": ("count", ("automata.find_accepting_lasso",)),
    "modelcheck.verify_s": ("s", ("modelcheck.verify_pumpable",)),
    "modelcheck.verify_calls": ("count", ("modelcheck.verify_pumpable",)),
    "modelcheck.witness_len": ("count", ("modelcheck.pumpable_fair_path",)),
    "modelcheck.fixed_s": ("s", ("modelcheck.check_fixed", "optimize.probe")),
    "modelcheck.fixed_explored": ("count", ("modelcheck.check_fixed", "optimize.probe")),
    "automata.cost_build_s": ("s", ("automata.cost_nba",)),
    "automata.cost_expand_s": ("s", ("automata.cost_successors",)),
    "automata.cost_expand_calls": ("count", ("automata.cost_successors",)),
    "trace.evaluate_s": ("s", ("trace.evaluate",)),
    "trace.evaluate_calls": ("count", ("trace.evaluate",)),
    "modelcheck.bound_s": ("s", ("modelcheck.valuation_upper_bound",)),
    "modelcheck.bound": ("count", ("modelcheck.valuation_upper_bound",)),
    "modelcheck.forall_s": ("s", ("modelcheck.check_forall",)),
    "optimize.probes": ("count", ("optimize.probe",)),
    "optimize.probe_s": ("s", ("optimize.probe",)),
    "optimize.probe_max": ("count", ("optimize.probe",)),
}

# Counts that must repeat exactly between two runs of one seed.
DETERMINISTIC = (
    "automata.nba_states",
    "modelcheck.product_vertices",
    "modelcheck.product_edges",
    "modelcheck.fixed_explored",
    "optimize.probes",
    "modelcheck.bound",
)


class Tracer:
    """Spans of one query: [name, start, end, parent index, attrs]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.current = -1
        self._summaries: dict = {}

    def begin(self, name: str) -> int:
        self.spans.append([name, self.clock(), None, self.current, {}])
        self.current = len(self.spans) - 1
        return self.current

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        self.current = span[3]

    def add_call(self, name: str, start: float, end: float) -> None:
        """Fold one leaf call into its summary span under the current span."""
        key = (name, self.current)
        span = self._summaries.get(key)
        if span is None:
            span = [name, start, end, self.current, {"calls": 0, "busy": 0.0}]
            self._summaries[key] = span
            self.spans.append(span)
        span[2] = end
        span[4]["calls"] += 1
        span[4]["busy"] += end - start


def duration(span) -> float:
    attrs = span[4]
    return attrs["busy"] if "busy" in attrs else span[2] - span[1]


def self_times(spans) -> list:
    """Self time of every span: its duration minus the union of its
    children's intervals (a summary child covers its busy time)."""
    children: dict = {}
    for i, span in enumerate(spans):
        children.setdefault(span[3], []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        intervals = []
        for c in children.get(i, ()):
            child = spans[c]
            if "busy" in child[4]:
                covered += child[4]["busy"]
            else:
                intervals.append((max(child[1], span[1]), min(child[2], span[2])))
        reach = None
        for lo, hi in sorted(intervals):
            if reach is not None and lo < reach:
                lo = reach
            if hi > lo:
                covered += hi - lo
            reach = hi if reach is None else max(reach, hi)
        out.append(duration(span) - covered)
    return out


def _lookup(module, attribute: str):
    owner = module
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def _attrs_after(name: str, args, kwargs, result, attrs: dict) -> None:
    """Sizes read off a layer's inputs and outputs, outside its span."""
    if name == "automata.ltl_to_nba":
        from cpltl.formula import closure

        attrs["states"] = result.n_states
        attrs["edges"] = result.n_edges()
        attrs["closure"] = len(closure(args[0]))
    elif name == "modelcheck.build_product":
        attrs["vertices"] = result.n_vertices
        attrs["edges"] = result.n_edges()
        attrs["nba_used"] = len({v[1] for v in result.vertices})
        attrs["nba_states"] = args[1].n_states
    elif name == "modelcheck.pumpable_fair_path":
        attrs["witness_len"] = 0 if result is None else len(result[0]) + len(result[1])
    elif name in ("modelcheck.check_fixed", "optimize.probe"):
        attrs["explored"] = result.explored
        valuation = args[2] if len(args) > 2 else kwargs["valuation"]
        attrs["probe_max"] = max(valuation.values(), default=0)
    elif name == "modelcheck.valuation_upper_bound":
        attrs["bound"] = result


def _span_wrapper(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        attrs = tracer.spans[index][4]
        if name == "automata.find_accepting_lasso":
            args = list(args)
            expand = args[1]
            attrs["nodes"] = 0

            def counted(node):
                attrs["nodes"] += 1
                return expand(node)

            args[1] = counted
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        _attrs_after(name, args, kwargs, result, attrs)
        return result

    return traced


def _leaf_wrapper(tracer: Tracer, name: str, fn):
    clock = tracer.clock

    def traced(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_call(name, start, clock())

    return traced


def install(tracer: Tracer) -> tuple:
    """Wrap every wrap point; returns (restore list, absent span names).

    A wrap point whose module attribute no longer exists is reported on
    stderr and skipped, so metrics built on it are absent, not wrong.
    """
    restore = []
    absent = []
    for module_name, attribute, name, leaf in WRAP_POINTS:
        try:
            module = importlib.import_module(module_name)
            owner, attr, fn = _lookup(module, attribute)
        except (ImportError, AttributeError):
            print(f"warning: {module_name}.{attribute} not found; "
                  f"span {name} is absent", file=sys.stderr)
            absent.append(name)
            continue
        wrap = _leaf_wrapper if leaf else _span_wrapper
        setattr(owner, attr, wrap(tracer, name, fn))
        restore.append((owner, attr, fn))
    return restore, absent


def uninstall(restore) -> None:
    for owner, attr, fn in reversed(restore):
        setattr(owner, attr, fn)


def query_metrics(spans, absent) -> dict:
    """Per-layer metrics of one query, without those built on absent spans
    (nba_used_ratio is kept as its numerator and denominator)."""
    selfs = self_times(spans)
    by_name: dict = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span[0], []).append((span, own))

    def own(name):
        return sum(t for _, t in by_name.get(name, ()))

    def total(name, key):
        return sum(s[4].get(key, 0) for s, _ in by_name.get(name, ()))

    def calls(name):
        return sum(s[4].get("calls", 1) for s, _ in by_name.get(name, ()))

    fixed = ("modelcheck.check_fixed", "optimize.probe")
    values = {
        "formula.parse_s": own("formula.parse"),
        "system.parse_s": own("system.parse_system"),
        "automata.translate_s": own("automata.ltl_to_nba"),
        "automata.translate_calls": calls("automata.ltl_to_nba"),
        "automata.nba_states": total("automata.ltl_to_nba", "states"),
        "automata.nba_edges": total("automata.ltl_to_nba", "edges"),
        "automata.translate_closure": total("automata.ltl_to_nba", "closure"),
        "automata.nba_used_ratio": (
            total("modelcheck.build_product", "nba_used"),
            total("modelcheck.build_product", "nba_states"),
        ),
        "modelcheck.product_s": own("modelcheck.build_product"),
        "modelcheck.product_vertices": total("modelcheck.build_product", "vertices"),
        "modelcheck.product_edges": total("modelcheck.build_product", "edges"),
        "modelcheck.pumpable_s": own("modelcheck.pumpable_fair_path"),
        "automata.lasso_s": own("automata.find_accepting_lasso"),
        "automata.lasso_nodes": total("automata.find_accepting_lasso", "nodes"),
        "modelcheck.verify_s": own("modelcheck.verify_pumpable"),
        "modelcheck.verify_calls": calls("modelcheck.verify_pumpable"),
        "modelcheck.witness_len": total("modelcheck.pumpable_fair_path", "witness_len"),
        "modelcheck.fixed_s": sum(own(n) for n in fixed),
        "modelcheck.fixed_explored": sum(total(n, "explored") for n in fixed),
        "automata.cost_build_s": own("automata.cost_nba"),
        "automata.cost_expand_s": own("automata.cost_successors"),
        "automata.cost_expand_calls": calls("automata.cost_successors"),
        "trace.evaluate_s": own("trace.evaluate"),
        "trace.evaluate_calls": calls("trace.evaluate"),
        "modelcheck.bound_s": own("modelcheck.valuation_upper_bound"),
        "modelcheck.bound": total("modelcheck.valuation_upper_bound", "bound"),
        "modelcheck.forall_s": own("modelcheck.check_forall"),
        "optimize.probes": calls("optimize.probe"),
        "optimize.probe_s": sum(duration(s) for s, _ in by_name.get("optimize.probe", ())),
        "optimize.probe_max": max(
            (s[4]["probe_max"] for s, _ in by_name.get("optimize.probe", ())), default=0
        ),
    }
    missing = set(absent)
    return {
        metric: value
        for metric, value in values.items()
        if not missing.intersection(METRICS[metric][1])
    }
