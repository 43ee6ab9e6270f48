"""Self-tests of the benchmark harness: `python3 -m pytest perfbench`."""

from __future__ import annotations

import os
import random
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import query  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import LIFT_RESPONSE, LIFT_TEXT, Query  # noqa: E402


# The two-coordinate fixture of tests/conftest.py: any exists query on it
# translates chi_2 and takes several seconds.
STREETT_TEXT = """\
dim 2
state s0 init : Q1
state s1 : P1 Q2 kappa1
state s2 : P2 kappa2
edge s0 s1 : 2 0
edge s1 s2 : 0 3
edge s2 s0 : 0 0
edge s2 s1 : 1 0
"""


def test_timeout_is_recorded_without_hanging():
    slow = Query("slow", "exists", STREETT_TEXT, "G (Q1 -> F P1)", {"holds": True})
    started = time.monotonic()
    out = run.run_query(slow, traced=False, cap=1.0)
    assert out["status"] == "timeout"
    assert out["latency_s"] == 1.0
    assert time.monotonic() - started < 10


def test_exception_is_recorded_with_its_type():
    bad = Query("bad", "exists", LIFT_TEXT, "G (q ->", {"holds": True})
    out = run.run_query(bad, traced=False, cap=30)
    assert out["status"] == "error"
    assert out["error"].startswith("ParseError")


def test_gate_rejects_a_planted_wrong_answer():
    planted = Query("planted", "exists", LIFT_TEXT, LIFT_RESPONSE, {"holds": False})
    out = run.run_query(planted, traced=False, cap=30)
    assert out["status"] == "wrong"
    assert "holds: expected False, got True" in out["wrong"]


def test_gate_rejects_a_counterexample_that_satisfies_the_formula():
    from cpltl.formula import parse
    from cpltl.modelcheck import FixedResult
    from cpltl.system import LassoPath, parse_system

    fake = FixedResult(holds=False, counterexample=LassoPath(("s0",), ("s1",)), explored=0)
    problems = query.recheck("fixed", parse_system(LIFT_TEXT), parse(LIFT_RESPONSE),
                             {"x": 3}, fake)
    assert problems == ["counterexample satisfies the formula"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, {}],
        ["a", 1.0, 4.0, 0, {}],
        ["b", 3.0, 6.0, 0, {}],  # overlaps a: together they cover [1, 6]
        ["a.inner", 2.0, 3.0, 1, {}],
        ["leaf", 6.5, 9.0, 0, {"calls": 3, "busy": 1.5}],
    ]
    assert tracing.self_times(spans) == [3.5, 2.0, 3.0, 1.0, 1.5]


def test_tracer_nests_spans_and_folds_leaf_calls():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")  # t=0
    inner = tracer.begin("inner")  # t=1
    tracer.add_call("leaf", 2.0, 3.0)
    tracer.add_call("leaf", 4.0, 6.0)
    tracer.end(inner)  # t=2
    tracer.end(outer)  # t=3
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("leaf", 1)]
    assert tracer.spans[2][4] == {"calls": 2, "busy": 3.0}


def test_missing_wrap_point_is_absent_not_fatal(monkeypatch, capsys):
    monkeypatch.setattr(tracing, "WRAP_POINTS", tracing.WRAP_POINTS + (
        ("cpltl.modelcheck", "no_such_layer", "modelcheck.build_product", False),
    ))
    restore, absent = tracing.install(tracing.Tracer())
    tracing.uninstall(restore)
    assert absent == ["modelcheck.build_product"]
    assert "no_such_layer not found" in capsys.readouterr().err
    metrics = tracing.query_metrics([], absent)
    assert "modelcheck.product_s" not in metrics
    assert "automata.translate_s" in metrics


def test_traced_query_reproduces_lift_counts():
    lift = workloads.build("product-heavy", 1)[0]
    out = run.run_query(lift, traced=True, cap=60)
    assert out["status"] == "ok"
    layers = out["layers"]
    assert layers["automata.nba_states"] == 237
    assert layers["modelcheck.product_vertices"] == 57
    assert layers["modelcheck.product_edges"] == 140
    assert layers["automata.translate_calls"] == 1


def test_determinism_check_flags_drifting_counts():
    def outcome(vertices):
        return {"query": "q", "status": "ok",
                "layers": {"modelcheck.product_vertices": vertices}}

    assert run.determinism_problems([[outcome(57)], [outcome(57)]]) == []
    assert run.determinism_problems([[outcome(57)], [outcome(58)]]) == [
        "q modelcheck.product_vertices: 57 then 58"
    ]


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run.tail_latency([float(i) for i in range(30)])
    assert value == 19.0
    assert sum(1 for i in range(30) if i > value) == 10
    assert round(percentile, 1) == 66.7


def test_end_to_end_scales_times_by_the_speed_probe():
    ref = run.PROBE_REFERENCE_S

    def outcome(latency, speed=1.0):
        # a host at half speed doubles every time, the probe's too
        return {"status": "ok", "latency_s": latency / speed, "setup_s": 0.1 / speed,
                "probe_s": ref / speed, "rss_mb": 20.0}

    passes = [[outcome(float(i)) for i in range(1, 7)] for _ in range(2)]
    passes.append([outcome(float(i), speed=0.5) for i in range(1, 7)])
    passes[1][2] = {"status": "timeout", "latency_s": 40.0}
    metrics, notes = run.end_to_end(passes)
    assert metrics["query_total_s"] == pytest.approx(21.0)  # the third query's median is 3
    assert metrics["latency_p50_s"] == pytest.approx(4.0)
    assert metrics["latency_tail_s"] == pytest.approx(3.0)  # ten of 18 runs beyond it
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert notes["samples"] == 18
    assert notes["pass_totals_s"][2] == pytest.approx(42.0)  # raw times stay raw


def test_speed_probe_takes_measurable_time():
    assert 0.001 < query.speed_probe() < 5.0


def test_closed_forms_agree_with_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        g = workloads.small_system(rng, rng.randint(1, 4))
        text = g.text()
        need = workloads.response_need(g, "q", "p")
        assert workloads.brute_force_exists(text, LIFT_RESPONSE) == (need is not None)
        if need is not None:
            assert workloads.brute_force_holds(text, LIFT_RESPONSE, {"x": need})
            if need > 0:
                assert not workloads.brute_force_holds(text, LIFT_RESPONSE, {"x": need - 1})
        status, value = workloads.greatest_window(g, lambda lab: "q" in lab)
        window = "G[<=y] q"
        if status == "infeasible":
            assert not workloads.brute_force_holds(text, window, {"y": 0})
        elif status == "unbounded":
            assert workloads.brute_force_holds(text, window, {"y": workloads.ORACLE_CAP})
        else:
            assert workloads.brute_force_holds(text, window, {"y": value})
            assert not workloads.brute_force_holds(text, window, {"y": value + 1})


def test_workloads_repeat_per_seed():
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 3)
        again = workloads.build(name, 3)
        assert [q.spec() for q in first] == [q.spec() for q in again]
        assert 2 * len(first) > run.TAIL_BEYOND  # two passes, the fewest a run makes


def test_budget_rings_cost_the_same_in_every_seed():
    from cpltl.system import parse_system

    def costs(query):
        system = parse_system(query.system)
        ring = sorted(c[0] for (s, t), c in system.cost.items() if s != t)
        loops = {c[0] for (s, t), c in system.cost.items() if s == t}
        return ring, loops

    seen = {}
    for seed in range(1, 6):
        for query in workloads.build("budget-heavy", seed):
            if query.name.startswith(("forall", "max-min", "fixed-window")):
                seen.setdefault(query.name, set()).add(query.system)
                ring, loops = costs(query)
                assert ring == sorted(i % 3 + 1 for i in range(len(ring)))
                assert loops == {1}
            if query.name.startswith("max-min"):
                assert query.expect["value"] == workloads.VIOLATION_COST - 1
    # the order of the costs still comes from the seed
    assert all(len(systems) > 1 for systems in seen.values())


def test_readme_has_the_four_lift_examples():
    with open(os.path.join(replay.ROOT, "README.md")) as fh:
        system, found = replay.examples(fh.read())
    assert system.startswith("dim 1")
    assert [argv[:2] for argv, _ in found] == [["cpltl", "check"]] * 2 + [["cpltl", "optimize"]] * 2
    assert replay.expected_exit(found[1][1]) == 1
