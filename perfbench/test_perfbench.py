"""Self-tests of the benchmark's own machinery.

Run from the checkout root::

    python -m pytest perfbench -q

They cover the self-time arithmetic, the oracles' rejection of corrupted
outputs, and the exact restoration of every method the traced run
patches (so tracing cannot leak into timed runs).
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
for entry in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import oracles  # noqa: E402
from layers import Counters, Ledger, install  # noqa: E402
from tracing import Patcher, Span, SpanTracer, self_times  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


# Self-time arithmetic -------------------------------------------------------

def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock, point_roots=frozenset({"point"}))
    root = tracer.begin("root")          # t=0
    clock.now = 10
    point = tracer.begin("point")        # t=10
    clock.now = 15
    inner = tracer.begin("leaf")         # t=15
    clock.now = 45
    tracer.end(inner)                    # leaf: 30
    clock.now = 50
    again = tracer.begin("leaf")         # t=50
    clock.now = 60
    tracer.end(again)                    # leaf: 10
    clock.now = 70
    tracer.end(point)                    # point: 60, self 20
    clock.now = 100
    tracer.end(root)                     # root: 100, self 40
    assert tracer.totals == {"leaf": [2, 40, 40], "point": [1, 60, 20],
                             "root": [1, 100, 40]}
    assert self_times(tracer.spans) == {"leaf": 40, "point": 20, "root": 40}
    # Self times partition the root's duration.
    assert sum(entry[2] for entry in tracer.totals.values()) == 100
    # Spans inside a point share its id; the root is outside every point.
    points = {span.name: span.point for span in tracer.spans}
    assert points["root"] == 0 and points["point"] == points["leaf"] == 1


def test_offline_self_times_of_synthetic_tree():
    spans = [Span(1, "a", 0, 100, 0, 0), Span(2, "b", 5, 55, 1, 0),
             Span(3, "c", 10, 20, 2, 0), Span(4, "c", 60, 90, 1, 0)]
    assert self_times(spans) == {"a": 20, "b": 40, "c": 40}


def test_spans_past_the_cap_are_still_totalled():
    clock = FakeClock()
    tracer = SpanTracer(clock=clock, span_cap=2)
    for step in range(5):
        frame = tracer.begin("x")
        clock.now += 3
        tracer.end(frame)
    assert len(tracer.spans) == 2 and tracer.dropped == 3
    assert tracer.totals["x"] == [5, 15, 15]


def test_ledger_sums_phases():
    phases = [{"totals": {"a": [1, 10, 5]}, "counters": {"n": 2}},
              {"totals": {"a": [2, 20, 15], "b": [1, 4, 4]},
               "counters": {"n": 3}}]
    ledger = Ledger(phases)
    assert ledger.calls("a") == 3 and ledger.self_s("a") == 20 / 1e9
    assert ledger.total_s("b") == 4 / 1e9 and ledger.count("n") == 5
    assert ledger.calls("missing") == 0


# Oracles --------------------------------------------------------------------

def _pf_tasks():
    return [{"manager": manager, "heap_size": pin[0],
             "allocation_count": pin[1], "free_count": pin[2],
             "move_count": pin[3], "event_digest": pin[4]}
            for manager, pin in oracles.PF_PINS.items()]


def test_pf_oracle_accepts_pins_and_rejects_a_corrupted_heap_size():
    rows = {manager: pin[0] for manager, pin in oracles.PF_PINS.items()}
    assert oracles.check_pf_rows(rows) == []
    rows["theorem2"] += 1
    assert len(oracles.check_pf_rows(rows)) == 1
    del rows["first-fit"]
    assert len(oracles.check_pf_rows(rows)) == 2


def test_pf_oracle_rejects_a_corrupted_digest():
    tasks = _pf_tasks()
    assert oracles.check_pf_tasks(tasks) == []
    tasks[0]["event_digest"] = "0" * 64
    assert len(oracles.check_pf_tasks(tasks)) == 1
    assert len(oracles.check_pf_tasks(tasks[1:])) == 1  # missing manager


def test_pf_table_parser():
    stdout = ("program  manager  HS\n"
              "cohen-petrank-PF          first-fit        4669  2.2798\n"
              "cohen-petrank-PF           theorem2        4352  2.1250\n")
    assert oracles.parse_pf_table(stdout) == {"first-fit": 4669,
                                              "theorem2": 4352}


def test_sweep_oracle_rejects_a_corrupted_digest():
    good = {"results": {"grid_digest": oracles.SWEEP_GRID_DIGEST,
                        "total": 15, "executed": 15, "cache_hits": 0}}
    assert oracles.check_sweep(good, warm=False) == []
    assert len(oracles.check_sweep(good, warm=True)) == 1  # nothing hit
    bad = {"results": dict(good["results"], grid_digest="f" * 64)}
    assert len(oracles.check_sweep(bad, warm=False)) == 1


def test_churn_oracle_pins_the_default_seed_and_compares_other_seeds():
    points = [{"program": "churn", "manager": "first-fit", "heap_size": 10,
               "live_peak": 8}] * 3
    pinned = {"grid_digest": oracles.CHURN_DIGEST, "points": points}
    assert oracles.check_churn(pinned, oracles.CHURN_DEFAULT_SEED, None) == []
    corrupted = dict(pinned, grid_digest="0" * 64)
    assert len(oracles.check_churn(corrupted, oracles.CHURN_DEFAULT_SEED,
                                   None)) == 3
    other = oracles.CHURN_DEFAULT_SEED + 1
    assert oracles.check_churn(corrupted, other, "0" * 64) == []
    assert len(oracles.check_churn(corrupted, other, "1" * 64)) == 3


def test_solve_oracle_matches_robson_and_rejects_a_wrong_value():
    assert oracles.robson_words(8, 4) == 13
    assert oracles.robson_words(10, 2) == 14
    stdout = ("exact minimum heap for M=8, n=4 (P2 sizes): 13 words "
              "[solved, jobs=2, 1.6s]\nprobes: H=13:manager, H=12:program\n"
              "  H=13: orbits=5 edges=7 epochs=1\n"
              "  H=12: orbits=3 edges=4 epochs=1\n")
    parsed = oracles.parse_solve(stdout)
    assert parsed["edges"] == 11
    assert oracles.check_solve((8, 4, None), parsed) == []
    wrong = dict(parsed, value=12)
    assert len(oracles.check_solve((8, 4, None), wrong)) == 1


# Wrapper install and removal ------------------------------------------------

def _patched_state():
    """Every attribute the layer wrappers may touch, by identity."""
    import repro.cli  # noqa: F401 - load what the traced child loads

    state = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value):
                state[(name, attr)] = value
            if isinstance(value, type):
                for key, member in list(vars(value).items()):
                    state[(name, attr, key)] = member
    return state


def test_install_and_restore_leave_every_method_exactly_as_found():
    from repro.heap.heap import SimHeap
    from repro.parallel import engine, tasks

    before = _patched_state()
    original_place = vars(SimHeap)["place"]
    original_run_task = tasks.run_task
    patcher = Patcher()
    install(SpanTracer(), patcher, Counters())
    try:
        assert vars(SimHeap)["place"] is not original_place
        assert engine.run_task is not original_run_task
    finally:
        patcher.restore()
    assert _patched_state() == before
    assert vars(SimHeap)["place"] is original_place
    assert engine.run_task is original_run_task
    patcher.restore()  # a second restore changes nothing
    assert _patched_state() == before


def test_restore_reaches_modules_imported_while_patched():
    def target():
        return "original"

    home = types.ModuleType("perfbench_fake")
    home.target = target
    sys.modules["perfbench_fake"] = home
    try:
        patcher = Patcher()
        tracer = SpanTracer()
        patcher.patch_function("perfbench_fake", target,
                               lambda func: tracer.wrap("fake", func))
        late = types.ModuleType("perfbench_fake.late")
        late.target = home.target  # a `from home import target` after patching
        sys.modules["perfbench_fake.late"] = late
        assert late.target() == "original" and tracer.totals["fake"][0] == 1
        patcher.restore()
        assert home.target is target and late.target is target
    finally:
        sys.modules.pop("perfbench_fake", None)
        sys.modules.pop("perfbench_fake.late", None)


def test_wrapped_run_keeps_the_event_digest():
    from repro.core.params import BoundParams
    from repro.parallel import ParallelEngine, SimTask

    params = BoundParams(256, 16, 10.0)
    grid = [SimTask.build(params, manager, "pf")
            for manager in ("first-fit", "sliding-compactor", "theorem2")]
    plain = ParallelEngine(jobs=1).run(grid)
    tracer, patcher, counters = SpanTracer(), Patcher(), Counters()
    install(tracer, patcher, counters)
    try:
        traced = ParallelEngine(jobs=1).run(grid)
    finally:
        patcher.restore()
    assert [r.event_digest for r in traced] == [r.event_digest for r in plain]
    assert [task["event_digest"] for task in counters.tasks] == \
        [r.event_digest for r in plain]
    assert tracer.totals["task.run"][0] == 3
    assert counters.values["driver.allocs"] == sum(r.allocation_count
                                                   for r in plain)
