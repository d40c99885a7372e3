"""Which public functions of ``repro`` each layer's spans wrap.

:func:`install` patches them for one traced run; :func:`layer_metrics`
turns the tracer's totals and the counters read from returned results
into the per-layer metrics ``BENCHMARK.json`` lists.  Every ``*_s``
metric is a self time (a span's duration minus its child spans), so the
layer times plus ``trace.unattributed_s`` add up to the traced wall.
"""

from __future__ import annotations

from typing import Any

from tracing import Patcher, SpanTracer

__all__ = ["POINT_ROOTS", "ROOT_SPAN", "Counters", "Ledger", "install",
           "layer_metrics"]

#: The span that encloses one traced phase; its self time is the part of
#: the traced wall no layer covers.
ROOT_SPAN = "workload"

#: Spans that each run one grid point (a simulation task or a solve).
POINT_ROOTS = frozenset({"task.run", "solver.solve"})


class Counters:
    """Counts read from the results the wrapped calls return."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {
            "engine.map_items": 0, "cache.hits": 0,
            "driver.allocs": 0, "driver.frees": 0, "driver.moves": 0,
            "manager.moved_words": 0, "record.events_bytes": 0,
            "heap.searches": 0, "heap.index_hits": 0,
            "heap.gaps_examined": 0, "solver.orbits": 0,
            "solver.edges": 0, "solver.tt_hits": 0, "solver.probes": 0,
        }
        #: One record per executed simulation task, in call order.
        self.tasks: list[dict[str, Any]] = []

    def add(self, name: str, amount: float) -> None:
        self.values[name] += amount

    # ``after`` hooks: (call arguments, result) -> None -----------------

    def on_map(self, args: tuple, result: Any) -> None:
        self.add("engine.map_items", len(result))

    def on_cache_get(self, args: tuple, result: Any) -> None:
        self.add("cache.hits", result is not None)

    def on_task(self, args: tuple, result: Any) -> None:
        task = result.task
        self.tasks.append({
            "program": task.program, "manager": task.manager,
            "c": task.compaction_divisor, "heap_size": result.heap_size,
            "allocation_count": result.allocation_count,
            "free_count": result.free_count,
            "move_count": result.move_count,
            "event_digest": result.event_digest,
        })

    def on_driver_run(self, args: tuple, result: Any) -> None:
        stats = args[0].heap.occupied.search_stats
        self.add("heap.searches", stats.searches)
        self.add("heap.index_hits", stats.index_hits)
        self.add("heap.gaps_examined", stats.gaps_examined)
        self.add("driver.allocs", result.allocation_count)
        self.add("driver.frees", result.free_count)
        self.add("driver.moves", result.move_count)
        self.add("manager.moved_words", result.total_moved)

    def on_events_written(self, args: tuple, result: Any) -> None:
        self.add("record.events_bytes", result.stat().st_size)

    def on_solve(self, args: tuple, result: Any) -> None:
        history = args[0].history
        self.add("solver.probes", len(history))
        for entry in history:
            self.add("solver.orbits", entry.orbits_visited)
            self.add("solver.edges", entry.edges)
            self.add("solver.tt_hits", entry.tt_safe_hits + entry.tt_win_hits)


class Ledger:
    """Span totals and counters of one or more traced phases, summed.

    Built from the JSON a traced child writes (``totals`` as
    ``{name: [calls, total_ns, self_ns]}``, ``counters`` as
    ``{name: value}``), so phases run in separate processes combine.
    """

    def __init__(self, phases: "list[dict[str, Any]]") -> None:
        self.totals: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        for phase in phases:
            for name, values in phase["totals"].items():
                entry = self.totals.setdefault(name, [0, 0, 0])
                for index, value in enumerate(values):
                    entry[index] += value
            for name, value in phase["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0, 0])[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0, 0])[2] / 1e9

    def count(self, name: str) -> float:
        return self.counters.get(name, 0)


def _subclasses(cls: type) -> list[type]:
    found, queue = [], [cls]
    while queue:
        current = queue.pop()
        if current not in found:
            found.append(current)
            queue.extend(current.__subclasses__())
    return found


def install(tracer: SpanTracer, patcher: Patcher, counters: Counters) -> None:
    """Wrap every layer boundary; ``patcher.restore()`` undoes it all."""
    import repro.adversary.catalog  # noqa: F401 - registers the programs
    import repro.mm.registry  # noqa: F401 - registers the managers
    from repro.adversary.base import AdversaryProgram
    from repro.adversary.driver import ExecutionDriver
    from repro.analysis import defrag
    from repro.exact.solver import GameSolver
    from repro.heap.chunks import ChunkPartition
    from repro.heap.heap import SimHeap
    from repro.heap.intervals import IntervalSet
    from repro.mm.base import MemoryManager
    from repro.mm.budget import AbsoluteBudget, CompactionBudget
    from repro.obs import export
    from repro.obs.events import EventBus
    from repro.parallel import tasks
    from repro.parallel.cache import ResultCache
    from repro.parallel.engine import ParallelEngine

    def span(name: str, after: Any = None) -> Any:
        return lambda func: tracer.wrap(name, func, after)

    method = patcher.patch_method
    method(ParallelEngine, "run", span("engine.run"))
    method(ParallelEngine, "map", span("engine.map", counters.on_map))
    patcher.patch_function("repro", tasks.run_task,
                           span("task.run", counters.on_task))
    method(tasks.StreamDigest, "__call__", span("task.digest"))
    method(ResultCache, "get", span("cache.get", counters.on_cache_get))
    method(ResultCache, "record_executions", span("cache.record"))
    method(export.JsonlEventWriter, "__call__", span("record.sink"))
    method(export.JsonlEventWriter, "write",
           span("record.write", counters.on_events_written))
    patcher.patch_function("repro", export.write_manifest,
                           span("record.manifest"))
    method(EventBus, "emit", span("bus.emit"))
    for cls in _subclasses(AdversaryProgram):
        if "run" in vars(cls):
            method(cls, "run", span("program.run"))
    method(ExecutionDriver, "run", span("driver.run", counters.on_driver_run))
    method(ExecutionDriver, "program_allocate", span("driver.alloc"))
    method(ExecutionDriver, "program_free", span("driver.free"))
    for cls in _subclasses(MemoryManager):
        for hook in ("prepare", "place", "on_free"):
            if hook in vars(cls):
                method(cls, hook, span(f"manager.{hook}"))
    for cls in (CompactionBudget, AbsoluteBudget):
        method(cls, "charge_allocation", span("budget.charge"))
        method(cls, "charge_move", span("budget.charge"))
        method(cls, "can_move", span("budget.can_move"))
    for attr in ("place", "free", "move"):
        method(SimHeap, attr, span("heap.mutate"))
    method(SimHeap, "objects_in_range", span("heap.range"))
    method(IntervalSet, "overlap_words", span("heap.overlap"))
    method(ChunkPartition, "occupancies", span("heap.occupancies"))
    for attr in ("find_first_gap", "find_best_gap", "find_worst_gap"):
        method(IntervalSet, attr, span("heap.gap_search"))
    patcher.patch_function("repro", defrag.cheapest_interior_window,
                           span("defrag.window"))
    method(GameSolver, "minimum_heap_words",
           span("solver.solve", counters.on_solve))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(task: Ledger, twin: Ledger, jobs: int) -> dict[str, float]:
    """Per-layer metrics from a traced run.

    ``task`` is the in-process ``jobs=1`` run the in-task layers are
    read from; ``twin`` mirrors the timed commands (at ``jobs`` workers)
    and supplies the engine, cache and solver figures.  The two may be
    the same run.
    """
    t, e = task, twin
    searches = t.count("heap.searches")
    return {
        "engine.run_s": e.self_s("engine.run"),
        "engine.pool_efficiency": _ratio(t.total_s("task.run"),
                                         jobs * e.total_s("engine.run")),
        "engine.map_s": e.self_s("engine.map"),
        "engine.map_items": e.count("engine.map_items"),
        "cache.get_calls": e.calls("cache.get"),
        "cache.get_s": e.self_s("cache.get"),
        "cache.hit_ratio": _ratio(e.count("cache.hits"), e.calls("cache.get")),
        "cache.record_s": e.self_s("cache.record"),
        "task.count": t.calls("task.run"),
        "task.self_s": t.self_s("task.run"),
        "task.digest_s": t.self_s("task.digest"),
        "record.sink_s": t.self_s("record.sink"),
        "record.write_s": t.self_s("record.write"),
        "record.manifest_s": t.self_s("record.manifest"),
        "record.events_mb": t.count("record.events_bytes") / 1e6,
        "bus.emit_s": t.self_s("bus.emit"),
        "bus.events": t.calls("bus.emit"),
        "program.self_s": t.self_s("program.run"),
        "program.requests": t.calls("driver.alloc") + t.calls("driver.free"),
        "driver.self_s": sum(t.self_s(name) for name in
                             ("driver.run", "driver.alloc", "driver.free")),
        "driver.allocs": t.count("driver.allocs"),
        "driver.frees": t.count("driver.frees"),
        "driver.moves": t.count("driver.moves"),
        "manager.prepare_s": t.self_s("manager.prepare"),
        "manager.place_s": t.self_s("manager.place"),
        "manager.on_free_s": t.self_s("manager.on_free"),
        "manager.moved_words": t.count("manager.moved_words"),
        "budget.self_s": t.self_s("budget.charge") + t.self_s("budget.can_move"),
        "budget.charges": t.calls("budget.charge"),
        "heap.mutate_s": t.self_s("heap.mutate"),
        "heap.overlap_s": t.self_s("heap.overlap"),
        "heap.occupancies_s": t.self_s("heap.occupancies"),
        "heap.range_s": t.self_s("heap.range"),
        "heap.query_calls": sum(t.calls(name) for name in
                                ("heap.overlap", "heap.occupancies",
                                 "heap.range")),
        "heap.gap_search_s": t.self_s("heap.gap_search"),
        "heap.searches": searches,
        "heap.gaps_per_search": _ratio(t.count("heap.gaps_examined"), searches),
        "heap.index_hit_ratio": _ratio(t.count("heap.index_hits"), searches),
        "defrag.window_s": t.self_s("defrag.window"),
        "defrag.windows": t.calls("defrag.window"),
        "solver.solve_s": e.self_s("solver.solve"),
        "solver.orbits": e.count("solver.orbits"),
        "solver.edges": e.count("solver.edges"),
        "solver.tt_hits": e.count("solver.tt_hits"),
        "solver.probes": e.count("solver.probes"),
    }
