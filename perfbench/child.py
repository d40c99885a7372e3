"""The benchmark's own child process: the churn grid and traced phases.

Run from the checkout root with ``src`` on ``PYTHONPATH``::

    python perfbench/child.py churn --seed 1
    python perfbench/child.py trace --phase '{"kind": "cli", ...}' \
        --spans perfbench/_out/spans-x.jsonl

``churn`` runs the churn-mix grid through ``ParallelEngine.run`` (the
CLI has no program-seed flag) and prints one JSON summary line.
``trace`` wraps every layer boundary (see ``layers.py``), runs one phase
in-process — a ``repro`` CLI command or the churn grid — writes the
kept spans, and prints the span totals, counters and the phase's output
as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from typing import Any

#: The churn-mix grid: the seeded benign programs against six managers,
#: as (program, options, takes the benchmark seed).  ``bursty`` keeps its
#: own default seed: its request count is set by the object sizes its
#: seed draws (a burst of 1-word objects makes 128x the requests of a
#: burst of 128-word ones), so seeding it would make the wall time
#: measure the seed rather than the code.  ``churn`` and
#: ``exponential-churn`` issue a fixed number of operations whatever
#: the seed.
CHURN_PROGRAMS: tuple[tuple[str, dict[str, int], bool], ...] = (
    ("churn", {"operations": 4000}, True),
    ("exponential-churn", {"operations": 3000}, True),
    ("bursty", {"bursts": 4}, False),
)
CHURN_MANAGERS = ("first-fit", "best-fit", "next-fit", "segregated-fit",
                  "buddy", "random-mover")
CHURN_PARAMS = {"live_space": 8192, "max_object": 128,
                "compaction_divisor": 20.0}


def churn_grid(seed: int) -> dict[str, Any]:
    """Run the churn-mix grid at ``jobs=1``, no cache; summarize it."""
    from repro.core.params import BoundParams
    from repro.parallel import ParallelEngine, SimTask

    params = BoundParams(CHURN_PARAMS["live_space"], CHURN_PARAMS["max_object"],
                         CHURN_PARAMS["compaction_divisor"])
    tasks = [SimTask.build(params, manager, program,
                           **(dict(options, seed=seed) if seeded else options))
             for program, options, seeded in CHURN_PROGRAMS
             for manager in CHURN_MANAGERS]
    engine = ParallelEngine(jobs=1)
    results = engine.run(tasks)
    return {
        "grid_digest": engine.stats.grid_digest,
        "points": [{"program": r.task.program, "manager": r.task.manager,
                    "heap_size": r.heap_size, "live_peak": r.live_peak,
                    "heap_events": (r.allocation_count + r.free_count
                                    + r.move_count)}
                   for r in results],
    }


def run_phase(phase: dict[str, Any]) -> dict[str, Any]:
    """Run one phase untraced; ``{"exit", "stdout", "churn"}``."""
    if phase["kind"] == "churn":
        return {"exit": 0, "stdout": "", "churn": churn_grid(phase["seed"])}
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(phase["argv"])
    return {"exit": code, "stdout": buffer.getvalue(), "churn": None}


def trace_phase(phase: dict[str, Any], spans_path: str) -> dict[str, Any]:
    """Run one phase with every layer wrapped; totals, counters, output."""
    import repro.cli  # noqa: F401 - load the modules before patching
    from layers import POINT_ROOTS, ROOT_SPAN, Counters, install
    from tracing import Patcher, SpanTracer

    tracer = SpanTracer(point_roots=POINT_ROOTS)
    counters = Counters()
    patcher = Patcher()
    install(tracer, patcher, counters)
    try:
        root = tracer.begin(ROOT_SPAN)
        started = time.perf_counter()
        outcome = run_phase(phase)
        wall = time.perf_counter() - started
        tracer.end(root)
    finally:
        patcher.restore()
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.to_dict()) + "\n")
    outcome.update(
        wall_s=wall,
        totals=tracer.totals,
        counters=counters.values,
        tasks=counters.tasks,
        spans_kept=len(tracer.spans),
        spans_dropped=tracer.dropped,
    )
    return outcome


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    modes = parser.add_subparsers(dest="mode", required=True)
    churn = modes.add_parser("churn", help="run the churn-mix grid")
    churn.add_argument("--seed", type=int, required=True)
    trace = modes.add_parser("trace", help="run one phase with spans")
    trace.add_argument("--phase", required=True, help="phase spec as JSON")
    trace.add_argument("--spans", required=True, help="span output path")
    args = parser.parse_args(argv)
    if args.mode == "churn":
        summary = churn_grid(args.seed)
        print(json.dumps(summary, sort_keys=True))
        return 0
    outcome = trace_phase(json.loads(args.phase), args.spans)
    print(json.dumps(outcome, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
