"""The four named workloads: their timed commands, traced phases and oracles.

A workload's *pass* runs its timed commands once, one after another (a
closed loop: each command starts only after the previous one exited),
and checks every output.  Its *phases* are the same work run in-process
under the layer wrappers; see ``child.py``.  No workload passes
``--kernel``: all run the default occupancy backend.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import oracles
from child import CHURN_MANAGERS, CHURN_PROGRAMS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from run import Runner

__all__ = ["PassResult", "Phase", "Workload", "WORKLOADS"]

PF_ARGS = ["experiment", "pf", "--live", "2048", "--object", "128",
           "--c", "50"]
SWEEP_ARGS = ["sweep", "--live", "2048", "--object", "128",
              "--grid", "5,10,20,50,100",
              "--managers", "first-fit,best-fit,sliding-compactor"]
SWEEP_POINTS = 15
#: (M, n, budget, jobs) per exact solve, in run order.
EXACT_POINTS: tuple[tuple[int, int, "int | None", int], ...] = (
    (8, 4, None, 2),
    (8, 2, None, 2),
    (6, 2, 2, 1),
)


@dataclass
class PassResult:
    """One pass of a workload's timed commands, checked."""

    wall_s: float
    heap_events: int
    peak_rss_mb: float
    points: int
    problems: list[str]
    #: Workload-specific figures (``warm_s``, ``cache_mb``) and outputs
    #: the traced run is compared with (``digest``, ``values``).
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Phase:
    """One traced child process.

    ``twin`` marks a phase that mirrors one timed command (it counts
    toward ``trace.overhead_ratio`` and supplies the engine, cache and
    solver figures); ``task`` marks the ``jobs=1`` phase the in-task
    layers are read from.
    """

    name: str
    spec: dict[str, Any]
    twin: bool
    task: bool
    jobs: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Whether ``--seed`` changes the inputs (only churn-mix).
    seeded: bool
    run_pass: Callable[["Runner"], PassResult]
    phases: Callable[["Runner"], list[Phase]]
    #: (runner, timed pass, phase name -> child outcome) -> problems.
    check_traced: Callable[["Runner", PassResult, dict[str, Any]], list[str]]
    traced_points: int


def _exit_problems(label: str, exit_code: int, stderr: str,
                   points: int) -> list[str]:
    """One problem per point when a command (or traced phase) failed."""
    if exit_code == 0:
        return []
    detail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
    return [f"{label}: exit {exit_code}: {detail[0]}"] * points


def _cli_phase(name: str, args: list[str], *, twin: bool, task: bool,
               jobs: int) -> Phase:
    return Phase(name, {"kind": "cli", "argv": args}, twin, task, jobs)


# pf-family ------------------------------------------------------------------

def _pf_pass(runner: "Runner") -> PassResult:
    result = runner.repro(PF_ARGS + ["--jobs", "1"])
    points = len(oracles.PF_PINS)
    problems = (_exit_problems("pf-family", result.exit, result.stderr,
                               points)
                or oracles.check_pf_rows(oracles.parse_pf_table(result.stdout)))
    # The table prints no operation counts; the pinned counts are
    # re-checked against the traced run's task results.
    events = sum(pin[1] + pin[2] + pin[3] for pin in oracles.PF_PINS.values())
    return PassResult(result.wall_s, events, result.rss_mb, points, problems)


def _pf_phases(runner: "Runner") -> list[Phase]:
    return [_cli_phase("pf", PF_ARGS + ["--jobs", "1"], twin=True, task=True,
                       jobs=1)]


def _pf_traced(runner: "Runner", timed: PassResult,
               outcomes: dict[str, Any]) -> list[str]:
    outcome = outcomes["pf"]
    return (_exit_problems("traced pf-family", outcome["exit"],
                           outcome["stderr"], 1)
            or oracles.check_pf_rows(oracles.parse_pf_table(outcome["stdout"]))
            + oracles.check_pf_tasks(outcome["tasks"]))


# sweep-cached ---------------------------------------------------------------

def _tree_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*")
               if path.is_file())


def _cached_heap_events(directory: Path) -> int:
    total = 0
    for path in directory.glob("*/result.json"):
        record = json.loads(path.read_text(encoding="utf-8"))
        total += (record["allocation_count"] + record["free_count"]
                  + record["move_count"])
    return total


def _sweep_pass(runner: "Runner") -> PassResult:
    cache = runner.fresh_dir("cache")
    try:
        args = SWEEP_ARGS + ["--jobs", "2", "--cache-dir", str(cache)]
        cold = runner.repro(args)
        cache_bytes = _tree_bytes(cache)
        warm = runner.repro(args)
        events = _cached_heap_events(cache)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    cold_record = oracles.parse_bench_json(cold.stdout)
    warm_record = oracles.parse_bench_json(warm.stdout)
    problems = (_exit_problems("sweep-cached cold", cold.exit, cold.stderr,
                               SWEEP_POINTS)
                or oracles.check_sweep(cold_record, warm=False))
    problems += (_exit_problems("sweep-cached warm", warm.exit, warm.stderr,
                                SWEEP_POINTS)
                 or oracles.check_sweep(warm_record, warm=True))
    return PassResult(
        cold.wall_s, events, max(cold.rss_mb, warm.rss_mb), 2 * SWEEP_POINTS,
        problems,
        extra={"warm_s": warm.wall_s, "cache_mb": cache_bytes / 1e6,
               "digest": cold_record.get("results", {}).get("grid_digest")},
    )


def _sweep_phases(runner: "Runner") -> list[Phase]:
    serial = runner.fresh_dir("cache-j1")
    pooled = runner.fresh_dir("cache-j2")
    pooled_args = SWEEP_ARGS + ["--jobs", "2", "--cache-dir", str(pooled)]
    return [
        _cli_phase("cold-j1", SWEEP_ARGS + ["--jobs", "1", "--cache-dir",
                                            str(serial)],
                   twin=False, task=True, jobs=1),
        _cli_phase("cold-j2", pooled_args, twin=True, task=False, jobs=2),
        _cli_phase("warm", pooled_args, twin=True, task=False, jobs=2),
    ]


def _sweep_traced(runner: "Runner", timed: PassResult,
                  outcomes: dict[str, Any]) -> list[str]:
    problems = []
    for name, warm in (("cold-j1", False), ("cold-j2", False),
                       ("warm", True)):
        outcome = outcomes[name]
        record = oracles.parse_bench_json(outcome["stdout"])
        digest = record.get("results", {}).get("grid_digest")
        problems += (_exit_problems(f"traced sweep {name}", outcome["exit"],
                                    outcome["stderr"], 1)
                     or oracles.check_sweep(record, warm=warm))
        if digest != timed.extra.get("digest"):
            problems.append(f"traced sweep {name}: digest {digest} != timed "
                            f"{timed.extra.get('digest')}")
    return problems


# churn-mix ------------------------------------------------------------------

CHURN_POINTS = len(CHURN_PROGRAMS) * len(CHURN_MANAGERS)


def _churn_pass(runner: "Runner") -> PassResult:
    result = runner.child(["churn", "--seed", str(runner.seed)])
    problems = _exit_problems("churn-mix", result.exit, result.stderr,
                              CHURN_POINTS)
    summary: dict[str, Any] = {}
    if not problems:
        summary = json.loads(result.stdout.splitlines()[-1])
        if runner.reference_digest is None:
            runner.reference_digest = summary["grid_digest"]
        problems = oracles.check_churn(summary, runner.seed,
                                       runner.reference_digest)
    events = sum(point["heap_events"] for point in summary.get("points", ()))
    return PassResult(result.wall_s, events, result.rss_mb, CHURN_POINTS,
                      problems, extra={"digest": summary.get("grid_digest")})


def _churn_phases(runner: "Runner") -> list[Phase]:
    return [Phase("churn", {"kind": "churn", "seed": runner.seed},
                  twin=True, task=True, jobs=1)]


def _churn_traced(runner: "Runner", timed: PassResult,
                  outcomes: dict[str, Any]) -> list[str]:
    summary = outcomes["churn"]["churn"] or {}
    return oracles.check_churn(summary, runner.seed, timed.extra.get("digest"))


# exact-solve ----------------------------------------------------------------

def _solve_args(live: int, largest: int, budget: "int | None",
                jobs: int) -> list[str]:
    args = ["solve", "--live", str(live), "--object", str(largest),
            "--jobs", str(jobs), "--stats"]
    return args + (["--budget", str(budget)] if budget is not None else [])


def _exact_pass(runner: "Runner") -> PassResult:
    wall = rss = 0.0
    edges = 0
    problems: list[str] = []
    values = {}
    for live, largest, budget, jobs in EXACT_POINTS:
        point = (live, largest, budget)
        result = runner.repro(_solve_args(live, largest, budget, jobs))
        wall += result.wall_s
        rss = max(rss, result.rss_mb)
        parsed = oracles.parse_solve(result.stdout)
        edges += parsed["edges"]
        values[str(point)] = (parsed["value"], parsed["probes"])
        problems += (_exit_problems(f"exact-solve {point}", result.exit,
                                    result.stderr, 1)
                     or oracles.check_solve(point, parsed))
    # The game has no heap; its events are the edges the solver explored.
    return PassResult(wall, edges, rss, len(EXACT_POINTS), problems,
                      extra={"values": values})


def _exact_phases(runner: "Runner") -> list[Phase]:
    return [_cli_phase(f"solve-{live}-{largest}-{budget}",
                       _solve_args(live, largest, budget, jobs),
                       twin=True, task=True, jobs=jobs)
            for live, largest, budget, jobs in EXACT_POINTS]


def _exact_traced(runner: "Runner", timed: PassResult,
                  outcomes: dict[str, Any]) -> list[str]:
    problems = []
    for live, largest, budget, _ in EXACT_POINTS:
        point = (live, largest, budget)
        outcome = outcomes[f"solve-{live}-{largest}-{budget}"]
        parsed = oracles.parse_solve(outcome["stdout"])
        problems += (_exit_problems(f"traced solve {point}", outcome["exit"],
                                    outcome["stderr"], 1)
                     or oracles.check_solve(point, parsed))
        traced = (parsed["value"], parsed["probes"])
        if traced != tuple(timed.extra["values"].get(str(point), ())):
            problems.append(f"traced solve {point}: {traced} != timed")
    return problems


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            "pf-family",
            "Theorem 1's P_F against nine managers: compaction policy and "
            "heap queries do the work; recording, cache and pool do nothing",
            False, _pf_pass, _pf_phases, _pf_traced, len(oracles.PF_PINS)),
        Workload(
            "sweep-cached",
            "repro sweep cold at --jobs 2 then warm on the filled cache: "
            "recording and cache writes beside cache reads",
            False, _sweep_pass, _sweep_phases, _sweep_traced, 3),
        Workload(
            "churn-mix",
            "seeded churn programs against six managers: the per-event path "
            "of driver, bus, heap mutation and gap search",
            True, _churn_pass, _churn_phases, _churn_traced, CHURN_POINTS),
        Workload(
            "exact-solve",
            "the exact micro-heap game solver at --jobs 2 and a budgeted "
            "point: the only user of exact/ and ParallelEngine.map",
            False, _exact_pass, _exact_phases, _exact_traced,
            len(EXACT_POINTS)),
    )
}
