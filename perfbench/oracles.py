"""Pinned outputs and the checks behind ``failed``.

Every value here was produced by the reference occupancy backend at the
workload sizes in ``workloads.py``.  Change a size and the pins must be
regenerated; a pin that stops matching the program means the program's
output changed, which counts as a failed point, never as a slow one.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterable

__all__ = [
    "PF_PINS", "SWEEP_GRID_DIGEST", "CHURN_DEFAULT_SEED", "CHURN_DIGEST",
    "EXACT_PINS", "robson_words",
    "parse_pf_table", "parse_bench_json", "parse_solve",
    "check_pf_rows", "check_pf_tasks", "check_sweep", "check_churn",
    "check_solve",
]

#: P_F (M=2048, n=128, c=50) per manager:
#: (heap words, allocations, frees, moves, event digest).
PF_PINS: dict[str, tuple[int, int, int, int, str]] = {
    "first-fit": (4669, 2823, 2112, 0, "d332252fea3970489f0666b350c2d050"
                  "7581d84900bc897fc2a9095a0f2f6a5e"),
    "best-fit": (4669, 2823, 2112, 0, "d332252fea3970489f0666b350c2d050"
                 "7581d84900bc897fc2a9095a0f2f6a5e"),
    "segregated-fit": (4736, 2823, 2112, 0, "c2af2a4fbb4ad4db91fcd181b7c50c7e"
                       "9a660944f1c4de9b5125064fbb083e23"),
    "sliding-compactor": (4509, 2823, 2150, 73, "91c296b9e24c86e4728a1bf12139afef"
                          "a2c595032c0d95f3159b536eaa40730b"),
    "window-compactor": (4465, 2822, 2161, 81, "cdb0f190ff4580ab779aad8170e742be"
                         "eec0d430af760e04be30a7d5401c440d"),
    "bp-collector": (4672, 2823, 2112, 0, "cecee41c8549188cf600ffd2b39234cb"
                     "80a4392b452b42b576cb82cc13c590de"),
    "theorem2": (4352, 2823, 2195, 81, "ddac4754bbbeff916c35d55825e3fa8a"
                 "39b5d52163584b0c7a0a37bdb7cf70e7"),
    "mark-compact": (4669, 2823, 2112, 0, "d332252fea3970489f0666b350c2d050"
                     "7581d84900bc897fc2a9095a0f2f6a5e"),
    "semispace": (4669, 2823, 2112, 0, "d332252fea3970489f0666b350c2d050"
                  "7581d84900bc897fc2a9095a0f2f6a5e"),
}

#: ``grid_digest`` of the sweep-cached grid, cold and warm alike.
SWEEP_GRID_DIGEST = ("c288c97666bc43c42230de4e93f1e90c"
                     "e72f2d9a1aa7446ceba5d66dff7f0d50")

#: The seed the churn-mix digest is pinned for; other seeds are checked
#: for determinism (every pass and the traced run agree) instead.
CHURN_DEFAULT_SEED = 1
CHURN_DIGEST = ("fddcd3752244fc9a6f4ef0d090620b41"
                "64ac922e76c8650f3ec932c6a6b5bba9")

#: Exact game values: (M, n, move budget or None) -> minimum heap words.
EXACT_PINS: dict[tuple[int, int, "int | None"], int] = {
    (8, 4, None): 13,
    (8, 2, None): 11,
    (6, 2, 2): 8,
}


def robson_words(live: int, largest: int) -> int:
    """Robson's bound ``ceil(M (log2(n)/2 + 1) - n + 1)`` for P2 sizes."""
    log_n = largest.bit_length() - 1
    return (live * (log_n + 2) + 1) // 2 - largest + 1


# Parsers for the CLI's stdout ------------------------------------------------

_PF_ROW = re.compile(r"^cohen-petrank-PF\s+(\S+)\s+(\d+)\s")
_SOLVE_VALUE = re.compile(r"^exact minimum heap for M=(\d+), n=(\d+)"
                          r"(?:, B=(\d+))? \(.*\): (\d+) words")
_SOLVE_EDGES = re.compile(r"^\s+H=\d+: .*\bedges=(\d+)")


def parse_pf_table(stdout: str) -> dict[str, int]:
    """``repro experiment pf`` table -> {manager: heap words}."""
    rows = {}
    for line in stdout.splitlines():
        match = _PF_ROW.match(line)
        if match:
            rows[match.group(1)] = int(match.group(2))
    return rows


def parse_bench_json(stdout: str) -> dict[str, Any]:
    """The ``BENCH_JSON`` record ``repro sweep`` prints ({} if absent)."""
    for line in stdout.splitlines():
        if line.startswith("BENCH_JSON "):
            return json.loads(line[len("BENCH_JSON "):])
    return {}


def parse_solve(stdout: str) -> dict[str, Any]:
    """``repro solve --stats`` -> {"point", "value", "probes", "edges"}."""
    parsed: dict[str, Any] = {"point": None, "value": None, "probes": "",
                              "edges": 0}
    for line in stdout.splitlines():
        value = _SOLVE_VALUE.match(line)
        if value:
            budget = int(value.group(3)) if value.group(3) else None
            parsed["point"] = (int(value.group(1)), int(value.group(2)),
                               budget)
            parsed["value"] = int(value.group(4))
        elif line.startswith("probes: "):
            parsed["probes"] = line[len("probes: "):]
        else:
            edges = _SOLVE_EDGES.match(line)
            if edges:
                parsed["edges"] += int(edges.group(1))
    return parsed


# Checks: each returns one message per failed point --------------------------

def check_pf_rows(heap_sizes: dict[str, int]) -> list[str]:
    """The CLI table's heap size for every pinned manager."""
    return [f"pf-family {manager}: heap {heap_sizes.get(manager)} != "
            f"pinned {pin[0]}"
            for manager, pin in PF_PINS.items()
            if heap_sizes.get(manager) != pin[0]]


def check_pf_tasks(tasks: Iterable[dict[str, Any]]) -> list[str]:
    """Traced task results against heap size, counts and digest pins."""
    problems = []
    seen = set()
    for task in tasks:
        manager = task["manager"]
        seen.add(manager)
        pin = PF_PINS.get(manager)
        got = (task["heap_size"], task["allocation_count"],
               task["free_count"], task["move_count"], task["event_digest"])
        if got != pin:
            problems.append(f"pf-family {manager}: traced {got} != pinned {pin}")
    problems.extend(f"pf-family {manager}: no traced result"
                    for manager in PF_PINS if manager not in seen)
    return problems


def check_sweep(record: dict[str, Any], *, warm: bool) -> list[str]:
    """One ``repro sweep`` record: pinned grid digest, all points hit or
    all executed."""
    results = record.get("results", {})
    label = "warm" if warm else "cold"
    problems = []
    if results.get("grid_digest") != SWEEP_GRID_DIGEST:
        problems.append(f"sweep-cached {label}: grid digest "
                        f"{results.get('grid_digest')} != pinned")
    expected = "cache_hits" if warm else "executed"
    if results.get(expected) != results.get("total"):
        problems.append(f"sweep-cached {label}: {expected} "
                        f"{results.get(expected)} of {results.get('total')}")
    return problems


def check_churn(summary: dict[str, Any], seed: int,
                reference: "str | None") -> list[str]:
    """The churn grid digest: pinned at the default seed, else equal to
    ``reference`` (an earlier pass or the timed run) when given.  A wrong
    grid digest fails every point of the grid."""
    points = summary.get("points", ())
    digest = summary.get("grid_digest")
    if seed == CHURN_DEFAULT_SEED and digest != CHURN_DIGEST:
        return [f"churn-mix: digest {digest} != pinned"] * max(1, len(points))
    if reference is not None and digest != reference:
        return ([f"churn-mix: digest {digest} != {reference} of the same seed"]
                * max(1, len(points)))
    return [f"churn-mix {p['program']}/{p['manager']}: heap below live peak"
            for p in points if p["heap_size"] < p["live_peak"]]


def check_solve(point: tuple[int, int, "int | None"],
                parsed: dict[str, Any]) -> list[str]:
    """A solve's value: pinned, and equal to Robson's formula unbudgeted."""
    value = parsed.get("value")
    if parsed.get("point") != point or value != EXACT_PINS[point]:
        return [f"exact-solve {point}: got {parsed.get('point')} = {value}, "
                f"pinned {EXACT_PINS[point]}"]
    live, largest, budget = point
    if budget is None and value != robson_words(live, largest):
        return [f"exact-solve {point}: {value} != Robson "
                f"{robson_words(live, largest)}"]
    return []
