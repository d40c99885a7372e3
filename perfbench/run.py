"""The repository benchmark: four named workloads, timed from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pf-family --seed 1 --seconds 35 --trace 0

One closed-loop client runs each workload's commands one after another
(at most two worker processes: ``--jobs 2`` where a workload uses a
pool), repeating whole passes until ``--seconds`` have elapsed, and
checks every output against its oracle (``oracles.py``).

* ``--trace 0`` reports the end-to-end metrics: medians over the passes.
* ``--trace 1`` runs one untraced pass (its wall and digests are the
  reference), then the same work in traced child processes until
  ``--seconds`` have elapsed, and reports the per-layer metrics
  (``layers.py``).

The table printed for each metric gives its unit, median, quartiles and
sample count; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results and the
kept spans are written under ``perfbench/_out/``; scratch directories
under ``perfbench/_work/`` are deleted when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from layers import ROOT_SPAN, Ledger, layer_metrics  # noqa: E402
from workloads import WORKLOADS, PassResult, Workload  # noqa: E402

#: Environment variables that would change what a child process runs.
SCRUBBED_ENV = ("REPRO_KERNEL", "REPRO_BENCH_SCALE")
#: A workload's commands are killed (and their points fail) once this
#: long has passed since it started, so a hung command cannot hold the
#: run past its 180-second limit.
WORKLOAD_LIMIT_S = 160.0
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 10
IMPORT_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "engine.run_s": "s", "engine.pool_efficiency": "ratio",
    "engine.map_s": "s", "engine.map_items": "count",
    "cache.get_calls": "count", "cache.get_s": "s",
    "cache.hit_ratio": "ratio", "cache.record_s": "s",
    "cache.warm_s": "s", "cache.dir_mb": "MB",
    "task.count": "count", "task.self_s": "s", "task.digest_s": "s",
    "record.sink_s": "s", "record.write_s": "s", "record.manifest_s": "s",
    "record.events_mb": "MB",
    "bus.emit_s": "s", "bus.events": "count",
    "program.self_s": "s", "program.requests": "count",
    "driver.self_s": "s", "driver.allocs": "count", "driver.frees": "count",
    "driver.moves": "count",
    "manager.prepare_s": "s", "manager.place_s": "s",
    "manager.on_free_s": "s", "manager.moved_words": "words",
    "budget.self_s": "s", "budget.charges": "count",
    "heap.mutate_s": "s", "heap.overlap_s": "s", "heap.occupancies_s": "s",
    "heap.range_s": "s", "heap.query_calls": "count",
    "heap.gap_search_s": "s", "heap.searches": "count",
    "heap.gaps_per_search": "ratio", "heap.index_hit_ratio": "ratio",
    "defrag.window_s": "s", "defrag.windows": "count",
    "solver.solve_s": "s", "solver.orbits": "count", "solver.edges": "count",
    "solver.tt_hits": "count", "solver.probes": "count",
    "trace.wall_s": "s", "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}
#: Shown in the untraced table; reported as ``cache.*`` when traced.
SWEEP_UNITS = {"sweep.warm_s": "s", "sweep.cache_mb": "MB"}


@dataclass
class CommandResult:
    argv: list[str]
    exit: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Runs child processes from the checkout root, one at a time."""

    def __init__(self, root: Path, seed: int, work_dir: Path) -> None:
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        self.kill_at = time.perf_counter() + WORKLOAD_LIMIT_S
        #: The first grid digest seen; later passes of the run must match.
        self.reference_digest: str | None = None
        self.env = {key: value for key, value in os.environ.items()
                    if key not in SCRUBBED_ENV}
        source = str(root / "src")
        existing = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = (source if not existing
                                  else source + os.pathsep + existing)
        self._counter = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._counter += 1
        path = self.work_dir / f"{prefix}-{self._counter}"
        path.mkdir(parents=True)
        return path

    def run(self, argv: list[str]) -> CommandResult:
        """Run one command to exit; wall from spawn to reap, peak RSS of
        the process and every descendant it waited for."""
        out_path = self.work_dir / "stdout.txt"
        err_path = self.work_dir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            process = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                       stdout=out, stderr=err)
            killer = threading.Timer(max(0.0, self.kill_at - started),
                                     process.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        process.returncode = os.waitstatus_to_exitcode(status)
        return CommandResult(
            argv=argv, exit=process.returncode, wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def repro(self, args: list[str]) -> CommandResult:
        return self.run([sys.executable, "-m", "repro", *args])

    def child(self, args: list[str]) -> CommandResult:
        return self.run([sys.executable, str(BENCH_DIR / "child.py"), *args])


# Measuring ------------------------------------------------------------------

def _summary(values: list[float]) -> dict[str, float]:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _setup_sample(runner: Runner, problems: list[str]) -> float:
    """One no-work ``repro managers``: interpreter start, import, argparse."""
    result = runner.repro(["managers"])
    if result.exit != 0:
        problems.append(f"setup: exit {result.exit}")
    return result.wall_s


def measure(workload: Workload, runner: Runner, seconds: float
            ) -> tuple[dict[str, list[float]], int, list[str]]:
    """Untraced passes until ``seconds`` elapse; samples per metric."""
    problems: list[str] = []
    runner.repro(["managers"])  # fills the bytecode cache; not timed
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
    extras: dict[str, list[float]] = {"warm_s": [], "cache_mb": []}
    attempted = 0
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        samples["setup_s"].append(_setup_sample(runner, problems))
        result = workload.run_pass(runner)
        passes += 1
        attempted += result.points
        problems += result.problems[:result.points]
        samples["wall_s"].append(result.wall_s)
        samples["events_per_s"].append(result.heap_events / result.wall_s)
        samples["peak_rss_mb"].append(result.peak_rss_mb)
        for name in extras:
            if name in result.extra:
                extras[name].append(result.extra[name])
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        samples["setup_s"].append(_setup_sample(runner, problems))
    samples.update({f"sweep.{name}": values
                    for name, values in extras.items() if values})
    return samples, attempted, problems


def _import_sample(runner: Runner) -> float:
    """Import time of ``repro.cli`` inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    result = runner.run([sys.executable, "-c", code])
    return float(result.stdout.strip())


def _trace_child(runner: Runner, workload: Workload, phase: Any,
                 out_dir: Path) -> tuple[dict[str, Any], float]:
    spans = out_dir / f"spans-{workload.name}-{phase.name}.jsonl"
    result = runner.child(["trace", "--phase", json.dumps(phase.spec),
                           "--spans", str(spans)])
    outcome: dict[str, Any] = {"exit": result.exit, "stderr": result.stderr,
                               "stdout": "", "totals": {}, "counters": {},
                               "tasks": [], "churn": None, "wall_s": 0.0}
    if result.exit == 0:
        outcome.update(json.loads(result.stdout.splitlines()[-1]))
    return outcome, result.wall_s


def trace(workload: Workload, runner: Runner, seconds: float, out_dir: Path
          ) -> tuple[dict[str, list[float]], int, list[str]]:
    """One untraced pass, then traced passes until ``seconds`` elapse."""
    deadline = time.perf_counter() + seconds
    runner.repro(["managers"])  # fills the bytecode cache; not timed
    timed: PassResult = workload.run_pass(runner)
    attempted = timed.points
    problems = list(timed.problems[:timed.points])
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER_UNITS}
    samples["cli.import_s"] = [_import_sample(runner)
                               for _ in range(IMPORT_SAMPLES)]
    while not samples["trace.wall_s"] or time.perf_counter() < deadline:
        phases = workload.phases(runner)
        outcomes, twin_wall = {}, 0.0
        for phase in phases:
            outcome, process_wall = _trace_child(runner, workload, phase,
                                                 out_dir)
            outcomes[phase.name] = outcome
            if phase.twin:
                twin_wall += process_wall
        traced_problems = workload.check_traced(runner, timed, outcomes)
        attempted += workload.traced_points
        problems += traced_problems[:workload.traced_points]
        task = Ledger([outcomes[p.name] for p in phases if p.task])
        twin = Ledger([outcomes[p.name] for p in phases if p.twin])
        jobs = max(p.jobs for p in phases if p.twin)
        metrics = layer_metrics(task, twin, jobs)
        every = Ledger(list(outcomes.values()))
        metrics["trace.wall_s"] = every.total_s(ROOT_SPAN)
        metrics["trace.unattributed_s"] = every.self_s(ROOT_SPAN)
        metrics["trace.overhead_ratio"] = twin_wall / _twin_untraced(timed)
        metrics["cache.warm_s"] = timed.extra.get("warm_s", 0.0)
        metrics["cache.dir_mb"] = timed.extra.get("cache_mb", 0.0)
        for name, value in metrics.items():
            samples[name].append(value)
    return samples, attempted, problems


def _twin_untraced(timed: PassResult) -> float:
    """Untraced wall of the commands the twin phases mirror."""
    return timed.wall_s + timed.extra.get("warm_s", 0.0)


# Reporting ------------------------------------------------------------------

def environment(root: Path) -> dict[str, Any]:
    """What a result was measured on."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if (root / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or None
    # A checkout without git history is identified by its sources.
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode())
        source.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_sha256": source.hexdigest(),
    }


def report(name: str, samples: dict[str, list[float]],
           units: dict[str, str]) -> dict[str, dict[str, Any]]:
    rows = {metric: {**_summary(values), "unit": units[metric]}
            for metric, values in samples.items() if values}
    print(f"== {name}")
    print(f"{'metric':26s} {'unit':>6s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'n':>3s}")
    for metric, row in rows.items():
        print(f"{metric:26s} {row['unit']:>6s} {row['median']:14.6g} "
              f"{row['q1']:14.6g} {row['q3']:14.6g} {row['n']:3d}")
    return rows


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run the repository benchmark's named workloads.")
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (only churn-mix consumes it)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run with per-layer metrics")
    args = parser.parse_args(argv)

    root = BENCH_DIR.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {root / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    env = environment(root)
    print("env " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict[str, Any]] = {}
    for name in names:
        workload = WORKLOADS[name]
        work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-",
                                         dir=BENCH_DIR / "_work"))
        runner = Runner(root, args.seed, work_dir)
        try:
            if args.trace:
                samples, tried, problems = trace(workload, runner,
                                                 args.seconds, out_dir)
                units = PER_LAYER_UNITS
            else:
                samples, tried, problems = measure(workload, runner,
                                                   args.seconds)
                units = {**END_TO_END_UNITS, **SWEEP_UNITS}
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        rows = report(name, samples, units)
        fails = min(tried, len(problems))
        seed_use = ("consumed" if workload.seeded
                    else "unused: deterministic workload")
        print(f"seed {args.seed} ({seed_use}); failed_ratio {fails}/{tried}")
        for problem in problems[:10]:
            print(f"  FAIL {problem}")
        attempted += tried
        failed += fails
        (out_dir / f"result-{name}-trace{args.trace}.json").write_text(
            json.dumps({"workload": name, "seed": args.seed,
                        "seed_consumed": workload.seeded, "env": env,
                        "metrics": rows, "samples": samples,
                        "attempted": tried, "failed": fails,
                        "problems": problems}, indent=1, sort_keys=True)
            + "\n", encoding="utf-8")
        # The result line carries exactly the metrics BENCHMARK.json
        # declares: end-to-end untraced, per-layer traced.
        declared = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        prefix = "" if len(names) == 1 else f"{name}/"
        for metric in declared:
            metrics[prefix + metric] = {"value": rows[metric]["median"],
                                        "unit": rows[metric]["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
