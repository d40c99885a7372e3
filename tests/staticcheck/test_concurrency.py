"""Pass-level behaviour of the concurrency tier.

The corpus matrix (``test_corpus.py``) proves each rule fires and each
repaired variant is clean; these tests pin the behaviours *around* the
findings: the two pragma forms, the sorted() exemption, parent-side
resource use, and the env keyed/neutral declarations.
"""

from __future__ import annotations

from dataclasses import fields
from textwrap import dedent

from repro.staticcheck.base import Finding, StaticCheckConfig
from repro.staticcheck.concurrency import effect_exempt_lines
from repro.staticcheck.model import Program
from repro.staticcheck.runner import (
    iter_python_files,
    repo_root,
    run_on_program,
)

_CONCURRENCY_RULES = ["worker-shared-state", "fork-unsafe-resource",
                      "cache-key-completeness", "merge-order"]


def _program(files: dict[str, str]) -> Program:
    return Program.from_sources(
        {path: dedent(source).lstrip("\n")
         for path, source in files.items()})


def _run(files: dict[str, str], rules: list[str] | None = None,
         config: StaticCheckConfig | None = None) -> list[Finding]:
    return run_on_program(_program(files),
                          config or StaticCheckConfig(),
                          rules=rules or _CONCURRENCY_RULES)


def test_bare_pragma_exempts_every_concurrency_rule():
    findings = _run({
        "src/repro/parallel/tasks.py": """
            import os

            TOTALS = {}


            def run_task(task):
                TOTALS[task] = os.environ.get("REPRO_X")  # lint: effect-ok
                return task
        """,
    })
    assert findings == [], [f.describe() for f in findings]


def test_parametrized_pragma_exempts_exactly_one_rule():
    """effect-ok(worker-shared-state) leaves cache-key-completeness on."""
    findings = _run({
        "src/repro/parallel/tasks.py": """
            import os

            TOTALS = {}


            def run_task(task):
                TOTALS[task] = os.environ.get(
                    "REPRO_X")  # lint: effect-ok(worker-shared-state)
                return task
        """,
    })
    rules = {finding.rule for finding in findings}
    assert "worker-shared-state" not in rules
    assert "cache-key-completeness" in rules


def test_exempt_lines_cover_the_whole_statement():
    program = _program({
        "src/repro/parallel/tasks.py": """
            TOTALS = {}


            def run_task(task):
                TOTALS[task] = (  # lint: effect-ok(worker-shared-state)
                    task
                )
                return task
        """,
    })
    module = program.modules["repro.parallel.tasks"]
    exempt = effect_exempt_lines(module, "worker-shared-state")
    assert {5, 6, 7} <= exempt
    assert effect_exempt_lines(module, "merge-order") == set()


def test_worker_scope_stops_at_unreachable_functions():
    """A shared write outside worker reach is not this tier's business."""
    findings = _run({
        "src/repro/parallel/tasks.py": """
            TOTALS = {}


            def run_task(task):
                return task


            def parent_side_tally(result):
                TOTALS[result] = True
        """,
    }, rules=["worker-shared-state"])
    assert findings == [], [f.describe() for f in findings]


def test_fork_unsafe_resource_allows_parent_side_use():
    """The module binding alone is fine; only worker-side use flags."""
    findings = _run({
        "src/repro/parallel/tasks.py": """
            import threading

            _LOCK = threading.Lock()


            def submit(engine, tasks):
                with _LOCK:
                    return engine.run(tasks)


            def run_task(task):
                return task
        """,
    }, rules=["fork-unsafe-resource"])
    assert findings == [], [f.describe() for f in findings]


def test_keyed_and_neutral_env_vars_are_exempt():
    findings = _run({
        "src/repro/parallel/tasks.py": """
            import os


            def run_task(task):
                keyed = os.environ.get("REPRO_KERNEL")
                neutral = os.environ.get("REPRO_SOLVER_NUMPY")
                return (keyed, neutral, task)
        """,
    }, rules=["cache-key-completeness"])
    assert findings == [], [f.describe() for f in findings]


def test_import_time_registry_population_is_not_runtime_mutation():
    """Module bodies replay identically per process: reads stay clean."""
    findings = _run({
        "src/repro/heap/kernel.py": """
            KERNELS = {}
            KERNELS["bitmap"] = "BitmapKernel"


            def resolve_kernel(name):
                return KERNELS[name]
        """,
        "src/repro/parallel/tasks.py": """
            from repro.heap.kernel import resolve_kernel


            def run_task(task):
                return resolve_kernel(task)
        """,
    }, rules=["cache-key-completeness"])
    assert findings == [], [f.describe() for f in findings]


def test_merge_order_accepts_sorted_wrappers():
    findings = _run({
        "src/repro/parallel/engine.py": """
            import os


            class ParallelEngine:
                def run(self, tasks, shard_dir):
                    out = []
                    for task in sorted(set(tasks)):
                        out.append(task)
                    for name in sorted(os.listdir(shard_dir)):
                        out.append(name)
                    return out
        """,
    }, rules=["merge-order"])
    assert findings == [], [f.describe() for f in findings]


def test_merge_order_ignores_nested_defs():
    """A nested helper's iteration discipline is its own concern."""
    findings = _run({
        "src/repro/parallel/engine.py": """
            class ParallelEngine:
                def run(self, tasks):
                    def keyset(task):
                        return {k for k in set(task)}
                    return [keyset(task) for task in tasks]
        """,
    }, rules=["merge-order"])
    assert findings == [], [f.describe() for f in findings]


def test_findings_carry_provenance_chains():
    findings = _run({
        "src/repro/parallel/tasks.py": """
            from repro.parallel.stats import tally


            def run_task(task):
                return tally(task)
        """,
        "src/repro/parallel/stats.py": """
            TOTALS = {}


            def tally(task):
                TOTALS[task] = True
        """,
    }, rules=["worker-shared-state"])
    assert len(findings) == 1
    assert "run_task -> tally" in findings[0].message
    assert findings[0].source == "concurrency"


def test_serial_and_parallel_runs_are_byte_identical():
    files = {
        "src/repro/parallel/tasks.py": """
            import os

            TOTALS = {}


            def run_task(task):
                TOTALS[task] = True
                return os.environ.get("REPRO_X")
        """,
        "src/repro/analysis/sweep.py": """
            import os


            def simulation_sweep(shard_dir):
                return [name for name in os.listdir(shard_dir)]
        """,
    }
    serial = _run(files)
    again = _run(files)
    assert [f.fingerprint for f in serial] == [f.fingerprint for f in again]
    assert len(serial) >= 3


def test_every_configured_name_resolves_in_the_real_tree():
    # The passes skip configured names that do not resolve, so a deleted
    # or renamed function would silently switch its gate off.
    root = repo_root()
    program = Program.load(iter_python_files([root / "src"]), root)
    config = StaticCheckConfig()
    names = [(field.name, name) for field in fields(config)
             if isinstance(getattr(config, field.name), tuple)
             for name in getattr(config, field.name)
             if isinstance(name, str) and name.startswith("repro.")]
    assert len(names) >= 16
    # resolve_symbol answers only with a program function or class.
    unresolved = [(field_name, name) for field_name, name in names
                  if program.resolve_symbol(name) is None]
    assert unresolved == []
