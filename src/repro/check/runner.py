"""Run the checkers: offline over recorded runs, online as a bus sink.

Offline — the static-analysis path (``repro check``):

* :func:`check_run_directory` loads a recorded ``manifest.json`` /
  ``events.jsonl`` pair, builds the :class:`~repro.check.base.CheckContext`
  from the manifest, and replays every event through the full checker
  set.  A cache entry (a manifest with a task spec and no
  ``events.jsonl``) is re-run instead, its live stream fed to the same
  checkers against the manifest's recorded digest;
* :func:`check_trace_file` does the same for a bare JSONL file with no
  manifest — parameter-dependent checks are skipped, structural ones
  (shadow heap, charge pairing, stage machine) still run.

Online — the ``--sanitize`` path: a :class:`Sanitizer` subscribes to the
live :class:`~repro.obs.events.EventBus`, feeds every event to the same
checkers as it is emitted, additionally rides the
:class:`~repro.adversary.pf_program.PFProgram` observer hooks (the
association map is only reachable online), and raises
:class:`~repro.check.base.InvariantViolationError` at :meth:`Sanitizer.finish`
if anything was flagged.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, Type, Union

from ..obs.events import TelemetryEvent
from .base import CheckContext, Checker, CheckReport, InvariantViolationError
from .budget_replay import BudgetReplayChecker
from .density import DensityChecker, DensityObserver
from .determinism import DeterminismChecker, recorded_task, replay
from .program_model import ProgramModelChecker
from .shadow_heap import ShadowHeapChecker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..adversary.base import AdversaryProgram
    from ..obs.events import EventBus

__all__ = [
    "DEFAULT_CHECKERS",
    "run_checkers",
    "check_run_directory",
    "check_trace_file",
    "Sanitizer",
]

_PathLike = Union[str, Path]

#: The full checker set, in feed order.
DEFAULT_CHECKERS: tuple[Type[Checker], ...] = (
    ShadowHeapChecker,
    BudgetReplayChecker,
    ProgramModelChecker,
    DensityChecker,
    DeterminismChecker,
)


def run_checkers(
    events: Iterable[TelemetryEvent],
    context: CheckContext,
    checker_types: Sequence[Type[Checker]] = DEFAULT_CHECKERS,
) -> CheckReport:
    """Replay ``events`` through fresh checkers; return the joint report."""
    checkers = [checker_type(context) for checker_type in checker_types]
    count = 0
    for event in events:
        count += 1
        for checker in checkers:
            checker.feed(event)
    for checker in checkers:
        checker.finalize()
    report = CheckReport(checkers=checkers, event_count=count)
    for checker in checkers:
        if isinstance(checker, DeterminismChecker) and checker.digest:
            report.notes["event_digest"] = checker.digest
    return report


def check_run_directory(
    directory: _PathLike,
    checker_types: Sequence[Type[Checker]] = DEFAULT_CHECKERS,
) -> CheckReport:
    """Offline-check a recorded run directory (manifest + events).

    Without ``events.jsonl`` but with a task spec in the manifest
    (``config.task``, as every cache entry has), the task is rebuilt
    and replayed through the checkers; the report's ``replayed`` note
    says so, and a replay that diverges from the recorded
    ``event_digest`` fails the determinism checker.
    """
    from ..obs.export import EVENTS_FILENAME, load_run

    run = load_run(directory)
    context = CheckContext.from_manifest(run.manifest)
    if (not (run.directory / EVENTS_FILENAME).is_file()
            and recorded_task(run.manifest) is not None):
        sanitizer = Sanitizer(context, checker_types)
        replay(run.manifest, sanitizer)
        report = sanitizer.finish(raise_on_violation=False)
        report.notes["replayed"] = "task spec (no events.jsonl)"
        return report
    return run_checkers(run.events, context, checker_types)


def check_trace_file(
    path: _PathLike,
    checker_types: Sequence[Type[Checker]] = DEFAULT_CHECKERS,
) -> CheckReport:
    """Offline-check a bare ``events.jsonl`` (no manifest, fewer checks)."""
    from ..obs.export import read_events

    return run_checkers(read_events(path), CheckContext(), checker_types)


class Sanitizer:
    """Online checker harness: an event sink plus program-hook rider.

    Usage::

        sanitizer = Sanitizer(CheckContext.from_params(params, ...))
        sanitizer.attach(bus)            # subscribe to the live stream
        sanitizer.attach_program(program)  # PF-only association checks
        ... run ...
        report = sanitizer.finish()      # raises on any violation
    """

    def __init__(
        self,
        context: CheckContext,
        checker_types: Sequence[Type[Checker]] = DEFAULT_CHECKERS,
    ) -> None:
        self.context = context
        self.checkers = [checker_type(context) for checker_type in checker_types]
        self._event_count = 0
        self._finished = False

    def __call__(self, event: TelemetryEvent) -> None:
        """Feed one event to every checker (the bus-subscriber interface)."""
        self._event_count += 1
        for checker in self.checkers:
            checker.feed(event)

    def attach(self, bus: "EventBus") -> "Sanitizer":
        """Subscribe to a bus; returns self."""
        bus.subscribe(self)
        return self

    def attach_program(self, program: "AdversaryProgram") -> "Sanitizer":
        """Ride the program's observer hooks when it exposes them.

        Only :class:`~repro.adversary.pf_program.PFProgram` has the
        observer protocol today; anything else is left untouched.  An
        observer the caller already installed keeps working — the
        sanitizer's :class:`~repro.check.density.DensityObserver` chains
        in front of it.
        """
        from ..adversary.pf_program import PFProgram

        if isinstance(program, PFProgram):
            density = next(
                (c for c in self.checkers if isinstance(c, DensityChecker)),
                None,
            )
            if density is not None:
                program.observer = DensityObserver(
                    density, wrapped=program.observer
                )
        return self

    def finish(self, *, raise_on_violation: bool = True) -> CheckReport:
        """Finalize every checker; raise if anything was flagged."""
        if not self._finished:
            for checker in self.checkers:
                checker.finalize()
            self._finished = True
        report = CheckReport(checkers=self.checkers,
                             event_count=self._event_count)
        for checker in self.checkers:
            if isinstance(checker, DeterminismChecker) and checker.digest:
                report.notes["event_digest"] = checker.digest
        if raise_on_violation and not report.ok:
            raise InvariantViolationError(report)
        return report
