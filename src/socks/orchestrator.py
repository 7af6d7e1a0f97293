"""The coordinating instance: apply one command to one or more blocks.

Execution is strictly sequential.  The first failure stops the run; a user
interrupt stops it immediately and preserves the files of every block not
yet processed.
"""

from __future__ import annotations

import logging
import signal
import threading

from .blockpackage import run_digest_memo
from .builders.base import StageReport
from .errors import SocksError
from .graph import ALL, Invocation, compute_active_set, order_for_command
from .project import Project

log = logging.getLogger(__name__)

COMPLETED = "completed"
FAILED = "failed"
INTERRUPTED = "interrupted"

# Observability for tests: number of builders currently executing (the
# sequential contract requires this never to exceed 1).
_in_flight = 0
_interrupted = False


class RunReport:
    def __init__(self, entries: list[StageReport] | None = None,
                 outcome: str = COMPLETED, at_block: str | None = None,
                 error: SocksError | None = None):
        self.entries = [] if entries is None else entries
        self.outcome = outcome
        self.at_block = at_block
        self.error = error

    @property
    def exit_code(self) -> int:
        if self.outcome == COMPLETED:
            return 0
        if self.outcome == INTERRUPTED:
            return 130
        return self.error.exit_code if self.error is not None else 2


def command_category(project: Project, active: list[str] | set[str],
                     verb: str) -> str:
    for block_id in sorted(active):
        cmd = project.builders[block_id].descriptor.command(verb)
        if cmd is not None:
            return cmd.category
    return "building"


def plan(project: Project, inv: Invocation) -> list[str]:
    """Active blocks in execution order for this invocation."""
    active = compute_active_set(project.graph, inv)
    category = command_category(project, active, inv.command)
    order = order_for_command(active, category, project.graph)
    if inv.target != ALL:
        # For an explicit target the builder must support the verb.
        project.builders[inv.target].descriptor.require_command(
            inv.command, inv.target)
        return order
    supported = []
    for block_id in order:
        if project.builders[block_id].descriptor.command(inv.command):
            supported.append(block_id)
        else:
            log.info("block '%s' skipped: its builder has no '%s' command",
                     block_id, inv.command)
    return supported


def run(project: Project, inv: Invocation) -> RunReport:
    global _in_flight, _interrupted
    order = plan(project, inv)
    report = RunReport()
    _interrupted = False

    previous_handler = None
    if threading.current_thread() is threading.main_thread():
        def _handler(signum, frame):
            global _interrupted
            _interrupted = True
            raise KeyboardInterrupt
        previous_handler = signal.signal(signal.SIGINT, _handler)

    try:
        with run_digest_memo():
            for block_id in order:
                builder = project.builders[block_id]
                try:
                    _in_flight += 1
                    try:
                        stage = builder.apply(inv.command)
                    finally:
                        _in_flight -= 1
                except KeyboardInterrupt:
                    log.warning("interrupted at block '%s'; files of the "
                                "remaining blocks are preserved", block_id)
                    report.outcome = INTERRUPTED
                    report.at_block = block_id
                    return report
                except SocksError as exc:
                    if _interrupted:
                        report.outcome = INTERRUPTED
                    else:
                        report.outcome = FAILED
                        report.error = exc
                    report.at_block = block_id
                    return report
                report.entries.append(stage)
                log.info("%s %s: %s (%.2fs)", block_id, inv.command,
                         "skipped" if stage.skipped else "done",
                         stage.duration)
            return report
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)
