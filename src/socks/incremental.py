"""Per-block incremental-build state: decide whether work can be skipped.

Four mechanisms combine by OR: source-vs-output timestamps, an event log of
successful build stages, checksums of imported archives, and byte comparison
of the block's resolved configuration section.  Each mechanism is cheap to
evaluate relative to the work it avoids.
"""

from __future__ import annotations

import csv
import logging
import os
import re
import stat
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .errors import IncrementalStateError

log = logging.getLogger(__name__)

STAGE_ID_RE = re.compile(r"^[a-z0-9_-]+$")
VCS_DIRS = {".git", ".hg", ".svn"}

# Wall-clock tolerance before a source mtime counts as "in the future".
CLOCK_SKEW_TOLERANCE = 2.0


def newest_mtime(paths: list[str | Path]) -> float | None:
    """Recursive max modification time over files and directories.

    Directory mtimes count, so deleting or renaming an input is a change.
    VCS metadata directories are skipped at any depth so fetches do not cause
    spurious rebuilds.  Symlinked files count with their target's time,
    broken links are ignored and symlinked directories are not descended.
    Returns None when nothing exists.
    """
    newest: float | None = None
    for raw in paths:
        try:
            st = os.stat(raw)
        except (FileNotFoundError, NotADirectoryError):
            continue
        except OSError as exc:
            raise IncrementalStateError(f"unreadable entry: {raw}: {exc}") \
                from exc
        if stat.S_ISDIR(st.st_mode):
            mtime = _newest_in_tree(os.fspath(raw), st.st_mtime)
        elif stat.S_ISREG(st.st_mode):
            mtime = st.st_mtime
        else:
            continue
        if newest is None or mtime > newest:
            newest = mtime
    return newest


def _newest_in_tree(root: str, newest: float) -> float:
    """``newest`` raised to every mtime below ``root``, in one scandir pass
    (PEP 471: no per-file path objects, no stat for the file type)."""
    pending = [root]
    while pending:
        try:
            listing = os.scandir(pending.pop())
        except OSError:
            continue  # unlistable directories are skipped, as os.walk does
        with listing:
            for entry in listing:
                try:
                    if entry.is_dir():
                        if entry.is_symlink() or entry.name in VCS_DIRS:
                            continue
                        pending.append(entry.path)
                    mtime = entry.stat().st_mtime
                except FileNotFoundError:
                    continue  # broken link, or removed meanwhile
                except OSError as exc:
                    raise IncrementalStateError(
                        f"unreadable entry: {entry.path}: {exc}") from exc
                if mtime > newest:
                    newest = mtime
    return newest


def stale_by_timestamps(src: list[str | Path], out: list[str | Path]) -> bool:
    """True iff the newest source is newer than the newest output (or there
    is no output yet)."""
    out_mtime = newest_mtime(out)
    if out_mtime is None:
        return True
    src_mtime = newest_mtime(src)
    if src_mtime is None:
        return False
    if src_mtime > time.time() + CLOCK_SKEW_TOLERANCE:
        log.warning("source mtime is in the future; treating as stale")
        return True
    return src_mtime > out_mtime


class EventLog:
    """Append-only CSV of successful build-stage completions.

    Two columns ``stage_id,timestamp`` (seconds-precision ISO-8601 UTC); for
    duplicate stage ids the last row wins.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def record(self, stage_id: str, when: float | None = None) -> None:
        if not STAGE_ID_RE.match(stage_id):
            raise IncrementalStateError(
                f"invalid stage id {stage_id!r}; allowed charset is [a-z0-9_-]")
        stamp = datetime.fromtimestamp(when if when is not None else time.time(),
                                       tz=timezone.utc)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(
                [stage_id, stamp.strftime("%Y-%m-%dT%H:%M:%SZ")])

    def _rows(self) -> dict[str, float]:
        if not self.path.exists():
            return {}
        latest: dict[str, float] = {}
        with open(self.path, newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if len(row) != 2:
                    raise IncrementalStateError(
                        f"malformed event log row at {self.path}:{lineno}")
                stage_id, stamp = row
                try:
                    ts = datetime.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ")
                except ValueError as exc:
                    raise IncrementalStateError(
                        f"malformed timestamp at {self.path}:{lineno}") from exc
                latest[stage_id] = ts.replace(tzinfo=timezone.utc).timestamp()
        return latest

    def last(self, stage_id: str) -> float | None:
        return self._rows().get(stage_id)

    def has(self, stage_id: str) -> bool:
        return stage_id in self._rows()

    def fresh(self, stage_id: str, src_mtime: float | None) -> bool:
        """True iff the stage completed at or after the given source time.

        The log stores second precision while sources are compared at full
        filesystem precision, so a stage recorded in the same second as a
        later source change conservatively counts as stale.
        """
        logged = self.last(stage_id)
        if logged is None:
            return False
        if src_mtime is None:
            return True
        return logged >= src_mtime


class ChecksumStore:
    """Digests of archives already imported by a block (``imports.csv``)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def _load(self) -> dict[str, str]:
        if not self.path.exists():
            return {}
        out: dict[str, str] = {}
        with open(self.path, newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if len(row) != 2:
                    raise IncrementalStateError(
                        f"malformed checksum row at {self.path}:{lineno}")
                out.setdefault(row[0], row[1])
        return out

    def seen(self, digest: str) -> bool:
        return digest in self._load()

    def record(self, digest: str) -> None:
        if self.seen(digest):
            return
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow([digest, stamp])


class ConfigSnapshot:
    """Canonical text of the block's config section, saved after a
    successful build (``config.used``)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def changed(self, current_text: str) -> bool:
        if not self.path.exists():
            return True
        return self.path.read_text(encoding="utf-8") != current_text

    def save(self, current_text: str) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(current_text, encoding="utf-8")


@dataclass
class RebuildDecision:
    rebuild: bool
    reasons: list[str] = field(default_factory=list)


def needs_rebuild(*, sources: list[str | Path], outputs: list[str | Path],
                  required_stages: list[str], event_log: EventLog,
                  dependency_digests: list[str], checksum_store: ChecksumStore,
                  config_text: str, snapshot: ConfigSnapshot) -> RebuildDecision:
    """OR-combination of all four mechanisms with the triggering reasons."""
    reasons: list[str] = []
    if stale_by_timestamps(sources, outputs):
        reasons.append("timestamps")
    for stage_id in required_stages:
        if not event_log.has(stage_id):
            reasons.append(f"event-log:{stage_id}")
    for digest in dependency_digests:
        if not checksum_store.seen(digest):
            reasons.append("dependency-checksum")
            break
    if snapshot.changed(config_text):
        reasons.append("config")
    return RebuildDecision(rebuild=bool(reasons), reasons=reasons)
