"""Per-block incremental-build state: decide whether work can be skipped.

A block's build record, written only after its package is published, is
the one commit point.  Four mechanisms combine by OR: a missing record,
sources newer than the recorded package, input digests other than the
recorded ones, and another configuration section text.  Each mechanism is
cheap to evaluate relative to the work it avoids.
"""

from __future__ import annotations

import json
import logging
import os
import stat
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import IncrementalStateError

log = logging.getLogger(__name__)

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


class BuildRecord(NamedTuple):
    """What a block's last published package was built from (``build.json``).

    ``inputs`` maps each dependency id to the digest of the package it
    consumed (``{"import_src": digest}`` for an imported block) and
    ``config`` is the block's effective config section text.
    """

    package: str
    inputs: dict[str, str]
    config: str

    @classmethod
    def load(cls, path: str | Path) -> BuildRecord | None:
        """The record at ``path``, or None when there is none."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
            record = cls(**data)
        except FileNotFoundError:
            return None
        except (ValueError, TypeError) as exc:
            raise IncrementalStateError(
                f"malformed build record {path}: {exc}") from exc
        if not (isinstance(record.package, str)
                and isinstance(record.inputs, dict)
                and isinstance(record.config, str)):
            raise IncrementalStateError(f"malformed build record {path}")
        return record

    def save(self, path: str | Path) -> None:
        write_json(path, self._asdict())


def partial_path(path: str | Path) -> Path:
    """The hidden file beside ``path`` that ``replacing`` writes."""
    path = Path(path)
    return path.with_name(f".{path.name}.partial")


@contextmanager
def replacing(path: str | Path) -> Iterator[Path]:
    """The hidden partial file to write ``path``'s new content to; renamed
    onto ``path`` when the block ends, deleted when it raises.  So ``path``
    holds its old bytes or its new ones, never a mix."""
    partial = partial_path(path)
    try:
        yield partial
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, data) -> None:
    """Write ``data`` as JSON whole or not at all."""
    with replacing(path) as partial:
        partial.write_text(json.dumps(data, indent=1, sort_keys=True),
                           encoding="utf-8")


class RebuildDecision:
    def __init__(self, rebuild: bool, reasons: list[str] | None = None):
        self.rebuild = rebuild
        self.reasons = [] if reasons is None else reasons


def needs_rebuild(*, record_path: str | Path, output_dir: str | Path,
                  sources: list[str | Path], inputs: dict[str, str],
                  config_text: str) -> RebuildDecision:
    """Compare the block's build record with its current state.

    No record means no committed build (``event-log:build``).  Otherwise the
    reasons are sources newer than the recorded package (``timestamps``),
    other input digests (``dependency-checksum``) and another config section
    (``config``).
    """
    record = BuildRecord.load(record_path)
    if record is None:
        return RebuildDecision(rebuild=True, reasons=["event-log:build"])
    reasons: list[str] = []
    if stale_by_timestamps(sources, [Path(output_dir) / record.package]):
        reasons.append("timestamps")
    if inputs != record.inputs:
        reasons.append("dependency-checksum")
    if config_text != record.config:
        reasons.append("config")
    return RebuildDecision(rebuild=bool(reasons), reasons=reasons)
