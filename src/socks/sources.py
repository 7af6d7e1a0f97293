"""General source files: git checkouts, patch series, and Kconfig-style
configuration snippets.

A block's upstream repository is cloned into the block's work directory; the
project's own changes travel as an ordered patch list plus line-keyed config
snippets, both referenced from the project configuration so a clean build
reproduces the exact same tree.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from pathlib import Path
from typing import Callable, NamedTuple

from .environment import execute_host
from .errors import ProcessError, SourceError
from .incremental import partial_path, replacing, write_json

# Given the names of new files, checks the configuration edit that lists
# them and returns the function that writes it (``plan_list_append``).
EditConfig = Callable[[list[str]], Callable[[], object]]

KCONFIG_LINE_RE = re.compile(
    r"^(?:([A-Za-z0-9_]+)=.*|# ([A-Za-z0-9_]+) is not set)$")


class SourceRef(NamedTuple):
    """A block's git checkout and its record (``checkout.json``): the
    commit after which local commits count as new, and the patches applied,
    in order, each with its digest."""

    block: str
    source: str          # URL or local path to a git repository
    branch: str
    checkout_dir: Path
    record: Path


def _git(checkout: Path, *args: str, check: bool = True):
    # No automatic `git maintenance` child (git am starts one per patch):
    # socks recreates its checkouts by cloning.
    return execute_host(["git", "-c", "maintenance.auto=false", "-C",
                         str(checkout), *args], check=check)


def head_commit(checkout: Path) -> str:
    return _git(checkout, "rev-parse", "HEAD").stdout.strip()


def _clean_first(ref: SourceRef, problem: str) -> SourceError:
    return SourceError(
        f"checkout {ref.checkout_dir} {problem}; clean the block "
        f"('socks {ref.block} clean') and build again")


def _load_record(ref: SourceRef) -> dict:
    """The checkout's record; a checkout without a valid one is never
    trusted, whether its clone was interrupted or an older socks made it."""
    try:
        record = json.loads(ref.record.read_text(encoding="utf-8"))
        if isinstance(record["baseline"], str) and all(
                isinstance(name, str) and isinstance(digest, str)
                for name, digest in record["patches"]
                + record.get("applying", [])):
            return record
    except (OSError, ValueError, TypeError, KeyError):
        pass
    raise _clean_first(ref, f"has no valid record {ref.record}")


def _series(patches: list[Path]) -> list[list[str]]:
    """``[name, sha256]`` of each patch file, in order."""
    # Imported here: a no-op build hashes no patch.
    import hashlib

    for patch in patches:
        if not patch.is_file():
            raise SourceError(f"patch file not found: {patch}")
    return [[patch.name, hashlib.sha256(patch.read_bytes()).hexdigest()]
            for patch in patches]


def _unapplied(ref: SourceRef, record: dict,
               series: list[list[str]]) -> list[list[str]]:
    """The tail of ``series`` beyond the recorded patches, which must be its
    unchanged prefix."""
    for index, applied in enumerate(record["patches"]):
        if index >= len(series) or series[index] != applied:
            raise _clean_first(
                ref, f"carries patch {applied[0]}, which the configured "
                     f"series no longer lists unchanged at position "
                     f"{index + 1} (edited, removed or reordered)")
    return series[len(record["patches"]):]


def _save_record(ref: SourceRef, record: dict) -> None:
    try:
        write_json(ref.record, record)
    except OSError as exc:
        raise SourceError(f"block '{ref.block}' cannot write its checkout "
                          f"record {ref.record}: {exc}") from exc


def sync_source(ref: SourceRef) -> None:
    """Clone the repository if absent; never silently switch branches or
    reuse a checkout that has no record.

    The clone is made in a hidden sibling of the checkout, recorded, and
    only then renamed into place: a run cut before the rename leaves no
    checkout, and the next run clones again.  A hidden clone left by a
    killed run is deleted first.
    """
    checkout = ref.checkout_dir
    if (checkout / ".git").exists():
        current = _git(checkout, "rev-parse", "--abbrev-ref",
                       "HEAD").stdout.strip()
        if ref.branch and current != ref.branch:
            raise _clean_first(
                ref, f"is on branch '{current}' but the configuration "
                     f"requires '{ref.branch}'")
        _load_record(ref)
        return
    ref.record.unlink(missing_ok=True)
    clone = checkout.with_name(f".{checkout.name}.partial")
    shutil.rmtree(clone, ignore_errors=True)
    checkout.parent.mkdir(parents=True, exist_ok=True)
    branch_args = ["--branch", ref.branch] if ref.branch else []
    try:
        execute_host(["git", "clone", *branch_args, "--", ref.source,
                      str(clone)])
    except ProcessError as exc:
        raise SourceError(f"clone failed for {ref.source}: {exc}") from exc
    # Patches are applied as commits, which needs a committer identity;
    # set a local fallback when the host has none configured.
    if not _git(clone, "config", "user.email", check=False).stdout.strip():
        _git(clone, "config", "user.name", "socks")
        _git(clone, "config", "user.email", "socks@localhost")
    _save_record(ref, {"baseline": head_commit(clone), "patches": []})
    try:
        os.replace(clone, checkout)
    except OSError as exc:
        raise SourceError(f"block '{ref.block}' cannot move its clone into "
                          f"{checkout}: {exc}") from exc


def apply_patches(ref: SourceRef, patches: list[Path],
                  kconfig_file: str) -> list[str]:
    """Apply, each as one commit recorded as it lands, the ``patches``
    beyond the recorded ones, which must be their unchanged prefix by name
    and digest (else the checkout must be cleaned).  The check for local
    changes ignores ``kconfig_file``, which the snippets rewrite on every
    sync, and the partial file of that rewrite, which a killed run may have
    left; ``git am`` still refuses a patch that touches a dirty file."""
    ignored = [f":(exclude){path}"
               for path in (kconfig_file, partial_path(kconfig_file))]
    checkout = ref.checkout_dir
    record = _load_record(ref)
    # The record names each patch before ``git am`` runs.  A run cut before
    # the entry was completed left it there: the patch landed when HEAD
    # moved past the baseline, and is applied again otherwise.
    for entry in record.pop("applying", []):
        head = head_commit(checkout)
        if head != record["baseline"]:
            record["patches"].append(entry)
            record["baseline"] = head
        else:
            _git(checkout, "am", "--abort", check=False)
        _save_record(ref, record)
    pending = _unapplied(ref, record, _series(patches))
    applied = []
    for patch, entry in zip(patches[len(patches) - len(pending):], pending):
        status = _git(checkout, "status", "--porcelain", "--", ".",
                      *ignored).stdout.strip()
        if status:
            raise SourceError(
                f"checkout {checkout} has unstaged changes; refusing to "
                f"apply {patch.name}")
        _save_record(ref, {**record, "applying": [entry]})
        try:
            _git(checkout, "am", str(patch.resolve()))
        except ProcessError as exc:
            _git(checkout, "am", "--abort", check=False)
            raise SourceError(
                f"patch {patch.name} does not apply: {exc}") from exc
        record["patches"].append(entry)
        record["baseline"] = head_commit(checkout)
        _save_record(ref, record)
        applied.append(patch.name)
    return applied


def create_patches_from_commits(ref: SourceRef, patches_dir: Path,
                                patches: list[Path],
                                edit_config: EditConfig) -> list[str]:
    """Export the commits beyond the recorded baseline as patch files
    numbered after the configured ``patches``, and record them as applied:
    they already are HEAD's commits.

    ``edit_config(names)`` checks the configuration edit that lists the new
    files and returns its writer; it runs before any patch or record is
    written, and the edit is written last.  Returns the created file names
    (empty when there is nothing new).
    """
    # Imported here: only this command stages files in a temporary folder.
    import tempfile

    checkout = ref.checkout_dir
    record = _load_record(ref)
    pending = _unapplied(ref, record, _series(patches))
    if pending:
        raise SourceError(
            f"patch {pending[0][0]} is configured but not applied to "
            f"checkout {checkout}; build the block before exporting commits")
    baseline = record["baseline"]
    count = int(_git(checkout, "rev-list", "--count",
                     f"{baseline}..HEAD").stdout.strip())
    if count == 0:
        return []
    # Exported beside the checkout first: only git knows the file names.
    with tempfile.TemporaryDirectory(dir=checkout.parent,
                                     prefix=".patches-") as staging:
        result = _git(checkout, "format-patch",
                      "--start-number", str(len(patches) + 1),
                      "-o", str(Path(staging).resolve()), f"{baseline}..HEAD")
        exported = [Path(line) for line in result.stdout.strip().splitlines()]
        write_config = edit_config([path.name for path in exported])
        patches_dir.mkdir(parents=True, exist_ok=True)
        created = [Path(shutil.move(path, patches_dir / path.name))
                   for path in exported]
    record["patches"] += _series(created)
    record["baseline"] = head_commit(checkout)
    _save_record(ref, record)
    write_config()
    return [path.name for path in created]


# --- Kconfig-style snippet handling -------------------------------------

def _kconfig_key(line: str) -> str | None:
    """The option a stripped line sets or unsets, or None."""
    match = KCONFIG_LINE_RE.match(line)
    return (match.group(1) or match.group(2)) if match else None


def parse_kconfig_lines(text: str, *, strict: bool,
                        origin: str = "") -> dict[str, str]:
    """Map option name -> full line.  In strict mode (snippets) every
    non-blank line must be KEY=VALUE or '# KEY is not set'."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        key = _kconfig_key(stripped)
        if key is not None:
            entries[key] = stripped
        elif strict and stripped:
            raise SourceError(
                f"invalid snippet line {lineno} in {origin or 'snippet'}: "
                f"{stripped!r}")
    return entries


def apply_config_snippets(config_file: Path, snippets: list[Path]) -> None:
    """Merge snippet entries into the config file; last writer wins per key."""
    if not snippets:
        return
    if not config_file.exists():
        raise SourceError(f"config file not found: {config_file}")
    overrides: dict[str, str] = {}
    for snippet in snippets:
        if not snippet.exists():
            raise SourceError(f"config snippet not found: {snippet}")
        overrides.update(parse_kconfig_lines(
            snippet.read_text(encoding="utf-8"), strict=True,
            origin=str(snippet)))
    lines = config_file.read_text(encoding="utf-8").splitlines()
    keys = [_kconfig_key(line.strip()) for line in lines]
    out = [overrides.get(key, line) for key, line in zip(keys, lines)]
    present = set(keys)
    out += [line for key, line in overrides.items() if key not in present]
    # Rewritten by rename: a write cut short leaves the old file, which the
    # next sync merges into again.
    with replacing(config_file) as partial:
        partial.write_text("\n".join(out) + "\n", encoding="utf-8")


def create_config_snippet(config_file: Path, baseline_file: Path,
                          out_path: Path, edit_config: EditConfig) -> list[str]:
    """Write the keys that changed since the baseline copy into a snippet.

    ``edit_config([out_path.name])`` checks the configuration edit that
    lists the snippet and returns its writer, before the snippet is written.
    Returns the changed key names; empty means no snippet was written.
    """
    if not config_file.exists():
        raise SourceError(f"config file not found: {config_file}")
    current = parse_kconfig_lines(config_file.read_text(encoding="utf-8"),
                                  strict=False)
    baseline = {}
    if baseline_file.exists():
        baseline = parse_kconfig_lines(
            baseline_file.read_text(encoding="utf-8"), strict=False)
    changed = [key for key, line in current.items()
               if baseline.get(key) != line]
    if not changed:
        return []
    write_config = edit_config([out_path.name])
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(
        "".join(current[key] + "\n" for key in changed), encoding="utf-8")
    write_config()
    return changed
