"""General source files: git checkouts, patch series, and Kconfig-style
configuration snippets.

A block's upstream repository is cloned into the block's work directory; the
project's own changes travel as an ordered patch list plus line-keyed config
snippets, both referenced from the project configuration so a clean build
reproduces the exact same tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .environment import execute_host
from .errors import ProcessError, SourceError
from .incremental import EventLog

SYNC_STAGE = "source-sync"

KCONFIG_SET_RE = re.compile(r"^([A-Za-z0-9_]+)=(.*)$")
KCONFIG_UNSET_RE = re.compile(r"^# ([A-Za-z0-9_]+) is not set$")


@dataclass(frozen=True)
class SourceRef:
    source: str          # URL or local path to a git repository
    branch: str
    checkout_dir: Path


def _git(checkout: Path, *args: str, check: bool = True):
    return execute_host(["git", "-C", str(checkout), *args], check=check)


def sanitize_stage_id(name: str) -> str:
    return re.sub(r"[^a-z0-9_-]", "-", name.lower())


class SourceState:
    """Small key=value sidecar pinning the patch-application baseline commit."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def load(self) -> dict[str, str]:
        if not self.path.exists():
            return {}
        out = {}
        for line in self.path.read_text(encoding="utf-8").splitlines():
            if "=" in line:
                key, value = line.split("=", 1)
                out[key] = value
        return out

    def save(self, values: dict[str, str]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(
            "".join(f"{k}={v}\n" for k, v in sorted(values.items())),
            encoding="utf-8")

    def update(self, **values: str) -> None:
        data = self.load()
        data.update(values)
        self.save(data)


def head_commit(checkout: Path) -> str:
    return _git(checkout, "rev-parse", "HEAD").stdout.strip()


def sync_source(ref: SourceRef, event_log: EventLog,
                state: SourceState) -> None:
    """Clone the repository if absent; never silently switch branches."""
    checkout = ref.checkout_dir
    if (checkout / ".git").exists():
        current = _git(checkout, "rev-parse", "--abbrev-ref",
                       "HEAD").stdout.strip()
        if ref.branch and current != ref.branch:
            raise SourceError(
                f"checkout {checkout} is on branch '{current}' but the "
                f"configuration requires '{ref.branch}'; clean the block to "
                f"re-clone")
        return
    checkout.parent.mkdir(parents=True, exist_ok=True)
    branch_args = ["--branch", ref.branch] if ref.branch else []
    try:
        execute_host(["git", "clone", *branch_args, "--", ref.source,
                      str(checkout)])
    except ProcessError as exc:
        raise SourceError(f"clone failed for {ref.source}: {exc}") from exc
    # Patches are applied as commits, which needs a committer identity;
    # set a local fallback when the host has none configured.
    if not _git(checkout, "config", "user.email", check=False).stdout.strip():
        _git(checkout, "config", "user.name", "socks")
        _git(checkout, "config", "user.email", "socks@localhost")
    event_log.record(SYNC_STAGE)
    state.update(branch=ref.branch, commit=head_commit(checkout),
                 baseline=head_commit(checkout))


def apply_patches(checkout: Path, patches: list[Path], event_log: EventLog,
                  state: SourceState) -> list[str]:
    """Apply patches in list order as commits; already-applied ones (per the
    event log) are never re-applied."""
    applied = []
    for patch in patches:
        stage_id = "patch-" + sanitize_stage_id(patch.name)
        if event_log.has(stage_id):
            continue
        status = _git(checkout, "status", "--porcelain").stdout.strip()
        if status:
            raise SourceError(
                f"checkout {checkout} has unstaged changes; refusing to "
                f"apply {patch.name}")
        if not patch.exists():
            raise SourceError(f"patch file not found: {patch}")
        try:
            _git(checkout, "am", str(patch.resolve()))
        except ProcessError as exc:
            _git(checkout, "am", "--abort", check=False)
            raise SourceError(
                f"patch {patch.name} does not apply: {exc}") from exc
        event_log.record(stage_id)
        applied.append(patch.name)
    if applied:
        state.update(baseline=head_commit(checkout))
    return applied


def create_patches_from_commits(checkout: Path, patches_dir: Path,
                                existing_count: int,
                                state: SourceState) -> list[str]:
    """Export commits beyond the last patch baseline as numbered patch files.

    Returns the created file names (empty when there is nothing new).
    """
    baseline = state.load().get("baseline")
    if not baseline:
        baseline = _git(checkout, "rev-list", "--max-parents=0",
                        "HEAD").stdout.strip().splitlines()[0]
    count = int(_git(checkout, "rev-list", "--count",
                     f"{baseline}..HEAD").stdout.strip())
    if count == 0:
        return []
    patches_dir.mkdir(parents=True, exist_ok=True)
    result = _git(checkout, "format-patch",
                  "--start-number", str(existing_count + 1),
                  "-o", str(patches_dir.resolve()), f"{baseline}..HEAD")
    created = [Path(line).name for line in result.stdout.strip().splitlines()]
    state.update(baseline=head_commit(checkout))
    return created


# --- Kconfig-style snippet handling -------------------------------------

def parse_kconfig_lines(text: str, *, strict: bool,
                        origin: str = "") -> dict[str, str]:
    """Map option name -> full line.  In strict mode (snippets) every
    non-blank line must be KEY=VALUE or '# KEY is not set'."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        match = KCONFIG_SET_RE.match(stripped)
        if match:
            entries[match.group(1)] = stripped
            continue
        match = KCONFIG_UNSET_RE.match(stripped)
        if match:
            entries[match.group(1)] = stripped
            continue
        if strict:
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
    seen: set[str] = set()
    out: list[str] = []
    for line in lines:
        key = None
        stripped = line.strip()
        match = KCONFIG_SET_RE.match(stripped) or KCONFIG_UNSET_RE.match(stripped)
        if match:
            key = match.group(1)
        if key is not None and key in overrides:
            out.append(overrides[key])
            seen.add(key)
        else:
            out.append(line)
    for key, line in overrides.items():
        if key not in seen:
            out.append(line)
    config_file.write_text("\n".join(out) + "\n", encoding="utf-8")


def create_config_snippet(config_file: Path, baseline_file: Path,
                          out_path: Path) -> list[str]:
    """Write the keys that changed since the baseline copy into a snippet.

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
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(
        "".join(current[key] + "\n" for key in changed), encoding="utf-8")
    return changed

