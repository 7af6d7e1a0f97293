"""Git source handling: clone, patch series, Kconfig snippets."""

from __future__ import annotations

import subprocess
from pathlib import Path

import pytest

from helpers import tree_digest
from socks.errors import SourceError
from socks.fixture import create_kernel_origin
from socks.incremental import EventLog
from socks.sources import (SourceRef, SourceState, apply_config_snippets,
                           apply_patches, create_config_snippet,
                           create_patches_from_commits, parse_kconfig_lines,
                           sync_source)

BRANCH = "xilinx-v2022.2"


def git(repo: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True)
    return proc.stdout


@pytest.fixture
def origin(tmp_path) -> Path:
    return create_kernel_origin(tmp_path / "origin")


@pytest.fixture
def workspace(tmp_path, origin):
    checkout = tmp_path / "work" / "src"
    ref = SourceRef(source=str(origin), branch=BRANCH, checkout_dir=checkout)
    log = EventLog(tmp_path / "work" / "events.csv")
    state = SourceState(tmp_path / "work" / "source.state")
    return ref, log, state


def commit_file(repo: Path, name: str, content: str, message: str) -> None:
    (repo / name).parent.mkdir(parents=True, exist_ok=True)
    (repo / name).write_text(content, encoding="utf-8")
    git(repo, "add", name)
    git(repo, "commit", "-q", "-m", message)


def test_sync_clones_and_records(workspace):
    ref, log, state = workspace
    sync_source(ref, log, state)
    assert (ref.checkout_dir / ".git").exists()
    assert (ref.checkout_dir / "Makefile").exists()
    assert log.has("source-sync")
    data = state.load()
    assert data["branch"] == BRANCH
    assert data["commit"] == data["baseline"]


def test_sync_existing_checkout_noop(workspace, recorder):
    ref, log, state = workspace
    sync_source(ref, log, state)
    recorder.reset()
    sync_source(ref, log, state)
    clones = [argv for _, argv in recorder.calls if "clone" in argv]
    assert clones == []


def test_sync_never_switches_branch(workspace):
    ref, log, state = workspace
    sync_source(ref, log, state)
    other = SourceRef(source=ref.source, branch="other-branch",
                      checkout_dir=ref.checkout_dir)
    with pytest.raises(SourceError, match="clean the block"):
        sync_source(other, log, state)


def test_sync_bad_source(tmp_path):
    ref = SourceRef(source=str(tmp_path / "nope"), branch="",
                    checkout_dir=tmp_path / "co")
    with pytest.raises(SourceError, match="clone failed"):
        sync_source(ref, EventLog(tmp_path / "e.csv"),
                    SourceState(tmp_path / "s"))


def make_patches(origin: Path, tmp_path: Path, count: int) -> list[Path]:
    """Export ``count`` dependent commits from a scratch clone as patches."""
    scratch = tmp_path / "scratch"
    subprocess.run(["git", "clone", "-q", "--branch", BRANCH, str(origin),
                    str(scratch)], check=True, capture_output=True)
    for i in range(count):
        # Each commit extends the same file, so order matters.
        path = scratch / "series.txt"
        prev = path.read_text() if path.exists() else ""
        path.write_text(prev + f"line {i}\n", encoding="utf-8")
        git(scratch, "add", "series.txt")
        git(scratch, "commit", "-q", "-m", f"series step {i}")
    out = tmp_path / "patches"
    git(scratch, "format-patch", "-o", str(out), f"-{count}")
    return sorted(out.iterdir())


def test_apply_patches_in_order(workspace, tmp_path, origin):
    ref, log, state = workspace
    sync_source(ref, log, state)
    patches = make_patches(origin, tmp_path, 3)
    applied = apply_patches(ref.checkout_dir, patches, log, state)
    assert applied == [p.name for p in patches]
    text = (ref.checkout_dir / "series.txt").read_text()
    assert text == "line 0\nline 1\nline 2\n"
    assert state.load()["baseline"] == git(
        ref.checkout_dir, "rev-parse", "HEAD").strip()


def test_apply_patches_idempotent_via_event_log(workspace, tmp_path, origin,
                                                recorder):
    ref, log, state = workspace
    sync_source(ref, log, state)
    patches = make_patches(origin, tmp_path, 2)
    apply_patches(ref.checkout_dir, patches, log, state)
    recorder.reset()
    assert apply_patches(ref.checkout_dir, patches, log, state) == []
    ams = [argv for _, argv in recorder.calls if "am" in argv]
    assert ams == []


def test_apply_patches_refuses_unstaged_changes(workspace, tmp_path, origin):
    ref, log, state = workspace
    sync_source(ref, log, state)
    patches = make_patches(origin, tmp_path, 1)
    (ref.checkout_dir / "Makefile").write_text("dirty\n", encoding="utf-8")
    with pytest.raises(SourceError, match="unstaged"):
        apply_patches(ref.checkout_dir, patches, log, state)


def test_apply_patches_aborts_cleanly_on_conflict(workspace, tmp_path, origin):
    ref, log, state = workspace
    sync_source(ref, log, state)
    patches = make_patches(origin, tmp_path, 2)
    # Applying only the second patch of a dependent series must fail.
    with pytest.raises(SourceError, match="does not apply"):
        apply_patches(ref.checkout_dir, [patches[1]], log, state)
    assert git(ref.checkout_dir, "status", "--porcelain").strip() == ""


def test_apply_missing_patch_file(workspace, tmp_path):
    ref, log, state = workspace
    sync_source(ref, log, state)
    with pytest.raises(SourceError, match="not found"):
        apply_patches(ref.checkout_dir, [tmp_path / "ghost.patch"], log, state)


def test_create_patches_roundtrip(workspace, tmp_path):
    ref, log, state = workspace
    sync_source(ref, log, state)
    commit_file(ref.checkout_dir, "new1.c", "int one;\n", "first change")
    commit_file(ref.checkout_dir, "new2.c", "int two;\n", "second change")
    out_dir = tmp_path / "exported"
    created = create_patches_from_commits(ref.checkout_dir, out_dir, 1, state)
    assert created == ["0002-first-change.patch", "0003-second-change.patch"]
    # Baseline moved: a second export finds nothing new.
    assert create_patches_from_commits(ref.checkout_dir, out_dir, 3,
                                       state) == []


def test_parse_kconfig_lines():
    entries = parse_kconfig_lines(
        "CONFIG_A=y\n# CONFIG_B is not set\n\nCONFIG_C=\"str\"\n", strict=True)
    assert entries == {"CONFIG_A": "CONFIG_A=y",
                       "CONFIG_B": "# CONFIG_B is not set",
                       "CONFIG_C": 'CONFIG_C="str"'}


def test_parse_kconfig_strict_rejects_garbage():
    with pytest.raises(SourceError, match="line 2"):
        parse_kconfig_lines("CONFIG_A=y\nnot a config line\n", strict=True,
                            origin="snip.cfg")


def test_parse_kconfig_lenient_ignores_comments():
    entries = parse_kconfig_lines("# just a comment\nCONFIG_A=y\n",
                                  strict=False)
    assert entries == {"CONFIG_A": "CONFIG_A=y"}


def test_apply_config_snippets_last_writer_wins(tmp_path):
    config = tmp_path / ".config"
    config.write_text("CONFIG_A=y\nCONFIG_B=y\n# CONFIG_C is not set\n",
                      encoding="utf-8")
    s1 = tmp_path / "s1.cfg"
    s1.write_text("CONFIG_B=n\nCONFIG_C=y\n", encoding="utf-8")
    s2 = tmp_path / "s2.cfg"
    s2.write_text("CONFIG_B=m\nCONFIG_NEW=y\n", encoding="utf-8")
    apply_config_snippets(config, [s1, s2])
    assert config.read_text() == \
        "CONFIG_A=y\nCONFIG_B=m\nCONFIG_C=y\nCONFIG_NEW=y\n"


def test_apply_config_snippets_idempotent(tmp_path):
    config = tmp_path / ".config"
    config.write_text("CONFIG_A=y\n", encoding="utf-8")
    snippet = tmp_path / "s.cfg"
    snippet.write_text("CONFIG_A=n\n", encoding="utf-8")
    apply_config_snippets(config, [snippet])
    once = config.read_text()
    apply_config_snippets(config, [snippet])
    assert config.read_text() == once


def test_create_config_snippet_roundtrip(tmp_path):
    baseline = tmp_path / "baseline"
    baseline.write_text("CONFIG_A=y\nCONFIG_B=4\n", encoding="utf-8")
    config = tmp_path / ".config"
    config.write_text("CONFIG_A=y\nCONFIG_B=8\n", encoding="utf-8")
    snippet = tmp_path / "snip.cfg"
    changed = create_config_snippet(config, baseline, snippet)
    assert changed == ["CONFIG_B"]
    assert snippet.read_text() == "CONFIG_B=8\n"
    # Applying the snippet to the baseline reproduces the change.
    apply_config_snippets(baseline, [snippet])
    assert baseline.read_text() == config.read_text()


def test_create_config_snippet_no_change(tmp_path):
    baseline = tmp_path / "baseline"
    baseline.write_text("CONFIG_A=y\n", encoding="utf-8")
    config = tmp_path / ".config"
    config.write_text("CONFIG_A=y\n", encoding="utf-8")
    out = tmp_path / "snip.cfg"
    assert create_config_snippet(config, baseline, out) == []
    assert not out.exists()


def test_tree_digest_excludes_git(workspace):
    ref, log, state = workspace
    sync_source(ref, log, state)
    before = tree_digest(ref.checkout_dir)
    # Touching VCS metadata must not change the digest.
    (ref.checkout_dir / ".git" / "marker").write_text("x", encoding="utf-8")
    assert tree_digest(ref.checkout_dir) == before
    (ref.checkout_dir / "Makefile").write_text("changed\n", encoding="utf-8")
    assert tree_digest(ref.checkout_dir) != before
