"""Git source handling: clone, patch series, Kconfig snippets."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from pathlib import Path

import pytest

from helpers import tree_digest
from socks import sources
from socks.errors import SourceError
from socks.fixture import create_kernel_origin, fixture_source
from socks.sources import (SourceRef, apply_config_snippets, apply_patches,
                           create_config_snippet, create_patches_from_commits,
                           parse_kconfig_lines, sync_source)

BRANCH = "xilinx-v2022.2"


def git(repo: Path, *args: str) -> str:
    proc = subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True)
    return proc.stdout


@pytest.fixture
def origin(tmp_path) -> Path:
    return create_kernel_origin(tmp_path / "origin")


@pytest.fixture
def ref(tmp_path, origin) -> SourceRef:
    return SourceRef(block="kernel", source=str(origin), branch=BRANCH,
                     checkout_dir=tmp_path / "work" / "src",
                     record=tmp_path / "work" / "checkout.json")


def no_config_edit(names: list[str]):
    """``edit_config`` for exports that no configuration lists."""
    return lambda: None


def record(ref: SourceRef) -> dict:
    return json.loads(ref.record.read_text(encoding="utf-8"))


def commit_file(repo: Path, name: str, content: str, message: str) -> None:
    (repo / name).parent.mkdir(parents=True, exist_ok=True)
    (repo / name).write_text(content, encoding="utf-8")
    git(repo, "add", name)
    git(repo, "commit", "-q", "-m", message)


def test_sync_clones_and_records(ref):
    sync_source(ref)
    assert (ref.checkout_dir / ".git").exists()
    assert (ref.checkout_dir / "Makefile").exists()
    assert record(ref) == {"baseline": git(ref.checkout_dir, "rev-parse",
                                           "HEAD").strip(),
                           "patches": []}


def test_sync_existing_checkout_noop(ref, recorder):
    sync_source(ref)
    recorder.reset()
    sync_source(ref)
    clones = [argv for _, argv in recorder.calls if "clone" in argv]
    assert clones == []


def test_sync_never_switches_branch(ref):
    sync_source(ref)
    other = SourceRef(block=ref.block, source=ref.source,
                      branch="other-branch", checkout_dir=ref.checkout_dir,
                      record=ref.record)
    with pytest.raises(SourceError, match="clean the block"):
        sync_source(other)


def test_sync_bad_source(tmp_path):
    ref = SourceRef(block="kernel", source=str(tmp_path / "nope"),
                    branch="", checkout_dir=tmp_path / "co",
                    record=tmp_path / "checkout.json")
    with pytest.raises(SourceError, match="clone failed"):
        sync_source(ref)
    assert not ref.record.exists()


@pytest.mark.parametrize("cut", ["interrupted", "killed"])
def test_clone_cut_before_the_rename_is_cloned_again(ref, monkeypatch, cut):
    """A run cut after the clone was recorded but before it was renamed into
    place leaves no checkout; a killed one also leaves its hidden clone.
    The next sync clones again, without a clean."""
    hidden = ref.checkout_dir.with_name(".src.partial")
    if cut == "interrupted":
        real_replace = os.replace

        def interrupted(src, dst, **kwargs):
            if Path(dst) == ref.checkout_dir:
                raise KeyboardInterrupt
            real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            sync_source(ref)
        monkeypatch.undo()
        assert ref.record.exists()
    else:
        hidden.mkdir(parents=True)
        (hidden / "Makefile").write_text("left by a killed clone\n")
        ref.record.write_text('{"baseline": "0", "patches": []}')
    assert not ref.checkout_dir.exists()
    sync_source(ref)
    assert not hidden.exists()
    assert record(ref)["baseline"] == git(ref.checkout_dir, "rev-parse",
                                          "HEAD").strip()
    assert (ref.checkout_dir / "Makefile").read_text() != \
        "left by a killed clone\n"


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


def test_apply_patches_in_order(ref, tmp_path, origin):
    sync_source(ref)
    patches = make_patches(origin, tmp_path, 3)
    applied = apply_patches(ref, patches, ".config")
    assert applied == [p.name for p in patches]
    text = (ref.checkout_dir / "series.txt").read_text()
    assert text == "line 0\nline 1\nline 2\n"
    assert record(ref) == {
        "baseline": git(ref.checkout_dir, "rev-parse", "HEAD").strip(),
        "patches": [[p.name, hashlib.sha256(p.read_bytes()).hexdigest()]
                    for p in patches]}


def test_apply_patches_idempotent_via_event_log(ref, tmp_path, origin,
                                                recorder):
    sync_source(ref)
    patches = make_patches(origin, tmp_path, 2)
    apply_patches(ref, patches, ".config")
    recorder.reset()
    assert apply_patches(ref, patches, ".config") == []
    ams = [argv for _, argv in recorder.calls if "am" in argv]
    assert ams == []


def test_apply_patches_starts_no_git_maintenance(ref, tmp_path, monkeypatch):
    """git am starts ``git maintenance run --auto`` after each patch unless
    maintenance.auto is off; the child is git's, so only git's own trace
    shows it."""
    sync_source(ref)
    trace = tmp_path / "trace2.json"
    monkeypatch.setenv("GIT_TRACE2_EVENT", str(trace))
    patch = fixture_source() / "src" / "kernel" / "0001-add-mock-driver.patch"
    assert apply_patches(ref, [patch], ".config") == [patch.name]
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    children = [event["argv"] for event in events
                if event["event"] == "child_start"]
    assert ["git", "mailsplit"] in [argv[:2] for argv in children]
    assert not [argv for argv in children if "maintenance" in argv]


def test_apply_patches_refuses_unstaged_changes(ref, tmp_path, origin):
    sync_source(ref)
    patches = make_patches(origin, tmp_path, 1)
    (ref.checkout_dir / "Makefile").write_text("dirty\n", encoding="utf-8")
    with pytest.raises(SourceError, match="unstaged"):
        apply_patches(ref, patches, ".config")


def test_apply_patches_aborts_cleanly_on_conflict(ref, tmp_path, origin):
    sync_source(ref)
    patches = make_patches(origin, tmp_path, 2)
    # Applying only the second patch of a dependent series must fail.
    with pytest.raises(SourceError, match="does not apply"):
        apply_patches(ref, [patches[1]], ".config")
    assert git(ref.checkout_dir, "status", "--porcelain").strip() == ""


@pytest.mark.parametrize("landed", [True, False])
def test_patch_cut_around_git_am_is_recorded_once(ref, tmp_path, origin,
                                                  monkeypatch, landed):
    sync_source(ref)
    patches = make_patches(origin, tmp_path, 2)
    apply_patches(ref, patches[:1], ".config")

    real_write = sources.write_json

    def cut(path, data):
        # The record naming the patch is written before git am runs, the
        # completed one after it.
        if "applying" in data:
            real_write(path, data)
            if landed:
                return
        raise KeyboardInterrupt

    with monkeypatch.context() as patched:
        patched.setattr(sources, "write_json", cut)
        with pytest.raises(KeyboardInterrupt):
            apply_patches(ref, patches, ".config")
    # A landed patch is recorded, one that did not land is applied now.
    assert apply_patches(ref, patches, ".config") \
        == ([] if landed else [patches[1].name])
    assert record(ref) == {
        "baseline": git(ref.checkout_dir, "rev-parse", "HEAD").strip(),
        "patches": [[p.name, hashlib.sha256(p.read_bytes()).hexdigest()]
                    for p in patches]}
    assert git(ref.checkout_dir, "rev-list", "--count",
               "HEAD").strip() == "3"  # the origin's commit and two patches


def test_apply_missing_patch_file(ref, tmp_path):
    sync_source(ref)
    with pytest.raises(SourceError, match="not found"):
        apply_patches(ref, [tmp_path / "ghost.patch"], ".config")


def test_create_patches_roundtrip(ref, tmp_path, origin):
    sync_source(ref)
    patches = make_patches(origin, tmp_path, 1)
    apply_patches(ref, patches, ".config")
    commit_file(ref.checkout_dir, "new1.c", "int one;\n", "first change")
    commit_file(ref.checkout_dir, "new2.c", "int two;\n", "second change")
    out_dir = tmp_path / "exported"
    created = create_patches_from_commits(ref, out_dir, patches,
                                          no_config_edit)
    assert created == ["0002-first-change.patch", "0003-second-change.patch"]
    # The exported commits are already applied: the record lists them, and
    # a second export finds nothing new.
    patches += [out_dir / name for name in created]
    assert [name for name, _ in record(ref)["patches"]] == \
        [p.name for p in patches]
    assert apply_patches(ref, patches, ".config") == []
    assert create_patches_from_commits(ref, out_dir, patches,
                                       no_config_edit) == []


def test_create_patches_needs_the_configured_series_applied(ref, tmp_path,
                                                            origin):
    sync_source(ref)
    patches = make_patches(origin, tmp_path, 1)
    commit_file(ref.checkout_dir, "new1.c", "int one;\n", "first change")
    with pytest.raises(SourceError, match="build the block"):
        create_patches_from_commits(ref, tmp_path / "exported", patches,
                                    no_config_edit)


@pytest.mark.parametrize("series", ["edited", "removed", "reordered"])
def test_changed_series_asks_for_a_clean(ref, tmp_path, origin, recorder,
                                         series):
    sync_source(ref)
    patches = make_patches(origin, tmp_path, 2)
    apply_patches(ref, patches, ".config")
    if series == "edited":
        patches[0].write_text(patches[0].read_text() + "\n",
                              encoding="utf-8")
    changed = {"edited": patches, "removed": patches[1:],
               "reordered": patches[::-1]}[series]
    recorder.reset()
    with pytest.raises(SourceError, match="clean the block") as exc:
        apply_patches(ref, changed, ".config")
    assert patches[0].name in str(exc.value)
    assert "'socks kernel clean'" in str(exc.value)
    assert recorder.calls == []


@pytest.mark.parametrize("state", ["missing", "malformed"])
def test_checkout_without_a_valid_record_is_refused(ref, state):
    sync_source(ref)
    if state == "missing":
        ref.record.unlink()
    else:
        ref.record.write_text('{"baseline": 1}', encoding="utf-8")
    with pytest.raises(SourceError, match="no valid record") as exc:
        sync_source(ref)
    assert str(ref.record) in str(exc.value)


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
    changed = create_config_snippet(config, baseline, snippet,
                                    no_config_edit)
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
    assert create_config_snippet(config, baseline, out,
                                 no_config_edit) == []
    assert not out.exists()


def test_tree_digest_excludes_git(ref):
    sync_source(ref)
    before = tree_digest(ref.checkout_dir)
    # Touching VCS metadata must not change the digest.
    (ref.checkout_dir / ".git" / "marker").write_text("x", encoding="utf-8")
    assert tree_digest(ref.checkout_dir) == before
    (ref.checkout_dir / "Makefile").write_text("changed\n", encoding="utf-8")
    assert tree_digest(ref.checkout_dir) != before
