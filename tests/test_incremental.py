"""Incremental state: timestamps and build records."""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socks.errors import IncrementalStateError
from socks.incremental import (VCS_DIRS, BuildRecord, needs_rebuild,
                               newest_mtime, stale_by_timestamps)


def make_file(path: Path, mtime: float) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("x", encoding="utf-8")
    os.utime(path, (mtime, mtime))
    return path


def test_newest_mtime_recursive(tmp_path):
    make_file(tmp_path / "a.txt", 100)
    make_file(tmp_path / "sub" / "b.txt", 200)
    # Directory mtimes count too; push them below the files'.
    for directory in (tmp_path / "sub", tmp_path):
        os.utime(directory, (50, 50))
    assert newest_mtime([tmp_path]) == 200


def test_newest_mtime_excludes_vcs_dirs(tmp_path):
    make_file(tmp_path / "a.txt", 100)
    make_file(tmp_path / ".git" / "index", 99999)
    os.utime(tmp_path, (50, 50))  # the .git directory keeps a fresh mtime
    assert newest_mtime([tmp_path]) == 100


def test_newest_mtime_none_when_missing(tmp_path):
    assert newest_mtime([tmp_path / "ghost"]) is None


def reference_newest_mtime(paths: list[Path]) -> float | None:
    """The walk rule spelled out with os.walk and os.stat: every walked
    non-VCS directory (the root included) and every non-directory entry in
    it count; symlinked files count with their target, broken links are
    ignored, symlinked directories are neither entered nor counted."""
    times = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = [d for d in dirnames if d not in VCS_DIRS]
                times.append(os.stat(dirpath).st_mtime)
                for name in filenames:
                    entry = os.path.join(dirpath, name)
                    if os.path.exists(entry):
                        times.append(os.stat(entry).st_mtime)
        elif os.path.isfile(path):
            times.append(os.stat(path).st_mtime)
    return max(times, default=None)


KINDS = ("file", "dir", "file-link", "dir-link", "broken-link")
tree_nodes = st.lists(
    st.tuples(st.sampled_from(KINDS),
              st.integers(0, 40),                          # parent pick
              st.sampled_from(["n", ".git", ".hg", ".svn", "src"]),
              st.integers(0, 40),                          # target pick
              st.integers(1, 10 ** 9)),                    # mtime
    max_size=25)


@settings(max_examples=150, deadline=None)
@given(nodes=tree_nodes, root_mtime=st.integers(1, 10 ** 9))
def test_newest_mtime_matches_walk_reference(tmp_path_factory, nodes,
                                             root_mtime):
    root = tmp_path_factory.mktemp("tree")
    dirs, files, stamps = [root], [], [(root, root_mtime)]
    for index, (kind, parent, name, target, mtime) in enumerate(nodes):
        parent_dir = dirs[parent % len(dirs)]
        path = parent_dir / (name if name != "n" else f"n{index}")
        if os.path.lexists(path):
            continue
        if kind == "file":
            path.write_text("x", encoding="utf-8")
            files.append(path)
        elif kind == "dir":
            path.mkdir()
            dirs.append(path)
        elif kind == "file-link" and files:
            path.symlink_to(files[target % len(files)])
        elif kind == "dir-link":
            path.symlink_to(dirs[target % len(dirs)],
                            target_is_directory=True)
        elif kind == "broken-link":
            path.symlink_to(root / f"missing{index}")
        else:
            continue
        stamps.append((path, mtime))
    # Set times last: creating an entry touches its directory.  A link gets
    # its own time, which must never count in place of its target's.
    for path, mtime in stamps:
        os.utime(path, (mtime, mtime), follow_symlinks=False)
    paths = [root, root / "absent", *files[:1]]
    assert newest_mtime(paths) == reference_newest_mtime(paths)


def test_stale_no_output_yet(tmp_path):
    src = make_file(tmp_path / "src.txt", 100)
    assert stale_by_timestamps([src], [tmp_path / "out.txt"]) is True


def test_stale_no_sources(tmp_path):
    out = make_file(tmp_path / "out.txt", 100)
    assert stale_by_timestamps([tmp_path / "ghost"], [out]) is False


def test_stale_source_newer(tmp_path):
    out = make_file(tmp_path / "out.txt", 100)
    src = make_file(tmp_path / "src.txt", 200)
    assert stale_by_timestamps([src], [out]) is True
    os.utime(src, (50, 50))
    assert stale_by_timestamps([src], [out]) is False


def test_future_mtime_counts_as_stale(tmp_path):
    out = make_file(tmp_path / "out.txt", time.time() + 1000)
    src = make_file(tmp_path / "src.txt", time.time() + 500)
    assert stale_by_timestamps([src], [out]) is True


def test_build_record_round_trip(tmp_path):
    path = tmp_path / "build.json"
    assert BuildRecord.load(path) is None
    record = BuildRecord("bp_demo_20260101T000000Z.tar.gz",
                         {"vivado": "d1", "kernel": "d2"}, "a: 1\n")
    record.save(path)
    assert BuildRecord.load(path) == record
    assert os.listdir(tmp_path) == ["build.json"]


@pytest.mark.parametrize("text", [
    "{not json", "[]", '{"package": "p", "inputs": {}}',
    '{"package": "p", "inputs": [], "config": ""}',
    '{"package": "p", "inputs": {}, "config": "", "extra": 1}'])
def test_malformed_build_record_names_its_path(tmp_path, text):
    path = tmp_path / "build.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(IncrementalStateError, match="build.json"):
        BuildRecord.load(path)


def test_interrupted_record_write_leaves_the_old_record(tmp_path,
                                                       monkeypatch):
    path = tmp_path / "build.json"
    old = BuildRecord("old.tar.gz", {}, "")
    old.save(path)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        BuildRecord("new.tar.gz", {"dep": "d"}, "x").save(path)
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["build.json"]  # no partial file
    assert BuildRecord.load(path) == old


def baseline(tmp_path):
    """State in which no mechanism triggers."""
    make_file(tmp_path / "src.txt", 100)
    make_file(tmp_path / "output" / "out.tar.gz", 200)
    BuildRecord("out.tar.gz", {"dep": "dep-digest"}, "section").save(
        tmp_path / "build.json")
    return dict(record_path=tmp_path / "build.json",
                output_dir=tmp_path / "output",
                sources=[tmp_path / "src.txt"],
                inputs={"dep": "dep-digest"}, config_text="section")


def test_needs_rebuild_all_fresh(tmp_path):
    decision = needs_rebuild(**baseline(tmp_path))
    assert decision.rebuild is False
    assert decision.reasons == []


def test_needs_rebuild_each_mechanism(tmp_path):
    state = baseline(tmp_path)
    os.utime(state["sources"][0], (300, 300))
    assert needs_rebuild(**state).reasons == ["timestamps"]
    os.utime(state["sources"][0], (100, 100))

    for inputs in ({"dep": "new-digest"}, {"dep": "dep-digest", "x": "d"},
                   {}):
        decision = needs_rebuild(**{**state, "inputs": inputs})
        assert decision.reasons == ["dependency-checksum"]

    state["config_text"] = "edited section"
    assert needs_rebuild(**state).reasons == ["config"]
    state["config_text"] = "section"

    (tmp_path / "output" / "out.tar.gz").unlink()  # the recorded package
    assert needs_rebuild(**state).reasons == ["timestamps"]

    (tmp_path / "build.json").unlink()
    decision = needs_rebuild(**state)
    assert decision.rebuild is True
    assert decision.reasons == ["event-log:build"]


def test_needs_rebuild_reasons_accumulate(tmp_path):
    state = baseline(tmp_path)
    os.utime(state["sources"][0], (300, 300))
    state["config_text"] = "edited"
    decision = needs_rebuild(**state)
    assert decision.rebuild is True
    assert decision.reasons == ["timestamps", "config"]
