"""One commit point per block: the build record decides every skip, so an
incremental build equals a from-scratch one after edits, reverts, restores,
downloads and interrupts."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import random
import shutil
import subprocess
import tarfile
import tempfile
import time
import urllib.request
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from helpers import modules_loaded_by

from socks import blockpackage as bp
from socks import cli, environment
from socks.fixture import materialize
from socks.graph import ALL, Invocation
from socks.orchestrator import run
from socks.project import Project

ALL_BLOCKS = ("atf", "devicetree", "fsbl", "image", "kernel", "pmu_fw",
              "ramfs", "rootfs", "uboot", "vivado")


def build(project_dir: Path, target: str = ALL, group: bool = False):
    project = Project.load(project_dir / "socks.yml")
    return run(project, Invocation(target, "build", group=group))


def build_ok(project_dir: Path, target: str = ALL, group: bool = False):
    report = build(project_dir, target, group)
    assert report.outcome == "completed", report.error
    return report


def rebuilt(report) -> set[str]:
    return {entry.block_id for entry in report.entries if not entry.skipped}


def newest_package(project_dir: Path, block_id: str) -> Path:
    out = sorted((project_dir / "temp" / block_id / "output").glob("*.tar.gz"))
    assert out, f"no package for {block_id}"
    return out[-1]


def member(package: Path, name: str) -> bytes:
    with tarfile.open(package, "r:gz") as tar:
        return tar.extractfile(name).read()


def vivado_package(directory: Path, xsa_text: str,
                   stamp: str) -> bp.BlockPackage:
    directory.mkdir(parents=True, exist_ok=True)
    xsa = directory / "system.xsa"
    xsa.write_text(xsa_text, encoding="utf-8")
    return bp.create_package("vivado", directory / "out", {"system.xsa": xsa},
                             stamp=stamp)


def import_vivado(project_dir: Path, import_src: str) -> None:
    with open(project_dir / "socks.yml", "a", encoding="utf-8") as fh:
        fh.write(f"  vivado:\n    source: import\n    project:\n"
                 f"      import_src: {import_src}\n")


class InterruptAtBuildSpawn:
    """Invocation observer that raises KeyboardInterrupt at the k-th build
    step, before it is spawned."""

    def __init__(self, k: int):
        self.k = k
        self.seen = 0

    def __call__(self, kind: str, argv: list[str]) -> None:
        if kind == "build":
            self.seen += 1
            if self.seen == self.k:
                raise KeyboardInterrupt


def interrupted_build(project_dir: Path, k: int, target: str = ALL):
    observer = InterruptAtBuildSpawn(k)
    environment.add_invocation_observer(observer)
    try:
        report = build(project_dir, target)
    finally:
        environment.remove_invocation_observer(observer)
    assert report.outcome == "interrupted"
    return report


def test_import_revert_publishes_the_reverted_package(project_dir, tmp_path):
    ci = tmp_path / "ci"
    import_vivado(project_dir, (ci / "out" /
                                "bp_vivado_20260101T000000Z.tar.gz").as_uri())
    # CI republishes A, then B, then A again at the same URL.
    for rev in ("A", "B", "A"):
        published = vivado_package(ci, f"<hardware rev='{rev}'/>\n",
                                   "20260101T000000Z")
        report = build_ok(project_dir, "vivado")
        assert rebuilt(report) == {"vivado"}, rev
        assert bp.archive_digest(newest_package(project_dir, "vivado")) \
            == published.digest
    again = build_ok(project_dir, "vivado")
    assert rebuilt(again) == set()


def test_url_dependency_is_judged_by_digest_only(project_dir, tmp_path):
    build_ok(project_dir)
    exported = tmp_path / "ci" / newest_package(project_dir, "vivado").name
    exported.parent.mkdir()
    shutil.copy2(newest_package(project_dir, "vivado"), exported)
    config = project_dir / "project-zynqmp-default.yml"
    config.write_text(config.read_text().replace(
        "vivado: temp/vivado/output/bp_vivado_*.tar.gz",
        f"vivado: {exported.as_uri()}"), encoding="utf-8")

    first = build_ok(project_dir)
    assert rebuilt(first) == {"devicetree", "fsbl", "pmu_fw", "rootfs",
                              "image"}
    for entry in first.entries:
        if entry.block_id in ("devicetree", "fsbl", "pmu_fw"):
            assert entry.reasons == ["config"], entry.block_id
    for _ in range(2):  # every download is fresh, its digest is not
        assert rebuilt(build_ok(project_dir)) == set()


def test_restored_older_dependency_package_rebuilds_the_consumer(
        project_dir, tmp_path):
    build_ok(project_dir)
    saved = tmp_path / newest_package(project_dir, "vivado").name
    shutil.copy2(newest_package(project_dir, "vivado"), saved)
    time.sleep(0.05)
    design = project_dir / "src" / "vivado" / "design.xsa"
    design.write_text(design.read_text() + "<revision/>\n", encoding="utf-8")
    build_ok(project_dir)
    assert b"<revision/>" in member(newest_package(project_dir, "devicetree"),
                                    "system.dtb")

    # Go back to the older package, mtime and all.
    newest_package(project_dir, "vivado").unlink()
    shutil.copy2(saved, project_dir / "temp" / "vivado" / "output")
    report = build_ok(project_dir, "devicetree")
    assert report.entries[0].reasons == ["dependency-checksum"]
    assert b"<revision/>" not in member(
        newest_package(project_dir, "devicetree"), "system.dtb")


def test_interrupted_consumer_of_an_old_mtime_import_is_rebuilt(
        project_dir, tmp_path):
    build_ok(project_dir)
    ci = vivado_package(tmp_path / "ci", "<hardware rev='ci'/>\n",
                        "20990101T000000Z")
    old = time.time() - 86400  # older than every package of the build
    os.utime(ci.path, (old, old))
    import_vivado(project_dir, str(ci.path))
    build_ok(project_dir, "vivado")

    interrupted_build(project_dir, 1, "devicetree")
    report = build_ok(project_dir, "devicetree")
    assert report.entries[0].skipped is False
    assert member(newest_package(project_dir, "devicetree"),
                  "system.dtb").startswith(b"<hardware rev='ci'/>")


def test_import_stamped_older_than_the_local_build_is_consumed(
        project_dir, tmp_path):
    build_ok(project_dir)
    ci = vivado_package(tmp_path / "ci", "<hardware rev='ci'/>\n",
                        "20200101T000000Z")
    import_vivado(project_dir, ci.path.as_uri())
    build_ok(project_dir, "devicetree", group=True)
    output = project_dir / "temp" / "vivado" / "output"
    # The local build is pruned with its sidecar.
    assert sorted(os.listdir(output)) == [f".{ci.path.name}.digest",
                                          ci.path.name]
    assert member(newest_package(project_dir, "devicetree"),
                  "system.dtb").startswith(b"<hardware rev='ci'/>")


def test_truncated_import_without_emits_rule_is_refused(project_dir,
                                                        tmp_path, capsys):
    payload = tmp_path / "bl31.elf"
    payload.write_bytes(random.Random(7).randbytes(256 << 10))
    ci = bp.create_package("atf", tmp_path / "ci", {"bl31.elf": payload},
                           stamp="20260101T000000Z").path
    data = ci.read_bytes()
    ci.write_bytes(data[:len(data) // 2])  # valid head, cut tail
    with open(project_dir / "socks.yml", "a", encoding="utf-8") as fh:
        fh.write(f"  atf:\n    source: import\n    project:\n"
                 f"      import_src: {ci.as_uri()}\n")
    config = str(project_dir / "socks.yml")
    assert cli.main(["-f", config, "atf", "build"]) == 2
    assert "block 'atf' cannot import its package" in capsys.readouterr().err
    work = project_dir / "temp" / "atf"
    assert not list(work.glob("output/*.tar.gz"))
    assert not (work / "build.json").exists()


def test_truncated_dependency_fails_extraction_with_exit_2(project_dir,
                                                          capsys):
    # An incompressible source makes a package whose head survives the cut.
    source = project_dir / "src" / "atf" / "bl31.c"
    source.write_bytes(random.Random(8).randbytes(256 << 10))
    build_ok(project_dir)
    published = newest_package(project_dir, "atf")
    data = published.read_bytes()
    published.write_bytes(data[:len(data) // 2])
    config = str(project_dir / "socks.yml")
    assert cli.main(["-f", config, "image", "-g", "build"]) == 2
    assert "block 'image' cannot import dependency 'atf'" \
        in capsys.readouterr().err


def test_url_extra_package_republish_rebuilds_the_rootfs(project_dir,
                                                        tmp_path):
    extra = tmp_path / "ci" / "net-3.0.pkg"
    extra.parent.mkdir()
    extra.write_bytes(b"net 3.0 build 1\n")
    config = project_dir / "project-zynqmp-default.yml"
    config.write_text(config.read_text().replace(
        "        - payloads/lib-2.1.pkg\n",
        f"        - payloads/lib-2.1.pkg\n        - {extra.as_uri()}\n"),
        encoding="utf-8")
    build_ok(project_dir, "rootfs", group=True)

    extra.write_bytes(b"net 3.0 build 2\n")  # CI republishes at the URL
    report = build_ok(project_dir, "rootfs")
    assert report.entries[0].reasons == ["dependency-checksum"]
    digest = hashlib.sha256(b"net 3.0 build 2\n").hexdigest()
    listing = member(newest_package(project_dir, "rootfs"), "packages.txt")
    assert f"net-3.0.pkg sha256={digest}" in listing.decode()
    assert rebuilt(build_ok(project_dir, "rootfs")) == set()



def test_url_dependencies_ending_in_one_file_name_keep_their_own_bytes(
        project_dir, tmp_path):
    # CI artifact URLs that differ only in a folder or the query string.
    refs = {}
    for dep_id in ("first", "second"):
        payload = tmp_path / f"{dep_id}.txt"
        payload.write_text(f"{dep_id} payload\n", encoding="utf-8")
        package = bp.create_package(dep_id, tmp_path / "ci" / dep_id,
                                    {"payload.txt": payload}).path
        published = package.with_name("package.tar.gz")
        package.rename(published)
        refs[dep_id] = published.as_uri()
    config = project_dir / "project-zynqmp-default.yml"
    config.write_text(config.read_text().replace(
        "        - src/atf\n", "        - src/atf\n      dependencies:\n"
        + "".join(f"        {dep}: {ref}\n" for dep, ref in refs.items())),
        encoding="utf-8")
    build_ok(project_dir, "atf")
    deps = project_dir / "temp" / "atf" / "deps"
    for dep_id in refs:
        assert (deps / dep_id / "payload.txt").read_text() \
            == f"{dep_id} payload\n"
    assert rebuilt(build_ok(project_dir, "atf")) == set()


def test_url_extra_packages_with_one_file_name_are_refused(project_dir,
                                                          tmp_path, capsys):
    config = project_dir / "project-zynqmp-default.yml"
    urls = "".join(f"        - {(tmp_path / d / 'net.pkg').as_uri()}\n"
                   for d in ("a", "b"))
    config.write_text(config.read_text().replace(
        "        - payloads/lib-2.1.pkg\n",
        "        - payloads/lib-2.1.pkg\n" + urls), encoding="utf-8")
    assert cli.main(["-f", str(project_dir / "socks.yml"), "rootfs",
                     "build"]) == 1
    err = capsys.readouterr().err
    assert "two URL extra packages have the file name 'net.pkg'" in err
    assert "at 'blocks/rootfs/project'" in err

def edit_inputs(project_dir: Path) -> None:
    for path, line in (
            (project_dir / "src" / "vivado" / "design.xsa", "<revision/>\n"),
            (project_dir / "temp" / "kernel" / "src" / "Makefile",
             "# edit\n")):
        path.write_text(path.read_text() + line, encoding="utf-8")


def outputs(project_dir: Path) -> dict[str, str]:
    """Digest of every block's newest package, plus the boot image."""
    digests = {block: bp.archive_digest(newest_package(project_dir, block))
               for block in ALL_BLOCKS}
    digests["boot.img"] = member(newest_package(project_dir, "image"),
                                 "boot.img").decode()
    return digests


def test_interrupt_at_every_build_spawn_equals_a_from_scratch_build(
        tmp_path, recorder):
    scratch = materialize(tmp_path / "scratch")
    prepared = run(Project.load(scratch / "socks.yml"),
                   Invocation("kernel", "prepare"))  # the checkout to edit
    assert prepared.outcome == "completed"
    edit_inputs(scratch)
    build_ok(scratch)
    expected = outputs(scratch)

    base = materialize(tmp_path / "base")
    build_ok(base)
    time.sleep(0.05)  # edits made now are newer than every package

    def edited_copy(name: str) -> Path:
        work = tmp_path / name
        shutil.copytree(base, work, symlinks=True)  # mtimes are kept
        edit_inputs(work)
        return work

    uninterrupted = edited_copy("uninterrupted")
    recorder.reset()
    build_ok(uninterrupted)
    spawns = recorder.count("build")
    assert spawns >= 6
    assert outputs(uninterrupted) == expected

    for k in range(1, spawns + 1):
        work = edited_copy(f"k{k}")
        interrupted_build(work, k)
        build_ok(work)
        assert outputs(work) == expected, f"interrupted at build spawn {k}"


# -- digest sidecars and conditional fetch ------------------------------------

CI_STAMP = "20260101T000000Z"


def test_file_url_republished_in_place_with_the_same_size_is_fetched(
        project_dir, tmp_path):
    ci = tmp_path / "ci"
    first = vivado_package(ci / "a", "<hardware rev='A'/>\n", CI_STAMP).path
    second = vivado_package(ci / "b", "<hardware rev='B'/>\n", CI_STAMP).path
    assert first.stat().st_size == second.stat().st_size
    source = ci / first.name
    shutil.copy2(first, source)
    import_vivado(project_dir, source.as_uri())
    build_ok(project_dir)

    st = source.stat()
    with open(source, "r+b") as fh:  # same inode, size and mtime
        fh.write(second.read_bytes())
    os.utime(source, ns=(st.st_atime_ns, st.st_mtime_ns))
    report = build_ok(project_dir)
    assert {"vivado", "devicetree", "image"} <= rebuilt(report)
    assert member(newest_package(project_dir, "devicetree"),
                  "system.dtb").startswith(b"<hardware rev='B'/>")


def test_older_source_copied_with_cp_p_is_fetched(project_dir, tmp_path):
    ci = tmp_path / "ci"
    older = vivado_package(ci / "a", "<hardware rev='A'/>\n", CI_STAMP).path
    time.sleep(0.05)
    newer = vivado_package(ci / "b", "<hardware rev='B'/>\n", CI_STAMP).path
    source = ci / older.name
    shutil.copy2(newer, source)
    import_vivado(project_dir, source.as_uri())
    build_ok(project_dir)

    subprocess.run(["cp", "-p", str(older), str(source)], check=True)
    assert source.stat().st_mtime_ns < newer.stat().st_mtime_ns
    report = build_ok(project_dir)
    assert {"vivado", "devicetree", "image"} <= rebuilt(report)
    assert member(newest_package(project_dir, "devicetree"),
                  "system.dtb").startswith(b"<hardware rev='A'/>")


def test_noop_with_file_url_imports_neither_hashes_nor_fetches(
        project_dir, tmp_path, monkeypatch):
    ci = vivado_package(tmp_path / "ci", "<hardware rev='ci'/>\n", CI_STAMP)
    import_vivado(project_dir, ci.path.as_uri())
    time.sleep(0.02)  # the source is older than the fetch's first tick

    def every_archive_has_its_digest():
        archives = list(project_dir.glob("temp/*/*/*.tar.gz"))
        assert {path.parent.name for path in archives} \
            == {"imports", "output"}
        for path in archives:
            recorded = json.loads(bp.digest_sidecar(path).read_bytes())
            assert recorded["digest"] == hashlib.sha256(
                path.read_bytes()).hexdigest(), path

    build_ok(project_dir, "vivado")  # no consumer has read its copy yet
    every_archive_has_its_digest()
    build_ok(project_dir)
    every_archive_has_its_digest()
    # With coarse timestamps a sidecar written in its archive's tick is
    # racy: the first no-op re-hashes it once, a tick later.
    time.sleep(0.02)
    assert rebuilt(build_ok(project_dir)) == set()

    hashed, opened = [], []
    real_digest, real_urlopen = bp.archive_digest, urllib.request.urlopen
    monkeypatch.setattr(bp, "archive_digest",
                        lambda path: hashed.append(path) or real_digest(path))
    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda *a, **k: opened.append(a) or real_urlopen(*a,
                                                                         **k))
    assert rebuilt(build_ok(project_dir)) == set()
    assert (hashed, opened) == ([], [])


def test_noop_with_file_url_loads_no_url_library(project_dir, tmp_path):
    """An unchanged ``file://`` source is judged by its stat identity
    alone, so the no-op needs neither urllib.request nor hashlib."""
    ci = vivado_package(tmp_path / "ci", "<hardware rev='ci'/>\n", CI_STAMP)
    import_vivado(project_dir, ci.path.as_uri())
    time.sleep(0.02)  # the source is older than the fetch's first tick
    build_ok(project_dir)
    time.sleep(0.02)  # and the sidecars are older than this no-op
    assert rebuilt(build_ok(project_dir)) == set()
    config = str(project_dir / "socks.yml")
    modules = modules_loaded_by(
        "from socks.cli import main\n"
        f"assert main(['-f', {config!r}, 'all', 'build']) == 0")
    assert sorted({"urllib.request", "hashlib"} & modules) == []


def ci_project(root: Path, rev: str) -> Path:
    """The example project with vivado and uboot imported from ``file://``
    URLs and one URL extra package for the rootfs, as CI published them at
    revision ``rev``."""
    project_dir = materialize(root / "proj")
    publish(root / "ci", rev)
    with open(project_dir / "socks.yml", "a", encoding="utf-8") as fh:
        for block in ("vivado", "uboot"):
            url = (root / "ci" / "out" / f"bp_{block}_{CI_STAMP}.tar.gz")
            fh.write(f"  {block}:\n    source: import\n    project:\n"
                     f"      import_src: {url.as_uri()}\n")
    config = project_dir / "project-zynqmp-default.yml"
    config.write_text(config.read_text().replace(
        "        - payloads/lib-2.1.pkg\n",
        "        - payloads/lib-2.1.pkg\n"
        f"        - {(root / 'ci' / 'net-3.0.pkg').as_uri()}\n"),
        encoding="utf-8")
    return project_dir


def publish(ci: Path, rev: str) -> None:
    """CI writes its archives anew at the same URLs."""
    vivado_package(ci, f"<hardware rev='{rev}'/>\n", CI_STAMP)
    (ci / "u-boot.elf").write_text(f"u-boot {rev}\n", encoding="utf-8")
    bp.create_package("uboot", ci / "out", {"u-boot.elf": ci / "u-boot.elf"},
                      stamp=CI_STAMP)
    (ci / "net-3.0.pkg").write_text(f"net 3.0 {rev}\n", encoding="utf-8")


REAL_REPLACE = os.replace


class FailAtReplace:
    """``os.replace`` that raises ``error`` at its k-th call, before or
    after the rename."""

    def __init__(self, k: int, error: BaseException, after: bool):
        self.k, self.error, self.after = k, error, after
        self.seen = 0

    def __call__(self, src, dst, **kwargs):
        self.seen += 1
        if self.seen == self.k and not self.after:
            raise self.error
        REAL_REPLACE(src, dst, **kwargs)
        if self.seen == self.k and self.after:
            raise self.error


@pytest.fixture(scope="module")
def ci_reference(tmp_path_factory):
    """Per phase: the outputs of a from-scratch build, and the number of
    ``os.replace`` calls of that phase's build run uninterrupted."""
    counts, expected = {}, {}
    for rev in ("A", "B"):
        project_dir = ci_project(tmp_path_factory.mktemp(f"scratch{rev}"),
                                 rev)
        build_ok(project_dir)
        expected[rev] = outputs(project_dir)
    for phase in ("cold", "republish"):
        root = tmp_path_factory.mktemp(f"count-{phase}")
        project_dir = prepared_phase(root, phase)
        counter = FailAtReplace(0, KeyboardInterrupt(), False)
        with mock.patch.object(os, "replace", counter):
            build_ok(project_dir)
        counts[phase] = counter.seen
    return counts, expected


def prepared_phase(root: Path, phase: str) -> Path:
    """A CI project just before the build of ``phase``: nothing built yet
    (cold), or built at revision A with B published since (republish)."""
    project_dir = ci_project(root, "A")
    if phase == "republish":
        build_ok(project_dir)
        publish(root / "ci", "B")
    return project_dir


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), phase=st.sampled_from(["cold", "republish"]),
       error=st.sampled_from([KeyboardInterrupt(),
                              OSError(errno.EIO, "injected")]),
       after=st.booleans())
def test_interrupt_at_any_file_replace_equals_a_from_scratch_build(
        ci_reference, data, phase, error, after):
    counts, expected = ci_reference
    k = data.draw(st.integers(1, counts[phase]), label="k")
    with tempfile.TemporaryDirectory() as tmp:
        project_dir = prepared_phase(Path(tmp), phase)
        failing = FailAtReplace(k, error, after)
        with mock.patch.object(os, "replace", failing):
            report = build(project_dir)
        assert failing.seen >= k
        # A lost digest sidecar only costs a hash: that build completes.
        assert report.outcome != "completed" or isinstance(error, OSError)
        if report.outcome == "failed":
            assert "injected" in str(report.error)
            assert report.exit_code == 2
        build_ok(project_dir)
        rev = "A" if phase == "cold" else "B"
        assert outputs(project_dir) == expected[rev]
        assert rebuilt(build_ok(project_dir)) == set()
