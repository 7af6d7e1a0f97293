"""Builder framework, registry, and the reference builders on the fixture."""

from __future__ import annotations

import base64
import errno
import hashlib
import http.server
import os
import random
import shutil
import socket
import tarfile
import threading
import time
from pathlib import Path

import pytest

from socks import blockpackage as bp
from socks import cli, registry
from socks.builders.base import Builder, StageReport
from socks.errors import BuilderError, PackageError
from socks.fixture import materialize
from socks.graph import ALL, Invocation
from socks.orchestrator import run
from socks.project import Project
from socks.registry import (BuilderDescriptor, CommandDescriptor,
                            get_descriptor, register_builder,
                            registered_names, unregister_builder)
from socks.validation import BlockProjectModel


def build_all(project: Project):
    report = run(project, Invocation(target=ALL, command="build"))
    assert report.outcome == "completed", vars(report)
    return report


def newest_package(project_dir: Path, block_id: str) -> Path:
    out = sorted((project_dir / "temp" / block_id / "output").glob("*.tar.gz"))
    assert out, f"no package for {block_id}"
    return out[-1]


def package_entries(path: Path) -> set[str]:
    with tarfile.open(path, "r:gz") as tar:
        return {m.name for m in tar.getmembers() if m.isfile()}


# --- registry ---------------------------------------------------------------

def test_builtin_builders_registered():
    assert {"Script_Builder", "Rootfs_Builder", "Repo_Script_Builder",
            "Import_Builder", "Image_Builder"} <= set(registered_names())


def test_duplicate_registration_rejected():
    descriptor = BuilderDescriptor(
        name="Tmp_Builder", description="x", schema=BlockProjectModel,
        commands=(CommandDescriptor("build", "building", "Builds."),))
    register_builder(descriptor, Builder)
    try:
        with pytest.raises(BuilderError, match="already registered"):
            register_builder(descriptor, Builder)
    finally:
        unregister_builder("Tmp_Builder")


def test_unknown_builder_lists_available():
    with pytest.raises(BuilderError, match="available:.*Script_Builder"):
        get_descriptor("No_Such_Builder")


PREPARE = ("prepare", "building",
           "Performs all the preparatory steps to prepare this block for "
           "building, but does not build it.")
BUILD = ("build", "building", "Builds this block.")
CLEAN = ("clean", "cleaning", "Deletes all generated files of this block.")
START_CONTAINER = ("start-container", "debugging",
                   "Starts the container image of this block in an "
                   "interactive session.")


def test_builtin_builder_commands_pinned():
    repo = [PREPARE, BUILD, CLEAN,
            ("create-patches", "configuring",
             "Uses the committed changes in this block's repo to create "
             "patch files."),
            ("create-cfg-snippet", "configuring",
             "Creates a configuration snippet from the changes in the "
             ".config file in this block's repo."),
            START_CONTAINER,
            ("menucfg", "configuring",
             "Opens the menuconfig tool to enable interactive configuration "
             "of the project in this block.")]
    expected = {
        "Script_Builder": [PREPARE, BUILD, CLEAN, START_CONTAINER],
        "Rootfs_Builder": [PREPARE, BUILD, CLEAN, START_CONTAINER],
        "Repo_Script_Builder": repo,
        "Import_Builder": [("build", "building",
                            "Fetches and republishes this block's package "
                            "from import_src."), CLEAN],
        "Image_Builder": [PREPARE, BUILD, CLEAN, START_CONTAINER],
    }
    for name, commands in expected.items():
        assert [(c.verb, c.category, c.help)
                for c in get_descriptor(name).commands] == commands, name


def test_command_descriptor_validation():
    with pytest.raises(ValueError):
        CommandDescriptor("Bad Verb", "building", "x")
    with pytest.raises(ValueError):
        CommandDescriptor("build", "exploding", "x")


def test_instantiation_writes_nothing(project_dir):
    before = {str(p) for p in project_dir.rglob("*")}
    Project.load(project_dir / "socks.yml")
    after = {str(p) for p in project_dir.rglob("*")}
    assert before == after


# --- fixture builds ----------------------------------------------------------

def test_project_load(project):
    assert len(project.builders) == 10
    assert project.builders["kernel"].descriptor.name == "Repo_Script_Builder"
    assert project.general.container_tool == "disabled"


def test_kernel_package_contents(project, project_dir):
    report = run(project, Invocation("kernel", "build"))
    assert report.outcome == "completed"
    entries = package_entries(newest_package(project_dir, "kernel"))
    assert entries == {"Image.txt", "modules/mod1.txt"}


def test_kernel_patch_and_snippets_applied(project, project_dir):
    run(project, Invocation("kernel", "build"))
    checkout = project_dir / "temp" / "kernel" / "src"
    assert (checkout / "drivers" / "mock.c").exists()
    config = (checkout / ".config").read_text()
    assert "CONFIG_MOCK=y" in config
    assert "# CONFIG_DEBUG is not set" in config


def test_rootfs_packages_file_lists_payload_digests(project_dir):
    # An optional glob that matches nothing never fails the consumer.
    defaults = project_dir / "project-zynqmp-default.yml"
    text = defaults.read_text(encoding="utf-8")
    rule = "        kernel:\n          required: [Image.txt]\n"
    assert rule in text
    defaults.write_text(text.replace(
        rule, rule + '          optional: ["missing-*"]\n'), encoding="utf-8")
    project = Project.load(project_dir / "socks.yml")
    assert project.builders["rootfs"].settings["consumes"]["kernel"] == {
        "required": ["Image.txt"], "optional": ["missing-*"]}
    report = run(project, Invocation("rootfs", "build", group=True))
    assert report.outcome == "completed", report.error
    with tarfile.open(newest_package(project_dir, "rootfs"), "r:gz") as tar:
        listing = tar.extractfile("packages.txt").read().decode()
    for name in ("tool-1.0.pkg", "lib-2.1.pkg"):
        digest = hashlib.sha256(
            (project_dir / "payloads" / name).read_bytes()).hexdigest()
        assert f"{name} sha256={digest}" in listing


def test_clean_removes_only_this_block(project, project_dir):
    build_all(project)
    report = run(project, Invocation("kernel", "clean"))
    assert report.outcome == "completed"
    assert not (project_dir / "temp" / "kernel").exists()
    assert (project_dir / "temp" / "vivado" / "output").exists()


def test_build_determinism_across_fresh_trees(tmp_path):
    digests = []
    for name in ("p1", "p2"):
        pdir = materialize(tmp_path / name)
        project = Project.load(pdir / "socks.yml")
        build_all(project)
        digests.append({
            block: bp.archive_digest(newest_package(pdir, block))
            for block in project.builders
        })
    assert digests[0] == digests[1]


def test_undeclared_extra_file_not_packaged(project_dir):
    config = project_dir / "socks.yml"
    text = config.read_text().replace(
        'steps:\n        - cat "$SOCKS_SRC_DIR/Makefile"',
        'steps:\n        - touch "$SOCKS_STAGE_DIR/undeclared.txt"\n'
        '        - cat "$SOCKS_SRC_DIR/Makefile"')
    assert "undeclared" in text
    config.write_text(text, encoding="utf-8")
    project = Project.load(config)
    run(project, Invocation("kernel", "build"))
    entries = package_entries(newest_package(project_dir, "kernel"))
    assert entries == {"Image.txt", "modules/mod1.txt"}


def test_missing_declared_output_named(project_dir):
    config = project_dir / "socks.yml"
    text = config.read_text().replace(
        "      outputs:\n        - Image.txt",
        "      outputs:\n        - ghost.bin\n        - Image.txt")
    config.write_text(text, encoding="utf-8")
    project = Project.load(config)
    report = run(project, Invocation("kernel", "build"))
    assert report.outcome == "failed"
    assert "ghost.bin" in str(report.error)


def test_unsupported_verb_lists_supported(project):
    with pytest.raises(BuilderError, match="supported:"):
        project.builders["vivado"].apply("create-patches")


def test_menucfg_explains_alternative(project):
    with pytest.raises(BuilderError, match="create-cfg-snippet"):
        project.builders["kernel"].apply("menucfg")


def test_start_container_needs_containerization(project):
    report = run(project, Invocation("vivado", "start-container"))
    assert report.outcome == "failed"
    assert "disabled" in str(report.error)


def test_import_builder_corrupt_archive(project_dir, tmp_path):
    bad = tmp_path / "bp_vivado_20260101T000000Z.tar.gz"
    bad.write_bytes(b"garbage")
    config = project_dir / "socks.yml"
    config.write_text(config.read_text() + f"""\
  vivado:
    source: import
    project:
      import_src: {bad.resolve().as_uri()}
""", encoding="utf-8")
    project = Project.load(config)
    report = run(project, Invocation("vivado", "build"))
    assert report.outcome == "failed"
    assert "corrupt" in str(report.error)
    assert not (project_dir / "temp" / "vivado" / "output").exists()


@pytest.mark.parametrize("broken", ["missing", "truncated"])
def test_failed_import_exits_2_naming_the_block(project_dir, tmp_path, capsys,
                                                broken):
    ref = "file:///nonexistent/bp_vivado_20260101T000000Z.tar.gz"
    if broken == "truncated":
        xsa = tmp_path / "system.xsa"
        xsa.write_bytes(random.Random(5).randbytes(256 << 10))
        pkg = bp.create_package("vivado", tmp_path / "ci", {"system.xsa": xsa},
                                stamp="20260101T000000Z")
        data = pkg.path.read_bytes()
        pkg.path.write_bytes(data[:len(data) // 2])  # valid head, cut tail
        ref = pkg.path.resolve().as_uri()
    config = project_dir / "socks.yml"
    config.write_text(config.read_text() + f"""\
  vivado:
    source: import
    project:
      import_src: {ref}
""", encoding="utf-8")
    assert cli.main(["-f", str(config), "vivado", "build"]) == 2
    assert "block 'vivado' cannot import its package" in capsys.readouterr().err
    assert not (project_dir / "temp" / "vivado" / "output").exists()


@pytest.mark.parametrize("source", ["build", "import"])
def test_disk_full_at_commit_exits_2_naming_block_and_path(
        project_dir, tmp_path, capsys, monkeypatch, source):
    """ENOSPC while atf writes build.json, or while an imported atf writes
    its published copy's digest sidecar: a located error, not a traceback."""
    config = project_dir / "socks.yml"
    out = project_dir / "temp" / "atf" / "output"
    full = named = out.parent / "build.json"
    if source == "import":
        (tmp_path / "bl31.elf").write_bytes(b"bl31 from CI\n")
        pkg = bp.create_package("atf", tmp_path / "ci",
                                {"bl31.elf": tmp_path / "bl31.elf"},
                                stamp="20260101T000000Z")
        config.write_text(config.read_text() + f"""\
  atf:
    source: import
    project:
      import_src: {pkg.path.resolve().as_uri()}
""", encoding="utf-8")
        named = out / pkg.path.name
        full = bp.digest_sidecar(named)
    real_replace = os.replace

    def disk_full(src, dst, **kwargs):
        if Path(dst) == full:
            raise OSError(errno.ENOSPC, "No space left on device")
        real_replace(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", disk_full)
    assert cli.main(["-f", str(config), "atf", "build"]) == 2
    err = capsys.readouterr().err
    assert "block 'atf' cannot" in err
    assert str(named) in err
    assert "No space left on device" in err
    assert not full.exists()


@pytest.mark.parametrize("block_id, staged",
                         [("image", "boot.img"), ("rootfs", "packages.txt")])
def test_disk_full_while_staging_exits_2_naming_the_block(
        project_dir, capsys, monkeypatch, block_id, staged):
    """ENOSPC while a builder writes a file of its own into ``stage/``: no
    site names that write, so the block's command fails as a whole."""
    real_write_text = Path.write_text

    def disk_full(path, *args, **kwargs):
        if path.name == staged:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", disk_full)
    assert cli.main(["-f", str(project_dir / "socks.yml"), "all",
                     "build"]) == 2
    err = capsys.readouterr().err
    assert f"block '{block_id}' cannot build" in err
    assert "No space left on device" in err
    assert not (project_dir / "temp" / block_id / "build.json").exists()


def kernel_image(project_dir: Path) -> str:
    with tarfile.open(newest_package(project_dir, "kernel"), "r:gz") as tar:
        return tar.extractfile("Image.txt").read().decode()


def test_a_torn_config_rewrite_is_never_built(project_dir, tmp_path,
                                               monkeypatch):
    """ENOSPC a third of the way into merging the snippets into the
    checkout's .config: that build fails, and the next one packages the
    .config of a from-scratch build."""
    config = project_dir / "socks.yml"
    assert cli.main(["-f", str(config), "all", "build"]) == 0
    checkout = project_dir / "temp" / "kernel" / "src"
    time.sleep(0.05)
    os.utime(checkout / "Makefile")
    real_write_text = Path.write_text

    def disk_full(path, data, *args, **kwargs):
        if path.parent == checkout:
            real_write_text(path, data[:len(data) // 3], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write_text(path, data, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(Path, "write_text", disk_full)
        assert cli.main(["-f", str(config), "all", "build"]) == 2
    assert sorted(p.name for p in checkout.glob(".*config*")) == [".config"]
    assert cli.main(["-f", str(config), "all", "build"]) == 0
    fresh = materialize(tmp_path / "fresh")
    assert cli.main(["-f", str(fresh / "socks.yml"), "all", "build"]) == 0
    assert kernel_image(project_dir) == kernel_image(fresh)
    assert "CONFIG_CORES=4\n" in kernel_image(project_dir)


def test_an_interrupted_import_copy_keeps_the_published_package(
        project_dir, tmp_path, monkeypatch):
    """Ctrl-C halfway through copying an imported package over the one
    published under the same name: ``output/`` keeps the old bytes and
    sidecar, and the next build publishes the new package."""
    config = project_dir / "socks.yml"
    payload = tmp_path / "bl31.elf"

    def ci_package(text: str) -> Path:
        payload.write_text(text * 4096, encoding="utf-8")
        return bp.create_package("atf", tmp_path / "ci",
                                 {"bl31.elf": payload},
                                 stamp="20260101T000000Z").path

    src = ci_package("first CI build\n")
    config.write_text(config.read_text() + f"""\
  atf:
    source: import
    project:
      import_src: {src}
""", encoding="utf-8")
    assert cli.main(["-f", str(config), "atf", "build"]) == 0
    output = project_dir / "temp" / "atf" / "output"
    before = {path.name: path.read_bytes() for path in output.iterdir()}
    assert sorted(before) == [f".{src.name}.digest", src.name]
    ci_package("second CI build\n")

    def interrupted_copy(source, dest, **kwargs):
        data = Path(source).read_bytes()
        Path(dest).write_bytes(data[:len(data) // 2])
        raise KeyboardInterrupt

    with monkeypatch.context() as patched:
        patched.setattr(shutil, "copyfile", interrupted_copy)
        assert cli.main(["-f", str(config), "atf", "build"]) == 130
    assert {path.name: path.read_bytes()
            for path in output.iterdir()} == before
    assert cli.main(["-f", str(config), "atf", "build"]) == 0
    assert (output / src.name).read_bytes() == src.read_bytes()


def test_in_tree_build_outputs_do_not_rebuild_the_block(project_dir):
    """A kernel step that writes into its checkout, as in-tree kernel and
    U-Boot builds do (objects, and a .version bumped at every link): the
    next two builds skip the kernel."""
    config = project_dir / "socks.yml"
    text = config.read_text(encoding="utf-8")
    step = ('        - mkdir -p "$SOCKS_SRC_DIR/out" && date +%s%N > '
            '"$SOCKS_SRC_DIR/out/vmlinux.o" && echo $(( $(cat '
            '"$SOCKS_SRC_DIR/.version" 2>/dev/null || echo 0) + 1 )) > '
            '"$SOCKS_SRC_DIR/.version"\n')
    assert text.count("      steps:\n") == 1
    config.write_text(text.replace("      steps:\n", "      steps:\n" + step),
                      encoding="utf-8")
    project = Project.load(config)
    build_all(project)
    checkout = project_dir / "temp" / "kernel" / "src"
    assert (checkout / ".version").read_text() == "1\n"
    assert (checkout / "out" / "vmlinux.o").is_file()
    for _ in range(2):
        report = build_all(Project.load(config))
        assert [entry.block_id for entry in report.entries
                if not entry.skipped] == []
    assert (checkout / ".version").read_text() == "1\n"


def test_import_source_without_src_fails_clearly(project):
    builder = project.builders["vivado"]
    builder.section["source"] = "import"
    with pytest.raises(BuilderError, match="import_src"):
        builder.run_import()


def test_rebuild_skip_after_successful_build(project, project_dir, recorder):
    build_all(project)
    recorder.reset()
    report = build_all(project)
    assert all(entry.skipped for entry in report.entries)
    assert recorder.count("build") == 0


def test_image_requires_filesystem_dependency(project_dir):
    config = project_dir / "project-zynqmp-default.yml"
    text = config.read_text().replace(
        "        rootfs: temp/rootfs/output/bp_rootfs_*.tar.gz\n", "")
    config.write_text(text, encoding="utf-8")
    from socks.errors import ValidationError
    with pytest.raises(ValidationError, match="rootfs or ramfs"):
        Project.load(project_dir / "socks.yml")


def test_deleting_a_source_file_rebuilds(project, project_dir):
    extra = project_dir / "src" / "atf" / "extra.txt"
    extra.write_text("release notes\n", encoding="utf-8")
    assert run(project, Invocation("atf", "build")).outcome == "completed"
    time.sleep(0.05)
    extra.unlink()
    report = run(project, Invocation("atf", "build"))
    assert report.entries[0].skipped is False
    assert report.entries[0].reasons == ["timestamps"]


def test_interrupted_package_write_is_never_trusted(project, project_dir,
                                                    monkeypatch):
    build_all(project)
    output = project_dir / "temp" / "atf" / "output"
    before = sorted(os.listdir(output))
    time.sleep(0.05)
    os.utime(project_dir / "src" / "atf" / "bl31.c")

    def failing_copy(src, dst, length=None, *args, **kwargs):
        dst.write(src.read(16))
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patched:
        patched.setattr(tarfile, "copyfileobj", failing_copy)
        failed = run(project, Invocation("atf", "build"))
    assert failed.outcome == "failed"
    assert isinstance(failed.error, BuilderError)
    assert isinstance(failed.error.__cause__, PackageError)
    assert failed.exit_code == 2
    assert sorted(os.listdir(output)) == before

    retry = run(project, Invocation("atf", "build"))
    assert retry.outcome == "completed"
    assert retry.entries[0].skipped is False


def test_stale_partial_file_is_removed_and_never_resolved(
        project, project_dir, monkeypatch):
    output = project_dir / "temp" / "vivado" / "output"
    output.mkdir(parents=True)
    # What a SIGKILL during packaging leaves behind, stamped newer than any
    # real package so a glob that matched it would pick it.
    stale = output / ".bp_vivado_20991231T235959Z.tar.gz.partial"
    stale.write_bytes(b"\x1f\x8b truncated")
    seen = []
    real_resolve = bp.resolve_dependency
    real_existing = Builder.existing_packages

    def resolve(*args, **kwargs):
        seen.append(real_resolve(*args, **kwargs))
        return seen[-1]

    def existing(self):
        found = real_existing(self)
        seen.extend(found)
        return found

    monkeypatch.setattr(bp, "resolve_dependency", resolve)
    monkeypatch.setattr(Builder, "existing_packages", existing)
    build_all(project)
    assert not stale.exists()
    assert newest_package(project_dir, "vivado") in seen
    assert all(bp.PACKAGE_NAME_RE.match(path.name) for path in seen)


def test_truncated_dependency_fails_before_any_step(project, project_dir,
                                                    recorder, tmp_path):
    assert run(project, Invocation("devicetree", "build", group=True)) \
        .outcome == "completed"
    xsa = tmp_path / "system.xsa"
    xsa.write_bytes(random.Random(3).randbytes(256 << 10))
    pkg = bp.create_package("vivado",
                            project_dir / "temp" / "vivado" / "output",
                            {"system.xsa": xsa}, stamp="20990101T000000Z")
    data = pkg.path.read_bytes()
    pkg.path.write_bytes(data[:len(data) // 2])  # valid head, truncated tail
    bp.open_package(pkg.path)  # the head alone looks fine

    recorder.reset()
    for _ in range(2):  # never skipped, not even on a second attempt
        report = run(project, Invocation("devicetree", "build"))
        assert report.outcome == "failed"
        assert isinstance(report.error, BuilderError)
        assert isinstance(report.error.__cause__, PackageError)
        assert report.error.exit_code == 2
        assert report.entries == []
    assert recorder.count("build") == 0


@pytest.fixture
def stalled_url(monkeypatch):
    """URL of a loopback server that accepts connections and never replies."""
    monkeypatch.setattr(bp, "FETCH_TIMEOUT_S", 0.3)
    with socket.create_server(("127.0.0.1", 0)) as server:
        port = server.getsockname()[1]
        yield f"http://127.0.0.1:{port}/bp_ci_20260101T000000Z.tar.gz"


@pytest.mark.parametrize("anchor, entry, inv", [
    ("        - src/atf\n", "      dependencies:\n        ci: {url}\n",
     Invocation("atf", "build")),
    ("        - payloads/lib-2.1.pkg\n", "        - {url}\n",
     Invocation("rootfs", "build", group=True)),
], ids=["dependency", "extra-package"])
def test_stalled_url_fails_with_located_error(project_dir, stalled_url,
                                              anchor, entry, inv):
    config = project_dir / "project-zynqmp-default.yml"
    text = config.read_text()
    assert text.count(anchor) == 1
    config.write_text(text.replace(anchor, anchor + entry.format(
        url=stalled_url)), encoding="utf-8")
    project = Project.load(project_dir / "socks.yml")
    reports = []
    worker = threading.Thread(target=lambda: reports.append(run(project, inv)),
                              daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive(), "the fetch hung"
    report = reports[0]
    assert (report.outcome, report.at_block) == ("failed", inv.target)
    assert isinstance(report.error.__cause__, PackageError)
    assert stalled_url in str(report.error.__cause__)
    assert report.exit_code == 2


@pytest.mark.parametrize("cut", ["closed", "stalled"])
def test_cut_download_keeps_the_previous_copy(tmp_path, monkeypatch, cut):
    monkeypatch.setattr(bp, "FETCH_TIMEOUT_S", 0.3)
    body = b"new archive bytes\n" * 1000
    release = threading.Event()
    cuts = [cut]

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if not cuts:
                self.wfile.write(body)
                return
            self.wfile.write(body[:len(body) // 3])
            self.wfile.flush()
            if cuts.pop() == "stalled":
                release.wait(timeout=10)
            self.close_connection = True

        def log_message(self, *args):
            pass

    dest_dir = tmp_path / "imports"
    dest_dir.mkdir()
    previous = dest_dir / "bp_ci_20260101T000000Z.tar.gz"
    previous.write_bytes(b"previous good copy")
    with http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler) as server:
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        url = f"http://127.0.0.1:{server.server_port}/{previous.name}"
        try:
            with pytest.raises(PackageError) as exc:
                bp._download(url, dest_dir, None)
            assert url in str(exc.value)
            assert previous.read_bytes() == b"previous good copy"
            assert os.listdir(dest_dir) == [previous.name]
            release.set()
            assert bp._download(url, dest_dir, None) == previous
        finally:
            release.set()
            server.shutdown()
            serving.join(timeout=10)
    assert previous.read_bytes() == body
    assert sorted(os.listdir(dest_dir)) == [f".{previous.name}.digest",
                                            previous.name]


def test_extra_package_url_is_fetched_with_credentials(project_dir):
    payload = b"payload bytes\n"
    token = "Basic " + base64.b64encode(b"ci:secret").decode()

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            if self.headers.get("Authorization") != token:
                self.send_error(401)
                return
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    config = project_dir / "project-zynqmp-default.yml"
    with http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler) as server:
        url = f"http://127.0.0.1:{server.server_port}/net-3.0.pkg"
        config.write_text(config.read_text().replace(
            "        - payloads/lib-2.1.pkg\n",
            f"        - payloads/lib-2.1.pkg\n        - {url}\n"),
            encoding="utf-8")
        with open(project_dir / "socks.yml", "a", encoding="utf-8") as fh:
            fh.write("\ncredentials:\n  127.0.0.1:\n"
                     "    username: ci\n    password: secret\n")
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        try:
            report = run(Project.load(project_dir / "socks.yml"),
                         Invocation("rootfs", "build", group=True))
        finally:
            server.shutdown()
            serving.join(timeout=10)
    assert report.outcome == "completed", report.error
    with tarfile.open(newest_package(project_dir, "rootfs"), "r:gz") as tar:
        listing = tar.extractfile("packages.txt").read().decode()
    assert f"net-3.0.pkg sha256={hashlib.sha256(payload).hexdigest()}" \
        in listing


def test_stepless_image_extracts_no_dependency(tmp_path):
    from socks.fixture import materialize
    manifests = {}
    for steps in (False, True):
        pdir = materialize(tmp_path / f"steps-{steps}")
        if steps:
            config = pdir / "project-zynqmp-default.yml"
            config.write_text(config.read_text() + (
                "      steps:\n"
                "        - test -f \"$SOCKS_DEPS_DIR/rootfs/rootfs.img\"\n"),
                encoding="utf-8")
        build_all(Project.load(pdir / "socks.yml"))
        deps = pdir / "temp" / "image" / "deps"
        assert deps.exists() is steps
        if steps:
            assert (deps / "rootfs" / "rootfs.img").is_file()
        with tarfile.open(newest_package(pdir, "image"), "r:gz") as tar:
            manifests[steps] = tar.extractfile("boot.img").read()
    assert manifests[False] == manifests[True]
