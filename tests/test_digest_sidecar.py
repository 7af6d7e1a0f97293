"""Digest sidecars and conditional fetch: a digest and a member listing are
reused only while the archive's stat identity proves its bytes unchanged,
and a URL is fetched again only when its source may have changed."""

from __future__ import annotations

import functools
import hashlib
import http.server
import json
import os
import random
import tarfile
import threading
import time
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import pytest

from socks import blockpackage as bp
from socks.fixture import materialize
from socks.graph import ALL, Invocation
from socks.orchestrator import run
from socks.project import Project


@pytest.fixture
def hashes(monkeypatch) -> list[Path]:
    """Every path ``archive_digest`` reads."""
    seen = []
    real = bp.archive_digest

    def counting(path):
        seen.append(Path(path))
        return real(path)

    monkeypatch.setattr(bp, "archive_digest", counting)
    return seen


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def racy(path: Path) -> bool:
    """True when the sidecar was written in the tick of the archive's last
    change, which a kernel with coarse timestamps allows; it is then not
    trusted and the next read hashes the archive once."""
    return os.stat(path).st_ctime_ns \
        >= os.stat(bp.digest_sidecar(path)).st_mtime_ns


def settle(path: Path) -> None:
    """Leave a trusted sidecar beside an archive in the work tree: a
    racy one is rewritten by a re-hash one tick later."""
    if racy(path):
        time.sleep(0.02)
        bp.file_digest(path)
    assert not racy(path)


def make_package(directory: Path, text: str) -> bp.BlockPackage:
    payload = directory.parent / "payload.txt"
    payload.parent.mkdir(parents=True, exist_ok=True)
    payload.write_text(text, encoding="utf-8")
    return bp.create_package("demo", directory, {"payload.txt": payload},
                             stamp="20260101T000000Z")


@pytest.fixture
def owned(tmp_path) -> bp.BlockPackage:
    """A package in a block's output directory, where socks keeps
    sidecars."""
    return make_package(tmp_path / "temp" / "demo" / "output", "first\n")


def test_create_package_records_the_digest_it_wrote(owned, hashes):
    sidecar = bp.digest_sidecar(owned.path)
    assert sidecar.name == f".{owned.path.name}.digest"
    assert json.loads(sidecar.read_text())["digest"] == owned.digest \
        == sha256(owned.path)
    expected = [owned.path] if racy(owned.path) else []
    assert bp.open_package(owned.path).digest == owned.digest
    assert hashes == expected


def test_rewrite_in_place_with_the_same_size_and_mtime_is_rehashed(
        owned, hashes):
    data = owned.path.read_bytes()
    st = os.stat(owned.path)
    with open(owned.path, "r+b") as fh:  # same inode, same size
        fh.seek(len(data) - 8)
        fh.write(bytes(b ^ 0xFF for b in data[-8:]))
    os.utime(owned.path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.stat(owned.path).st_mtime_ns == st.st_mtime_ns

    assert bp.file_digest(owned.path) == sha256(owned.path) != owned.digest
    assert hashes == [owned.path]
    # The re-hash rewrote the sidecar, so a later read trusts it.
    settle(owned.path)
    hashes.clear()
    assert bp.file_digest(owned.path) == sha256(owned.path)
    assert hashes == []


def test_racy_sidecar_is_not_trusted(owned, hashes):
    settle(owned.path)
    hashes.clear()
    sidecar = bp.digest_sidecar(owned.path)
    ctime = os.stat(owned.path).st_ctime_ns
    os.utime(sidecar, ns=(ctime, ctime))  # written in the archive's tick
    assert bp.file_digest(owned.path) == owned.digest
    assert hashes == [owned.path]


@pytest.mark.parametrize("text", [
    "", "{", "[]", "null", '"digest"', '{"digest": "x"}',
    '{"digest": 5, "identity": []}', '{"digest": "x", "identity": 7}',
    '{"digest": "x", "identity": [1, 2]}', "\udcff"])
def test_corrupt_sidecar_is_ignored(owned, hashes, text):
    bp.digest_sidecar(owned.path).write_text(text, encoding="utf-8",
                                             errors="surrogateescape")
    assert bp.open_package(owned.path).digest == owned.digest
    assert hashes == [owned.path]


def test_archives_outside_the_work_tree_get_no_sidecar(tmp_path, hashes):
    user = tmp_path / "ci" / "bp_demo_20260101T000000Z.tar.gz"
    user.parent.mkdir()
    pkg = make_package(tmp_path / "made", "first\n")
    user.write_bytes(pkg.path.read_bytes())
    assert bp.file_digest(user) == pkg.digest
    assert os.listdir(user.parent) == [user.name]
    assert hashes == [user]


def test_file_url_is_fetched_only_when_its_source_changed(tmp_path, hashes,
                                                         monkeypatch):
    source = make_package(tmp_path / "ci", "first\n").path
    imports = tmp_path / "temp" / "demo" / "imports"
    opened = []
    real = urllib.request.urlopen

    def urlopen(*args, **kwargs):
        opened.append(args[0].full_url)
        return real(*args, **kwargs)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    time.sleep(0.02)  # the source is older than the fetch's first tick
    copy = bp._download(source.as_uri(), imports, None)
    assert json.loads(bp.digest_sidecar(copy).read_bytes())["digest"] \
        == sha256(source)
    settle(copy)
    hashes.clear()
    inode = os.stat(copy).st_ino
    assert bp._download(source.as_uri(), imports, None) == copy
    assert len(opened) == 1 and os.stat(copy).st_ino == inode

    os.utime(source)  # touched: the source may have changed
    bp._download(source.as_uri(), imports, None)
    assert len(opened) == 2
    assert json.loads(bp.digest_sidecar(copy).read_bytes())["digest"] \
        == sha256(source)
    assert hashes == []  # the fetch hashed what it wrote


# -- HTTP ---------------------------------------------------------------------

@contextmanager
def serving(handler):
    with http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler) as server:
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.server_port}"
        finally:
            server.shutdown()
            thread.join(timeout=10)


def quiet(handler_class):
    class Quiet(handler_class):
        def log_message(self, *args):
            pass
    return Quiet


def unchanged(path: Path) -> tuple:
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def test_etag_server_answers_304_and_the_copy_keeps_its_inode(tmp_path):
    bodies = {"/a/": b"archive a\n" * 100, "/b/": b"archive b\n" * 100}
    requests = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            etag = self.headers.get("If-None-Match")
            requests.append((self.path[:3], etag))
            if etag == '"v1"':
                self.send_response(304)
                self.end_headers()
                return
            body = bodies[self.path[:3]]
            self.send_response(200)
            self.send_header("ETag", '"v1"')  # the same tag on both paths
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    dest_dir = tmp_path / "temp" / "ci" / "imports"
    name = "bp_ci_20260101T000000Z.tar.gz"
    with serving(quiet(Handler)) as base:
        copy = bp._download(f"{base}/a/{name}", dest_dir, None)
        settle(copy)
        sidecar = bp.digest_sidecar(copy)
        before = (unchanged(copy), sidecar.read_bytes(), unchanged(sidecar))
        assert bp._download(f"{base}/a/{name}", dest_dir, None) == copy
        after = (unchanged(copy), sidecar.read_bytes(), unchanged(sidecar))
        # Another URL with the same file name is asked unconditionally.
        bp._download(f"{base}/b/{name}", dest_dir, None)
    assert requests == [("/a/", None), ("/a/", '"v1"'), ("/b/", None)]
    assert after == before
    assert copy.read_bytes() == bodies["/b/"]
    assert json.loads(sidecar.read_bytes())["digest"] \
        == hashlib.sha256(bodies["/b/"]).hexdigest()


def test_simple_http_server_revalidates_by_last_modified(tmp_path):
    served = tmp_path / "served"
    served.mkdir()
    archive = served / "bp_ci_20260101T000000Z.tar.gz"
    archive.write_bytes(b"build 1\n")
    hour_ago = time.time() - 3600
    os.utime(archive, (hour_ago, hour_ago))
    statuses = []

    class Handler(http.server.SimpleHTTPRequestHandler):
        def log_request(self, code="-", size="-"):
            statuses.append((int(code), self.headers.get("If-Modified-Since")
                             is not None))

    handler = functools.partial(quiet(Handler), directory=str(served))
    dest_dir = tmp_path / "temp" / "ci" / "imports"
    with serving(handler) as base:
        url = f"{base}/{archive.name}"
        copy = bp._download(url, dest_dir, None)
        settle(copy)
        inode = os.stat(copy).st_ino
        bp._download(url, dest_dir, None)
        assert os.stat(copy).st_ino == inode
        # CI republishes: newer Last-Modified, new bytes.
        archive.write_bytes(b"build 2\n")
        half_hour_ago = time.time() - 1800
        os.utime(archive, (half_hour_ago, half_hour_ago))
        bp._download(url, dest_dir, None)
        assert copy.read_bytes() == b"build 2\n"
        settle(copy)
        # Modified within the second of the response: not kept, so the
        # next fetch is unconditional.
        archive.write_bytes(b"build 3\n")
        bp._download(url, dest_dir, None)
        bp._download(url, dest_dir, None)
    assert statuses == [(200, False), (304, True), (200, True), (200, True),
                        (200, False)]
    assert copy.read_bytes() == b"build 3\n"
    assert bp.file_digest(copy) == hashlib.sha256(b"build 3\n").hexdigest()


def test_server_without_validators_is_fetched_every_time(tmp_path):
    body = b"archive bytes\n"
    requests = []

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            requests.append(sorted(k for k in self.headers
                                   if k.lower().startswith("if-")))
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    dest_dir = tmp_path / "temp" / "ci" / "imports"
    with serving(quiet(Handler)) as base:
        url = f"{base}/bp_ci_20260101T000000Z.tar.gz"
        for _ in range(3):
            copy = bp._download(url, dest_dir, None)
    assert requests == [[], [], []]
    assert json.loads(bp.digest_sidecar(copy).read_bytes())["validator"] \
        is None


@pytest.fixture
def listed(monkeypatch) -> list[Path]:
    """Every archive that ``tarfile.open`` reads."""
    seen = []
    real = tarfile.open

    def counting(name=None, *args, **kwargs):
        if name is not None:
            seen.append(Path(name))
        return real(name, *args, **kwargs)

    monkeypatch.setattr(tarfile, "open", counting)
    return seen


def sidecar_record(path: Path) -> dict:
    return json.loads(bp.digest_sidecar(path).read_bytes())


def test_create_package_records_the_names_it_packed(tmp_path, listed):
    stage = tmp_path / "stage"
    stage.mkdir()
    files = {}
    for name in ("z.bin", "boot/Image", "a.txt"):
        files[name] = stage / name.replace("/", "_")
        files[name].write_text(name, encoding="utf-8")
    pkg = bp.create_package("demo", tmp_path / "temp" / "demo" / "output",
                            files, stamp="20260101T000000Z")
    assert sidecar_record(pkg.path)["entries"] \
        == ["a.txt", "boot/Image", "z.bin"]
    settle(pkg.path)
    listed.clear()
    opened = bp.open_package(pkg.path)
    assert opened.entries == ("a.txt", "boot/Image", "z.bin")
    assert listed == []


def test_sidecar_without_a_listing_gains_it_on_first_use(owned, hashes,
                                                         listed):
    """A sidecar written before sidecars kept listings is trusted for its
    digest; the first listing read from the archive is written into it."""
    settle(owned.path)
    sidecar = bp.digest_sidecar(owned.path)
    record = sidecar_record(owned.path)
    del record["entries"]
    written = sidecar.stat().st_mtime_ns
    sidecar.write_text(json.dumps(record), encoding="utf-8")
    os.utime(sidecar, ns=(written, written))
    hashes.clear()
    listed.clear()

    first = bp.open_package(owned.path)
    assert first.digest == owned.digest
    assert first.entries == ("payload.txt",)
    assert hashes == []
    assert listed == [owned.path, owned.path]  # the head, then the listing
    assert sidecar_record(owned.path)["entries"] == ["payload.txt"]

    settle(owned.path)
    hashes.clear()
    listed.clear()
    assert bp.open_package(owned.path).entries == ("payload.txt",)
    assert hashes == listed == []


@pytest.mark.parametrize("entries", [
    "payload.txt", 7, {"payload.txt": 1}, ["payload.txt", 3], [None]])
def test_malformed_listing_is_ignored(owned, listed, entries):
    settle(owned.path)
    sidecar = bp.digest_sidecar(owned.path)
    record = sidecar_record(owned.path)
    record["entries"] = entries
    written = sidecar.stat().st_mtime_ns
    sidecar.write_text(json.dumps(record), encoding="utf-8")
    os.utime(sidecar, ns=(written, written))
    listed.clear()
    opened = bp.open_package(owned.path)
    assert opened.digest == owned.digest
    assert opened.entries == ("payload.txt",)
    assert listed == [owned.path, owned.path]


def test_rewrite_in_place_is_listed_from_its_bytes(tmp_path, listed):
    """Other members at the same size, written into the same inode with the
    mtime put back: the stale listing in the sidecar is not used."""
    data = random.Random(9).randbytes(20_000)  # stored: the size is fixed
    packages = []
    for name in ("old.bin", "new.bin"):
        payload = tmp_path / f"{name}.payload"
        payload.write_bytes(data)
        packages.append(bp.create_package(
            "demo", tmp_path / name / "temp" / "demo" / "output",
            {name: payload}, stamp="20260101T000000Z"))
    old, new = packages
    settle(old.path)
    replacement = new.path.read_bytes()
    assert len(replacement) == old.path.stat().st_size
    st = os.stat(old.path)
    with open(old.path, "r+b") as fh:  # same inode, same size
        fh.write(replacement)
    os.utime(old.path, ns=(st.st_atime_ns, st.st_mtime_ns))
    listed.clear()

    opened = bp.open_package(old.path)
    assert opened.digest == new.digest
    assert opened.entries == ("new.bin",)
    assert listed == [old.path, old.path]
    assert sidecar_record(old.path)["digest"] == new.digest


def test_image_rebuild_after_a_touch_lists_no_dependency_archive(
        tmp_path, monkeypatch, listed):
    """The image has no steps, so it needs only its dependencies' digests
    and listings, which their sidecars hold.  An archive is opened only
    when its sidecar was racy (written in the archive's timestamp tick)."""

    def build_all(project_dir: Path):
        report = run(Project.load(project_dir / "socks.yml"),
                     Invocation(ALL, "build"))
        assert report.outcome == "completed", report.error
        return {e.block_id for e in report.entries if not e.skipped}

    def boot_img(project_dir: Path) -> bytes:
        package = max((project_dir / "temp" / "image" / "output")
                      .glob("*.tar.gz"))
        with tarfile.open(package, "r:gz") as tar:
            return tar.extractfile("boot.img").read()

    def edit(project_dir: Path) -> None:
        with open(project_dir / "src" / "atf" / "bl31.c", "a",
                  encoding="utf-8") as fh:
            fh.write("/* touched */\n")

    project_dir = materialize(tmp_path / "proj")
    build_all(project_dir)
    assert build_all(project_dir) == set()  # settles racy sidecars
    edit(project_dir)

    opens, racy_opens = [], []
    real_open = bp.open_package

    def open_package(path):
        opens.append(Path(path))
        if racy(Path(path)):
            racy_opens.append(Path(path))
        return real_open(path)

    monkeypatch.setattr(bp, "open_package", open_package)
    listed.clear()
    assert build_all(project_dir) == {"atf", "image"}
    assert len(set(opens)) == 8  # the image's dependencies; atf has none
    assert set(listed) <= set(racy_opens)
    monkeypatch.undo()

    scratch = materialize(tmp_path / "scratch")
    edit(scratch)
    build_all(scratch)
    assert boot_img(project_dir) == boot_img(scratch)


def test_archive_in_the_project_folder_is_hashed_once_per_run(tmp_path,
                                                              hashes):
    """An archive outside ``temp/`` gets no sidecar, so only the per-run
    digest memo keeps two consumers from hashing it twice."""
    project_dir = materialize(tmp_path / "proj")
    prebuilt = make_package(project_dir / "prebuilt", "prebuilt\n").path
    bp.digest_sidecar(prebuilt).unlink()  # the user put it there
    config = project_dir / "project-zynqmp-default.yml"
    text = config.read_text(encoding="utf-8")
    for block_id in ("atf", "uboot"):
        anchor = f"        - src/{block_id}\n"
        text = text.replace(anchor, anchor + (
            "      dependencies:\n"
            "        prebuilt: prebuilt/bp_demo_*.tar.gz\n"))
    config.write_text(text, encoding="utf-8")
    report = run(Project.load(project_dir / "socks.yml"),
                 Invocation(ALL, "build"))
    assert report.outcome == "completed", report.error
    assert hashes.count(prebuilt) == 1
    assert not bp.digest_sidecar(prebuilt).exists()
