"""Block packages: canonical archives, naming, content rules, import."""

from __future__ import annotations

import errno
import gzip
import hashlib
import io
import os
import random
import re
import signal
import struct
import tarfile
import threading
import time
import tracemalloc
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socks import blockpackage as bp
from socks.errors import ContentRuleViolation, PackageError

# Digest of the canonical archive for the fileset below, computed by the
# independent oracle in test_canonical_digest_matches_independent_oracle.
FROZEN_DIGEST = "ac9e9cfc20041546fdcd57f5764bdab2113c0c193709ab4e058be22bbaf4f135"
FIXED_STAMP = "20260101T000000Z"
MiB = 1 << 20


def stage_files(tmp_path: Path) -> dict[str, Path]:
    stage = tmp_path / "stage"
    stage.mkdir(exist_ok=True)
    a = stage / "a.txt"
    c = stage / "c.txt"
    a.write_bytes(b"alpha\n")
    c.write_bytes(b"beta\n")
    os.chmod(a, 0o644)
    os.chmod(c, 0o644)
    return {"a.txt": a, "b/c.txt": c}


def oracle_archive_bytes(files: dict[str, bytes]) -> bytes:
    """Independent canonical-archive construction: sorted members, zeroed
    metadata, gzip without timestamp."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for name in sorted(files):
            info = tarfile.TarInfo(name=name)
            info.size = len(files[name])
            info.mtime = 0
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            info.mode = 0o644
            tar.addfile(info, io.BytesIO(files[name]))
    out = io.BytesIO()
    with gzip.GzipFile(fileobj=out, mode="wb", mtime=0) as gz:
        gz.write(buf.getvalue())
    return out.getvalue()


def test_round_trip(tmp_path):
    pkg = bp.create_package("demo", tmp_path / "out", stage_files(tmp_path),
                            stamp=FIXED_STAMP)
    assert pkg.path.name == f"bp_demo_{FIXED_STAMP}.tar.gz"
    assert bp.PACKAGE_NAME_RE.match(pkg.path.name)
    opened = bp.open_package(pkg.path)
    assert opened.entries == ("a.txt", "b/c.txt")
    assert opened.digest == pkg.digest


def test_canonical_digest_matches_independent_oracle(tmp_path):
    pkg = bp.create_package("demo", tmp_path / "out", stage_files(tmp_path),
                            stamp=FIXED_STAMP)
    expected = hashlib.sha256(oracle_archive_bytes(
        {"a.txt": b"alpha\n", "b/c.txt": b"beta\n"})).hexdigest()
    assert pkg.digest == expected
    assert pkg.digest == FROZEN_DIGEST


def test_digest_independent_of_staging_order_and_mtime(tmp_path):
    files = stage_files(tmp_path)
    first = bp.create_package("demo", tmp_path / "o1", files, stamp=FIXED_STAMP)
    for path in files.values():
        os.utime(path, (1, 1))
    reordered = dict(reversed(list(files.items())))
    second = bp.create_package("demo", tmp_path / "o2", reordered,
                               stamp="20270101T000000Z")
    assert first.digest == second.digest


def test_empty_fileset_rejected(tmp_path):
    with pytest.raises(PackageError, match="at least one file"):
        bp.create_package("demo", tmp_path / "out", {})


def test_member_path_escapes_rejected(tmp_path):
    files = stage_files(tmp_path)
    src = next(iter(files.values()))
    with pytest.raises(PackageError, match="absolute"):
        bp.create_package("demo", tmp_path / "out", {"/etc/passwd": src})
    with pytest.raises(PackageError, match="escape"):
        bp.create_package("demo", tmp_path / "out", {"../up.txt": src})


def test_open_corrupt_package(tmp_path):
    bad = tmp_path / "bp_demo_20260101T000000Z.tar.gz"
    bad.write_bytes(b"this is not a tarball")
    with pytest.raises(PackageError, match="corrupt"):
        bp.open_package(bad)


def test_resolve_newest_stamp_wins(tmp_path):
    out = tmp_path / "temp" / "demo" / "output"
    files = stage_files(tmp_path)
    bp.create_package("demo", out, files, stamp="20250101T000000Z")
    newest = bp.create_package("demo", out, files, stamp="20260615T120000Z")
    ref = "temp/demo/output/bp_demo_*.tar.gz"
    assert bp.resolve_dependency(ref, tmp_path) == newest.path


def test_resolve_missing_glob_message(tmp_path):
    ref = "temp/demo/output/bp_demo_*.tar.gz"
    with pytest.raises(PackageError, match="build the providing block"):
        bp.resolve_dependency(ref, tmp_path)


def test_resolve_file_url(tmp_path):
    pkg = bp.create_package("demo", tmp_path / "out", stage_files(tmp_path),
                            stamp=FIXED_STAMP)
    ref = pkg.path.resolve().as_uri()
    assert bp.is_url(ref)
    fetched = bp.resolve_dependency(ref, tmp_path, download_dir=tmp_path / "dl")
    assert fetched.read_bytes() == pkg.path.read_bytes()


def test_content_rules_required(tmp_path):
    pkg = bp.create_package("demo", tmp_path / "out", stage_files(tmp_path),
                            stamp=FIXED_STAMP)
    ok = ["*.txt", "b/*"]
    assert bp.validate_contents(pkg, ok) == []
    bp.require_contents(pkg, "demo", ok)

    bad = ["*.xsa"]
    assert bp.validate_contents(pkg, bad) == ["*.xsa"]
    with pytest.raises(ContentRuleViolation) as exc:
        bp.require_contents(pkg, "demo", bad)
    assert exc.value.violations == ["*.xsa"]
    assert "demo" in str(exc.value)


def test_validation_is_monotone(tmp_path):
    # Fewer required globs can never fail harder.
    pkg = bp.create_package("demo", tmp_path / "out", stage_files(tmp_path),
                            stamp=FIXED_STAMP)
    globs = ("a.txt", "*.txt", "b/c.txt", "*.xsa", "nope")
    for size in range(len(globs) + 1):
        subset = globs[:size]
        violations = bp.validate_contents(pkg, list(subset))
        assert set(violations) <= {"*.xsa", "nope"}
        assert violations == [g for g in subset if g in ("*.xsa", "nope")]


def test_basename_matching(tmp_path):
    pkg = bp.create_package("demo", tmp_path / "out", stage_files(tmp_path),
                            stamp=FIXED_STAMP)
    assert bp.validate_contents(pkg, ["c.txt"]) == []


def test_import_extracts_once_per_digest(tmp_path):
    pkg = bp.create_package("demo", tmp_path / "out", stage_files(tmp_path),
                            stamp=FIXED_STAMP)
    dest = tmp_path / "deps"
    first = bp.import_package(pkg, dest)
    assert first["imported"] is True
    assert (dest / "b" / "c.txt").read_bytes() == b"beta\n"
    assert (tmp_path / ".deps.digest").read_text() == pkg.digest
    (dest / "a.txt").unlink()
    second = bp.import_package(pkg, dest)
    assert second["imported"] is False
    assert not (dest / "a.txt").exists()  # skip leaves the filesystem alone


def test_import_interrupted_at_the_swap_extracts_again(tmp_path,
                                                       monkeypatch):
    files = stage_files(tmp_path)
    old = bp.create_package("demo", tmp_path / "out", files,
                            stamp="20260101T000000Z")
    dest = tmp_path / "deps" / "demo"
    bp.import_package(old, dest)
    files["a.txt"].write_bytes(b"alpha 2\n")
    new = bp.create_package("demo", tmp_path / "out", files,
                            stamp="20260101T000001Z")

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        bp.import_package(new, dest)
    monkeypatch.undo()
    # The marker went before the old tree: neither digest is trusted.
    assert not (tmp_path / "deps" / ".demo.digest").exists()
    assert bp.import_package(old, dest)["imported"] is True
    assert (dest / "a.txt").read_bytes() == b"alpha\n"


def add_bytes(tar: tarfile.TarFile, name: str, data: bytes) -> None:
    info = tarfile.TarInfo(name)
    info.size = len(data)
    tar.addfile(info, io.BytesIO(data))


def test_import_rejects_links_and_escapes(tmp_path):
    good = bp.create_package("demo", tmp_path / "out", stage_files(tmp_path),
                             stamp=FIXED_STAMP)
    dest = tmp_path / "deps" / "demo"
    bp.import_package(good, dest)

    # Each bad member follows a good one that extraction reaches first.  The
    # messages are matched in full: the temporary path holds the test name.
    # The link stays inside the destination, which tarfile's data filter
    # allows: block packages carry no links at all.
    evil = tmp_path / "bp_demo_20260101T000000Z.tar.gz"
    with tarfile.open(evil, "w:gz") as tar:
        add_bytes(tar, "a.txt", b"replaced")
        info = tarfile.TarInfo("link")
        info.type = tarfile.SYMTYPE
        info.linkname = "a.txt"
        tar.addfile(info)
    pkg = bp.open_package(evil)
    with pytest.raises(PackageError, match="links not allowed"):
        bp.import_package(pkg, dest)

    evil2 = tmp_path / "bp_demo_20260101T000001Z.tar.gz"
    with tarfile.open(evil2, "w:gz") as tar:
        add_bytes(tar, "a.txt", b"replaced")
        add_bytes(tar, "../up.txt", b"x")
    pkg2 = bp.open_package(evil2)
    with pytest.raises(PackageError, match="path escape"):
        bp.import_package(pkg2, dest)

    # A rejected archive leaves the previous extraction as it was.
    assert (dest / "a.txt").read_bytes() == b"alpha\n"
    assert (dest / "b" / "c.txt").read_bytes() == b"beta\n"
    assert sorted(os.listdir(tmp_path / "deps")) == [".demo.digest", "demo"]
    assert (tmp_path / "deps" / ".demo.digest").read_text() == good.digest


def test_executable_mode_preserved(tmp_path):
    stage = tmp_path / "stage"
    stage.mkdir()
    script = stage / "run.sh"
    script.write_bytes(b"#!/bin/sh\n")
    os.chmod(script, 0o755)
    pkg = bp.create_package("demo", tmp_path / "out", {"run.sh": script},
                            stamp=FIXED_STAMP)
    with tarfile.open(pkg.path, "r:gz") as tar:
        member = tar.getmember("run.sh")
        assert member.mode == 0o755
        assert member.mtime == 0
        assert member.uid == 0


def in_memory_tar_bytes(files: dict[str, Path]) -> bytes:
    """Reference: the tar stream of the earlier create_package body, which
    built the whole tar in memory before compressing it."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for name, src in sorted(files.items()):
            info = tarfile.TarInfo(name=name)
            data = src.read_bytes()
            info.size = len(data)
            info.mtime = 0
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            info.mode = 0o755 if src.stat().st_mode & 0o111 else 0o644
            tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


# The package format's chunk size: changing it changes the digest of every
# package larger than one chunk.
CHUNK = 64 << 10


def chunked_gzip_reference(data: bytes, store: bool = True) -> bytes:
    """Sequential reference of the chunked encoding: every 64 KiB chunk is
    raw deflate primed with the 32 KiB of input before it, ended by a sync
    flush (the last one finished), between a gzip header without name or
    time and a CRC32/size trailer.

    A chunk is deflated at level 9, or with ``store`` it is stored (level 0)
    when a level-1 probe of its first 4 KiB and one of its last 4 KiB each
    save less than 1/32 of them (``zlib.compress`` adds 6 bytes of
    framing).  A stored chunk is fed to
    zlib in the writer's 16 KiB slices: zlib ends stored blocks where the
    slices let it, and level 9 comes out the same however it is fed."""
    header = b"\x1f\x8b\x08\x00" + bytes(4) + b"\x02\xff"
    body = []
    starts = range(0, len(data), CHUNK)
    for start in starts:
        chunk = data[start:start + CHUNK]
        stored = store and all(
            32 * (len(zlib.compress(end, 1)) - 6) >= 31 * len(end)
            for end in (chunk[:4 << 10], chunk[-(4 << 10):]))
        level = 0 if stored else 9
        if start:
            comp = zlib.compressobj(level, zlib.DEFLATED, -15, 8, 0,
                                    zdict=data[start - (32 << 10):start])
        else:
            comp = zlib.compressobj(level, zlib.DEFLATED, -15, 8, 0)
        feed = 16 << 10 if stored else CHUNK
        body += [comp.compress(chunk[i:i + feed])
                 for i in range(0, len(chunk), feed)]
        last = start == starts[-1]
        body.append(comp.flush(zlib.Z_FINISH if last else zlib.Z_SYNC_FLUSH))
    trailer = struct.pack("<II", zlib.crc32(data), len(data) & 0xFFFFFFFF)
    return header + b"".join(body) + trailer


def member_bytes(size: int, seed: int, layout: str) -> bytes:
    """``size`` bytes laid out as random, zeros, padding or text: a deflate
    probe finds random bytes incompressible, and the others compressible.

    Padding is runs of 0x00 and 0xFF longer than a chunk, each followed by
    one other byte, as in the free space of a file-system image and the
    padding of a flash image.  The seed also sets the length of the first
    run, ``CHUNK + seed % CHUNK``, so an example can end a chunk of the
    archive on the byte after it."""
    rng = random.Random(seed)
    half = size // 2
    if layout == "random":
        return rng.randbytes(size)
    if layout == "random+zeros":
        return rng.randbytes(half) + bytes(size - half)
    if layout == "zeros+random":
        return bytes(size - half) + rng.randbytes(half)
    if layout == "padding":
        runs = bytearray()
        fill, length = 0x00, CHUNK + seed % CHUNK
        while len(runs) < size:
            runs += bytes((fill,)) * length + bytes((rng.randrange(1, 255),))
            fill, length = fill ^ 0xFF, rng.randrange(CHUNK + 1, 3 * CHUNK)
        return bytes(runs[:size])
    return bytes(rng.choices(b"abcdefgh \n", k=size))  # text


member_specs = st.dictionaries(
    keys=st.sampled_from(["a.bin", "b/c.txt", "boot/Image", "rootfs.img",
                          "x"]),
    values=st.tuples(st.integers(0, 300_000),      # size
                     st.integers(0, 2 ** 32),       # content seed
                     st.booleans(),                 # executable
                     st.sampled_from(["random", "random+zeros",
                                      "zeros+random", "padding", "text"])),
    min_size=1, max_size=4)


# Tar streams are padded to 10 KiB records, so five chunks is the shortest
# one that ends on a chunk boundary (512-byte header, 326144 data bytes,
# 1 KiB end marker): its last chunk is full and must still be the one
# finished.  The second example adds one record beyond it.  Then: an
# archive of six random chunks; zeros, then random chunks; a second chunk
# whose first 4 KiB are random (the member's data starts after the
# 512-byte header) and whose rest is zeros, which is deflated for its
# tail; and a stream of 13 records, whose last chunk is 2 KiB.  Then
# padding: a first run that ends at the last byte but one of the second
# chunk, so the third chunk is all 0xFF behind a window that ends with
# another byte; and the same run one byte shorter, so the third chunk is
# all 0xFF behind a window that ends with a single 0xFF.
@example(specs={"rootfs.img": (5 * CHUNK - 1536, 0, False, "random+zeros")})
@example(specs={"rootfs.img": (5 * CHUNK - 1024, 0, False, "random+zeros")})
@example(specs={"rootfs.img": (5 * CHUNK, 1, False, "random")})
@example(specs={"rootfs.img": (5 * CHUNK, 2, False, "zeros+random")})
@example(specs={"rootfs.img": (2 * (CHUNK - 512 + (4 << 10)), 3, False,
                               "random+zeros")})
@example(specs={"rootfs.img": (13 * 10240 - 1536, 4, False, "random")})
@example(specs={"rootfs.img": (5 * CHUNK, CHUNK - 514, False, "padding")})
@example(specs={"rootfs.img": (5 * CHUNK, CHUNK - 513, False, "padding")})
@settings(max_examples=25, deadline=None)
@given(specs=member_specs)
def test_streamed_archive_is_byte_identical_to_in_memory(tmp_path_factory,
                                                         specs):
    root = tmp_path_factory.mktemp("pkg")
    files = {}
    for index, (name, (size, seed, executable, layout)) in enumerate(
            specs.items()):
        src = root / f"src{index}"
        src.write_bytes(member_bytes(size, seed, layout))
        os.chmod(src, 0o755 if executable else 0o644)
        files[name] = src
    # The package holds the old writer's tar bytes in the chunked encoding,
    # with the same bytes for one and for four threads.
    single = bp.create_package("demo", root / "out1", files,
                               stamp=FIXED_STAMP, workers=1)
    pooled = bp.create_package("demo", root / "out4", files,
                               stamp=FIXED_STAMP, workers=4)
    archive = single.path.read_bytes()
    tar = in_memory_tar_bytes(files)
    assert gzip.decompress(archive) == tar
    assert archive == chunked_gzip_reference(tar)
    assert pooled.path.read_bytes() == archive
    assert single.digest == pooled.digest == \
        hashlib.sha256(archive).hexdigest()
    assert single.entries == pooled.entries == tuple(sorted(files))


def test_compressible_package_keeps_the_level_9_encoding(tmp_path):
    """A package whose every chunk compresses has the bytes it had before
    incompressible chunks were stored."""
    stage = tmp_path / "stage"
    stage.mkdir()
    files = stage_files(tmp_path)
    for index, size in enumerate([6 * CHUNK, 3 * CHUNK + 123]):
        files[f"f{index}"] = stage / f"f{index}"
        files[f"f{index}"].write_bytes(member_bytes(size, index, "text"))
    tar = in_memory_tar_bytes(files)
    plain = chunked_gzip_reference(tar, store=False)
    assert chunked_gzip_reference(tar) == plain
    for workers in (1, 4):
        pkg = bp.create_package("demo", tmp_path / f"out{workers}", files,
                                stamp=FIXED_STAMP, workers=workers)
        assert pkg.path.read_bytes() == plain


def test_a_chunk_whose_head_is_random_is_deflated_for_its_tail():
    """60 KiB of zeros behind 4 KiB of random bytes are deflated, and so
    are they in front of them: either end of a chunk that compresses
    decides.  Only a chunk whose two ends are random is stored whole."""
    rng = random.Random(5)
    chunk = rng.randbytes(4 << 10) + bytes(CHUNK - (4 << 10))
    swapped = chunk[4 << 10:] + chunk[:4 << 10]
    for data in (chunk, swapped):
        encoded = bp._deflate(data, None, True)
        assert len(encoded) < 5 << 10
        assert zlib.decompress(encoded, -15) == data
    ends = rng.randbytes(4 << 10) + bytes(CHUNK - (8 << 10)) \
        + rng.randbytes(4 << 10)
    encoded = bp._deflate(ends, None, True)
    assert len(encoded) > CHUNK
    assert zlib.decompress(encoded, -15) == ends


def reference_chunk(chunk: bytes, window: bytes | None, last: bool) -> bytes:
    """One chunk of ``chunked_gzip_reference``: stored when the probe of
    both its ends fails to save 1/32, else level 9; both primed with the
    whole window."""
    stored = all(32 * (len(zlib.compress(end, 1)) - 6) >= 31 * len(end)
                 for end in (chunk[:4 << 10], chunk[-(4 << 10):]))
    level = 0 if stored else 9
    comp = zlib.compressobj(level, zlib.DEFLATED, -15, 8, 0) \
        if window is None \
        else zlib.compressobj(level, zlib.DEFLATED, -15, 8, 0, zdict=window)
    feed = 16 << 10 if stored else CHUNK
    body = [comp.compress(chunk[i:i + feed])
            for i in range(0, len(chunk), feed)]
    body.append(comp.flush(zlib.Z_FINISH if last else zlib.Z_SYNC_FLUSH))
    return b"".join(body)


def test_run_chunks_are_the_reference_encoding():
    """A chunk of one repeated byte is encoded as level 9 with the whole
    window, whatever the window: none, one ending with the byte, random
    bytes, or a run of the byte ended by another byte.  Only chunks of a
    few bytes, which the probe stores, are not level 9."""
    rng = random.Random(3)
    runs = 0
    for byte in (0x00, 0xFF, 0x41):
        fill = bytes((byte,))
        windows = {"none": None,
                   "ends": rng.randbytes((32 << 10) - 1) + fill,
                   "random": rng.randbytes(32 << 10),
                   "run, then another byte":
                       fill * ((32 << 10) - 1) + bytes((byte ^ 1,))}
        for size in (1, 2, 3, 258, 259, 16385, 65536):
            for kind, window in windows.items():
                for last in (False, True):
                    before = bp._run.cache_info()
                    encoded = bp._deflate(fill * size, window, last)
                    after = bp._run.cache_info()
                    assert encoded == reference_chunk(
                        fill * size, window, last), (byte, size, kind, last)
                    runs += after.hits + after.misses \
                        - before.hits - before.misses
    # The run shortcut served every chunk the probe deflates behind a
    # window that ends with its byte.
    assert runs == 3 * 4 * 2


def test_stored_chunks_are_the_reference_encoding():
    """A chunk the probe stores, with or without a window, has the bytes
    of the stored blocks primed with the whole window."""
    rng = random.Random(4)
    for size in (1, 4 << 10, (16 << 10) - 1, (16 << 10) + 1, 40000, CHUNK):
        chunk = rng.randbytes(size)
        for window in (None, rng.randbytes(32 << 10), bytes(32 << 10)):
            for last in (False, True):
                assert bp._deflate(chunk, window, last) == \
                    reference_chunk(chunk, window, last), (size, last)


def test_packaging_memory_does_not_grow_with_artifact_size(tmp_path):
    """64 MiB of which 1 MiB is random (stored chunks), 1 MiB is text
    (level-9 chunks) and the rest is sparse zeros (run chunks)."""
    artifact = tmp_path / "rootfs.img"
    rng = random.Random(9)
    with open(artifact, "wb") as fh:
        fh.truncate(64 * MiB)
        fh.seek(8 * MiB)
        fh.write(rng.randbytes(MiB))
        fh.seek(40 * MiB)
        fh.write(bytes(rng.choices(b"abcdefgh \n", k=MiB)))
    tracemalloc.start()
    try:
        bp.create_package("demo", tmp_path / "out", {"rootfs.img": artifact},
                          stamp=FIXED_STAMP, workers=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * MiB, f"peak {peak / MiB:.1f} MiB"


def test_reading_memory_does_not_grow_with_member_size(tmp_path):
    """Listing and extracting a package of 64 MiB of zeros: each read
    inflates at most the bytes that tarfile asks for."""
    artifact = tmp_path / "rootfs.img"
    with open(artifact, "wb") as fh:
        fh.truncate(64 * MiB)
    written = bp.create_package("demo", tmp_path / "out",
                                {"rootfs.img": artifact}, stamp=FIXED_STAMP)
    pkg = bp.BlockPackage(written.path, written.digest)
    tracemalloc.start()
    try:
        assert pkg.entries == ("rootfs.img",)
        bp.import_package(pkg, tmp_path / "dest")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * MiB, f"peak {peak / MiB:.1f} MiB"
    assert (tmp_path / "dest" / "rootfs.img").stat().st_size == 64 * MiB


def failing_copy(src, dst, length=None, *args, **kwargs):
    """Stand-in for tarfile's member copy that dies partway (disk full)."""
    dst.write(src.read(16))
    raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_publishes_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(tarfile, "copyfileobj", failing_copy)
    out = tmp_path / "out"
    with pytest.raises(PackageError, match="No space left"):
        bp.create_package("demo", out, stage_files(tmp_path),
                          stamp=FIXED_STAMP)
    assert list(out.iterdir()) == []  # neither a package nor a partial file


def test_a_full_disk_while_extracting_is_not_a_corrupt_package(
        tmp_path, monkeypatch):
    """ENOSPC while members are written is a fault of the extraction, not
    of the package: its error says so, no staging directory is left, and
    the previous extraction stays."""
    files = stage_files(tmp_path)
    old = bp.create_package("demo", tmp_path / "out", files, stamp=FIXED_STAMP)
    dest = tmp_path / "deps" / "demo"
    bp.import_package(old, dest)
    files["a.txt"].write_bytes(b"alpha, again\n")
    new = bp.create_package("demo", tmp_path / "out", files,
                            stamp="20260101T000001Z")
    monkeypatch.setattr(tarfile, "copyfileobj", failing_copy)
    with pytest.raises(PackageError,
                       match=f"^extraction failed for "
                             f"{re.escape(str(new.path))}: .*No space left"):
        bp.import_package(new, dest)
    assert sorted(os.listdir(dest.parent)) == [".demo.digest", "demo"]
    assert (dest / "a.txt").read_bytes() == b"alpha\n"
    assert (dest.parent / ".demo.digest").read_text() == old.digest


def test_stale_partial_files_of_the_block_are_removed(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    own = out / ".bp_demo_20250101T000000Z.tar.gz.partial"
    other = out / ".bp_demo_x_20250101T000000Z.tar.gz.partial"
    own.write_bytes(b"left by a killed run")
    other.write_bytes(b"another block's")
    bp.create_package("demo", out, stage_files(tmp_path), stamp=FIXED_STAMP)
    assert not own.exists()
    assert other.exists()


def test_open_reads_only_the_head(tmp_path):
    big = tmp_path / "system.xsa"
    big.write_bytes(random.Random(7).randbytes(256 << 10))
    pkg = bp.create_package("demo", tmp_path / "out", {"system.xsa": big},
                            stamp=FIXED_STAMP)
    data = pkg.path.read_bytes()
    pkg.path.write_bytes(data[:len(data) // 2])  # valid head, truncated tail
    opened = bp.open_package(pkg.path)
    assert opened.digest == hashlib.sha256(data[:len(data) // 2]).hexdigest()
    with pytest.raises(PackageError, match="corrupt"):
        opened.entries
    with pytest.raises(PackageError):
        bp.require_contents(opened, "demo", ["*.xsa"])


def many_member_package(tmp_path: Path) -> tuple[bytes, int]:
    """The bytes of a package of 40 small text members, and their count."""
    rng = random.Random(12)
    stage = tmp_path / "stage"
    stage.mkdir()
    files = {}
    for index in range(40):
        files[f"d/f{index:02}"] = stage / f"f{index}"
        files[f"d/f{index:02}"].write_bytes(
            bytes(rng.choices(b"ab", k=rng.randrange(1, 3000))))
    pkg = bp.create_package("demo", tmp_path / "out", files,
                            stamp=FIXED_STAMP)
    return pkg.path.read_bytes(), len(files)


def read_damaged(tmp_path: Path, data: bytes, tag: str) -> list:
    """What listing and what extracting ``data`` as a package find: the
    member names, and each extracted member's bytes by name, or None where
    reading ended in a PackageError."""
    damaged = tmp_path / "damaged.tar.gz"
    damaged.write_bytes(data)

    def extract(pkg):
        bp.import_package(pkg, tmp_path / "dest")
        return {f"d/{path.name}": path.read_bytes()
                for path in (tmp_path / "dest" / "d").iterdir()}

    found = []
    for read in (lambda pkg: pkg.entries, extract):
        try:
            found.append(read(bp.BlockPackage(damaged, tag)))
        except PackageError:
            found.append(None)
    return found


def test_a_package_cut_anywhere_is_never_read_as_a_shorter_one(tmp_path):
    """Packages are read in one forward pass.  Cut at any byte, a package
    of many small members lists and extracts either all of them or none:
    a cut that ends the decompressed bytes inside a member's header is an
    error, not the end of the archive."""
    whole, members = many_member_package(tmp_path)
    for size in range(0, len(whole), 53):
        for names in read_damaged(tmp_path, whole[:size], f"cut{size}"):
            assert names is None or len(names) == members, size


def members_of(whole: bytes) -> dict[str, bytes]:
    """The regular-file members of a package's bytes, read by gzip and
    tarfile's random-access mode."""
    with tarfile.open(fileobj=io.BytesIO(gzip.decompress(whole))) as tar:
        return {m.name: tar.extractfile(m).read() for m in tar if m.isfile()}


def test_a_corrupt_package_is_a_package_error(tmp_path):
    """A byte flipped anywhere past the gzip header is a PackageError from
    listing and from extracting (exit 2 naming the block, not a zlib
    traceback), unless every member still reads with its own bytes: zlib
    checks the CRC-32 and size of the gzip trailer."""
    whole, _ = many_member_package(tmp_path)
    members = members_of(whole)
    intact = [tuple(sorted(members)), members]
    for index in range(10, len(whole), 47):
        data = bytearray(whole)
        data[index] ^= 0x5A
        found = read_damaged(tmp_path, bytes(data), f"flip{index}")
        assert found in ([None, None], intact), index


def flip(data: bytes, index: int) -> bytes:
    return data[:index] + bytes((data[index] ^ 1,)) + data[index + 1:]


AFTER_THE_TRAILER = {
    "zero padding": lambda whole: whole + bytes(4096),
    "cut trailer": lambda whole: whole[:-4],
    "flipped CRC": lambda whole: flip(whole, len(whole) - 8),
    "flipped size": lambda whole: flip(whole, len(whole) - 4),
    "second gzip member": lambda whole: whole + gzip.compress(b"more"),
    "non-zero bytes": lambda whole: whole + bytes(512) + b"junk",
}


@pytest.mark.parametrize("case", AFTER_THE_TRAILER)
def test_a_package_ends_with_its_checked_gzip_trailer(tmp_path, case):
    """Listing and extracting read on to the end of the gzip member, whose
    CRC-32 and size must match; after it, only zero bytes may follow, as
    gzip allows (an in-place rewrite pads a shorter package with them)."""
    whole, _ = many_member_package(tmp_path)
    members = members_of(whole)
    found = read_damaged(tmp_path, AFTER_THE_TRAILER[case](whole), case)
    if case == "zero padding":
        assert found == [tuple(sorted(members)), members]
    else:
        assert found == [None, None]


def test_interrupt_with_chunks_in_flight_publishes_nothing(tmp_path,
                                                          monkeypatch):
    """Ctrl-C while packaging waits on busy workers: the queued chunk is
    dropped, the running ones finish, and nothing is published."""
    artifact = tmp_path / "rootfs.img"
    artifact.write_bytes(random.Random(11).randbytes(8 * CHUNK))
    out = tmp_path / "out"
    busy = threading.Semaphore(0)
    release = threading.Event()
    deflated = []
    real_deflate = bp._deflate

    def gated_deflate(data, zdict, last):
        if threading.current_thread() is not threading.main_thread():
            busy.release()
            release.wait(10)
        deflated.append(last)
        return real_deflate(data, zdict, last)

    def interrupt():
        for _ in range(2):  # both workers hold a chunk; a third is queued
            busy.acquire(timeout=10)
        time.sleep(0.1)     # and packaging waits for the oldest
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(1)
        release.set()

    monkeypatch.setattr(bp, "_deflate", gated_deflate)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    helper = threading.Thread(target=interrupt)
    helper.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            bp.create_package("demo", out, {"rootfs.img": artifact},
                              stamp=FIXED_STAMP, workers=2)
    finally:
        release.set()
        helper.join(timeout=10)
        signal.signal(signal.SIGINT, previous)
    assert not helper.is_alive()
    # The first chunk here, two on the workers; the queued one never ran.
    assert len(deflated) == 3
    assert list(out.iterdir()) == []  # neither a package nor a partial file
    assert not [t for t in threading.enumerate()
                if t.name.startswith("deflate")]


def test_import_replaces_files_of_an_older_package(tmp_path):
    stage = tmp_path / "stage"
    stage.mkdir()
    (stage / "a").write_bytes(b"a1")
    (stage / "b").write_bytes(b"b1")
    old = bp.create_package("demo", tmp_path / "out",
                            {"a": stage / "a", "b": stage / "b"},
                            stamp="20260101T000000Z")
    (stage / "a").write_bytes(b"a2")
    new = bp.create_package("demo", tmp_path / "out", {"a": stage / "a"},
                            stamp="20260101T000001Z")
    dest = tmp_path / "deps" / "demo"
    bp.import_package(bp.open_package(old.path), dest)
    assert sorted(os.listdir(dest)) == ["a", "b"]
    fresh = bp.open_package(new.path)
    bp.import_package(fresh, dest)
    assert sorted(os.listdir(dest)) == ["a"]  # b went with its package
    assert (dest / "a").read_bytes() == b"a2"
    # No staging left; the marker names the package extracted last.
    assert sorted(os.listdir(tmp_path / "deps")) == [".demo.digest", "demo"]
    assert vars(fresh)["entries"] == ("a",)  # seeded, not read again
