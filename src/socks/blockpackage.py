"""Block packages: the only data channel between blocks.

A block package is a gzip-compressed tar named ``bp_<blockid>_<stamp>.tar.gz``
carrying one block's build artifacts.  Archives are canonicalized (sorted
members, zeroed timestamps and ownership) so identical content always yields
an identical digest, which the incremental layer uses to skip re-imports.
Every archive socks writes gets a digest sidecar beside it, so later runs
reuse its digest and member listing instead of reading the archive again.
The gzip stream is compressed in fixed chunks on a thread pool; a chunk
that does not shrink is stored instead of deflated, and the encoding of a
run of one byte is made once.  The bytes depend only on the content, never
on the number of threads.
"""

from __future__ import annotations

import fnmatch
import glob as globlib
import json
import os
import re
import shutil
import struct
import zlib
from collections import deque
from contextlib import closing, contextmanager
from datetime import datetime, timezone
from functools import cached_property, lru_cache
from pathlib import Path
from typing import TYPE_CHECKING
from urllib.parse import unquote, urlparse

from .errors import ContentRuleViolation, PackageError
from .incremental import write_json

if TYPE_CHECKING:
    import tarfile
    from concurrent.futures import ThreadPoolExecutor

PACKAGE_NAME_RE = re.compile(r"^bp_[a-z0-9_]+_[0-9TZ:-]+\.tar\.gz$")
STAMP_FORMAT = "%Y%m%dT%H%M%SZ"
# Seconds any one socket operation of a fetch (connect, or a read) may take:
# a stalled server then ends in an error instead of a hang.
FETCH_TIMEOUT_S = 60.0


def is_url(ref: str) -> bool:
    """True for references that are fetched (``_download``), not globbed."""
    return urlparse(ref).scheme in ("http", "https", "file")


class BlockPackage:
    """A block package on disk.

    ``entries`` (the sorted regular-file members) comes from the digest
    sidecar when ``open_package`` found it there; otherwise it is read from
    the archive on first use and kept in a trusted sidecar that lacks it.
    Deciding whether a block can be skipped needs only the digest.
    """

    def __init__(self, path: Path, digest: str):
        self.path = path
        self.digest = digest

    @cached_property
    def entries(self) -> tuple[str, ...]:
        with _read_archive(self.path) as tar:
            entries = tuple(sorted(m.name for m in tar if m.isfile()))
        # A sidecar written without a listing (by a download, or by an
        # earlier version) that still vouches for these bytes gains it.
        record, trusted = _read_sidecar(self.path)
        if trusted and record["digest"] == self.digest \
                and record["entries"] is None:
            try:
                record_digest(self.path, self.digest, record.get("validator"),
                              entries)
            except OSError:
                pass  # the listing only saves work; the next run reads it
        return entries


class _Unreadable(Exception):
    """A fault of a package's bytes or of reading them."""


class _GzipReader:
    """The tar bytes of a package's one gzip member, whose header and, at
    its end, CRC-32 and size (RFC 1952 section 2.3) zlib checks.  A read
    inflates at most the bytes asked for."""

    def __init__(self, path: Path):
        try:
            self.raw = open(path, "rb")
        except OSError as exc:
            raise _Unreadable(exc) from exc
        self.gzip = zlib.decompressobj(16 + zlib.MAX_WBITS)

    def close(self) -> None:
        self.raw.close()

    def inflate(self, size: int) -> bytes:
        """None once the member has ended; only zero bytes may follow it,
        as gzip allows."""
        try:
            while not self.gzip.eof:
                data = self.gzip.unconsumed_tail or self.raw.read(CHUNK_SIZE)
                # At the file's end zlib may still hold output.
                out = self.gzip.decompress(data, size)
                if out:
                    return out
                if not data:
                    raise _Unreadable("file ended inside the gzip member "
                                      "(cut short)")
            rest = self.gzip.unused_data
            while rest and not rest.strip(b"\0"):
                rest = self.raw.read(CHUNK_SIZE)
            if rest:
                raise _Unreadable("bytes other than zeros follow the gzip "
                                  "member")
        except (OSError, zlib.error) as exc:
            raise _Unreadable(exc) from exc
        return b""

    def read(self, size: int) -> bytes:
        # Never none: tarfile takes a short read for the end of the tar.
        data = self.inflate(size)
        if not data:
            raise _Unreadable("gzip member ended inside the archive")
        return data


@contextmanager
def _read_archive(path: Path, whole: bool = True):
    """The tar of a package, read in one forward pass, and with ``whole``
    the rest of its gzip member once the ``with`` block is done.  Read
    faults are PackageErrors; the block's own, such as a full disk, are
    not."""
    # tarfile is imported in each function that reads or writes an
    # archive: a no-op build does neither.
    import tarfile

    try:
        with closing(_GzipReader(path)) as reader, \
                tarfile.open(path, "r|", reader, CHUNK_SIZE) as tar:
            yield tar
            # tarfile stops at the end of the tar, before the gzip trailer.
            while whole and reader.inflate(CHUNK_SIZE):
                pass
    except (tarfile.TarError, _Unreadable) as exc:
        raise PackageError(
            f"corrupt or unreadable block package {path}: {exc}") from exc


def make_stamp(now: datetime | None = None) -> str:
    now = now or datetime.now(timezone.utc)
    return now.strftime(STAMP_FORMAT)


def archive_digest(path: str | Path) -> str:
    """SHA-256 of a file (an archive's compressed bytes), read in chunks."""
    # Imported here and in _HashingWriter: OpenSSL takes milliseconds to
    # load, and a no-op build hashes nothing.
    import hashlib

    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            sha.update(chunk)
    return sha.hexdigest()


# Digests of the archives met during one orchestrator run, keyed on the
# archive's stat identity.  None outside a run: the key cannot tell apart two
# same-size writes within one timestamp tick, so it must never outlive a run.
_run_digests: dict[tuple, str] | None = None


@contextmanager
def run_digest_memo():
    """Hash each archive at most once while the ``with`` block runs."""
    global _run_digests
    _run_digests = {}
    try:
        yield
    finally:
        _run_digests = None


def _memo_digest(path: Path) -> str:
    if _run_digests is None:
        return archive_digest(path)
    key = (os.fspath(path), *_identity(path))
    if key not in _run_digests:
        _run_digests[key] = archive_digest(path)
    return _run_digests[key]


def digest_sidecar(path: Path) -> Path:
    """Where the digest of the archive at ``path`` is kept."""
    return path.with_name(f".{path.name}.digest")


def _identity(path: str | Path) -> list[int]:
    st = os.stat(path)
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def record_digest(path: Path, digest: str, validator=None,
                  entries=None) -> None:
    """Keep the digest of the archive socks just wrote at ``path`` in its
    sidecar, with the archive's stat identity, the ``validator`` of the
    source it was fetched from (see ``_download``) and, when known, the
    sorted names of its regular-file members."""
    write_json(digest_sidecar(path), {
        "digest": digest, "identity": _identity(path),
        "validator": validator, "entries": entries})


def _read_sidecar(path: Path) -> tuple[dict | None, bool]:
    """The parsed sidecar of ``path`` (None when absent or malformed), and
    whether it still describes these bytes.  Its ``entries`` is None unless
    it is a list of strings.

    It does while the archive's stat identity is the recorded one and the
    recorded change time lies strictly before the sidecar was written: a
    rewrite within the timestamp tick of that write could keep the identity,
    so such a sidecar is not trusted (git's racy rule).
    """
    try:
        with open(digest_sidecar(path), "rb") as fh:
            written = os.fstat(fh.fileno()).st_mtime_ns
            record = json.loads(fh.read())
        identity = record["identity"]
        trusted = isinstance(record["digest"], str) \
            and identity == _identity(path) and identity[4] < written
    except (OSError, ValueError, TypeError, KeyError):
        return None, False
    entries = record.get("entries")
    if not isinstance(entries, list) \
            or not all(isinstance(e, str) for e in entries):
        record["entries"] = None
    return record, trusted


def file_digest(path: Path) -> str:
    """SHA-256 of an archive: its sidecar's while that is trusted, else
    hashed at most once per run."""
    return _digest_and_entries(path, *_read_sidecar(path))[0]


def _digest_and_entries(path: Path, record: dict | None,
                        trusted: bool) -> tuple[str, list[str] | None]:
    """The digest of the archive at ``path`` and, when its sidecar
    (``record``) holds one for these bytes, its member listing.

    A re-hash of an archive in a block's ``output/``, ``imports/`` or
    ``imports/<dep>/`` under ``temp/`` rewrites its sidecar; it keeps the
    recorded validator and listing only when the bytes are still the
    recorded ones.  Archives elsewhere belong to the user and get no
    sidecar.
    """
    if trusted:
        return record["digest"], record["entries"]
    digest = _memo_digest(path)
    same = record is not None and record.get("digest") == digest
    entries = record["entries"] if same else None
    names = [p.name for p in path.parents][:4] + [""] * 4
    if names[0] in ("output", "imports") and names[2] == "temp" \
            or names[1] == "imports" and names[3] == "temp":
        try:
            record_digest(path, digest,
                          record.get("validator") if same else None, entries)
        except OSError:
            pass  # the sidecar only saves work; the next run hashes again
    return digest, entries


class _HashingWriter:
    """Write-through file wrapper that hashes every byte it passes on."""

    def __init__(self, raw):
        import hashlib

        self.raw = raw
        self.sha = hashlib.sha256()

    def write(self, data) -> int:
        self.sha.update(data)
        return self.raw.write(data)


# Tar bytes per compressed chunk.  Each chunk in flight holds its input and
# output, and each worker thread a level-9 deflate state (~260 KiB), so the
# chunk size and the worker count bound the memory that packing adds.
CHUNK_SIZE = 64 << 10
_WINDOW = 32 << 10                 # deflate's window: each chunk's dictionary
# Input slice per zlib call: the output of each level-9 call then fits
# zlib's first 32 KiB output buffer, instead of growing into larger buffers
# that are joined.  Where zlib ends a stored block depends on these slices,
# so changing them changes the digest of every package with a stored chunk.
_FEED = 16 << 10
# Bytes at the head and at the tail of a chunk that a level-1 probe
# deflates to choose the chunk's encoding (see _deflate).
_PROBE = 4 << 10
# What zlib.compress wraps around raw deflate: a 2-byte header and a 4-byte
# Adler-32 checksum.
_ZLIB_FRAMING = 6
# What gzip.GzipFile(filename="", mtime=0) writes at level 9: no file name
# and no timestamp, so identical content hashes alike in every build; XFL=2
# (best compression), OS=255 (unknown).
_GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\xff"


def _shrinks(data) -> bool:
    """True when a level-1 deflate saves at least 1/32 of ``data``."""
    return len(zlib.compress(data, 1)) - _ZLIB_FRAMING \
        < len(data) - len(data) // 32


def _deflate(data, zdict, last: bool) -> bytes:
    """Raw deflate of one chunk, as zlib encodes it primed with the
    preceding window.

    A chunk is deflated at level 9 when a level-1 probe shrinks its first
    or its last ``_PROBE`` bytes by at least 1/32; otherwise it goes out as
    stored blocks (level 0, RFC 1951 section 3.2.4).  Bytes that do not
    shrink (random data, or data compressed already: squashfs, xz,
    firmware blobs) would cost a level-9 deflate for nothing.  A chunk
    whose two ends are random and whose middle is compressible is stored
    whole.  The choice depends on the content alone.
    Two shortcuts give the same bytes for less work.  Stored blocks never
    refer back, and zlib cuts them where it would with the window, so a
    stored chunk is not primed with it.  A chunk
    of one repeated byte whose window ends with that byte (the zero-filled
    free space of a file-system image, the 0xFF padding of a flash image)
    is a run: every level-9 match in it is the longest one, at distance 1,
    so its encoding depends only on the byte, its length and ``last``, and
    is made once by ``_run``.
    A sync flush ends every chunk but the last, so the chunks concatenate
    into one deflate stream.  zlib releases the GIL while it works.
    """
    view = memoryview(data)
    if not (_shrinks(view[:_PROBE]) or _shrinks(view[-_PROBE:])):
        return _compress(zlib.compressobj(0, zlib.DEFLATED, -zlib.MAX_WBITS),
                         view, last)
    if zdict and data[-1:] == zdict[-1:] and zdict[-1:] * len(data) == data:
        return _run(zdict[-1], len(data), last)
    args = (9, zlib.DEFLATED, -zlib.MAX_WBITS, zlib.DEF_MEM_LEVEL,
            zlib.Z_DEFAULT_STRATEGY)
    comp = zlib.compressobj(*args) if zdict is None \
        else zlib.compressobj(*args, zdict)
    return _compress(comp, view, last)


@lru_cache(maxsize=32)
def _run(byte: int, size: int, last: bool) -> bytes:
    """Level-9 encoding of ``size`` copies of ``byte`` after a window that
    ends with ``byte``.  zlib's run-length strategy, primed with that one
    byte, finds the same distance-1 matches without the search: at level 9
    the search stops at the first match of 258 bytes and skips the lazy
    step.  The outputs are small; the cache holds those of a few sizes."""
    comp = zlib.compressobj(9, zlib.DEFLATED, -zlib.MAX_WBITS,
                            zlib.DEF_MEM_LEVEL, zlib.Z_RLE, bytes((byte,)))
    return _compress(comp, memoryview(bytes((byte,)) * size), last)


def _compress(comp, view: memoryview, last: bool) -> bytes:
    pieces = [comp.compress(view[i:i + _FEED])
              for i in range(0, len(view), _FEED)]
    pieces.append(comp.flush(zlib.Z_FINISH if last else zlib.Z_SYNC_FLUSH))
    return b"".join(pieces)


class _ChunkedGzipWriter:
    """Write-only gzip stream that deflates fixed-size chunks in parallel.

    The scheme of pigz: each ``CHUNK_SIZE`` piece of input is deflated on its
    own, primed with the 32 KiB before it, and the results are written in
    order; unlike pigz, a piece that does not shrink is stored (see
    ``_deflate``).  The output is one ordinary gzip member whose bytes depend
    only on the input; a stream of one chunk that is deflated is
    byte-identical to ``gzip.GzipFile`` at level 9.  The pool starts with
    the second chunk, and at most ``workers + 1`` chunks are in flight, so a
    worker that finishes finds the next chunk already queued.
    """

    def __init__(self, sink, workers: int):
        self.sink = sink
        self.workers = workers
        self.chunk = bytearray(CHUNK_SIZE)
        self.filled = 0
        self.zdict: bytes | None = None
        self.crc = 0
        self.size = 0
        self.pool: ThreadPoolExecutor | None = None
        self.inflight: deque = deque()
        sink.write(_GZIP_HEADER)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc) -> None:
        try:
            if exc_type is None:
                self._finish()
        finally:
            if self.pool is not None:
                # Queued chunks are dropped; only running ones are awaited.
                self.pool.shutdown(cancel_futures=True)

    def tell(self) -> int:
        """Uncompressed position; tarfile asks for it when it opens."""
        return self.size + self.filled

    def write(self, data) -> int:
        view = memoryview(data)
        while view:
            # A full chunk is sent only once more input follows it, so the
            # last chunk is always the one finished at close.
            if self.filled == CHUNK_SIZE:
                self._send()
            n = min(len(view), CHUNK_SIZE - self.filled)
            self.chunk[self.filled:self.filled + n] = view[:n]
            self.filled += n
            view = view[n:]
        return len(data)

    def _account(self, data) -> bytes | None:
        """Add ``data`` to the trailer sums; return the dictionary for it."""
        self.crc = zlib.crc32(data, self.crc)
        self.size += len(data)
        # A copy, so a chunk's buffer is freed once its own deflate is done.
        zdict, self.zdict = self.zdict, bytes(data[-_WINDOW:])
        return zdict

    def _send(self) -> None:
        chunk, self.chunk, self.filled = self.chunk, bytearray(CHUNK_SIZE), 0
        zdict = self._account(chunk)
        # The first chunk is deflated here: a stream of two chunks, whose
        # last one is deflated here too, then starts no threads.
        if self.workers < 2 or zdict is None:
            self.sink.write(_deflate(chunk, zdict, False))
            return
        if self.pool is None:
            from concurrent.futures import ThreadPoolExecutor
            self.pool = ThreadPoolExecutor(self.workers,
                                           thread_name_prefix="deflate")
        self.inflight.append(self.pool.submit(_deflate, chunk, zdict, False))
        if len(self.inflight) > self.workers:
            self.sink.write(self.inflight.popleft().result())

    def _finish(self) -> None:
        # A copy, not a view: _deflate compares it with a run in one memcmp.
        tail = self.chunk[:self.filled]
        # The final chunk is deflated here while the pool drains.
        last = _deflate(tail, self._account(tail), True)
        while self.inflight:
            self.sink.write(self.inflight.popleft().result())
        self.sink.write(last)
        self.sink.write(struct.pack("<II", self.crc, self.size & 0xFFFFFFFF))


def _check_member_path(name: str) -> None:
    if name.startswith("/") or name.startswith("\\"):
        raise PackageError(f"absolute member path not allowed: {name}")
    parts = Path(name).parts
    if ".." in parts:
        raise PackageError(f"path escape in archive member: {name}")


def _package_filter(member: tarfile.TarInfo, dest: str) -> tarfile.TarInfo:
    """Extraction filter: block packages carry plain files inside ``dest``."""
    import tarfile

    _check_member_path(member.name)
    if member.islnk() or member.issym():
        raise PackageError(
            f"links not allowed in block packages: {member.name}")
    return tarfile.data_filter(member, dest)


def create_package(block_id: str, output_dir: str | Path,
                   files: dict[str, Path] | list[tuple[str, Path]],
                   stamp: str | None = None,
                   workers: int = 1) -> BlockPackage:
    """Write a canonical package of ``files`` (archive name -> source path).

    Identical content produces an identical digest regardless of when or in
    which order the files were staged, and of ``workers``, the number of
    compression threads.  Artifacts are streamed, so memory use does not
    grow with their size.
    """
    import tarfile

    items = sorted(dict(files).items())
    if not items:
        raise PackageError(f"block '{block_id}' produced no artifacts; "
                           "a package must carry at least one file")
    for name, _ in items:
        _check_member_path(name)
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    stamp = stamp or make_stamp()
    archive_path = output_dir / f"bp_{block_id}_{stamp}.tar.gz"

    # Written under a name no package glob matches and published with one
    # rename, so an interrupted write never leaves a truncated package that
    # the timestamp check would trust.
    partial = output_dir / f".{archive_path.name}.partial"
    # Partial files of this block left by a killed run.
    stale = re.compile(
        rf"\.bp_{re.escape(block_id)}_[0-9TZ:-]+\.tar\.gz\.partial")
    for leftover in output_dir.glob(f".bp_{block_id}_*.partial"):
        if stale.fullmatch(leftover.name):
            leftover.unlink(missing_ok=True)
    try:
        with open(partial, "wb") as raw:
            sink = _HashingWriter(raw)
            with _ChunkedGzipWriter(sink, workers) as gz, \
                    tarfile.open(fileobj=gz, mode="w",
                                 copybufsize=CHUNK_SIZE) as tar:
                for name, src in items:
                    _add_member(tar, block_id, name, Path(src))
        os.replace(partial, archive_path)
        digest = sink.sha.hexdigest()
        entries = tuple(name for name, _ in items)
        record_digest(archive_path, digest, entries=entries)
    except BaseException as exc:
        partial.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise PackageError(
                f"cannot write block package {archive_path}: {exc}") from exc
        raise

    package = BlockPackage(path=archive_path, digest=digest)
    # The writer knows the listing: seed the cached property.
    package.entries = entries
    return package


def _add_member(tar: tarfile.TarFile, block_id: str, name: str,
                src: Path) -> None:
    import tarfile

    if not src.is_file():
        raise PackageError(
            f"artifact missing while packaging block '{block_id}': {src}")
    with open(src, "rb") as fh:
        st = os.fstat(fh.fileno())
        info = tarfile.TarInfo(name=name)
        info.size = st.st_size
        info.mtime = 0
        info.uid = info.gid = 0
        info.uname = info.gname = ""
        info.mode = 0o755 if st.st_mode & 0o111 else 0o644
        tar.addfile(info, fh)


def open_package(path: str | Path) -> BlockPackage:
    """Digest a package and check that it starts like one.

    A trusted sidecar (see ``_read_sidecar``) gives the digest and, when it
    holds one, the member listing, which was packed into or read from these
    exact bytes; the archive is then not opened at all.  Otherwise only the
    gzip header and the first tar header are read, and the listing waits
    for ``entries``.  A skip never needs it: a block skips only when its
    build record holds this digest, and the record is written only after
    these exact bytes were fully read by the build it commits.
    """
    path = Path(path)
    record, trusted = _read_sidecar(path)
    if not trusted or record["entries"] is None:
        with _read_archive(path, whole=False):
            pass
    digest, entries = _digest_and_entries(path, record, trusted)
    package = BlockPackage(path=path, digest=digest)
    if entries is not None:
        package.entries = tuple(entries)
    return package


def resolve_dependency(ref: str, project_dir: str | Path,
                       download_dir: str | Path | None = None,
                       credentials: dict | None = None) -> Path:
    """Turn a dependency reference into a local archive path.

    Local globs resolve relative to the project folder; when several stamps
    match, the lexicographically greatest (newest) wins.  URLs are fetched
    with a single GET into ``download_dir``.
    """
    project_dir = Path(project_dir)
    if is_url(ref):
        return _download(ref, Path(download_dir or project_dir), credentials)
    matches = [Path(p) for p in globlib.glob(str(project_dir / ref))]
    matches = [p for p in matches if p.is_file()]
    if not matches:
        raise PackageError(
            f"no block package matches '{ref}'; "
            f"build the providing block first or import it")
    return max(matches, key=lambda p: p.name)


def download_name(url: str) -> str:
    """The file name that a fetch of ``url`` is kept under."""
    return Path(urlparse(url).path).name or "download.tar.gz"


def _download(url: str, dest_dir: Path, credentials: dict | None) -> Path:
    """Fetch ``url`` into ``dest_dir`` with one GET, unless the source is
    unchanged since the last fetch; basic-auth credentials are looked up by
    host name.

    The bytes are hashed as they go to a hidden partial file, which replaces
    the previous copy only once the whole body has arrived, so a failed or
    truncated fetch leaves that copy as it was.  The copy's sidecar keeps a
    validator of the source (RFC 9110 section 13.1): for ``file://`` the
    source's stat identity, which when unchanged skips the fetch; for HTTP
    the request headers of a conditional GET, which a 304 answers without
    a body.  A source without a validator is fetched every time.
    """
    parsed = urlparse(url)
    dest_dir.mkdir(parents=True, exist_ok=True)
    name = download_name(url)
    dest = dest_dir / name
    record, trusted = _read_sidecar(dest)
    known = record.get("validator") if trusted else None
    validator, conditional = None, {}
    if parsed.scheme == "file":
        try:
            # What urllib.request.url2pathname does on POSIX.
            validator = _identity(unquote(parsed.path))
        except OSError:
            pass  # urlopen names the problem
        if known is not None and known == validator:
            return dest
    # Imported here, after an unchanged file:// source returned: http.client,
    # email and ssl come with it, and only fetches need them.
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url)
    if parsed.scheme != "file":
        if credentials:
            creds = credentials.get(parsed.hostname or "", {})
            if "username" in creds:
                import base64
                token = base64.b64encode(
                    f"{creds['username']}:{creds.get('password', '')}"
                    .encode()).decode("ascii")
                request.add_header("Authorization", f"Basic {token}")
        # Another URL's validator means nothing to this server.
        if isinstance(known, dict) and known.pop("url", None) == url:
            conditional = known
        for header, value in conditional.items():
            request.add_header(header, value)
    partial = dest_dir / f".{name}.partial"
    try:
        with urllib.request.urlopen(request, timeout=FETCH_TIMEOUT_S) as resp, \
                open(partial, "wb") as out:
            # A source changed in the tick this copy began in could change
            # again unseen: its identity is no validator (git's racy rule).
            began = os.fstat(out.fileno()).st_mtime_ns
            if validator and validator[4] >= began:
                validator = None
            sink = _HashingWriter(out)
            shutil.copyfileobj(resp, sink)
            expected = resp.headers.get("Content-Length", "")
            received = out.tell()
            if parsed.scheme != "file":
                validator = _http_validator(url, resp.headers)
        # urllib returns a body cut short by a closed connection as if it
        # were complete.
        if expected.isdigit() and int(expected) != received:
            raise PackageError(
                f"download failed for {url}: the connection closed after "
                f"{received} of {expected} bytes")
        os.replace(partial, dest)
        record_digest(dest, sink.sha.hexdigest(), validator)
    except BaseException as exc:
        partial.unlink(missing_ok=True)
        if isinstance(exc, urllib.error.HTTPError) and exc.code == 304 \
                and conditional:
            return dest  # Not Modified: the copy and its sidecar stay
        if isinstance(exc, (OSError, http.client.HTTPException)):
            raise PackageError(f"download failed for {url}: {exc}") from exc
        raise
    return dest


def _http_validator(url: str, headers) -> dict | None:
    """The conditional-request headers that revalidate this response of
    ``url``, with the URL they belong to.

    A ``Last-Modified`` less than a second before the response's ``Date``
    is not kept: a republish within that second would carry the same one.
    """
    from email.utils import parsedate_to_datetime
    etag = headers.get("ETag")
    if etag:
        return {"url": url, "If-None-Match": etag}
    modified, date = headers.get("Last-Modified"), headers.get("Date")
    try:
        settled = (parsedate_to_datetime(date).timestamp()
                   - parsedate_to_datetime(modified).timestamp()) >= 1
    except (TypeError, ValueError):
        return None
    return {"url": url, "If-Modified-Since": modified} if settled else None


def validate_contents(pkg: BlockPackage, required: list[str]) -> list[str]:
    """Return the ``required`` globs no member matches (empty list means the
    package holds them all).

    The whole member listing is read even when no glob is required, so a
    truncated archive never passes.  The ``optional`` globs of a content
    rule are never checked; they only document what a consumer will pick
    up when present.
    """
    entries = pkg.entries
    violations = []
    for pattern in required:
        if not any(fnmatch.fnmatch(entry, pattern) or
                   fnmatch.fnmatch(Path(entry).name, pattern)
                   for entry in entries):
            violations.append(pattern)
    return violations


def require_contents(pkg: BlockPackage, emitter: str,
                     required: list[str]) -> None:
    violations = validate_contents(pkg, required)
    if violations:
        raise ContentRuleViolation(
            f"block package from '{emitter}' ({pkg.path.name}) is missing "
            f"required entries: {violations}", violations)


def import_package(pkg: BlockPackage, dest_dir: str | Path) -> dict:
    """Extract a package, once per digest, replacing ``dest_dir`` whole.

    A hidden ``.<dest>.digest`` marker beside ``dest_dir`` names the package
    extracted there; when it names this digest the extraction is skipped and
    the filesystem stays untouched.  The archive is read in one forward pass
    into a hidden sibling directory that replaces ``dest_dir`` only once
    every member passed, so files an older package carried do not survive
    and a rejected archive leaves ``dest_dir`` as it was.  The marker is
    removed before that swap and written after it.
    """
    dest_dir = Path(dest_dir)
    marker = dest_dir.with_name(f".{dest_dir.name}.digest")
    if dest_dir.is_dir() and marker.is_file() \
            and marker.read_bytes() == pkg.digest.encode():
        return {"imported": False, "digest": pkg.digest}
    staging = dest_dir.with_name(f".{dest_dir.name}.partial")
    try:
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        with _read_archive(pkg.path) as tar:
            tar.extractall(staging, filter=_package_filter)
            # Extraction read every header: listing the members costs nothing.
            entries = tuple(sorted(m.name for m in tar.getmembers()
                                   if m.isfile()))
        marker.unlink(missing_ok=True)
        shutil.rmtree(dest_dir, ignore_errors=True)
        os.replace(staging, dest_dir)
        marker.write_bytes(pkg.digest.encode())
    except BaseException as exc:
        shutil.rmtree(staging, ignore_errors=True)
        if isinstance(exc, OSError):
            raise PackageError(
                f"extraction failed for {pkg.path}: {exc}") from exc
        raise
    pkg.entries = entries
    return {"imported": True, "digest": pkg.digest}
