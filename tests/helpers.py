"""Helpers shared by several test modules."""

from __future__ import annotations

import hashlib
from pathlib import Path


def tree_digest(root: Path) -> str:
    """Content digest of a source tree (VCS metadata excluded), reading each
    file in chunks."""
    sha = hashlib.sha256()
    files = sorted(p for p in root.rglob("*")
                   if p.is_file() and ".git" not in p.parts)
    for path in files:
        sha.update(str(path.relative_to(root)).encode())
        sha.update(b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                sha.update(chunk)
        sha.update(b"\0")
    return sha.hexdigest()
