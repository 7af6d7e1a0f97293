"""Helpers shared by several test modules."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import socks


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


def modules_loaded_by(code: str) -> set[str]:
    """The modules that a fresh interpreter running ``code`` loaded, less
    those it loads at startup anyway."""
    src = str(Path(socks.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def loaded(code: str) -> set[str]:
        code += ("\nimport json, sys\n"
                 "print(json.dumps(sorted(sys.modules)), file=sys.stderr)")
        return set(json.loads(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True).stderr.splitlines()[-1]))

    return loaded(code) - loaded("pass")
