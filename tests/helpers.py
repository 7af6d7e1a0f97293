"""Helpers shared by several test modules."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap
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


def _child_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this socks."""
    src = str(Path(socks.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_socks_capped(argv: list[str], cwd: Path,
                     base: str = "libyaml") -> subprocess.CompletedProcess:
    """``socks argv`` run by ``cli.main`` in a child process in ``cwd``.

    The child caps its own address space at 1 GiB, so a run away memory
    use ends in ``MemoryError`` there instead of taking the machine's
    memory; a run longer than 20 s raises ``subprocess.TimeoutExpired``.  ``base="python"``
    parses YAML with PyYAML's pure-Python parser instead of libyaml."""
    code = textwrap.dedent("""\
        import resource, sys
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        if sys.argv[1] == "python":
            import yaml
            from socks import configtree
            configtree._Loader = type("_Loader", (yaml.SafeLoader,), {
                "yaml_constructors": configtree._Loader.yaml_constructors})
        from socks import cli
        sys.exit(cli.main(sys.argv[2:]))
        """)
    return subprocess.run([sys.executable, "-c", code, base, *argv], cwd=cwd,
                          env=_child_env(), capture_output=True, text=True,
                          timeout=20)


def modules_loaded_by(code: str) -> set[str]:
    """The modules that a fresh interpreter running ``code`` loaded, less
    those it loads at startup anyway."""
    env = _child_env()

    def loaded(code: str) -> set[str]:
        code += ("\nimport json, sys\n"
                 "print(json.dumps(sorted(sys.modules)), file=sys.stderr)")
        return set(json.loads(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True).stderr.splitlines()[-1]))

    return loaded(code) - loaded("pass")
