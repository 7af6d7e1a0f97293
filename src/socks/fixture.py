"""Materialize the bundled zynqmp-mock example project into a directory.

The example ships as package data under ``socks/examples/zynqmp-mock/``.
It cannot contain a live git repository, so the kernel-like block's
upstream repo is created here at materialization time.  Usage::

    python -m socks.fixture /path/to/workdir
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

FIXTURE_NAME = "zynqmp-mock"
KERNEL_BRANCH = "xilinx-v2022.2"
KERNEL_ORIGIN = "kernel-origin"

GIT_ENV = {
    "GIT_AUTHOR_NAME": "Fixture", "GIT_AUTHOR_EMAIL": "fixture@example.com",
    "GIT_COMMITTER_NAME": "Fixture",
    "GIT_COMMITTER_EMAIL": "fixture@example.com",
    "GIT_AUTHOR_DATE": "2026-01-01T00:00:00 +0000",
    "GIT_COMMITTER_DATE": "2026-01-01T00:00:00 +0000",
}

KERNEL_MAKEFILE = """\
# mock kernel makefile
VERSION = 6
PATCHLEVEL = 6
NAME = zynqmp-mock
"""

KERNEL_CONFIG = """\
CONFIG_BASE=y
# CONFIG_MOCK is not set
CONFIG_DEBUG=y
CONFIG_CORES=4
"""

KERNEL_MAIN = """\
int main(void) { return 0; }
"""


def fixture_source() -> Path:
    """The shipped example project (package data of ``socks``)."""
    source = Path(__file__).resolve().parent / "examples" / FIXTURE_NAME
    if not (source / "socks.yml").exists():
        raise FileNotFoundError(
            f"bundled example project '{FIXTURE_NAME}' not found in {source}")
    return source


def _git(repo: Path, *args: str) -> None:
    env = dict(os.environ)
    env.update(GIT_ENV)
    subprocess.run(["git", "-C", str(repo), *args], env=env, check=True,
                   capture_output=True, text=True)


def create_kernel_origin(repo: Path, branch: str = KERNEL_BRANCH) -> Path:
    """Create the upstream repository the kernel block clones from."""
    repo.mkdir(parents=True, exist_ok=True)
    subprocess.run(["git", "init", "-q", str(repo)], check=True,
                   capture_output=True, text=True)
    (repo / "Makefile").write_text(KERNEL_MAKEFILE, encoding="utf-8")
    (repo / ".config").write_text(KERNEL_CONFIG, encoding="utf-8")
    (repo / "init").mkdir(exist_ok=True)
    (repo / "init" / "main.c").write_text(KERNEL_MAIN, encoding="utf-8")
    _git(repo, "checkout", "-q", "-b", branch)
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "mock kernel tree")
    return repo


def _age_tree(root: Path, age_seconds: float = 3600.0) -> None:
    """Push all mtimes into the past so fresh builds are clearly newer."""
    stamp = time.time() - age_seconds
    for path in [root, *root.rglob("*")]:
        os.utime(path, (stamp, stamp))


def materialize(dest: str | Path, *, container_tool: str | None = None) -> Path:
    """Copy the example project to ``dest`` and create its git origin.

    ``container_tool`` optionally rewrites the configured tool (the shipped
    default is host mode).
    """
    dest = Path(dest)
    if dest.exists() and any(dest.iterdir()):
        raise FileExistsError(f"destination is not empty: {dest}")
    shutil.copytree(fixture_source(), dest, dirs_exist_ok=True)
    create_kernel_origin(dest / KERNEL_ORIGIN)
    if container_tool is not None:
        config = dest / "socks.yml"
        text = config.read_text(encoding="utf-8")
        text = text.replace("container_tool: disabled",
                            f"container_tool: {container_tool}")
        config.write_text(text, encoding="utf-8")
    _age_tree(dest)
    return dest


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m socks.fixture <destination>", file=sys.stderr)
        return 1
    materialize(argv[0])
    print(f"example project created at {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
