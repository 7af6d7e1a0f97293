"""Build environments: ephemeral containers or the plain host.

Host commands are argv lists, run without a shell, whose program must be in
the small host tool set (git, core utilities, the container tool).  Build
commands run through ``bash`` -- inside the block's container when
containerization is enabled, directly on the host otherwise -- so command
semantics are identical in both modes.

Every external invocation is logged and reported to registered observers,
which keeps container use visible to the user and lets tests assert exactly
which tools were spawned.
"""

from __future__ import annotations

import functools
import logging
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import EnvironmentError_, ProcessError

log = logging.getLogger(__name__)

# Programs a builder may call directly on the host.
HOST_TOOLS = frozenset({
    "git", "docker", "podman",
    # GNU core utilities (the commonly needed subset)
    "basename", "cat", "chmod", "chown", "cp", "cut", "date", "df", "dirname",
    "du", "echo", "env", "false", "head", "hostname", "id", "ln", "ls",
    "mkdir", "mktemp", "mv", "printf", "pwd", "readlink", "rm", "rmdir",
    "sha256sum", "sleep", "sort", "stat", "tail", "test", "touch", "tr",
    "true", "uname", "uniq", "wc",
})

CONTAINER_MOUNT = "/socks/project"


class ProcessResult(NamedTuple):
    command: str
    returncode: int
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0


_observers: list[Callable[[str, list[str]], None]] = []


def add_invocation_observer(fn: Callable[[str, list[str]], None]) -> None:
    _observers.append(fn)


def remove_invocation_observer(fn: Callable[[str, list[str]], None]) -> None:
    _observers.remove(fn)


def _notify(kind: str, argv: list[str]) -> None:
    for fn in list(_observers):
        fn(kind, argv)


def _run(argv: list[str], *, kind: str, cwd: str | Path | None = None,
         env: dict | None = None, check: bool = True) -> ProcessResult:
    # Imported here: a no-op build spawns nothing.
    import shlex
    import subprocess

    log.info("exec [%s] %s", kind, shlex.join(argv))
    _notify(kind, argv)
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    try:
        proc = subprocess.run(argv, cwd=cwd, env=full_env,
                              capture_output=True, text=True)
    except OSError as exc:
        raise EnvironmentError_(f"cannot start {argv[0]}: {exc}") from exc
    result = ProcessResult(command=shlex.join(argv),
                           returncode=proc.returncode,
                           stdout=proc.stdout, stderr=proc.stderr)
    if check and result.returncode != 0:
        raise ProcessError(
            f"command failed with exit {result.returncode}: {result.command}",
            result=result)
    return result


def execute_host(argv: list[str], *, cwd: str | Path | None = None,
                 check: bool = True) -> ProcessResult:
    """Run a host tool without a shell; ``argv[0]`` must be whitelisted."""
    program = Path(argv[0]).name if argv else ""
    if program not in HOST_TOOLS:
        raise EnvironmentError_(
            f"'{program}' is not in the host tool whitelist; "
            f"run it via the build environment instead")
    return _run(list(argv), kind="host", cwd=cwd, check=check)


def bundled_containerfile(image: str) -> Path:
    path = Path(__file__).parent / "containerfiles" / f"{image}.Containerfile"
    if not path.exists():
        raise EnvironmentError_(
            f"no container definition bundled for image '{image}'")
    return path


@functools.lru_cache(maxsize=None)
def daemon_problem(tool: str) -> str | None:
    """Why ``tool info`` fails (no daemon, or no tool), or None when the
    daemon answers.  Asked once per process, which is one ``socks`` run."""
    try:
        result = _run([tool, "info"], kind="container-tool", check=False)
    except EnvironmentError_ as exc:
        return str(exc)
    return None if result.ok else (
        result.stderr.strip() or f"'{tool} info' exited {result.returncode}")


class EnvironmentManager:
    """Image lifecycle plus command execution for one block's environment:
    the container image ``image:tag`` of ``tool`` (docker or podman), or
    the host when ``tool`` is ``disabled``."""

    def __init__(self, image: str, tag: str, tool: str,
                 project_dir: str | Path, max_threads: int = 1):
        self.image = image
        self.image_ref = f"{image}:{tag}"
        self.tool = tool
        self.project_dir = Path(project_dir)
        self.max_threads = max_threads

    def _image_exists(self) -> bool:
        result = _run([self.tool, "image", "inspect", self.image_ref],
                      kind="container-tool", check=False)
        return result.ok

    def ensure_image(self) -> dict:
        """Build the image from its bundled definition unless it already
        exists in the container tool's store (shared across projects)."""
        import fcntl

        if self.tool == "disabled":
            return {"built": False}
        problem = daemon_problem(self.tool)
        if problem:
            raise EnvironmentError_(
                f"the {self.tool} daemon does not answer: {problem}")
        containerfile = bundled_containerfile(self.image)
        lock_dir = self.project_dir / "temp" / ".locks"
        lock_dir.mkdir(parents=True, exist_ok=True)
        lock_path = lock_dir / f"image-{self.image}.lock"
        with open(lock_path, "w") as lock_fh:
            fcntl.flock(lock_fh, fcntl.LOCK_EX)
            if self._image_exists():
                return {"built": False}
            log.info("building container image %s", self.image_ref)
            _run([self.tool, "build", "-t", self.image_ref,
                  "-f", str(containerfile), str(containerfile.parent)],
                 kind="container-tool")
        return {"built": True}

    def _container_path(self, host_path: Path) -> str:
        rel = Path(host_path).resolve().relative_to(
            self.project_dir.resolve())
        return f"{CONTAINER_MOUNT}/{rel.as_posix()}"

    def _run_argv(self, workdir: str | Path, *flags: str) -> list[str]:
        """``<tool> run`` of a throwaway container, as this user."""
        return [self.tool, "run", "--rm", *flags,
                "-u", f"{os.getuid()}:{os.getgid()}",
                "-v", f"{self.project_dir.resolve()}:{CONTAINER_MOUNT}",
                "-w", self._container_path(Path(workdir))]

    def run(self, cmd: str, *, workdir: str | Path,
            env: dict | None = None, check: bool = True) -> ProcessResult:
        """Run a build command via bash, in the container or on the host."""
        extra = {"SOCKS_MAX_THREADS": str(self.max_threads)}
        extra.update(env or {})
        if self.tool == "disabled":
            Path(workdir).mkdir(parents=True, exist_ok=True)
            return _run(["bash", "-c", cmd], kind="build",
                        cwd=workdir, env=extra, check=check)
        argv = self._run_argv(workdir)
        for key, value in extra.items():
            argv += ["-e", f"{key}={value}"]
        argv += [self.image_ref, "bash", "-c", cmd]
        log.info("container start: %s", self.image_ref)
        try:
            return _run(argv, kind="container-tool", check=check)
        finally:
            log.info("container stopped: %s", self.image_ref)

    def translate_path(self, host_path: Path) -> str:
        """Path as seen by build commands (container mount or host path)."""
        if self.tool == "disabled":
            return str(Path(host_path))
        return self._container_path(host_path)

    def interactive_session(self, workdir: str | Path) -> int:
        import subprocess

        if self.tool == "disabled":
            raise EnvironmentError_(
                "start-container requires containerization; "
                "container_tool is 'disabled'")
        if not sys.stdin.isatty():
            raise EnvironmentError_(
                "start-container needs an attached terminal")
        self.ensure_image()
        argv = self._run_argv(workdir, "-it") + [self.image_ref, "bash"]
        log.info("interactive container session: %s", self.image_ref)
        _notify("container-tool", argv)
        return subprocess.call(argv)
