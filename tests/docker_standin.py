"""A stand-in for the docker CLI where no container daemon answers.

``info``, ``image inspect`` and ``build`` succeed without doing anything.
``run [flags] IMAGE CMD...`` runs CMD on the host in the ``-w`` directory
with the ``-e`` variables, after mapping the container side of each ``-v``
mount back to its host directory.  Like a real container, it sees no host
path: a ``-w`` outside every mount, or a ``-e`` value naming the host side
of a mount, is an error.  Run it as ``python docker_standin.py ARGS...``.
"""

import os
import subprocess
import sys


def main(argv: list[str]) -> int:
    if argv[:1] in (["info"], ["build"]) or argv[:2] == ["image", "inspect"]:
        return 0
    if argv[:1] != ["run"]:
        sys.exit(f"docker stand-in: unsupported command {argv}")
    args, mounts, env, workdir = argv[1:], {}, {}, None
    while args[0].startswith("-"):
        flag = args.pop(0)
        if flag in ("--rm", "-it"):
            continue
        value = args.pop(0)
        if flag == "-v":
            host, _, inside = value.rpartition(":")
            mounts[inside] = host
        elif flag == "-w":
            workdir = value
        elif flag == "-e":
            key, _, env_value = value.partition("=")
            env[key] = env_value

    def on_host(path: str) -> str:
        for inside, host in mounts.items():
            if path == inside or path.startswith(inside + "/"):
                return host + path[len(inside):]
        if any(path.startswith(host) for host in mounts.values()):
            sys.exit(f"docker stand-in: host path in the container: {path}")
        return path

    cwd = on_host(workdir)
    if cwd == workdir:
        sys.exit(f"docker stand-in: -w {workdir} is in no mount")
    env = {key: on_host(value) for key, value in env.items()}
    return subprocess.call(args[1:], cwd=cwd, env={**os.environ, **env})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
