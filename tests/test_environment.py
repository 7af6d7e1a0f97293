"""Environment manager: argv and shell contracts, whitelist, observers, path
mapping."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from socks import environment
from socks.environment import (CONTAINER_MOUNT, HOST_TOOLS,
                               EnvironmentManager, execute_host)
from socks.errors import EnvironmentError_, ProcessError


def host_env(tmp_path: Path, threads: int = 2) -> EnvironmentManager:
    return EnvironmentManager("socks-mock-builder", "socks", "disabled",
                              tmp_path, threads)


def container_env(tmp_path: Path) -> EnvironmentManager:
    return EnvironmentManager("socks-mock-builder", "socks", "docker",
                              tmp_path, 2)


def test_whitelisted_host_command(tmp_path):
    result = execute_host(["echo", "hello"])
    assert result.ok
    assert result.stdout.strip() == "hello"


def test_non_whitelisted_host_command_rejected():
    with pytest.raises(EnvironmentError_, match="whitelist"):
        execute_host(["python3", "-c", "print(1)"])


def test_whitelist_checks_program_name_not_path():
    with pytest.raises(EnvironmentError_):
        execute_host(["/usr/bin/curl", "http://example.com"])


def test_host_commands_run_without_shell(tmp_path, recorder):
    result = execute_host(["echo", "a; touch x"], cwd=tmp_path)
    assert recorder.calls[-1] == ("host", ["echo", "a; touch x"])
    assert result.stdout == "a; touch x\n"
    assert not (tmp_path / "x").exists()


def test_whitelist_checks_the_program_not_the_first_word():
    # Under a shell, "git x; curl ..." passed a check of the first word.
    with pytest.raises(EnvironmentError_, match="'git x; curl'"):
        execute_host(["git x; curl", "http://example.com"])


def test_missing_host_program_is_a_located_error(monkeypatch):
    monkeypatch.setenv("PATH", "/nonexistent")
    with pytest.raises(EnvironmentError_, match="cannot start git"):
        execute_host(["git", "--version"])


def test_host_failure_raises_with_streams():
    with pytest.raises(ProcessError) as exc:
        execute_host(["ls", "/definitely/not/here"])
    assert exc.value.exit_code == 2
    assert "stderr" in str(exc.value)


def test_build_commands_use_bash(tmp_path, recorder):
    env = host_env(tmp_path)
    # Array syntax is bash-only; dash (a common /bin/sh) rejects it.
    result = env.run('arr=(one two); echo "${arr[1]}"', workdir=tmp_path)
    assert result.stdout.strip() == "two"
    assert recorder.calls[-1][1][0] == "bash"


def test_build_env_exports_max_threads(tmp_path):
    env = host_env(tmp_path, threads=7)
    result = env.run('echo "$SOCKS_MAX_THREADS"', workdir=tmp_path)
    assert result.stdout.strip() == "7"


def test_build_failure_check(tmp_path):
    env = host_env(tmp_path)
    with pytest.raises(ProcessError):
        env.run("exit 3", workdir=tmp_path)
    result = env.run("exit 3", workdir=tmp_path, check=False)
    assert result.returncode == 3


def test_host_mode_spawns_no_container_tool(tmp_path, recorder):
    env = host_env(tmp_path)
    env.ensure_image()
    env.run("true", workdir=tmp_path)
    kinds = {kind for kind, _ in recorder.calls}
    assert "container-tool" not in kinds


def test_host_mode_ensure_image_noop(tmp_path):
    assert host_env(tmp_path).ensure_image() == {"built": False}


def test_translate_path_host_mode(tmp_path):
    env = host_env(tmp_path)
    sub = tmp_path / "temp" / "blk"
    assert env.translate_path(sub) == str(sub)


def test_translate_path_container_mode(tmp_path):
    env = container_env(tmp_path)
    sub = tmp_path / "temp" / "blk"
    assert env.translate_path(sub) == f"{CONTAINER_MOUNT}/temp/blk"


def test_container_run_argv_shape(tmp_path, recorder, monkeypatch):
    # Intercept the spawn so no container tool is needed.
    import subprocess

    class FakeProc:
        returncode = 0
        stdout = ""
        stderr = ""

    monkeypatch.setattr(subprocess, "run",
                        lambda *a, **k: FakeProc())
    env = container_env(tmp_path)
    env.run("make all", workdir=tmp_path / "temp" / "blk",
            env={"SOCKS_BLOCK_ID": "blk"})
    kind, argv = recorder.calls[-1]
    assert kind == "container-tool"
    assert argv[0] == "docker"
    assert argv[1:3] == ["run", "--rm"]
    assert "-u" in argv and f"{os.getuid()}:{os.getgid()}" in argv
    assert f"{tmp_path.resolve()}:{CONTAINER_MOUNT}" in argv
    assert argv[-1] == "make all"
    assert argv[-2] == "-c"
    assert argv[-3] == "bash"
    assert "socks-mock-builder:socks" in argv


@pytest.fixture
def fresh_probe():
    """Forget the daemon probe's answers before and after the test."""
    environment.daemon_problem.cache_clear()
    yield
    environment.daemon_problem.cache_clear()


@pytest.mark.parametrize("answer", [(1, "Cannot connect to the daemon"),
                                    (0, "")])
def test_daemon_is_probed_once_before_any_image_work(
        tmp_path, recorder, monkeypatch, fresh_probe, answer):
    import subprocess

    class FakeProc:
        returncode, stderr = answer
        stdout = ""

    monkeypatch.setattr(subprocess, "run", lambda *a, **k: FakeProc())
    for _ in range(2):
        env = container_env(tmp_path)
        if FakeProc.returncode:
            with pytest.raises(EnvironmentError_,
                               match="docker daemon does not answer: "
                                     "Cannot connect to the daemon"):
                env.ensure_image()
        else:
            env.ensure_image()
    argvs = [argv[:2] for _, argv in recorder.calls]
    if FakeProc.returncode:
        assert argvs == [["docker", "info"]]
    else:
        assert argvs == [["docker", "info"]] + 2 * [["docker", "image"]]


def test_missing_container_tool_is_a_located_error(tmp_path, monkeypatch,
                                                   fresh_probe):
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(EnvironmentError_, match="cannot start docker"):
        container_env(tmp_path).ensure_image()


def test_interactive_session_requires_container(tmp_path):
    env = host_env(tmp_path)
    with pytest.raises(EnvironmentError_, match="disabled"):
        env.interactive_session(tmp_path)


def test_host_tools_cover_git_and_coreutils():
    assert {"git", "cp", "rm", "mkdir", "sha256sum"} <= HOST_TOOLS
    assert "python3" not in HOST_TOOLS
    assert "curl" not in HOST_TOOLS
