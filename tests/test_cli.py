"""Command line: grammar, runtime-generated help, exit codes."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socks import cli
from socks.errors import UsageError
from socks.fixture import materialize
from socks.graph import ALL
from socks.project import Project

REPO_BLOCK_VERBS = ["prepare", "build", "clean", "create-patches",
                 "create-cfg-snippet", "start-container", "menucfg"]


# --- parsing ----------------------------------------------------------------

def test_parse_simple_invocation():
    parsed = cli.parse(["kernel", "build"])
    inv = parsed.invocation
    assert (inv.target, inv.command, inv.group) == ("kernel", "build", False)


def test_parse_group_flag():
    for argv in (["rootfs", "-g", "build"], ["rootfs", "--group", "build"]):
        inv = cli.parse(argv).invocation
        assert inv.group is True
        assert inv.command == "build"


def test_parse_all_target():
    inv = cli.parse(["all", "build"]).invocation
    assert inv.target == ALL


def test_parse_group_with_all_ignored_with_notice(caplog):
    with caplog.at_level("INFO"):
        inv = cli.parse(["all", "-g", "build"]).invocation
    assert inv.group is False
    assert "no effect" in caplog.text


def test_parse_file_option():
    parsed = cli.parse(["-f", "other.yml", "kernel", "build"])
    assert parsed.project_file == "other.yml"


def test_parse_help_levels():
    assert cli.parse(["-h"]).help.level == "tool"
    assert cli.parse(["--help"]).help.level == "tool"
    block = cli.parse(["kernel", "-h"]).help
    assert (block.level, block.block) == ("block", "kernel")
    command = cli.parse(["kernel", "build", "-h"]).help
    assert (command.level, command.block, command.command) \
        == ("command", "kernel", "build")


def test_parse_errors():
    with pytest.raises(UsageError, match="missing block"):
        cli.parse([])
    with pytest.raises(UsageError, match="missing command"):
        cli.parse(["kernel"])
    with pytest.raises(UsageError, match="unknown option"):
        cli.parse(["--frobnicate", "kernel", "build"])
    with pytest.raises(UsageError, match="unexpected argument"):
        cli.parse(["kernel", "build", "extra"])
    with pytest.raises(UsageError, match="needs a value"):
        cli.parse(["-f"])


TOKENS = st.sampled_from(
    ["kernel", "all", "build", "clean", "-g", "-h", "-f", "x.yml",
     "--group", "--help", "-v", "--weird", "extra", "--show-config", ""])


@settings(max_examples=500, deadline=None)
@given(argv=st.lists(TOKENS, max_size=6))
def test_parse_is_total(argv):
    # Every argv either parses or raises a usage error; nothing else escapes.
    try:
        parsed = cli.parse(list(argv))
    except UsageError:
        return
    assert (parsed.help is not None or parsed.invocation is not None
            or parsed.show_config)


# --- help generation ---------------------------------------------------------

def test_tool_help_without_project(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # no socks.yml anywhere
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: socks")


def test_tool_help_lists_blocks(project):
    text = cli.tool_help(project)
    for block in project.builders:
        assert f"\n  {block}" in text


def test_kernel_help_lists_seven_verbs(project):
    text = cli.block_help(project, "kernel")
    assert "{" + ",".join(REPO_BLOCK_VERBS) + "}" in text
    for verb in REPO_BLOCK_VERBS:
        assert f"\n    {verb}" in text
    assert "-g, --group" in text


def test_help_reflects_builder_swap(project, project_dir):
    script_help = cli.block_help(project, "vivado")
    assert "create-patches" not in script_help
    assert "{prepare,build,clean,start-container}" in script_help


def test_help_is_byte_deterministic(project):
    for block in ("kernel", "vivado", "image"):
        assert cli.block_help(project, block) == cli.block_help(project, block)
    assert cli.tool_help(project) == cli.tool_help(project)


def test_command_help(project):
    text = cli.command_help(project, "kernel", "create-patches")
    assert "patch" in text
    assert "configuring" in text
    with pytest.raises(UsageError, match="supported"):
        cli.command_help(project, "vivado", "menucfg")


def test_block_help_unknown_block(project):
    with pytest.raises(UsageError, match="valid:"):
        cli.block_help(project, "nope")


# --- main() exit codes --------------------------------------------------------

def run_cli(project_dir: Path, *args: str) -> int:
    return cli.main(["-f", str(project_dir / "socks.yml"), *args])


def test_main_build_success(project_dir, capsys):
    assert run_cli(project_dir, "atf", "build") == 0
    out = capsys.readouterr().out
    assert "atf: build done" in out


def test_main_skip_reported(project_dir, capsys):
    run_cli(project_dir, "atf", "build")
    assert run_cli(project_dir, "atf", "build") == 0
    assert "atf: build skipped" in capsys.readouterr().out


def test_main_builds_project_in_path_with_spaces(tmp_path, capsys):
    project_dir = materialize(tmp_path / "my socks project")
    assert run_cli(project_dir, "all", "build") == 0, capsys.readouterr().err
    image = max((project_dir / "temp" / "image" / "output")
                .glob("bp_image_*.tar.gz"))
    with tarfile.open(image, "r:gz") as tar:
        manifest = tar.extractfile("boot.img").read().decode()
    assert len(manifest.splitlines()) == 8


def test_main_unknown_block(project_dir, capsys):
    assert run_cli(project_dir, "nope", "build") == 1
    err = capsys.readouterr().err
    assert "unknown block" in err and "valid:" in err


def test_main_unsupported_command(project_dir, capsys):
    assert run_cli(project_dir, "vivado", "menucfg") == 1
    assert "supported:" in capsys.readouterr().err


def test_main_missing_config(tmp_path, capsys):
    assert cli.main(["-f", str(tmp_path / "none.yml"), "all", "build"]) == 1
    assert "not found" in capsys.readouterr().err


def test_main_invalid_config(project_dir, capsys):
    config = project_dir / "socks.yml"
    config.write_text(config.read_text().replace("type: ZynqMP",
                                                 "type: Unknown"),
                      encoding="utf-8")
    assert run_cli(project_dir, "all", "build") == 1
    assert "unknown project type" in capsys.readouterr().err


def test_main_builder_failure_exit_2(project_dir, capsys):
    config = project_dir / "socks.yml"
    config.write_text(config.read_text().replace(
        '- cat "$SOCKS_SRC_DIR/Makefile"', "- exit 9 # "), encoding="utf-8")
    assert run_cli(project_dir, "kernel", "build") == 2


def test_main_usage_error(capsys):
    assert cli.main(["kernel"]) == 1
    assert "usage: socks" in capsys.readouterr().err


def test_main_show_config(project_dir, capsys):
    assert cli.main(["-f", str(project_dir / "socks.yml"),
                     "--show-config"]) == 0
    out = capsys.readouterr().out
    assert 'version: "2022.2"' in out
    assert "{{" not in out


def test_unquoted_date_is_kept_as_the_text_it_spells(project_dir, capsys):
    config = project_dir / "socks.yml"
    config.write_text(config.read_text().replace(
        "  name: zynqmp-mock\n",
        '  name: "zynqmp-{{project/released}}"\n  released: 2024-01-01\n'),
        encoding="utf-8")
    assert cli.main(["-f", str(config), "--show-config"]) == 0
    out = capsys.readouterr().out
    assert 'name: "zynqmp-2024-01-01"' in out
    assert 'released: "2024-01-01"' in out


def test_binary_value_breaks_neither_config_nor_build(project_dir, capsys):
    config = project_dir / "socks.yml"
    with open(config, "a", encoding="utf-8") as fh:
        fh.write('\nnotes: !!binary aGVsbG8=\nsee: "notes {{notes}}"\n')
    assert cli.main(["-f", str(config), "--show-config"]) == 0
    out = capsys.readouterr().out
    assert 'notes: "aGVsbG8="' in out  # kept as the text it spells
    assert 'see: "notes aGVsbG8="' in out
    assert cli.main(["-f", str(config), "all", "build"]) == 0


def test_block_help_via_main(project_dir, capsys):
    assert run_cli(project_dir, "kernel", "--help") == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: socks kernel")
    verbs = re.findall(r"^    ([a-z-]+)\s", out, flags=re.M)
    assert verbs == REPO_BLOCK_VERBS


def test_python_m_socks_cli_builds(project_dir):
    src_root = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src_root), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "socks.cli", "-f",
         str(project_dir / "socks.yml"), "all", "build"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "image: build done" in proc.stdout
    assert list((project_dir / "temp" / "image" / "output")
                .glob("bp_image_*.tar.gz"))
