"""``create-patches`` and ``create-cfg-snippet`` append to the list that
defines the block's effective list, in its own file and layout, and change
no other byte; a list that cannot be edited in place is refused, located,
with the file untouched."""

from __future__ import annotations

import difflib
import os
import subprocess
import tempfile
import textwrap
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from socks import cli
from socks.configedit import plan_list_append
from socks.configtree import process_project
from socks.errors import ConfigError
from socks.project import Project

SHIPPED = "0001-add-mock-driver.patch"
BLOCK_LIST = f"      patches:\n        - {SHIPPED}\n"


def socks(config: Path, *args: str) -> int:
    return cli.main(["-f", str(config), "kernel", *args])


def commit_feature(project_dir: Path) -> None:
    checkout = project_dir / "temp" / "kernel" / "src"
    (checkout / "feature.c").write_text("int feature;\n", encoding="utf-8")
    for args in (["add", "feature.c"], ["commit", "-q", "-m", "add feature"]):
        subprocess.run(["git", "-C", str(checkout), *args], check=True,
                       capture_output=True)


def edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")


def test_flow_list_gains_the_new_patch_and_still_parses(project_dir):
    config = project_dir / "socks.yml"
    edit(config, BLOCK_LIST, f"      patches: [{SHIPPED}]\n")
    assert socks(config, "build") == 0
    commit_feature(project_dir)

    assert socks(config, "create-patches") == 0
    assert f"patches: [{SHIPPED}, 0002-add-feature.patch]\n" \
        in config.read_text(encoding="utf-8")
    assert process_project(config).get("blocks/kernel/project/patches") \
        == [SHIPPED, "0002-add-feature.patch"]
    assert socks(config, "build") == 0


def test_imported_list_gains_the_new_patch_in_its_own_file(project_dir):
    config = project_dir / "socks.yml"
    imported = project_dir / "project-zynqmp-default.yml"
    edit(config, BLOCK_LIST, "")
    with open(imported, "a", encoding="utf-8") as fh:
        fh.write(f"\n  kernel:\n    project:\n{BLOCK_LIST}")
    assert socks(config, "build") == 0
    commit_feature(project_dir)
    main_text = config.read_bytes()

    assert socks(config, "create-patches") == 0
    assert config.read_bytes() == main_text
    assert imported.read_text(encoding="utf-8").endswith(
        f"{BLOCK_LIST}        - 0002-add-feature.patch\n")
    assert process_project(config).get("blocks/kernel/project/patches") \
        == [SHIPPED, "0002-add-feature.patch"]
    assert socks(config, "build") == 0


REFUSED = {
    "alias": ("""\
        lists:
          shipped: &shipped [a.patch]
        blocks:
          kernel:
            project:
              patches: *shipped
        """, 6, "anchor"),
    "merge key": ("""\
        defaults: &defaults
          patches: [a.patch]
        blocks:
          kernel:
            project:
              <<: *defaults
              kconfig_file: .config
        """, 6, "merge key"),
    "absent key after an alias": ("""\
        lists:
          steps: &steps [make]
        blocks:
          kernel:
            project:
              steps: *steps
        """, 6, "would change other values"),
    "not a list": ("""\
        blocks:
          kernel:
            project:
              patches: a.patch
        """, 4, "not a list"),
    "flow project": ("""\
        blocks:
          kernel:
            project: {kconfig_file: .config, patches: [a.patch]}
        """, 3, "not a block mapping"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_edit_is_located_and_leaves_the_file(tmp_path, case):
    text, line, reason = REFUSED[case]
    config = tmp_path / "socks.yml"
    config.write_text(textwrap.dedent(text), encoding="utf-8")
    before = config.read_bytes()
    with pytest.raises(ConfigError, match=reason) as exc:
        plan_list_append(process_project(config), "kernel", "patches",
                         ["b.patch"])
    assert exc.value.origin == f"{config}:{line}"
    assert config.read_bytes() == before


# -- random layouts -------------------------------------------------------

PLAIN = st.from_regex(r"[a-z][a-z0-9._-]{0,6}", fullmatch=True)
NEEDS_QUOTES = st.sampled_from(
    ["a b.patch", "x#y.patch", "c, d.patch", "e: f", "yes", "0003", "[g]",
     "ü.patch", "'q'", "-", "~", "1.5", "a\"b"])


@st.composite
def layouts(draw):
    step = draw(st.sampled_from([2, 4]))
    return dict(
        step=step,
        eol=draw(st.sampled_from(["\n", "\r\n"])),
        where=draw(st.sampled_from(["main", "imported", "absent"])),
        style=draw(st.sampled_from(["block", "flow", "flow-lines"])),
        existing=draw(st.lists(PLAIN, max_size=3)),
        dash_indent=draw(st.sampled_from([0, step])),
        comments=draw(st.booleans()),
        trailing_comma=draw(st.booleans()),
        blank_after=draw(st.booleans()),
        before=draw(st.sampled_from([None, "scalar", "mapping"])),
        after=draw(st.sampled_from([None, "scalar", "list", "block-scalar"])),
        items=draw(st.lists(st.one_of(PLAIN, NEEDS_QUOTES), min_size=1,
                            max_size=3)))


def list_lines(layout: dict, pad: str) -> list[str]:
    existing, step = layout["existing"], layout["step"]
    note = "  # note" if layout["comments"] else ""
    style = layout["style"] if existing else \
        layout["style"].replace("block", "flow")
    if style == "block":
        dash = pad + " " * layout["dash_indent"]
        return [f"patches:{note}"] + [f"{dash}- {e}{note}"
                                      for e in existing]
    comma = "," if layout["trailing_comma"] and existing else ""
    if style == "flow":
        return [f"patches: [{', '.join(existing)}{comma}]{note}"]
    inner = pad + " " * step
    return (["patches: ["]
            + [f"{inner}{e}{',' if i < len(existing) - 1 else comma}{note}"
               for i, e in enumerate(existing)]
            + [f"{pad}]{note}"])


def project_lines(layout: dict, pad: str, with_list: bool) -> list[str]:
    """Key lines of a ``project`` mapping whose keys sit at ``pad``."""
    inner = pad + " " * layout["step"]
    lines = []
    if layout["before"] == "scalar":
        lines += ["kconfig_file: .config"]
    elif layout["before"] == "mapping":
        lines += ["build_srcs:", f"{inner}source: kernel-origin  # origin"]
    if with_list:
        lines += list_lines(layout, pad)
        if layout["blank_after"]:
            lines += ["", "# after the list"]
    if layout["after"] == "scalar":
        lines += ["branch_note: main"]
    elif layout["after"] == "list":
        lines += ["steps:", f"{inner}- make all"]
    elif layout["after"] == "block-scalar":
        lines += ["script: |", f"{inner}make all", "", ""]
    return indented(lines or ["kconfig_file: .config"], pad)


def indented(lines: list[str], pad: str) -> list[str]:
    """``lines`` with each key line, not yet indented, moved to ``pad``."""
    return [line if not line or line.startswith(("#", " ")) else pad + line
            for line in lines]


def write_layout(root: Path, layout: dict) -> tuple[Path, Path]:
    s = " " * layout["step"]
    main = ["# main file", "import:", f"{s}- other.yml", "blocks:",
            f"{s}kernel:", f"{s * 2}project:"]
    main += project_lines(layout, s * 3, layout["where"] == "main")
    main += [f"{s}rootfs:", f"{s * 2}builder: Script_Builder", "# end"]
    other = ["blocks:", f"{s}kernel:", f"{s * 2}builder: Repo_Script_Builder"]
    if layout["where"] == "imported":
        other += [f"{s * 2}project:"]
        other += indented(list_lines(layout, s * 3), s * 3)
    other += [f"{s}rootfs:", f"{s * 2}project:", f"{s * 3}patches:",
              f"{s * 3}- r.patch"]
    paths = (root / "socks.yml", root / "other.yml")
    for path, lines in zip(paths, (main, other)):
        path.write_bytes("".join(line + layout["eol"]
                                 for line in lines).encode())
    return paths


def only_the_list_changed(old: str, new: str) -> bool:
    """One run of inserted lines, or one line edited in place."""
    changes = [op for op in difflib.SequenceMatcher(
        None, old.splitlines(True), new.splitlines(True),
        autojunk=False).get_opcodes() if op[0] != "equal"]
    if len(changes) != 1:
        return False
    tag, i1, i2, j1, j2 = changes[0]
    return tag == "insert" or (tag, i2 - i1, j2 - j1) == ("replace", 1, 1)


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_random_layouts_gain_exactly_the_new_items(layout):
    items = layout["items"]
    with tempfile.TemporaryDirectory() as tmp:
        main, other = write_layout(Path(tmp), layout)
        before = {path: path.read_bytes() for path in (main, other)}
        old = process_project(main).get("blocks/kernel/project/patches", [])

        plan_list_append(process_project(main), "kernel", "patches",
                         items)()

        edited = other if layout["where"] == "imported" else main
        for path, text in before.items():
            if path != edited:
                assert path.read_bytes() == text
        new_text = edited.read_bytes().decode()
        expected = yaml.safe_load(before[edited])
        section = expected["blocks"]["kernel"].setdefault("project", {})
        section["patches"] = section.get("patches", []) + items
        assert yaml.safe_load(new_text) == expected
        assert only_the_list_changed(before[edited].decode(), new_text)
        assert new_text.count("\n") == new_text.count(layout["eol"])
        assert process_project(main).get("blocks/kernel/project/patches") \
            == old + items


# -- refusals write nothing -----------------------------------------------

def test_refused_create_patches_writes_no_patch_or_record(project_dir):
    config = project_dir / "socks.yml"
    anchored = f"      patches: &p [{SHIPPED}]\n"
    edit(config, BLOCK_LIST, anchored)
    assert socks(config, "build") == 0
    commit_feature(project_dir)
    files = project_dir / "src" / "kernel"
    work = project_dir / "temp" / "kernel"
    kept = [config, work / "checkout.json"]
    before = ({path: path.read_bytes() for path in kept},
              sorted(os.listdir(files)), sorted(os.listdir(work)))

    builder = Project.load(config).builders["kernel"]
    with pytest.raises(ConfigError, match="anchor") as exc:
        builder.apply("create-patches")
    line = config.read_text().splitlines().index(anchored.rstrip()) + 1
    assert exc.value.origin == f"{config}:{line}"
    assert ({path: path.read_bytes() for path in kept},
            sorted(os.listdir(files)), sorted(os.listdir(work))) == before
    assert socks(config, "build") == 0


def test_refused_create_cfg_snippet_writes_no_snippet(project_dir):
    config = project_dir / "socks.yml"
    snippets = "      config_snippets:\n        - cfg-snippet-0001.cfg\n"
    anchored = "      config_snippets: &s [cfg-snippet-0001.cfg]\n"
    edit(config, snippets, anchored)
    assert socks(config, "build") == 0
    work = project_dir / "temp" / "kernel"
    with open(work / "src" / ".config", "a", encoding="utf-8") as fh:
        fh.write("CONFIG_NEW_OPTION=y\n")
    files = project_dir / "src" / "kernel"
    kept = [config, work / "kconfig.last"]
    before = ({path: path.read_bytes() for path in kept},
              sorted(os.listdir(files)))

    builder = Project.load(config).builders["kernel"]
    with pytest.raises(ConfigError, match="anchor") as exc:
        builder.apply("create-cfg-snippet")
    line = config.read_text().splitlines().index(anchored.rstrip()) + 1
    assert exc.value.origin == f"{config}:{line}"
    assert ({path: path.read_bytes() for path in kept},
            sorted(os.listdir(files))) == before
