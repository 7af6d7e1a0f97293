"""Hostile configurations end in a located error: never a traceback, a
crash, a hang or a memory exhaustion.  Each case runs ``socks`` in a child
process that caps its own address space and time."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
import yaml
from helpers import run_socks_capped
from hypothesis import given, settings
from hypothesis import strategies as st

from socks.configtree import MAX_DEPTH, MAX_VALUES
from socks.fixture import materialize

BASES = ("libyaml", "python")
TOO_DEEP = f"nested deeper than {MAX_DEPTH} levels, aliases expanded"
TOO_MANY = f"more than {MAX_VALUES} values once aliases are expanded"


def assert_fails_with(result, message: str, where: str) -> None:
    """``socks`` exited 1 with ``message`` located at ``where``."""
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    assert message in result.stderr
    assert f"in {where})" in result.stderr


def alias_fan(levels: int, mapping: bool = False) -> str:
    """Top-level keys ``l0``..``l<levels>``, each 9 aliases of the one
    before: a few hundred bytes that expand to ``9 ** levels`` values."""
    def collection(items: list[str]) -> str:
        if mapping:
            return "{" + ", ".join(f"k{i}: {v}" for i, v in
                                   enumerate(items)) + "}"
        return "[" + ", ".join(items) + "]"
    lines = [f"l0: &l0 {collection(['x'] * 9)}"]
    lines += [f"l{i}: &l{i} {collection([f'*l{i - 1}'] * 9)}"
              for i in range(1, levels + 1)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("depth", [5000, 100_000])
def test_deep_flow_nesting_is_refused_before_composing(tmp_path, base, depth):
    # At 100,000 levels libyaml's composer used to overflow the C stack.
    config = tmp_path / "socks.yml"
    config.write_text("a: " + "[" * depth + "]" * depth + "\n")
    result = run_socks_capped(["--show-config"], tmp_path, base)
    assert_fails_with(result, TOO_DEEP, f"{config}:1")


@pytest.mark.parametrize("base", BASES)
def test_deep_block_nesting_is_refused_at_its_line(tmp_path, base):
    config = tmp_path / "socks.yml"
    config.write_text("".join("  " * i + "x:\n" for i in range(1200))
                      + "  " * 1200 + "x: 1\n")
    result = run_socks_capped(["--show-config"], tmp_path, base)
    assert_fails_with(result, TOO_DEEP, f"{config}:{MAX_DEPTH + 1}")


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("text", [
    "a: &x {b: *x}\n",
    "a: &x [1, *x]\n",
    "r: &r {<<: *r}\n",
    # Each alias adds 90 levels to those of the one it names.
    "l0: &l0 " + "[" * 90 + "]" * 90 + "\n" + "".join(
        f"l{i}: &l{i} " + "[" * 90 + f"*l{i - 1}" + "]" * 90 + "\n"
        for i in range(1, 30)),
], ids=["recursive-mapping", "recursive-list", "recursive-merge",
        "alias-chain"])
def test_aliases_count_the_levels_they_expand_to(tmp_path, base, text):
    config = tmp_path / "socks.yml"
    config.write_text(text)
    result = run_socks_capped(["--show-config"], tmp_path, base)
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    assert TOO_DEEP in result.stderr
    assert re.search(rf"in {re.escape(str(config))}:\d+\)", result.stderr)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("mapping", [False, True], ids=["lists", "mappings"])
def test_alias_fan_is_refused_at_the_key_that_breaks_the_budget(
        project_dir, base, mapping):
    # The pattern of CVE-2019-11254: 9 ** 7 values from about 700 bytes.
    # A fan of mappings in two files is also merged key by key.
    config = project_dir / "socks.yml"
    fan = alias_fan(7, mapping=mapping)
    (project_dir / "fan.yml").write_text(fan)
    config.write_text(config.read_text().replace(
        "import:\n", "import:\n  - fan.yml\n") + fan)
    result = run_socks_capped(["all", "build"], project_dir, base)
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    match = re.search(rf"{TOO_MANY} \(at '(l\d)/[^']+', "
                      rf"in {re.escape(str(config))}:(\d+)\)", result.stderr)
    assert match, result.stderr
    # The line of the key that broke it, or of the value a mapping path
    # leads to through the aliases.
    line = config.read_text().splitlines()[int(match[2]) - 1]
    assert line.startswith(f"{match[1]}: " if not mapping else "l0: ")


def test_each_import_is_read_once(tmp_path):
    # Each file imports the next one twice: 2 ** 18 - 1 reads if every
    # import read its file again.
    for i in range(18):
        (tmp_path / f"f{i}.yml").write_text(
            f"import: [f{i + 1}.yml, f{i + 1}.yml]\nk{i}: {i}\n")
    last = tmp_path / "f18.yml"
    last.write_text("x: '{{missing}}'\n")
    result = run_socks_capped(["-f", "f0.yml", "--show-config"], tmp_path)
    assert_fails_with(result, "placeholder references missing key 'missing'",
                      f"{last}:1")


def test_import_chain_is_bounded(tmp_path):
    for i in range(MAX_DEPTH + 5):
        (tmp_path / f"f{i}.yml").write_text(f"import: [f{i + 1}.yml]\n")
    (tmp_path / f"f{MAX_DEPTH + 5}.yml").write_text("x: 1\n")
    result = run_socks_capped(["-f", "f0.yml", "--show-config"], tmp_path)
    assert_fails_with(
        result, f"imports nested deeper than {MAX_DEPTH} files",
        f"{tmp_path / f'f{MAX_DEPTH - 1}.yml'}:1")


def test_a_directory_as_config_is_a_located_error(tmp_path):
    (tmp_path / "conf").mkdir()
    result = run_socks_capped(["-f", "conf", "--show-config"], tmp_path)
    assert_fails_with(result, "cannot read configuration file: Is a "
                      "directory", str(tmp_path / "conf"))


def test_a_config_that_is_not_utf8_is_a_located_error(tmp_path):
    config = tmp_path / "socks.yml"
    config.write_bytes(b"project:\n  name: \xff\n")
    result = run_socks_capped(["--show-config"], tmp_path)
    assert_fails_with(result, "not UTF-8 text: invalid start byte",
                      f"{config}:2")


@pytest.mark.parametrize("closed", [False, True], ids=["chain", "cycle"])
def test_a_chain_of_1500_blocks(project_dir, closed):
    names = [f"c{i:04d}" for i in range(1500)]
    lines = ["blocks:"]
    for i, name in enumerate(names):
        dep = names[i - 1]
        deps = f"{{{dep}: temp/{dep}/output/bp_{dep}_*.tar.gz}}" \
            if i or closed else "{}"
        lines += [f"  {name}:", "    builder: Script_Builder",
                  "    container: {image: x}",
                  f"    project: {{dependencies: {deps}}}"]
    (project_dir / "chain.yml").write_text("\n".join(lines) + "\n")
    config = project_dir / "socks.yml"
    config.write_text(config.read_text().replace(
        "import:\n", "import:\n  - chain.yml\n"))
    result = run_socks_capped(["--show-config"], project_dir)
    assert "Traceback" not in result.stderr
    if closed:
        # c0001's entry for c0000, on line 9, closes c0000 -> c0001.
        assert_fails_with(
            result, "dependency cycle: " + " -> ".join(names + names[:1]),
            f"{project_dir / 'chain.yml'}:9")
    else:
        assert result.returncode == 0, result.stderr
        assert "  c1499:" in result.stdout


def test_an_unsatisfiable_dependency_names_its_line(project_dir):
    (project_dir / "ghost.yml").write_text(
        "blocks:\n  ghost:\n    builder: Script_Builder\n"
        "    container: {image: x}\n    project:\n      dependencies:\n"
        "        gone: temp/gone/output/bp_gone_*.tar.gz\n")
    config = project_dir / "socks.yml"
    config.write_text(config.read_text().replace(
        "import:\n", "import:\n  - ghost.yml\n"))
    result = run_socks_capped(["--show-config"], project_dir)
    assert_fails_with(result, "block 'ghost' depends on 'gone', which is "
                      "neither a configured block nor an importable package",
                      f"{project_dir / 'ghost.yml'}:7")


# Hostile configurations: the fixture's socks.yml imported by a file that
# overrides schema keys with values of the wrong type or with non-string
# keys, and adds aliases, merge keys, deep nesting, placeholder cycles and
# bad imports.
SCHEMA_KEYS = [
    "project/type", "project/name", "external_tools/container_tool",
    "external_tools/max_threads", "blocks", "blocks/kernel",
    "blocks/kernel/builder", "blocks/kernel/source", "blocks/kernel/container",
    "blocks/kernel/container/image", "blocks/kernel/project",
    "blocks/kernel/project/build_srcs", "blocks/kernel/project/patches",
    "blocks/kernel/project/steps", "blocks/image/project/dependencies",
    "blocks/image/project/dependencies/rootfs",
    "blocks/rootfs/project/consumes", "blocks/vivado/project/emits",
    "blocks/vivado/project/import_src",
]
VALUES = st.sampled_from([None, True, 7, -1, 1.5, "", "x", "/abs", "..",
                          [], ["a", 1], {}, {"a": 1}, {1: "x"},
                          {"import": "x"}, "{{project/name}}"])
FRAGMENTS = st.one_of(
    st.builds(alias_fan, st.sampled_from([1, 3, 7]), st.booleans()),
    st.builds(lambda depth, flow: "deep: " + (
        "[" * depth + "]" * depth if flow else "\n" + "".join(
            "  " * i + "x:\n" for i in range(1, depth)) + "  " * depth
        + "x: 1") + "\n", st.sampled_from([5, MAX_DEPTH, 1200, 5000]),
        st.booleans()),
    st.sampled_from([
        "base: &b {x: 1, y: [1, 2]}\nmerged: {<<: *b, z: 3}\n",
        "self: &s {<<: *s}\n",
        "p: '{{q}}'\nq: '{{p}}{{p}}'\n",
        "p: '{{blocks}}'\n",
        "p: '{{ broken'\n",
        "? [a, b]\n: c\n",
        "1: one\ntrue: two\n~: three\n2024-01-02: four\n",
        "dup: 1\ndup: 2\n",
    ]))
IMPORTS = st.lists(st.sampled_from(["missing.yml", "hostile.yml", "loop.yml",
                                    "src", "latin1.yml"]), max_size=2)
ARGVS = st.sampled_from([["--show-config"], ["kernel", "-h"],
                         ["kernel", "build", "-h"], ["all", "clean"],
                         ["vivado", "build"], ["nope", "build"],
                         ["kernel", "frob"], ["rootfs", "-g", "clean"], ["-h"],
                         ["--bogus"]])


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory) -> Path:
    project = materialize(tmp_path_factory.mktemp("hostile") / "proj")
    (project / "loop.yml").write_text("import: [hostile.yml]\n")
    (project / "latin1.yml").write_bytes(b"name: caf\xe9\n")
    return project


def nested(path: str, value) -> dict:
    for part in reversed(path.split("/")):
        value = {part: value}
    return value


@settings(max_examples=50, deadline=None)
@given(overrides=st.lists(st.tuples(st.sampled_from(SCHEMA_KEYS), VALUES),
                          max_size=2),
       fragments=st.lists(FRAGMENTS, max_size=2), imports=IMPORTS,
       argv=ARGVS, verbose=st.booleans(), base=st.sampled_from(BASES))
def test_hostile_configs_end_in_an_exit_code_not_a_crash(
        hostile_dir, overrides, fragments, imports, argv, verbose, base):
    text = yaml.safe_dump({"import": ["socks.yml", *imports]})
    for path, value in overrides:
        text += yaml.safe_dump(nested(path, value))
    text += "".join(fragments)
    (hostile_dir / "hostile.yml").write_text(text)
    argv = ["-f", "hostile.yml"] + ["-v"] * verbose + argv
    result = run_socks_capped(argv, hostile_dir, base)
    assert result.returncode in (0, 1, 2), result.stderr
    assert "Traceback" not in result.stderr
