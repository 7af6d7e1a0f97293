"""The section checker (``validation.check_section``) and the import budget
of the command line front end."""

from __future__ import annotations

import pytest
import yaml
from helpers import modules_loaded_by

from socks.builders.repo import RepoProjectModel
from socks.builders.script import ScriptProjectModel
from socks.configtree import ConfigTree
from socks.errors import ValidationError
from socks.project import Project
from socks.validation import BlockProjectModel, Schema, check_section

DEFAULTS = "project-zynqmp-default.yml"
MAIN = "socks.yml"

VIVADO_STEPS = ('      steps:\n        - cp "$SOCKS_PROJECT_DIR/src/vivado/'
                'design.xsa" "$SOCKS_STAGE_DIR/system.xsa"\n')
DEVICETREE_DEP = ("        - src/devicetree\n      dependencies:\n"
                  "        vivado: temp/vivado/output/bp_vivado_*.tar.gz\n")
VIVADO_EMITS = '      emits:\n        required: ["*.xsa"]\n'
ROOTFS_CONSUMES = "          required: [Image.txt]\n"

# (file, text, replacement, key path, message, text starting on the origin
# line)
CASES = {
    "list given a string": (
        DEFAULTS, VIVADO_STEPS, '      steps: "make"\n',
        "blocks/vivado/project/steps", "expected a list, got a string",
        'steps: "make"'),
    "dict value given an integer": (
        DEFAULTS, DEVICETREE_DEP,
        "        - src/devicetree\n      dependencies: {vivado: 3}\n",
        "blocks/devicetree/project/dependencies/vivado",
        "expected a string, got an integer", "dependencies: {vivado: 3}"),
    "optional string given an integer": (
        DEFAULTS, VIVADO_EMITS, VIVADO_EMITS + "      import_src: 5\n",
        "blocks/vivado/project/import_src",
        "expected a string or null, got an integer", "import_src: 5"),
    "string given a list": (
        MAIN, "      kconfig_file: .config\n", "      kconfig_file: [a]\n",
        "blocks/kernel/project/kconfig_file",
        "expected a string, got a list", "kconfig_file: [a]"),
    "schema dict given a list": (
        DEFAULTS, ROOTFS_CONSUMES, ROOTFS_CONSUMES.replace(
            "required: [Image.txt]", "[Image.txt]"),
        "blocks/rootfs/project/consumes/kernel",
        "expected a mapping, got a list", "[Image.txt]"),
    "unknown key in build_srcs": (
        MAIN, "        source: kernel-origin\n",
        "        source: kernel-origin\n        mirror: elsewhere\n",
        "blocks/kernel/project/build_srcs/mirror",
        "unknown key (allowed: branch, source)", "mirror: elsewhere"),
    "unknown key in emits": (
        DEFAULTS, VIVADO_EMITS, VIVADO_EMITS + "        forbidden: []\n",
        "blocks/vivado/project/emits/forbidden",
        "unknown key (allowed: optional, required)", "forbidden: []"),
    "unknown key in consumes/<dep>": (
        DEFAULTS, ROOTFS_CONSUMES, ROOTFS_CONSUMES + "          exclude: [x]\n",
        "blocks/rootfs/project/consumes/kernel/exclude",
        "unknown key (allowed: optional, required)", "exclude: [x]"),
    "missing build_srcs/source": (
        MAIN, "        source: kernel-origin\n", "",
        "blocks/kernel/project/build_srcs/source", "missing required key",
        "branch: "),
    "missing container/image": (
        MAIN, "      image: kernel-builder-alma9\n", "",
        "blocks/kernel/container/image", "missing required key",
        'tag: "{{external_tools'),
    "non-string key": (
        MAIN, "      kconfig_file: .config\n",
        "      kconfig_file: .config\n      1: x\n",
        "blocks/kernel/project/1",
        "unknown key (allowed: build_srcs, config_snippets, consumes, "
        "dependencies, emits, import_src, inputs, kconfig_file, outputs, "
        "patches, steps)", "1: x"),
    "image hook": (
        DEFAULTS, "        rootfs: temp/rootfs/output/bp_rootfs_*.tar.gz\n", "",
        "blocks/image/project",
        "the image must consume at least one file-system block "
        "(rootfs or ramfs)", "dependencies:\n        atf:"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_section_error_located(project_dir, case):
    name, old, new, key_path, message, origin_text = CASES[case]
    config = project_dir / name
    text = config.read_text(encoding="utf-8")
    assert text.count(old) == 1
    text = text.replace(old, new)
    config.write_text(text, encoding="utf-8")
    assert text.count(origin_text) == 1
    line = text[:text.index(origin_text)].count("\n") + 1
    with pytest.raises(ValidationError) as exc:
        Project.load(project_dir / MAIN)
    assert exc.value.args[0] == message
    assert exc.value.key_path == key_path
    assert exc.value.origin == f"{config}:{line}"


def test_dict_key_of_wrong_type_located():
    tree = ConfigTree({}, (("f.yml", yaml.compose("\n\np: x\n")),), "f.yml")
    with pytest.raises(ValidationError) as exc:
        check_section({"dependencies": {3: "x"}}, BlockProjectModel, "p", tree)
    assert str(exc.value) == ("expected a string as key, got an integer "
                              "(at 'p/dependencies/3', in f.yml:3)")


def test_section_must_be_a_mapping():
    tree = ConfigTree({}, (("f.yml", yaml.compose("\n" * 6 + "p: x\n")),),
                      "f.yml")
    with pytest.raises(ValidationError, match="expected a mapping, got null"):
        check_section(None, BlockProjectModel, "p", tree)


class Rule(Schema):
    required: list[str] = []


class Section(Schema):
    name: str | None = None
    rule: Rule = {}
    rules: dict[str, Rule] = {}
    extra: dict = {"a": [1]}


def test_defaults_filled_in_with_the_dumped_shape():
    tree = ConfigTree({})
    out = check_section({"rules": {"x": {}}}, Section, "s", tree)
    assert out == {"name": None, "rule": {"required": []},
                   "rules": {"x": {"required": []}}, "extra": {"a": [1]}}
    out["extra"]["a"].append(2)
    assert Section.extra == {"a": [1]}


def test_check_hook_rejects_with_section_path():
    class Pair(Schema):
        low: str = "a"
        high: str = "b"

        @classmethod
        def check(cls, value):
            if value["low"] > value["high"]:
                raise ValueError("low must not exceed high")

    tree = ConfigTree({}, (("f.yml", yaml.compose("\ns: x\n")),), "f.yml")
    assert check_section({}, Pair, "s", tree) == {"low": "a", "high": "b"}
    with pytest.raises(ValidationError) as exc:
        check_section({"low": "z"}, Pair, "s", tree)
    assert (exc.value.key_path, exc.value.origin) == ("s", "f.yml:2")


def test_repo_schema_keys_in_declaration_order():
    tree = ConfigTree({})
    out = check_section({"build_srcs": {"source": "r"}}, RepoProjectModel,
                        "p", tree)
    assert list(out) == [
        "import_src", "dependencies", "emits", "inputs", "steps", "outputs",
        "consumes", "build_srcs", "patches", "config_snippets", "kconfig_file"]
    assert out["build_srcs"] == {"source": "r", "branch": ""}


def test_defaults_not_shared_between_blocks(project_dir):
    config = project_dir / DEFAULTS
    ramfs_steps = ('      steps:\n        - cp "$SOCKS_PROJECT_DIR/src/ramfs/'
                   'init.sh" "$SOCKS_STAGE_DIR/initramfs.cpio"\n')
    text = config.read_text(encoding="utf-8")
    assert text.count(ramfs_steps) == 1
    config.write_text(text.replace(ramfs_steps, ""), encoding="utf-8")
    project = Project.load(project_dir / MAIN)
    image = project.builders["image"].settings
    ramfs = project.builders["ramfs"].settings
    assert image["steps"] == ramfs["steps"] == []
    image["steps"].append("echo mutated")
    image["emits"]["required"].append("*.img")
    assert ramfs["steps"] == []
    assert ramfs["emits"] == {"required": [], "optional": []}
    assert ScriptProjectModel.steps == []
    reloaded = Project.load(project_dir / MAIN)
    assert reloaded.builders["image"].settings["steps"] == []


# Modules that neither the import of the CLI nor --show-config needs.
NOT_AT_STARTUP = ("tarfile", "concurrent.futures", "subprocess", "argparse",
                  "dataclasses", "socks.configedit", "socks.fixture",
                  "urllib.request", "hashlib")


def test_cli_import_loads_no_pydantic_and_no_urllib_request(project_dir):
    config = project_dir / "socks.yml"
    for code in ("import socks.cli",
                 "from socks.cli import main\n"
                 f"assert main(['-f', {str(config)!r}, '--show-config']) == 0"):
        modules = modules_loaded_by(code)
        assert "socks.cli" in modules
        assert [m for m in modules if m.startswith("pydantic")] == []
        assert sorted(set(NOT_AT_STARTUP) & modules) == [], code
