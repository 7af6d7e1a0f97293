"""Typed validation of the general section and block sections."""

from __future__ import annotations

import copy
import json
import os

import pytest

from socks import blockpackage as bp
from socks import builders  # noqa: F401  (registers the built-in builders)
from socks import cli
from socks.configtree import ConfigTree, process_project
from socks.errors import ValidationError
from socks.project import Project
from socks.registry import builder_class
from socks.validation import (ALL_CORES, BlockProjectModel, GeneralSettings,
                              validate_block, validate_general)


@pytest.fixture
def fixture_tree(project_dir):
    return process_project(project_dir / "socks.yml")


def drop_block(tree: ConfigTree, block_id: str) -> ConfigTree:
    root = copy.deepcopy(tree.root)
    del root["blocks"][block_id]
    return ConfigTree(root, tree.layers, tree.source_file)


def validate(tree: ConfigTree, block_id: str):
    """``validate_block`` with the schema of the block's configured builder."""
    builder = tree.get(f"blocks/{block_id}/builder")
    return validate_block(tree, block_id, builder_class(builder).schema)


def test_fixture_general_settings(fixture_tree):
    settings = validate_general(fixture_tree)
    assert settings.project_type == "ZynqMP"
    assert settings.project_name == "zynqmp-mock"
    assert settings.container_tool == "disabled"
    assert settings.max_threads == 4
    assert settings.effective_threads() == 4


def test_missing_mandatory_block_named(fixture_tree):
    with pytest.raises(ValidationError, match="missing mandatory block: image"):
        validate_general(drop_block(fixture_tree, "image"))


def test_rootfs_without_ramfs_is_valid(fixture_tree):
    validate_general(drop_block(fixture_tree, "ramfs"))


def test_both_filesystems_absent_rejected(fixture_tree):
    tree = drop_block(drop_block(fixture_tree, "ramfs"), "rootfs")
    with pytest.raises(ValidationError, match="ramfs, rootfs"):
        validate_general(tree)


def test_unknown_project_type():
    tree = ConfigTree({"project": {"type": "Banana", "name": "x"},
                       "blocks": {"a": {}}})
    with pytest.raises(ValidationError, match="unknown project type"):
        validate_general(tree)


def test_unknown_project_type_names_its_line(project_dir):
    config = project_dir / "socks.yml"
    config.write_text(config.read_text().replace("type: ZynqMP",
                                                 "type: Versal"),
                      encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        Project.load(config)
    assert str(info.value) == (
        f"unknown project type 'Versal' (known: ZynqMP) "
        f"(at 'project/type', in {config.resolve()}:8)")


def test_missing_required_keys():
    with pytest.raises(ValidationError, match="project/type"):
        validate_general(ConfigTree({"project": {"name": "x"}}))


def test_invalid_container_tool(fixture_tree):
    root = copy.deepcopy(fixture_tree.root)
    root["external_tools"]["container_tool"] = "rocket"
    with pytest.raises(ValidationError, match="container_tool"):
        validate_general(ConfigTree(root, source_file="f"))


def test_invalid_max_threads(fixture_tree):
    root = copy.deepcopy(fixture_tree.root)
    root["external_tools"]["max_threads"] = 0
    with pytest.raises(ValidationError, match="max_threads"):
        validate_general(ConfigTree(root, source_file="f"))


def test_all_cores_sentinel():
    settings = GeneralSettings(project_type="ZynqMP", project_name="x",
                               max_threads=ALL_CORES)
    assert settings.effective_threads() >= 1


def test_validate_block_common_fields(fixture_tree):
    section = validate(fixture_tree, "vivado")
    assert section["builder"] == "Script_Builder"
    assert section["source"] == "build"
    assert section["container"] == {"image": "socks-mock-builder",
                                    "tag": "socks"}


def test_validate_block_dependencies(fixture_tree):
    section = validate(fixture_tree, "image")
    assert set(section["project"]["dependencies"]) == {
        "atf", "devicetree", "fsbl", "kernel", "pmu_fw", "uboot", "vivado",
        "rootfs"}


def test_unknown_key_rejected_with_path(fixture_tree):
    root = copy.deepcopy(fixture_tree.root)
    root["blocks"]["vivado"]["typo_key"] = 1
    tree = ConfigTree(root, fixture_tree.layers,
                      fixture_tree.source_file)
    with pytest.raises(ValidationError) as exc:
        validate(tree, "vivado")
    assert "blocks/vivado" in exc.value.key_path


def test_unknown_project_key_rejected_by_schema(fixture_tree):
    root = copy.deepcopy(fixture_tree.root)
    root["blocks"]["vivado"]["project"]["typo"] = 1

    class Schema(BlockProjectModel):
        inputs: list[str] = []
        steps: list[str] = []
        outputs: list[str] = []
        consumes: dict = {}

    tree = ConfigTree(root, source_file="f")
    with pytest.raises(ValidationError) as exc:
        validate_block(tree, "vivado", Schema)
    assert "typo" in exc.value.key_path


def test_import_requires_import_src(fixture_tree):
    root = copy.deepcopy(fixture_tree.root)
    root["blocks"]["vivado"]["source"] = "import"
    with pytest.raises(ValidationError, match="import_src"):
        validate(ConfigTree(root, source_file="f"), "vivado")


def test_invalid_source_mode(fixture_tree):
    root = copy.deepcopy(fixture_tree.root)
    root["blocks"]["vivado"]["source"] = "steal"
    with pytest.raises(ValidationError, match="source"):
        validate(ConfigTree(root, source_file="f"), "vivado")


def test_absolute_dependency_path_rejected(fixture_tree):
    root = copy.deepcopy(fixture_tree.root)
    root["blocks"]["image"]["project"]["dependencies"]["vivado"] = \
        "/abs/bp_vivado.tar.gz"
    with pytest.raises(ValidationError, match="absolute"):
        validate(ConfigTree(root, source_file="f"), "image")


def test_missing_container_section(fixture_tree):
    root = copy.deepcopy(fixture_tree.root)
    del root["blocks"]["vivado"]["container"]
    with pytest.raises(ValidationError, match="container"):
        validate(ConfigTree(root, source_file="f"), "vivado")


def add_dependency(project_dir, block_id: str, dep_id: str, ref: str) -> None:
    config = project_dir / "project-zynqmp-default.yml"
    text = config.read_text(encoding="utf-8")
    anchor = f"        - src/{block_id}\n"
    assert anchor in text
    config.write_text(text.replace(anchor, anchor + (
        f"      dependencies:\n        {json.dumps(dep_id)}: {ref}\n")),
        encoding="utf-8")


@pytest.mark.parametrize("block_id", ["..", ".locks", "a\\b", "a/b", ""])
def test_block_id_must_be_a_plain_folder_name(project_dir, capsys, block_id):
    with open(project_dir / "socks.yml", "a", encoding="utf-8") as fh:
        fh.write(f"  {json.dumps(block_id)}:\n    builder: Script_Builder\n"
                 f"    container:\n      image: socks-mock-builder\n")
    # 'clean' would remove temp/<block_id>/: for '..' the whole project.
    assert cli.main(["-f", str(project_dir / "socks.yml"), "all",
                     "clean"]) == 1
    err = capsys.readouterr().err
    assert f"invalid id {block_id!r}" in err
    assert f"at 'blocks/{block_id}'" in err
    assert (project_dir / "socks.yml").is_file()


@pytest.mark.parametrize("dep_id", ["../../../victim", ".victim", "a\\b", ""])
def test_dependency_id_must_be_a_plain_folder_name(project_dir, capsys,
                                                   dep_id):
    victim = project_dir / "victim"
    victim.mkdir()
    (victim / "data.txt").write_text("keep me\n", encoding="utf-8")
    payload = project_dir / "payload.txt"
    payload.write_text("payload\n", encoding="utf-8")
    bp.create_package("prebuilt", project_dir / "prebuilt",
                      {"payload.txt": payload}, stamp="20260101T000000Z")
    add_dependency(project_dir, "atf", dep_id,
                   "prebuilt/bp_prebuilt_*.tar.gz")
    # deps/<dep_id>/ is replaced whole when the package is extracted.
    assert cli.main(["-f", str(project_dir / "socks.yml"), "atf",
                     "build"]) == 1
    err = capsys.readouterr().err
    assert f"at 'blocks/atf/project/dependencies/{dep_id}'" in err
    assert sorted(os.listdir(victim)) == ["data.txt"]
    assert not (project_dir / ".victim.digest").exists()
