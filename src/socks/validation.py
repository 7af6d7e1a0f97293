"""Typed validation of the processed configuration tree.

The general section is checked against a registered project type (which
defines the mandatory block set and optional-block groups for one SoC
architecture).  Each block section is checked against a common model plus the
builder-specific schema supplied by the block's builder.
"""

from __future__ import annotations

import copy
import functools
import os
import types
import typing

from .configtree import ConfigTree
from .errors import ValidationError

CONTAINER_TOOLS = ("docker", "podman", "disabled")
ALL_CORES = "all-cores"


class ProjectType(typing.NamedTuple):
    """Block-completeness rules for one SoC architecture."""

    name: str
    mandatory_blocks: tuple[str, ...]
    # Each group requires at least one of its members to be configured.
    optional_groups: tuple[frozenset[str], ...] = ()


_PROJECT_TYPES: dict[str, ProjectType] = {}


def register_project_type(ptype: ProjectType) -> None:
    _PROJECT_TYPES[ptype.name] = ptype


def project_type(name: str) -> ProjectType:
    if name not in _PROJECT_TYPES:
        known = ", ".join(sorted(_PROJECT_TYPES)) or "(none)"
        raise ValidationError(
            f"unknown project type '{name}' (registered: {known})",
            key_path="project/type")
    return _PROJECT_TYPES[name]


register_project_type(ProjectType(
    name="ZynqMP",
    mandatory_blocks=("atf", "devicetree", "fsbl", "image", "kernel",
                      "pmu_fw", "uboot", "vivado"),
    optional_groups=(frozenset({"ramfs", "rootfs"}),),
))


class GeneralSettings(typing.NamedTuple):
    project_type: str
    project_name: str
    container_tool: str = "docker"
    max_threads: int | str = ALL_CORES

    def effective_threads(self) -> int:
        if self.max_threads == ALL_CORES:
            return os.cpu_count() or 1
        return int(self.max_threads)


class Schema:
    """Base of the section schemas.

    Each annotated class attribute is a key of the section; its value, if
    it has one, is the key's default.  ``check_section`` enforces them.
    """

    @classmethod
    def check(cls, value: dict) -> None:
        """Cross-field rule over the checked section; raise ``ValueError``
        to reject it."""


class ContainerModel(Schema):
    image: str
    tag: str = "socks"


class CommonBlockModel(Schema):
    source: str = "build"
    builder: str
    container: ContainerModel
    project: dict = {}


class ContentRuleModel(Schema):
    """Declarative content rule: globs a block package must/may contain."""

    required: list[str] = []
    optional: list[str] = []


class BlockProjectModel(Schema):
    """Base schema for the builder-specific ``project`` subtree.

    Builders subclass this and add their own fields; unknown keys are
    rejected so typos surface at validation time.
    """

    import_src: str | None = None
    dependencies: dict[str, str] = {}
    emits: ContentRuleModel = {}


_REQUIRED = object()


@functools.cache
def _fields(schema: type[Schema]) -> dict[str, tuple[object, object]]:
    """Key name -> (type, default) of ``schema``, base-class keys first."""
    return {name: (tp, getattr(schema, name, _REQUIRED))
            for name, tp in typing.get_type_hints(schema).items()}


def _error(message: str, key_path: str, tree: ConfigTree) -> ValidationError:
    return ValidationError(message, key_path=key_path,
                           origin=tree.origin(key_path))


def _shape(tp) -> type:
    """The Python type a YAML value of type ``tp`` must have."""
    if isinstance(tp, type) and issubclass(tp, Schema):
        return dict
    return typing.get_origin(tp) or tp


_NAMES = {str: "a string", list: "a list", dict: "a mapping",
          type(None): "null", bool: "a boolean", int: "an integer",
          float: "a number"}
_UNIONS = (typing.Union, types.UnionType)


def _name(shape: type) -> str:
    return _NAMES.get(shape, shape.__name__)


def _check(value, tp, key_path: str, tree: ConfigTree):
    """``value`` checked against ``tp``, as a fresh copy."""
    options = typing.get_args(tp) if typing.get_origin(tp) in _UNIONS \
        else (tp,)
    for tp in options:
        if isinstance(value, _shape(tp)):
            break
    else:
        expected = " or ".join(_name(_shape(option)) for option in options)
        raise _error(f"expected {expected}, got {_name(type(value))}",
                     key_path, tree)
    if isinstance(tp, type) and issubclass(tp, Schema):
        return check_section(value, tp, key_path, tree)
    args = typing.get_args(tp)
    if not args:
        return copy.deepcopy(value)
    if isinstance(value, list):
        return [_check(item, args[0], f"{key_path}/{i}", tree)
                for i, item in enumerate(value)]
    out = {}
    for key, item in value.items():
        if not isinstance(key, _shape(args[0])):
            raise _error(f"expected {_name(_shape(args[0]))} as key, "
                         f"got {_name(type(key))}", f"{key_path}/{key}", tree)
        out[key] = _check(item, args[1], f"{key_path}/{key}", tree)
    return out


def check_section(section, schema: type[Schema], key_path: str,
                  tree: ConfigTree) -> dict:
    """Check one configuration section against ``schema``.

    Returns a fresh dict holding every key of the schema, absent keys
    filled in from (copies of) their defaults.  The first fault raises a
    ``ValidationError`` located by key path and ``file:line`` origin.
    """
    if not isinstance(section, dict):
        raise _error(f"expected a mapping, got {_name(type(section))}",
                     key_path, tree)
    fields = _fields(schema)
    for key in section:
        if key not in fields:
            raise _error(f"unknown key (allowed: {', '.join(sorted(fields))})",
                         f"{key_path}/{key}", tree)
    out = {}
    for name, (tp, default) in fields.items():
        value = section.get(name, default)
        if value is _REQUIRED:
            raise _error("missing required key", f"{key_path}/{name}", tree)
        out[name] = _check(value, tp, f"{key_path}/{name}", tree)
    try:
        schema.check(out)
    except ValueError as exc:
        raise _error(str(exc), key_path, tree) from exc
    return out


def _check_id(name: str, key_path: str, tree: ConfigTree) -> None:
    """Block and dependency ids name folders under ``temp/``: an id must
    be one plain path component, and no hidden name such as ``.locks``."""
    if not name or "/" in name or "\\" in name or name.startswith("."):
        raise _error(f"invalid id {name!r}: an id must not be empty, hold "
                     f"'/' or '\\', or start with '.'", key_path, tree)


def validate_general(tree: ConfigTree) -> GeneralSettings:
    """Validate the general section and block-set completeness."""
    for required in ("project/type", "project/name"):
        if not tree.has(required):
            raise _error("missing required key", required, tree)
    ptype_name = tree.get("project/type")
    ptype = project_type(str(ptype_name))

    tool = tree.get("external_tools/container_tool", "docker")
    if tool not in CONTAINER_TOOLS:
        raise _error(
            f"container_tool must be one of {CONTAINER_TOOLS}, got {tool!r}",
            "external_tools/container_tool", tree)

    max_threads = tree.get("external_tools/max_threads", ALL_CORES)
    if max_threads != ALL_CORES:
        if not isinstance(max_threads, int) or max_threads < 1:
            raise _error(f"max_threads must be a positive int or "
                         f"'{ALL_CORES}'", "external_tools/max_threads", tree)

    blocks = tree.get("blocks", None)
    if not isinstance(blocks, dict) or not blocks:
        raise _error("the 'blocks' section must be a non-empty mapping",
                     "blocks", tree)
    for block_id in blocks:
        _check_id(block_id, f"blocks/{block_id}", tree)
    for block_id in ptype.mandatory_blocks:
        if block_id not in blocks:
            raise _error(f"missing mandatory block: {block_id}",
                         f"blocks/{block_id}", tree)
    for group in ptype.optional_groups:
        if not group & set(blocks):
            names = ", ".join(sorted(group))
            raise _error(f"at least one of the blocks {{{names}}} must be "
                         f"configured", "blocks", tree)

    return GeneralSettings(
        project_type=str(ptype_name),
        project_name=str(tree.get("project/name")),
        container_tool=str(tool),
        max_threads=max_threads,
    )


def validate_block(tree: ConfigTree, block_id: str,
                   schema: type[BlockProjectModel]) -> dict:
    """The checked block section, its ``project`` mapping checked against
    ``schema``, the builder's project model; every default is filled in."""
    base_path = f"blocks/{block_id}"
    section = tree.get(base_path, None)
    if not isinstance(section, dict):
        raise _error("block section missing or not a mapping", base_path,
                     tree)
    checked = check_section(section, CommonBlockModel, base_path, tree)
    if checked["source"] not in ("build", "import"):
        raise _error(f"source must be 'build' or 'import', got "
                     f"{checked['source']!r}", f"{base_path}/source", tree)
    settings = checked["project"] = check_section(
        checked["project"], schema, f"{base_path}/project", tree)
    if checked["source"] == "import" and not settings["import_src"]:
        raise _error("import_src is required when source is 'import'",
                     f"{base_path}/project/import_src", tree)

    for dep_id, ref in settings["dependencies"].items():
        dep_path = f"{base_path}/project/dependencies/{dep_id}"
        _check_id(dep_id, dep_path, tree)
        if ref.startswith("/"):
            raise _error("dependency paths must be relative to the project "
                         "folder (or URLs), never absolute host paths",
                         dep_path, tree)
    return checked
