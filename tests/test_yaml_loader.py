"""The configuration loader reads the same trees and marks with libyaml's
parser as with PyYAML's pure-Python one, which it falls back to when PyYAML
was built without libyaml."""

from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import test_configedit as edits
from socks import configedit, configtree
from socks.configtree import process_project
from socks.errors import ConfigError
from socks.fixture import materialize
from socks.project import Project

BASES = {"libyaml": getattr(yaml, "CSafeLoader", None),
         "python": yaml.SafeLoader}


@contextlib.contextmanager
def parsing_with(base_name: str):
    """The loader of ``configtree`` and ``configedit``, with its table of
    constructors, on the parser ``base_name``."""
    base = BASES[base_name]
    if base is None:
        pytest.skip("PyYAML was built without libyaml")
    loader = type("_Loader", (base,), {
        "yaml_constructors": configtree._Loader.yaml_constructors})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(configtree, "_Loader", loader)
        patch.setattr(configedit, "_Loader", loader)
        yield


def key_paths(node, prefix=""):
    """The slash-separated path of every mapping key and list item."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        path = f"{prefix}/{key}" if prefix else str(key)
        yield path
        yield from key_paths(value, path)


def processed(path: Path, base_name: str):
    """``process_project(path)`` as root and the origin of every key path,
    or its error text."""
    with parsing_with(base_name):
        try:
            tree = process_project(path)
        except ConfigError as exc:
            return str(exc)
    return tree.root, {path: tree.origin(path)
                       for path in key_paths(tree.root)}


def assert_same_on_both_bases(path: Path) -> None:
    assert processed(path, "libyaml") == processed(path, "python")


def test_fixture_project_loads_alike(tmp_path):
    config = materialize(tmp_path / "proj") / "socks.yml"
    assert_same_on_both_bases(config)
    loaded = {}
    for base_name in BASES:
        with parsing_with(base_name):
            project = Project.load(config)
        loaded[base_name] = ({block_id: builder.section_text for
                              block_id, builder in project.builders.items()},
                             project.rendered_config())
    assert loaded["libyaml"] == loaded["python"]


@settings(max_examples=100, deadline=None)
@given(edits.layouts())
def test_block_and_flow_list_layouts_load_alike(layout):
    with tempfile.TemporaryDirectory() as tmp:
        main, _ = edits.write_layout(Path(tmp), layout)
        assert_same_on_both_bases(main)


KEYS = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc"),
                             blacklist_characters="{}"), max_size=8)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), TEXT,
                    st.sampled_from(["2024-01-02", "!!binary", "0x1F", "~",
                                     "yes", "1e3", "- x", "a: b", "#c"]))
DATA = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(KEYS.filter(lambda k: k != "import"), DATA,
                       max_size=5),
       st.sampled_from([False, True, None]))
def test_random_documents_load_alike(data, flow_style):
    text = yaml.safe_dump(data, default_flow_style=flow_style,
                          allow_unicode=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "socks.yml"
        path.write_text(text, encoding="utf-8")
        assert_same_on_both_bases(path)


@pytest.mark.parametrize("base_name", sorted(BASES))
@pytest.mark.parametrize("text, line", [
    ("a: [1, 2\n", 2),
    ("project:\n  name: x\n bad: 1\n", 3),
    ("a: 'open\n", 2),
    ("a: *missing\n", 1),
])
def test_syntax_error_names_the_file_and_line(tmp_path, base_name, text,
                                              line):
    config = tmp_path / "dir with space" / "socks.yml"
    config.parent.mkdir()
    config.write_text(text, encoding="utf-8")
    with parsing_with(base_name), pytest.raises(ConfigError) as exc:
        process_project(config)
    assert exc.value.origin == f"{config}:{line}"
    assert f'in "{config}", line' in str(exc.value)


@pytest.mark.parametrize("base_name", sorted(BASES))
def test_configedit_round_trips_on_each_base(tmp_path, base_name):
    """The round trips of ``test_configedit``, on each parser."""
    with parsing_with(base_name):
        edits.test_random_layouts_gain_exactly_the_new_items()
        for case in sorted(edits.REFUSED):
            (tmp_path / case).mkdir()
            edits.test_refused_edit_is_located_and_leaves_the_file(
                tmp_path / case, case)
        edits.test_flow_list_gains_the_new_patch_and_still_parses(
            materialize(tmp_path / "flow"))
        edits.test_imported_list_gains_the_new_patch_in_its_own_file(
            materialize(tmp_path / "imported"))


def test_dates_binary_and_non_ascii_load_alike(tmp_path):
    config = tmp_path / "socks.yml"
    config.write_bytes(
        "released: 2024-01-02\r\n"
        "blob: !!binary aGVsbG8=\r\n"
        "name: \"déjà vu €\"\r\n"
        "list: [ü.patch, 'a b', 2001-12-14t21:59:43.10-05:00]\r\n"
        .encode("utf-8"))
    assert_same_on_both_bases(config)
    root, _ = processed(config, "libyaml")
    assert root["released"] == "2024-01-02"
    assert root["blob"] == "aGVsbG8="
