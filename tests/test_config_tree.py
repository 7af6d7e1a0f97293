"""Configuration tree: loading, import merging, placeholders, rendering."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest
from helpers import run_socks_capped
from hypothesis import given, settings
from hypothesis import strategies as st

from socks.configtree import (ConfigTree, _merge_trees, load_project,
                              process_project, render_effective_config,
                              resolve_imports, resolve_placeholders)
from socks.errors import ConfigError, CycleError


def write(path: Path, text: str) -> Path:
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_project(tmp_path / "nope.yml")


def test_load_non_mapping_root(tmp_path):
    cfg = write(tmp_path / "a.yml", "- 1\n- 2\n")
    with pytest.raises(ConfigError, match="root must be a mapping"):
        load_project(cfg)


def test_load_parse_error_includes_location(tmp_path):
    cfg = write(tmp_path / "a.yml", "a: [1, 2\n")
    with pytest.raises(ConfigError) as exc:
        load_project(cfg)
    assert exc.value.origin == f"{cfg}:2"
    assert f'in "{cfg}", line' in str(exc.value)
    assert "<unicode string>" not in str(exc.value)


def test_origin_tracking(tmp_path):
    cfg = write(tmp_path / "a.yml", """\
        project:
          name: demo
        """)
    tree = load_project(cfg)
    assert tree.origin("project/name") == f"{cfg}:2"


def test_get_and_has(tmp_path):
    cfg = write(tmp_path / "a.yml", "a:\n  b: 1\n")
    tree = load_project(cfg)
    assert tree.get("a/b") == 1
    assert tree.has("a/b")
    assert not tree.has("a/c")
    assert tree.get("a/c", "fallback") == "fallback"
    with pytest.raises(ConfigError):
        tree.get("a/c")


def test_import_precedence(tmp_path):
    # Importing file wins over later import, later import wins over earlier.
    write(tmp_path / "first.yml", "key: first\nonly_first: 1\n")
    write(tmp_path / "second.yml", "key: second\nonly_second: 2\n")
    cfg = write(tmp_path / "main.yml", """\
        import:
          - first.yml
          - second.yml
        only_main: 3
        """)
    tree = resolve_imports(load_project(cfg), tmp_path)
    assert tree.get("key") == "second"
    assert tree.get("only_first") == 1
    assert tree.get("only_second") == 2
    assert tree.get("only_main") == 3
    assert not tree.has("import")


def test_import_main_overrides_all(tmp_path):
    write(tmp_path / "base.yml", "key: base\nnested:\n  a: 1\n  b: 2\n")
    cfg = write(tmp_path / "main.yml", """\
        import:
          - base.yml
        key: main
        nested:
          b: 20
        """)
    tree = resolve_imports(load_project(cfg), tmp_path)
    assert tree.get("key") == "main"
    # Deep merge: untouched sibling keys survive the override.
    assert tree.get("nested/a") == 1
    assert tree.get("nested/b") == 20


def test_import_is_recursive(tmp_path):
    write(tmp_path / "deep.yml", "deep: one\n")
    write(tmp_path / "mid.yml", "import:\n  - deep.yml\nmid: two\n")
    cfg = write(tmp_path / "main.yml", "import:\n  - mid.yml\n")
    tree = resolve_imports(load_project(cfg), tmp_path)
    assert tree.get("deep") == "one"
    assert tree.get("mid") == "two"


def test_import_cycle_rejected(tmp_path):
    write(tmp_path / "a.yml", "import:\n  - b.yml\n")
    write(tmp_path / "b.yml", "import:\n  - a.yml\n")
    with pytest.raises(CycleError) as exc:
        resolve_imports(load_project(tmp_path / "a.yml"), tmp_path)
    assert len(exc.value.chain) >= 2


def test_import_missing_file_located(tmp_path):
    cfg = write(tmp_path / "a.yml", "import:\n  - gone.yml\n")
    with pytest.raises(ConfigError, match="gone.yml"):
        resolve_imports(load_project(cfg), tmp_path)


def test_import_must_be_list(tmp_path):
    cfg = write(tmp_path / "a.yml", "import: base.yml\n")
    with pytest.raises(ConfigError, match="list"):
        resolve_imports(load_project(cfg), tmp_path)


def test_placeholder_simple():
    tree = ConfigTree({"version": "2.0", "name": "v{{version}}"})
    out = resolve_placeholders(tree)
    assert out.get("name") == "v2.0"


def test_placeholder_chain_fixpoint():
    tree = ConfigTree({"a": "{{b}}", "b": "x{{c}}", "c": 1})
    out = resolve_placeholders(tree)
    assert out.get("a") == "x1"
    assert out.get("b") == "x1"


def test_placeholder_in_list():
    tree = ConfigTree({"v": "9", "items": ["p-{{v}}", "plain"]})
    out = resolve_placeholders(tree)
    assert out.get("items") == ["p-9", "plain"]


def test_placeholder_bool_and_null():
    tree = ConfigTree({"flag": True, "s": "on={{flag}}"})
    assert resolve_placeholders(tree).get("s") == "on=true"


def test_placeholder_dangling_located():
    tree = ConfigTree({"a": "{{missing/key}}"}, source_file="f.yml")
    with pytest.raises(ConfigError, match="missing/key") as exc:
        resolve_placeholders(tree)
    assert exc.value.key_path == "a"


def test_placeholder_non_scalar_rejected():
    tree = ConfigTree({"a": "{{sub}}", "sub": {"x": 1}})
    with pytest.raises(ConfigError, match="scalar"):
        resolve_placeholders(tree)


def test_placeholder_cycle_reports_chain():
    tree = ConfigTree({"a": "{{b}}", "b": "{{a}}"})
    with pytest.raises(CycleError) as exc:
        resolve_placeholders(tree)
    assert set(exc.value.chain) >= {"a", "b"}


def test_placeholder_self_cycle():
    tree = ConfigTree({"a": "x{{a}}"})
    with pytest.raises(CycleError):
        resolve_placeholders(tree)


def test_placeholder_leftover_braces_rejected():
    tree = ConfigTree({"a": "broken {{ not-a-ref"})
    with pytest.raises(ConfigError, match="malformed"):
        resolve_placeholders(tree)


def test_malformed_placeholder_is_reported_at_its_own_key():
    # b only reaches the broken text through a reference.
    tree = ConfigTree({"b": "{{a}}", "a": "{{ x"}, source_file="f.yml")
    with pytest.raises(ConfigError, match="malformed") as exc:
        resolve_placeholders(tree)
    assert exc.value.key_path == "a"


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
def test_placeholder_chain_of_a_thousand_links(order):
    names = [f"k{i}" for i in range(1000)]
    root = {name: "end" if i == 0 else f"<{{{{{names[i - 1]}}}}}>"
            for i, name in enumerate(names)}
    out = resolve_placeholders(ConfigTree(dict(list(root.items())[::order])))
    assert out.get("k999") == "<" * 999 + "end" + ">" * 999
    assert out.get("k1") == "<end>"


def test_text_built_by_a_substitution_is_scanned_again():
    tree = ConfigTree({"s": "{{{{k}}}}", "k": "y", "y": "z"})
    assert resolve_placeholders(tree).get("s") == "z"


def test_placeholder_cycle_chain_starts_at_the_first_string():
    tree = ConfigTree({"a": "{{b}}", "b": "{{a}}"})
    with pytest.raises(CycleError) as exc:
        resolve_placeholders(tree)
    assert exc.value.chain == ["a", "b", "a"]
    assert "a -> b -> a" in str(exc.value)


def test_a_string_that_doubles_itself_is_a_cycle_not_a_blowup(tmp_path):
    # Resolving round after round doubles this text each round.  The
    # child process caps its own address space, so such a resolver fails
    # with MemoryError there instead of taking the machine's memory.
    pytest.importorskip("resource")
    config = tmp_path / "socks.yml"
    config.write_text('a: "{{a}}{{a}}"\n'
                      + "".join(f"k{i}: x\n" for i in range(40)))
    result = run_socks_capped(["--show-config"], tmp_path)
    assert result.returncode == 1, result.stderr
    assert f"placeholder cycle: a -> a (in {config})" in result.stderr


def test_process_project_full(project_dir):
    tree = process_project(project_dir / "socks.yml")
    assert tree.get("blocks/kernel/project/build_srcs/branch") \
        == "xilinx-v2022.2"
    assert tree.get("external_tools/xilinx/version") == "2022.2"
    assert tree.has("blocks/vivado")


def test_render_contains_quoted_version(project_dir):
    tree = process_project(project_dir / "socks.yml")
    dump = render_effective_config(tree)
    assert 'version: "2022.2"' in dump
    assert "{{" not in dump


def test_render_deterministic(project_dir):
    tree = process_project(project_dir / "socks.yml")
    assert render_effective_config(tree) == render_effective_config(tree)


def test_render_key_order_invariant():
    a = {"x": 1, "y": {"b": "two", "a": [1, 2]}}
    b = {"y": {"a": [1, 2], "b": "two"}, "x": 1}
    assert render_effective_config(a) == render_effective_config(b)


def test_render_scalar_forms():
    dump = render_effective_config(
        {"s": "text", "i": 3, "f": 1.5, "b": False, "n": None,
         "empty_map": {}, "empty_list": []})
    assert 's: "text"' in dump
    assert "i: 3" in dump
    assert "b: false" in dump
    assert "n: null" in dump
    assert "empty_map: {}" in dump
    assert "empty_list: []" in dump


# --- property tests -------------------------------------------------------

KEYS = st.sampled_from(["a", "b", "c", "d", "e"])
SCALARS = st.one_of(st.integers(-5, 5), st.text("xyz", max_size=3),
                    st.booleans())


def flat_tree(depth: int = 2):
    leaf = SCALARS
    tree = leaf
    for _ in range(depth):
        tree = st.dictionaries(KEYS, tree, max_size=4)
    return st.dictionaries(KEYS, tree, max_size=4)


def leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, prefix + (key,))
    else:
        yield prefix, node


@settings(max_examples=400, deadline=None)
@given(base=flat_tree(), overlay=flat_tree())
def test_merge_overlay_wins(base, overlay):
    merged = _merge_trees(ConfigTree(base), ConfigTree(overlay))
    for path, value in leaf_paths(overlay):
        assert ConfigTree(merged.root).get("/".join(path)) == value
    # Base leaves survive unless the overlay holds a leaf or drops the branch
    # along the path.
    for path, value in leaf_paths(base):
        node = overlay
        shadowed = False
        for part in path:
            if not isinstance(node, dict) or part not in node:
                break
            node = node[part]
        else:
            shadowed = True  # overlay supplies this exact path
        if not shadowed:
            crossed = False
            node = overlay
            for part in path:
                if not isinstance(node, dict):
                    crossed = True
                    break
                if part not in node:
                    break
                node = node[part]
            if not crossed:
                assert ConfigTree(merged.root).get("/".join(path)) == value


NAMES = [f"k{i}" for i in range(8)]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_placeholder_resolution_idempotent(data):
    # References only point at earlier names, so the tree is always acyclic.
    root = {}
    for idx, name in enumerate(NAMES):
        if idx == 0 or data.draw(st.booleans(), label=f"scalar-{name}"):
            root[name] = data.draw(SCALARS, label=f"value-{name}")
        else:
            ref = data.draw(st.sampled_from(NAMES[:idx]), label=f"ref-{name}")
            root[name] = f"v-{{{{{ref}}}}}"
    once = resolve_placeholders(ConfigTree(root))
    twice = resolve_placeholders(once)
    assert once.root == twice.root
    for _, value in leaf_paths(once.root):
        assert "{{" not in str(value)


@settings(max_examples=300, deadline=None)
@given(length=st.integers(1, 5), data=st.data())
def test_placeholder_cycles_always_rejected(length, data):
    names = NAMES[:length]
    root = {name: f"{{{{{names[(i + 1) % length]}}}}}"
            for i, name in enumerate(names)}
    # Mixing in unrelated scalar keys must not mask the cycle.
    if data.draw(st.booleans()):
        root["plain"] = data.draw(SCALARS)
    with pytest.raises(CycleError):
        resolve_placeholders(ConfigTree(root))
