"""Project configuration tree: loading, import merging, placeholder
resolution, and canonical rendering.

A project is configured in a single YAML file.  Top-level ``import:`` lists
further YAML files whose trees are deep-merged underneath the importing file
(importing file > later import > earlier import).  String values may embed
``{{slash/path}}`` placeholders referring to scalar leaves anywhere in the
merged tree; resolution runs after the full merge, so definition order across
files is irrelevant.
"""

from __future__ import annotations

import io
import json
import re
from pathlib import Path
from typing import Any

import yaml

from .errors import ConfigError, CycleError

Scalar = str | int | float | bool | None

PLACEHOLDER_RE = re.compile(r"\{\{([A-Za-z0-9_./-]+)\}\}")
IMPORT_KEY = "import"


class ConfigTree:
    """Nested mapping of configuration data plus per-path origin info.

    ``origins`` maps slash-separated key paths to ``"file:line"`` strings of
    the merge source that supplied the value.  Trees are treated as immutable
    values: every processing step returns a new tree.
    """

    def __init__(self, root: dict[str, Any],
                 origins: dict[str, str] | None = None,
                 source_file: str | None = None):
        self.root = root
        self.origins = {} if origins is None else origins
        self.source_file = source_file

    def get(self, path: str, default: Any = ...) -> Any:
        node: Any = self.root
        for part in path.split("/"):
            if not isinstance(node, dict) or part not in node:
                if default is ...:
                    raise ConfigError("missing configuration key",
                                      key_path=path, origin=self.source_file)
                return default
            node = node[part]
        return node

    def has(self, path: str) -> bool:
        node: Any = self.root
        for part in path.split("/"):
            if not isinstance(node, dict) or part not in node:
                return False
            node = node[part]
        return True

    def origin(self, path: str) -> str | None:
        while path:
            if path in self.origins:
                return self.origins[path]
            path = path.rsplit("/", 1)[0] if "/" in path else ""
        return self.source_file


def _collect_origins(node: Any, path: str, mark_file: str,
                     yaml_node: yaml.Node | None, out: dict[str, str]) -> None:
    line = yaml_node.start_mark.line + 1 if yaml_node is not None else 0
    out[path or ""] = f"{mark_file}:{line}"
    if isinstance(node, dict):
        value_nodes = {}
        if isinstance(yaml_node, yaml.MappingNode):
            for k_node, v_node in yaml_node.value:
                value_nodes[k_node.value] = v_node
        for key, value in node.items():
            child = f"{path}/{key}" if path else key
            _collect_origins(value, child, mark_file, value_nodes.get(key), out)


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader that keeps an unquoted date and a ``!!binary`` value as
    the text they spell.  It parses with libyaml when PyYAML has it, which
    gives the same nodes and marks several times faster."""

    yaml_constructors = {**yaml.SafeLoader.yaml_constructors,
                         "tag:yaml.org,2002:timestamp":
                             yaml.SafeLoader.construct_yaml_str,
                         "tag:yaml.org,2002:binary":
                             yaml.SafeLoader.construct_yaml_str}


def _named_loader(text: str, name: str) -> _Loader:
    """A loader over ``text`` whose marks and errors name the file ``name``.

    The text is handed over as a named stream: libyaml's parser takes the
    name from the stream and ignores the loader's ``name`` attribute."""
    stream = io.StringIO(text)
    stream.name = name
    return _Loader(stream)


def load_project(path: str | Path) -> ConfigTree:
    """Load one YAML file into a raw, unresolved tree with origin info."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    text = path.read_text(encoding="utf-8")
    # One parse: the node graph gives the origins, the data is built from it.
    loader = _named_loader(text, str(path))
    try:
        node = loader.get_single_node()
        data = loader.construct_document(node) if node is not None else None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark else str(path)
        raise ConfigError(f"YAML parse error: {exc}", origin=where) from exc
    finally:
        loader.dispose()
    if not isinstance(data, dict):
        raise ConfigError("root must be a mapping", origin=str(path))
    origins: dict[str, str] = {}
    _collect_origins(data, "", str(path), node, origins)
    return ConfigTree(root=data, origins=origins, source_file=str(path))


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = dict(base)
    for key, value in overlay.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _merge_trees(base: ConfigTree, overlay: ConfigTree) -> ConfigTree:
    merged = _deep_merge(base.root, overlay.root)
    origins = {**base.origins, **overlay.origins}
    return ConfigTree(root=merged, origins=origins,
                      source_file=overlay.source_file or base.source_file)


def resolve_imports(tree: ConfigTree, base_dir: str | Path,
                    _stack: tuple[str, ...] = ()) -> ConfigTree:
    """Recursively merge all imported files underneath ``tree``.

    Precedence: importing file > later import > earlier import.  Import
    cycles are detected across the whole chain.
    """
    base_dir = Path(base_dir)
    own = str(Path(tree.source_file).resolve()) if tree.source_file else None
    if own is not None:
        if own in _stack:
            chain = list(_stack[_stack.index(own):]) + [own]
            raise CycleError(
                "import cycle: " + " -> ".join(chain), chain, origin=own)
        _stack = _stack + (own,)

    imports = tree.root.get(IMPORT_KEY)
    if imports is None:
        return tree
    if not isinstance(imports, list) or not all(isinstance(i, str) for i in imports):
        raise ConfigError("'import' must be a list of file paths",
                          key_path=IMPORT_KEY, origin=tree.origin(IMPORT_KEY))

    accumulated: ConfigTree | None = None
    for entry in imports:
        entry_path = Path(entry)
        if not entry_path.is_absolute():
            entry_path = base_dir / entry_path
        if not entry_path.exists():
            raise ConfigError(
                f"imported file not found: {entry} "
                f"(imported by {tree.source_file})",
                key_path=IMPORT_KEY, origin=tree.origin(IMPORT_KEY))
        imported = load_project(entry_path)
        imported = resolve_imports(imported, entry_path.parent, _stack)
        accumulated = imported if accumulated is None \
            else _merge_trees(accumulated, imported)

    top = ConfigTree(
        root={k: v for k, v in tree.root.items() if k != IMPORT_KEY},
        origins={k: v for k, v in tree.origins.items() if
                 k != IMPORT_KEY and not k.startswith(IMPORT_KEY + "/")},
        source_file=tree.source_file)
    return _merge_trees(accumulated, top) if accumulated is not None else top


def _scalar_text(value: Scalar) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def resolve_placeholders(tree: ConfigTree) -> ConfigTree:
    """Replace every ``{{path}}`` in string leaves with the referenced scalar.

    One depth-first pass over an explicit stack: a string that references
    another string waits until that one is resolved, so each string is
    resolved once.  The text a substitution builds is scanned again.  A
    string met again while it is still waiting closes a reference cycle,
    which is reported with its chain.
    """
    leaves: list[tuple[Any, Any, str]] = []
    root = _copy(tree.root, "", leaves)
    # (id of the container, key) -> True once resolved, False while waiting
    state: dict[tuple[int, Any], bool] = {}

    def fail(message: str, at_path: str) -> ConfigError:
        return ConfigError(message, key_path=at_path,
                           origin=tree.origin(at_path))

    for leaf in leaves:
        if state.get((id(leaf[0]), leaf[1])):
            continue
        state[id(leaf[0]), leaf[1]] = False
        stack = [leaf]
        while stack:
            node, key, at_path = stack[-1]
            text = node[key]
            match = PLACEHOLDER_RE.search(text)
            if match is None:
                if "{{" in text or "}}" in text:
                    raise fail(f"malformed placeholder in {text!r}", at_path)
                state[id(node), key] = True
                stack.pop()
                continue
            ref = match.group(1)
            *parents, last = ref.split("/")
            owner: Any = root
            for part in parents:
                owner = owner.get(part) if isinstance(owner, dict) else None
            if not isinstance(owner, dict) or last not in owner:
                raise fail(f"placeholder references missing key '{ref}'",
                           at_path)
            value = owner[last]
            if isinstance(value, (dict, list)):
                raise fail(f"placeholder must reference a scalar, but "
                           f"'{ref}' is a {type(value).__name__}", at_path)
            target = (id(owner), last)
            if isinstance(value, str) and not state.get(target):
                if target in state:
                    start = next(i for i, (n, k, _) in enumerate(stack)
                                 if n is owner and k == last)
                    chain = [p for _, _, p in stack[start:]] + [ref]
                    raise CycleError(
                        "placeholder cycle: " + " -> ".join(chain), chain,
                        origin=tree.source_file)
                state[target] = False
                stack.append((owner, last, ref))
                continue
            node[key] = (text[:match.start()] + _scalar_text(value)
                         + text[match.end():])
    return ConfigTree(root=root, origins=dict(tree.origins),
                      source_file=tree.source_file)


def _copy(node: Any, path: str, leaves: list) -> Any:
    """Copy of the mappings and lists; keys become text, as in JSON.  The
    container, key and path of each copied string go to ``leaves``, in
    document order."""
    if isinstance(node, dict):
        out: Any = {}
        items = ((key if isinstance(key, str) else json.dumps(key), value)
                 for key, value in node.items())
    elif isinstance(node, list):
        out = [None] * len(node)
        items = enumerate(node)
    else:
        return node
    for key, value in items:
        at_path = f"{path}/{key}" if path else str(key)
        if isinstance(value, str):
            leaves.append((out, key, at_path))
        out[key] = _copy(value, at_path, leaves)
    return out


def process_project(path: str | Path) -> ConfigTree:
    """Full three-step load: read, merge imports, resolve placeholders."""
    path = Path(path)
    tree = load_project(path)
    tree = resolve_imports(tree, path.parent)
    return resolve_placeholders(tree)


def render_effective_config(node: Any, indent: int = 0) -> str:
    """Deterministic textual dump: sorted keys, double-quoted strings.

    Two semantically equal trees render byte-identically regardless of key
    insertion order.
    """
    if isinstance(node, ConfigTree):
        node = node.root
    return "\n".join(_render_lines(node, indent)) + "\n"


def _render_scalar(value: Scalar | dict | list) -> str:
    """A scalar, or an empty mapping or list, as one line."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (str, dict, list)):
        return json.dumps(value)
    return repr(value)


def _render_lines(node: Any, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(node, dict) and node:
        lines = []
        for key in sorted(node):
            value = node[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_lines(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_render_scalar(value)}")
        return lines
    if isinstance(node, list):
        lines = []
        for value in node:
            if isinstance(value, (dict, list)) and value:
                sub = _render_lines(value, indent + 1)
                lines.append(f"{pad}- " + sub[0].lstrip())
                lines.extend(sub[1:])
            else:
                lines.append(f"{pad}- {_render_scalar(value)}")
        return lines
    return [pad + _render_scalar(node)]
