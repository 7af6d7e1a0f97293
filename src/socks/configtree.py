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
# Deepest nesting of a file, aliases expanded, and longest import chain.
MAX_DEPTH = 100
# Most values one configuration may hold once its aliases are expanded.
MAX_VALUES = 100_000


class ConfigTree:
    """Nested mapping of configuration data and the files it came from.

    ``layers`` holds ``(file, YAML node)`` for each file merged into the
    tree, highest precedence first.  Trees are treated as immutable values:
    every processing step returns a new tree.
    """

    def __init__(self, root: dict[str, Any], layers: tuple = (),
                 source_file: str | None = None):
        self.root = root
        self.layers = layers
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
        """``"file:line"`` of the value at ``path`` in the file of highest
        precedence that sets it, else of its nearest such ancestor."""
        parts = path.split("/") if path else []
        while parts:
            for name, node in self.layers:
                for part in parts:
                    node = {k.value: v for k, v in node.value}.get(part) \
                        if isinstance(node, yaml.MappingNode) else None
                if node is not None:
                    return f"{name}:{node.start_mark.line + 1}"
            parts.pop()
        return self.source_file


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


def _refuse_deep_nesting(loader: _Loader, name: str) -> None:
    """Refuse, from the parser's events, a document nested deeper than
    ``MAX_DEPTH`` levels once its aliases are expanded.  Every later pass
    recurses once per level, libyaml's composer in C, where too deep a
    document kills the process instead of raising an error."""
    spans: dict[str, int] = {}  # anchor -> levels its collection spans
    # [anchor, levels below it] of each open collection, under the document
    stack: list[list] = [[None, 0]]
    for event in iter(loader.get_event, None):
        if isinstance(event, yaml.CollectionStartEvent):
            stack.append([event.anchor, 0])
            spans[event.anchor] = MAX_DEPTH  # an alias inside never ends
            levels = 0
        elif isinstance(event, yaml.CollectionEndEvent):
            anchor, below = stack.pop()
            spans[anchor] = levels = below + 1
        elif isinstance(event, yaml.AliasEvent):
            levels = spans.get(event.anchor, 0)
        else:
            continue
        if len(stack) - 1 + levels > MAX_DEPTH:
            raise ConfigError(
                f"nested deeper than {MAX_DEPTH} levels, aliases expanded",
                origin=f"{name}:{event.start_mark.line + 1}")
        stack[-1][1] = max(stack[-1][1], levels)


def load_project(path: str | Path) -> ConfigTree:
    """Load one YAML file into a raw, unresolved tree."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"configuration file not found: {path}")
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"not UTF-8 text: {exc.reason}",
                          origin=f"{path}:{line}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file: {exc.strerror}",
                          origin=str(path)) from exc
    loader = _named_loader(text, str(path))
    try:
        _refuse_deep_nesting(_named_loader(text, str(path)), str(path))
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
    return ConfigTree(root=data, layers=((str(path), node),),
                      source_file=str(path))


def _deep_merge(base: dict, overlay: dict, done: dict | None = None) -> dict:
    # A pair of mappings that aliases share is merged once, and shared.
    done = {} if done is None else done
    pair = (id(base), id(overlay))
    if pair not in done:
        out = done[pair] = dict(base)
        for key, value in overlay.items():
            if isinstance(value, dict) and isinstance(out.get(key), dict):
                out[key] = _deep_merge(out[key], value, done)
            else:
                out[key] = value
    return done[pair]


def _merge_trees(base: ConfigTree, overlay: ConfigTree) -> ConfigTree:
    # A file imported more than once keeps its first, highest, layer.
    layers = tuple(dict.fromkeys(overlay.layers + base.layers))
    return ConfigTree(root=_deep_merge(base.root, overlay.root), layers=layers,
                      source_file=overlay.source_file or base.source_file)


def resolve_imports(tree: ConfigTree, base_dir: str | Path,
                    _stack: tuple[str, ...] = (),
                    _resolved: dict | None = None) -> ConfigTree:
    """Recursively merge all imported files underneath ``tree``.

    Precedence: importing file > later import > earlier import.  Import
    cycles are detected across the whole chain.  Each file is read and
    resolved once per load, however often it is imported.
    """
    base_dir = Path(base_dir)
    resolved = {} if _resolved is None else _resolved
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
    if len(_stack) >= MAX_DEPTH:
        raise ConfigError(f"imports nested deeper than {MAX_DEPTH} files",
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
        key = str(entry_path.resolve())
        if key not in resolved:
            resolved[key] = resolve_imports(
                load_project(entry_path), entry_path.parent, _stack, resolved)
        accumulated = resolved[key] if accumulated is None \
            else _merge_trees(accumulated, resolved[key])

    top = ConfigTree(
        root={k: v for k, v in tree.root.items() if k != IMPORT_KEY},
        layers=tree.layers, source_file=tree.source_file)
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
    budget = iter(range(MAX_VALUES))

    def fail(message: str, at_path: str) -> ConfigError:
        return ConfigError(message, key_path=at_path,
                           origin=tree.origin(at_path))

    def copy(node: Any, path: str) -> Any:
        """Copy of the mappings and lists, keys as text as in JSON; each
        copied string's container, key and path go to ``leaves``, in order."""
        if next(budget, None) is None:
            raise fail(f"more than {MAX_VALUES} values once aliases are "
                       f"expanded", path)
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
            out[key] = copy(value, at_path)
        return out

    root = copy(tree.root, "")
    # (id of the container, key) -> True once resolved, False while waiting
    state: dict[tuple[int, Any], bool] = {}

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
    return ConfigTree(root=root, layers=tree.layers,
                      source_file=tree.source_file)


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
