"""Edits of the project configuration that add names to a block's list.

``create-patches`` and ``create-cfg-snippet`` append new file names to the
list that defines the block's effective ``patches`` or ``config_snippets``:
in the file the merged tree took that list from, at the span the YAML
composer marked for it.  Every other byte of every file stays as it was; a
list that cannot be extended that way is refused with a located
``ConfigError`` before anything is written.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Callable

import yaml

from .configtree import ConfigTree, _Loader, _named_loader
from .errors import ConfigError

def _scalar(item: str) -> str:
    """``item`` as a YAML scalar that reads back as itself in block and in
    flow context."""
    return yaml.safe_dump([item], default_flow_style=True, allow_unicode=True,
                          width=1 << 30)[1:-2]


def _line_end(text: str, node: yaml.Node) -> int:
    """Index just past the line break that ends ``node``'s last line."""
    while isinstance(node, (yaml.MappingNode, yaml.SequenceNode)) \
            and node.value and not node.flow_style:
        last = node.value[-1]
        node = last[1] if isinstance(node, yaml.MappingNode) else last
    end = text.find("\n", node.end_mark.index - 1)
    return len(text) if end < 0 else end + 1


def plan_list_append(tree: ConfigTree, block_id: str, key: str,
                     items: list[str]) -> Callable[[], object]:
    """Locate and check the edit that appends ``items`` to
    ``blocks/<block_id>/project/<key>`` where that list is defined (without
    the key in any file, in the block's own ``project`` mapping), and
    return the function that writes it.  A refusal comes before any
    write, so a caller can write its own files in between."""
    key_path = f"blocks/{block_id}/project/{key}"
    path = Path(tree.origin(key_path).rsplit(":", 1)[0])
    text = path.read_bytes().decode("utf-8")
    loader = _named_loader(text, str(path))
    try:
        node = loader.get_single_node()
    finally:
        loader.dispose()

    def refuse(reason: str, at: yaml.Node) -> ConfigError:
        return ConfigError(
            f"cannot add {', '.join(items)} to this list: {reason}; "
            f"add it by hand", key_path=key_path,
            origin=f"{path}:{at.start_mark.line + 1}")

    parts = key_path.split("/")
    for depth, part in enumerate(parts):
        if not isinstance(node, yaml.MappingNode) or node.flow_style:
            raise refuse("the enclosing value is not a block mapping", node)
        pairs = {k.value: (k, v) for k, v in node.value
                 if isinstance(k, yaml.ScalarNode)}
        if part not in pairs:
            if "<<" in pairs:
                raise refuse("its mapping is completed by a merge key", node)
            if depth < len(parts) - 1:
                raise refuse(f"'{part}' is not defined in this file", node)
            break
        at, node = pairs[part]
        if text.startswith("&", node.start_mark.index):
            raise refuse("the value is shared through an anchor", at)

    eol = "\r\n" if "\r\n" in text else "\n"
    rendered = [_scalar(item) for item in items]
    if isinstance(node, yaml.MappingNode):   # the key is absent: add it
        pad = " " * node.start_mark.column
        pos = _line_end(text, node)
        new = f"{pad}{key}:{eol}" + "".join(f"{pad}  - {r}{eol}"
                                            for r in rendered)
    elif not isinstance(node, yaml.SequenceNode):
        raise refuse("the value is not a list", at)
    elif node.flow_style and node.value:
        pos, new = node.value[-1].end_mark.index, "".join(
            ", " + r for r in rendered)
    elif node.flow_style:
        pos, new = node.end_mark.index - 1, ", ".join(rendered)
    else:
        pad = " " * node.start_mark.column
        pos = _line_end(text, node)
        new = "".join(f"{pad}- {r}{eol}" for r in rendered)
    if not node.flow_style and pos and text[pos - 1] != "\n":
        new = eol + new
    edited = text[:pos] + new + text[pos:]

    # The edit must change this one list and nothing else.
    expected = yaml.load(text, Loader=_Loader)
    section = expected["blocks"][block_id]["project"]
    section[key] = section.get(key, []) + list(items)
    try:
        same = yaml.load(edited, Loader=_Loader) == expected
    except yaml.YAMLError:
        same = False
    if not same:
        raise refuse("an edit in place would change other values", node)
    return partial(path.write_bytes, edited.encode("utf-8"))
