"""Loaded project: processed configuration, validated blocks, instantiated
builders, and the dependency graph.

Loading performs the full three-step configuration processing and
instantiates *every* configured builder, including blocks the current
invocation will not touch; an invalid section anywhere aborts before any
builder executes.
"""

from __future__ import annotations

from pathlib import Path

from . import builders  # noqa: F401  (registers the built-in builders)
from .builders.base import Builder
from .configtree import ConfigTree, process_project, render_effective_config
from .errors import GraphError, ValidationError
from .graph import DependencyGraph, build_graph
from .registry import get_descriptor, instantiate
from .validation import GeneralSettings, validate_block, validate_general


class Project:

    def __init__(self, *, tree: ConfigTree, general: GeneralSettings,
                 builders: dict[str, Builder], graph: DependencyGraph):
        self.tree = tree
        self.general = general
        self.builders = builders
        self.graph = graph

    @classmethod
    def load(cls, config_file: str | Path) -> "Project":
        config_file = Path(config_file).resolve()
        tree = process_project(config_file)
        general = validate_general(tree)
        blocks_section = tree.get("blocks")

        instances: dict[str, Builder] = {}
        for block_id in sorted(blocks_section):
            section = blocks_section[block_id]
            if not isinstance(section, dict) or "builder" not in section:
                raise ValidationError(
                    "every block section needs a 'builder' key",
                    key_path=f"blocks/{block_id}/builder",
                    origin=tree.origin(f"blocks/{block_id}"))
            descriptor = get_descriptor(str(section["builder"]))
            instances[block_id] = instantiate(
                descriptor.name, block_id,
                validate_block(tree, block_id, descriptor.schema), general,
                tree, config_file.parent)

        try:
            graph = build_graph(
                {block_id: builder.settings["dependencies"]
                 for block_id, builder in instances.items()},
                config_file.parent)
        except GraphError as exc:
            exc.origin = tree.origin(exc.key_path)
            raise
        return cls(tree=tree, general=general, builders=instances,
                   graph=graph)

    def rendered_config(self) -> str:
        return render_effective_config(self.tree)
