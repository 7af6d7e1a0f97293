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
from .builders.base import Builder, ProjectContext
from .configtree import ConfigTree, process_project, render_effective_config
from .errors import ValidationError
from .graph import DependencyGraph, build_graph
from .registry import get_descriptor, instantiate
from .validation import BlockSpec, GeneralSettings, validate_block, validate_general


class Project:

    def __init__(self, *, tree: ConfigTree, general: GeneralSettings,
                 specs: dict[str, BlockSpec], builders: dict[str, Builder],
                 graph: DependencyGraph, context: ProjectContext):
        self.tree = tree
        self.general = general
        self.specs = specs
        self.builders = builders
        self.graph = graph
        self.context = context

    @classmethod
    def load(cls, config_file: str | Path) -> "Project":
        config_file = Path(config_file).resolve()
        tree = process_project(config_file)
        general = validate_general(tree)
        blocks_section = tree.get("blocks")

        section_texts = {
            block_id: render_effective_config(tree.get(f"blocks/{block_id}"))
            for block_id in blocks_section
        }
        context = ProjectContext(
            project_dir=config_file.parent,
            tree=tree,
            section_texts=section_texts,
        )

        specs: dict[str, BlockSpec] = {}
        instances: dict[str, Builder] = {}
        for block_id in sorted(blocks_section):
            section = blocks_section[block_id]
            if not isinstance(section, dict) or "builder" not in section:
                raise ValidationError(
                    "every block section needs a 'builder' key",
                    key_path=f"blocks/{block_id}/builder",
                    origin=tree.origin(f"blocks/{block_id}"))
            descriptor = get_descriptor(str(section["builder"]))
            spec = validate_block(tree, block_id, descriptor.schema)
            specs[block_id] = spec
            instances[block_id] = instantiate(
                descriptor.name, block_id, spec, general, context)

        graph = build_graph(specs, config_file.parent)
        return cls(tree=tree, general=general, specs=specs,
                   builders=instances, graph=graph, context=context)

    def rendered_config(self) -> str:
        return render_effective_config(self.tree)
