"""Import builder: source a block's package from CI instead of building it.

The archive referenced by ``import_src`` (path, glob, or URL) is fetched,
validated against the block's emitter rule, and republished unchanged into
the block's output directory, so downstream blocks consume it exactly as if
it had been built locally.
"""

from __future__ import annotations

from ..registry import CommandDescriptor
from ..validation import BlockProjectModel
from .base import CLEAN, Builder, StageReport


class ImportBuilder(Builder):

    name = "Import_Builder"
    description = ("Imports this block's package from a path or URL instead "
                   "of building it")
    schema = BlockProjectModel
    commands = (
        CommandDescriptor("build", "building",
                          "Fetches and republishes this block's package "
                          "from import_src."),
        CLEAN,
    )

    def cmd_build(self) -> StageReport:
        return self.run_import()
