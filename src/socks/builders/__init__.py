"""Reference builders and their registration."""

from __future__ import annotations

from ..registry import register_builder, registered_names
from .base import Builder, StageReport
from .image import IMAGE_DESCRIPTOR, ImageBuilder
from .importer import IMPORT_DESCRIPTOR, ImportBuilder
from .repo import REPO_DESCRIPTOR, RepoScriptBuilder
from .script import (ROOTFS_DESCRIPTOR, SCRIPT_DESCRIPTOR, RootfsBuilder,
                     ScriptBuilder)

__all__ = [
    "Builder", "StageReport", "ScriptBuilder",
    "RootfsBuilder", "RepoScriptBuilder", "ImportBuilder", "ImageBuilder",
    "register_builtin_builders",
]

_BUILTIN = (
    (SCRIPT_DESCRIPTOR, ScriptBuilder),
    (ROOTFS_DESCRIPTOR, RootfsBuilder),
    (REPO_DESCRIPTOR, RepoScriptBuilder),
    (IMPORT_DESCRIPTOR, ImportBuilder),
    (IMAGE_DESCRIPTOR, ImageBuilder),
)


def register_builtin_builders() -> None:
    for descriptor, cls in _BUILTIN:
        if descriptor.name not in registered_names():
            register_builder(descriptor, cls)


register_builtin_builders()
