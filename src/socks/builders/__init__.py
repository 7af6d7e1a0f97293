"""Reference builders and their registration."""

from __future__ import annotations

from ..registry import register_builder
from .base import Builder, StageReport
from .image import ImageBuilder
from .importer import ImportBuilder
from .repo import RepoScriptBuilder
from .script import RootfsBuilder, ScriptBuilder

__all__ = [
    "Builder", "StageReport", "ScriptBuilder",
    "RootfsBuilder", "RepoScriptBuilder", "ImportBuilder", "ImageBuilder",
]

for _cls in (ScriptBuilder, RootfsBuilder, RepoScriptBuilder, ImportBuilder,
             ImageBuilder):
    register_builder(_cls)
