"""Builder registry: maps builder names to descriptors and factories.

Builders are selected purely by name from the project configuration; the
registry is populated at startup and read-only afterwards.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .errors import BuilderError
from .validation import BlockProjectModel

VERB_RE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")
CATEGORIES = ("building", "configuring", "debugging", "cleaning")


class _Command(NamedTuple):
    verb: str
    category: str
    help: str


class CommandDescriptor(_Command):
    __slots__ = ()

    def __new__(cls, verb: str, category: str, help: str):
        if not VERB_RE.match(verb):
            raise ValueError(f"invalid command verb: {verb!r}")
        if category not in CATEGORIES:
            raise ValueError(f"invalid command category: {category!r}")
        return super().__new__(cls, verb, category, help)


class _Builder(NamedTuple):
    name: str
    description: str
    schema: type[BlockProjectModel]
    commands: tuple[CommandDescriptor, ...]


class BuilderDescriptor(_Builder):
    __slots__ = ()

    def __new__(cls, name: str, description: str,
                schema: type[BlockProjectModel],
                commands: tuple[CommandDescriptor, ...]):
        if not commands:
            raise ValueError(f"builder {name} declares no commands")
        verbs = [c.verb for c in commands]
        if len(set(verbs)) != len(verbs):
            raise ValueError(f"builder {name} has duplicate verbs")
        return super().__new__(cls, name, description, schema, commands)

    def verbs(self) -> list[str]:
        return [c.verb for c in self.commands]

    def command(self, verb: str) -> CommandDescriptor | None:
        for cmd in self.commands:
            if cmd.verb == verb:
                return cmd
        return None

    def require_command(self, verb: str, block_id: str) -> CommandDescriptor:
        """The command ``verb`` of block ``block_id``, which this builder
        must support."""
        cmd = self.command(verb)
        if cmd is None:
            raise BuilderError(
                f"command '{verb}' is not supported by the builder of block "
                f"'{block_id}' ({self.name}); supported: "
                f"{', '.join(self.verbs())}")
        return cmd


_REGISTRY: dict[str, tuple[BuilderDescriptor, Callable]] = {}


def register_builder(descriptor: BuilderDescriptor, factory: Callable) -> None:
    if descriptor.name in _REGISTRY:
        raise BuilderError(f"builder '{descriptor.name}' is already registered")
    _REGISTRY[descriptor.name] = (descriptor, factory)


def unregister_builder(name: str) -> None:
    _REGISTRY.pop(name, None)


def registered_names() -> list[str]:
    return sorted(_REGISTRY)


def get_descriptor(name: str) -> BuilderDescriptor:
    if name not in _REGISTRY:
        known = ", ".join(registered_names()) or "(none)"
        raise BuilderError(f"unknown builder '{name}' (available: {known})")
    return _REGISTRY[name][0]


def instantiate(name: str, block_id: str, section, general, tree,
                project_dir):
    """Create a builder bound to its block; performs no filesystem writes."""
    descriptor = get_descriptor(name)
    factory = _REGISTRY[name][1]
    return factory(descriptor=descriptor, block_id=block_id, section=section,
                   general=general, tree=tree, project_dir=project_dir)
