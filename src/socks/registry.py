"""Builder registry: maps builder names to builder classes.

Builders are selected purely by name from the project configuration.  A
builder class describes itself through its ``name``, ``description``,
``schema`` and ``commands``; the registry is populated at startup and
read-only afterwards.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import BuilderError

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


def method_name(verb: str) -> str:
    """The builder method that carries out ``verb``."""
    return "cmd_" + verb.replace("-", "_")


_REGISTRY: dict[str, type] = {}


def register_builder(cls: type) -> None:
    """Register builder class ``cls`` under its ``name``.  Refuses a name
    already taken, an empty or repeated verb list, and a verb without its
    ``cmd_<verb>`` method."""
    verbs = cls.verbs()
    if cls.name in _REGISTRY:
        raise BuilderError(f"builder '{cls.name}' is already registered")
    if not verbs:
        raise BuilderError(f"builder {cls.name} declares no commands")
    if len(set(verbs)) != len(verbs):
        raise BuilderError(f"builder {cls.name} has duplicate verbs")
    for verb in verbs:
        if not callable(getattr(cls, method_name(verb), None)):
            raise BuilderError(f"builder {cls.name} declares '{verb}' but "
                               f"has no method {method_name(verb)}")
    _REGISTRY[cls.name] = cls


def unregister_builder(name: str) -> None:
    _REGISTRY.pop(name, None)


def registered_names() -> list[str]:
    return sorted(_REGISTRY)


def builder_class(name: str) -> type:
    if name not in _REGISTRY:
        known = ", ".join(registered_names()) or "(none)"
        raise BuilderError(f"unknown builder '{name}' (available: {known})")
    return _REGISTRY[name]
