"""Boot-image assembler: combines the packages of all other blocks.

The produced artifact is a text manifest listing, per dependency, the
emitting block, the package content digest, and the carried artifact names.
It is a verifiable stand-in for a binary boot image: any change in any
consumed package changes the manifest.
"""

from __future__ import annotations

from ..registry import BuilderDescriptor
from .script import SCRIPT_COMMANDS, ScriptBuilder, ScriptProjectModel

FILESYSTEM_BLOCKS = {"rootfs", "ramfs"}


class ImageProjectModel(ScriptProjectModel):

    @classmethod
    def check(cls, value: dict) -> None:
        if not FILESYSTEM_BLOCKS & set(value["dependencies"]):
            raise ValueError(
                "the image must consume at least one file-system block "
                "(rootfs or ramfs)")


class ImageBuilder(ScriptBuilder):
    """Script builder that writes the manifest of its dependencies."""

    def generated(self, packages) -> dict[str, str]:
        lines = []
        for dep_id in sorted(packages):
            pkg = packages[dep_id]
            files = ",".join(sorted(pkg.entries))
            lines.append(f"block={dep_id} digest={pkg.digest} files={files}\n")
        return {"boot.img": "".join(lines)}


IMAGE_DESCRIPTOR = BuilderDescriptor(
    name="Image_Builder",
    description="Assembles the bootable image from the packages of all "
                "other blocks",
    schema=ImageProjectModel,
    commands=SCRIPT_COMMANDS,
)
