"""Builder for blocks whose general sources live in a git repository.

On top of the script builder it clones the configured repository, applies
the project's patch series and Kconfig-style config snippets before the
build steps run, and can export local commits / .config edits back into the
project as new patch and snippet files.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

from ..errors import BuilderError
from ..registry import BuilderDescriptor, CommandDescriptor
from ..sources import (SourceRef, apply_config_snippets, apply_patches,
                       create_config_snippet, create_patches_from_commits,
                       sync_source)
from ..validation import Schema
from .base import BUILD, CLEAN, PREPARE, START_CONTAINER, StageReport
from .script import ScriptBuilder, ScriptProjectModel


class BuildSrcsModel(Schema):
    source: str
    branch: str = ""


class RepoProjectModel(ScriptProjectModel):
    build_srcs: BuildSrcsModel
    patches: list[str] = []
    config_snippets: list[str] = []
    kconfig_file: str = ".config"


class RepoScriptBuilder(ScriptBuilder):
    """Script builder with git sources, patch series, and config snippets."""

    @property
    def checkout_dir(self) -> Path:
        return self.work_dir / "src"

    @property
    def files_dir(self) -> Path:
        """Project source files of this block (patches, snippets)."""
        return self.project_dir / "src" / self.block_id

    @property
    def kconfig_path(self) -> Path:
        return self.checkout_dir / self.settings["kconfig_file"]

    @property
    def kconfig_baseline(self) -> Path:
        return self.work_dir / "kconfig.last"

    def source_ref(self) -> SourceRef:
        srcs = self.settings["build_srcs"]
        source = srcs["source"]
        # Local repository paths are relative to the project folder.
        if "://" not in source and "@" not in source \
                and not Path(source).is_absolute():
            source = str(self.project_dir / source)
        return SourceRef(block=self.block_id, source=source,
                         branch=srcs["branch"],
                         checkout_dir=self.checkout_dir,
                         record=self.work_dir / "checkout.json")

    def patch_files(self) -> list[Path]:
        return [self.files_dir / name for name in self.settings["patches"]]

    def snippet_files(self) -> list[Path]:
        return [self.files_dir / name
                for name in self.settings["config_snippets"]]

    def source_paths(self) -> list[Path]:
        return super().source_paths() + [self.checkout_dir, self.files_dir]

    def step_env(self, packages) -> dict[str, str]:
        env = super().step_env(packages)
        env["SOCKS_SRC_DIR"] = self.env.translate_path(self.checkout_dir)
        return env

    def sync_sources(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        ref = self.source_ref()
        sync_source(ref)
        apply_patches(ref, self.patch_files(), self.settings["kconfig_file"])
        apply_config_snippets(self.kconfig_path, self.snippet_files())
        if self.kconfig_path.exists():
            self.kconfig_baseline.write_bytes(self.kconfig_path.read_bytes())

    # -- configuring commands ------------------------------------------------

    def list_edit(self, key: str):
        """Planner of the edit that appends new file names to this block's
        ``key`` list."""
        # Imported here: only the two commands that edit the config need it.
        from ..configedit import plan_list_append

        return partial(plan_list_append, self.tree, self.block_id, key)

    def cmd_create_patches(self) -> StageReport:
        if not (self.checkout_dir / ".git").exists():
            raise BuilderError(
                f"block '{self.block_id}' has no checkout yet; "
                f"run 'prepare' or 'build' first")
        created = create_patches_from_commits(
            self.source_ref(), self.files_dir, self.patch_files(),
            self.list_edit("patches"))
        if not created:
            return StageReport(self.block_id, "create-patches", skipped=True,
                               reasons=["no new commits"])
        return StageReport(self.block_id, "create-patches", artifacts=created)

    def cmd_create_cfg_snippet(self) -> StageReport:
        if not self.kconfig_path.exists():
            raise BuilderError(
                f"no {self.settings['kconfig_file']} in the "
                f"checkout of block '{self.block_id}'")
        count = len(self.settings["config_snippets"])
        name = f"cfg-snippet-{count + 1:04d}.cfg"
        changed = create_config_snippet(
            self.kconfig_path, self.kconfig_baseline, self.files_dir / name,
            self.list_edit("config_snippets"))
        if not changed:
            return StageReport(self.block_id, "create-cfg-snippet",
                               skipped=True, reasons=["no config changes"])
        self.kconfig_baseline.write_bytes(self.kconfig_path.read_bytes())
        return StageReport(self.block_id, "create-cfg-snippet",
                           artifacts=[name])

    def cmd_menucfg(self) -> StageReport:
        raise BuilderError(
            "the interactive menuconfig tool is not available in this "
            "builder; edit the .config file in the checkout and run "
            "create-cfg-snippet instead")


REPO_COMMANDS = (
    PREPARE, BUILD, CLEAN,
    CommandDescriptor("create-patches", "configuring",
                      "Uses the committed changes in this block's repo to "
                      "create patch files."),
    CommandDescriptor("create-cfg-snippet", "configuring",
                      "Creates a configuration snippet from the changes in "
                      "the .config file in this block's repo."),
    START_CONTAINER,
    CommandDescriptor("menucfg", "configuring",
                      "Opens the menuconfig tool to enable interactive "
                      "configuration of the project in this block."),
)

REPO_DESCRIPTOR = BuilderDescriptor(
    name="Repo_Script_Builder",
    description="Builds a block from a git repository with project patches "
                "and config snippets",
    schema=RepoProjectModel,
    commands=REPO_COMMANDS,
)
