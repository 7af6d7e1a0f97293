"""Generic script builder: ordered shell steps over declared inputs and
dependency packages, producing declared output artifacts.

Stands in for tool-specific builders: any block whose build can be expressed
as bash steps can use it.  The rootfs variant additionally injects
user-provided binary packages into the produced file-system artifact.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from .. import blockpackage as bp
from ..errors import BuilderError
from ..registry import BuilderDescriptor
from ..validation import BlockProjectModel, ContentRuleModel
from .base import (BUILD, CLEAN, PREPARE, START_CONTAINER, Builder,
                   StageReport)


class ScriptProjectModel(BlockProjectModel):
    inputs: list[str] = []
    steps: list[str] = []
    outputs: list[str] = []
    consumes: dict[str, ContentRuleModel] = {}


class RootfsProjectModel(ScriptProjectModel):
    extra_packages: list[str] = []

    @classmethod
    def check(cls, value: dict) -> None:
        # URL extra packages are all fetched into imports/, and
        # packages.txt names each payload by its file name.
        names = [bp.download_name(ref) for ref in value["extra_packages"]
                 if bp.is_url(ref)]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"two URL extra packages have the file "
                                 f"name '{name}'")


class ScriptBuilder(Builder):
    """Runs configured shell steps in the block's environment; variants
    override the hooks below, and ``cmd_build`` runs them in order."""

    def source_paths(self) -> list[Path]:
        return [self.project_dir / p for p in self.settings["inputs"]]

    def fetched_inputs(self) -> dict[str, str]:
        """Hook for variants that fetch more inputs: their digests, keyed
        with a '/', which no block id holds."""
        return {}

    def sync_sources(self) -> None:
        """Hook for variants that fetch general source files."""

    def step_env(self) -> dict[str, str]:
        env = self.env
        return {
            "SOCKS_BLOCK_ID": self.block_id,
            "SOCKS_PROJECT_DIR": env.translate_path(self.project_dir),
            "SOCKS_WORK_DIR": env.translate_path(self.work_dir),
            "SOCKS_STAGE_DIR": env.translate_path(self.stage_dir),
            "SOCKS_DEPS_DIR": env.translate_path(self.deps_dir),
        }

    def generated(self, packages) -> dict[str, str]:
        """Hook for variants that add artifacts beyond the shell steps: the
        text of each by name, written into ``stage/`` after the steps."""
        return {}

    def cmd_build(self) -> StageReport:
        if self.section["source"] == "import":
            return self.run_import()
        packages = self.resolve_dependencies()
        # Local dependency archives count as sources: a freshly rebuilt
        # dependency must propagate downstream even when its content is
        # unchanged.  Downloads are always fresh, so only digests judge them.
        sources = self.source_paths() + [
            pkg.path for dep_id, pkg in packages.items()
            if not bp.is_url(self.settings["dependencies"][dep_id])]
        inputs = {dep_id: pkg.digest for dep_id, pkg in packages.items()}
        inputs.update(self.fetched_inputs())

        def publish() -> str:
            for dep_id, rule in self.settings["consumes"].items():
                if dep_id in packages:
                    with self.failure(f"cannot use dependency '{dep_id}'"):
                        bp.require_contents(packages[dep_id], dep_id,
                                            rule["required"])
            self.env.ensure_image()
            self.work_dir.mkdir(parents=True, exist_ok=True)
            self.sync_sources()
            if self.stage_dir.exists():
                shutil.rmtree(self.stage_dir)
            self.stage_dir.mkdir()
            steps = self.settings["steps"]
            # Only steps read the extracted packages.
            self.import_dependencies(packages, extract=bool(steps))
            env = self.step_env()
            for step in steps:
                self.env.run(step, workdir=self.work_dir, env=env)
            generated = self.generated(packages)
            for name, text in generated.items():
                (self.stage_dir / name).write_text(text, encoding="utf-8")
            files = {name: self.stage_dir / name
                     for name in [*self.settings["outputs"], *generated]}
            for name in self.settings["outputs"]:
                if not files[name].is_file():
                    raise BuilderError(
                        f"block '{self.block_id}' declared output '{name}' "
                        f"but the build steps did not produce it")
            with self.failure("cannot package its artifacts"):
                return bp.create_package(
                    self.block_id, self.output_dir, files,
                    workers=self.general.effective_threads()).path.name

        return self.build(sources=sources, inputs=inputs, publish=publish)

    def cmd_prepare(self) -> StageReport:
        self.env.ensure_image()
        self.sync_sources()
        return StageReport(self.block_id, "prepare")


class RootfsBuilder(ScriptBuilder):
    """Script builder that records injected user packages in the artifact."""

    def source_paths(self) -> list[Path]:
        return super().source_paths() + [
            self.project_dir / ref for ref in self.settings["extra_packages"]
            if not bp.is_url(ref)]

    def fetched_inputs(self) -> dict[str, str]:
        """Fetch the URL extra packages before the rebuild decision, so a
        republish at the same URL is a changed input; an unchanged source
        is not fetched again (see ``bp._download``)."""
        with self.failure("cannot fetch an extra package"):
            self.fetched = {
                ref: bp._download(ref, self.imports_dir, self.credentials)
                for ref in self.settings["extra_packages"] if bp.is_url(ref)}
        return {f"extra_packages/{ref}": bp.file_digest(path)
                for ref, path in self.fetched.items()}

    def generated(self, packages) -> dict[str, str]:
        lines = []
        for ref in self.settings["extra_packages"]:
            payload = self.fetched.get(ref) or self.project_dir / ref
            if not payload.is_file():
                raise BuilderError(f"extra package not found: {ref!r}")
            lines.append(f"{payload.name} sha256={bp.file_digest(payload)}\n")
        return {"packages.txt": "".join(lines)}


SCRIPT_COMMANDS = (PREPARE, BUILD, CLEAN, START_CONTAINER)

SCRIPT_DESCRIPTOR = BuilderDescriptor(
    name="Script_Builder",
    description="Builds a block by running configured shell steps",
    schema=ScriptProjectModel,
    commands=SCRIPT_COMMANDS,
)

ROOTFS_DESCRIPTOR = BuilderDescriptor(
    name="Rootfs_Builder",
    description="Builds a root file system artifact and installs "
                "user-provided packages into it",
    schema=RootfsProjectModel,
    commands=SCRIPT_COMMANDS,
)
