"""Shared builder behavior: work directory layout, dependency handling,
packaging, environment use, and incremental short-circuiting.

All file activity of a builder stays under ``temp/<block_id>/`` inside the
project folder:

    temp/<block_id>/
        output/       block packages this block emits
        stage/        declared artifacts collected before packaging
        deps/<dep>/   extracted dependency packages
        imports/      downloaded archives
        events.csv    successful build stages
        imports.csv   digests of archives already imported
        config.used   config section snapshot of the last successful build
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from .. import blockpackage as bp
from ..configtree import ConfigTree
from ..environment import EnvironmentManager, make_env_spec
from ..errors import BuilderError
from ..incremental import (ChecksumStore, ConfigSnapshot, EventLog,
                           needs_rebuild)
from ..registry import BuilderDescriptor, CommandDescriptor
from ..validation import BlockSpec, GeneralSettings


@dataclass(frozen=True)
class ProjectContext:
    project_dir: Path
    config_file: Path
    tree: ConfigTree
    section_texts: dict[str, str]


@dataclass
class StageReport:
    block_id: str
    verb: str
    skipped: bool = False
    duration: float = 0.0
    artifacts: list[str] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)
    exit_status: int = 0


class Builder:
    """Base class wiring framework services together for one block."""

    def __init__(self, *, descriptor: BuilderDescriptor, block_id: str,
                 spec: BlockSpec, general: GeneralSettings,
                 context: ProjectContext):
        self.descriptor = descriptor
        self.block_id = block_id
        self.spec = spec
        self.general = general
        self.context = context
        self.project_dir = Path(context.project_dir)
        self.section_text = context.section_texts.get(block_id, "")

    # -- layout ----------------------------------------------------------

    @property
    def work_dir(self) -> Path:
        return self.project_dir / "temp" / self.block_id

    @property
    def output_dir(self) -> Path:
        return self.work_dir / "output"

    @property
    def stage_dir(self) -> Path:
        return self.work_dir / "stage"

    @property
    def deps_dir(self) -> Path:
        return self.work_dir / "deps"

    @property
    def imports_dir(self) -> Path:
        return self.work_dir / "imports"

    @property
    def event_log(self) -> EventLog:
        return EventLog(self.work_dir / "events.csv")

    @property
    def checksum_store(self) -> ChecksumStore:
        return ChecksumStore(self.work_dir / "imports.csv")

    @property
    def snapshot(self) -> ConfigSnapshot:
        return ConfigSnapshot(self.work_dir / "config.used")

    @property
    def env(self) -> EnvironmentManager:
        spec = make_env_spec(image=self.spec.container_image,
                             tag=self.spec.container_tag,
                             container_tool=self.general.container_tool,
                             project_dir=self.project_dir)
        return EnvironmentManager(spec, self.general.effective_threads(),
                                  self.event_log)

    @property
    def credentials(self) -> dict:
        """Per-host credentials for fetching URLs (``credentials`` key)."""
        return self.context.tree.get("credentials", {}) \
            if self.context.tree else {}

    # -- command dispatch --------------------------------------------------

    def apply(self, verb: str) -> StageReport:
        self.descriptor.require_command(verb, self.block_id)
        method = getattr(self, "cmd_" + verb.replace("-", "_"), None)
        if method is None:
            raise BuilderError(
                f"builder {self.descriptor.name} declares '{verb}' "
                f"but does not implement it")
        start = time.monotonic()
        report = method()
        if report.duration == 0.0:
            report.duration = time.monotonic() - start
        return report

    # -- shared building blocks -------------------------------------------

    def existing_packages(self) -> list[Path]:
        return sorted(self.output_dir.glob("*.tar.gz"))

    def resolve_dependencies(self) -> dict[str, bp.BlockPackage]:
        resolved = {}
        for dep_id in sorted(self.spec.dependencies):
            ref = bp.DependencyRef(self.spec.dependencies[dep_id])
            try:
                archive = bp.resolve_dependency(
                    ref, self.project_dir, download_dir=self.imports_dir,
                    credentials=self.credentials)
            except bp.PackageError as exc:
                raise BuilderError(
                    f"block '{self.block_id}' cannot resolve dependency "
                    f"'{dep_id}': {exc}") from exc
            resolved[dep_id] = bp.open_package(archive, emitter=dep_id)
        return resolved

    def content_rules(self) -> dict[str, bp.ContentRule]:
        rules = {}
        for dep_id, section in (
                self.spec.builder_specific.get("consumes") or {}).items():
            rules[dep_id] = bp.ContentRule(
                emitter=dep_id,
                required_globs=tuple(section.get("required", ())),
                optional_globs=tuple(section.get("optional", ())))
        return rules

    def validate_dependency_contents(
            self, packages: dict[str, bp.BlockPackage]) -> None:
        for dep_id, rule in self.content_rules().items():
            if dep_id in packages:
                bp.require_contents(packages[dep_id], rule)

    def import_dependencies(self, packages: dict[str, bp.BlockPackage]) -> None:
        for dep_id, pkg in packages.items():
            bp.import_package(pkg, self.deps_dir / dep_id, self.checksum_store)

    def rebuild_decision(self, *, sources: list, packages: dict,
                         required_stages: list[str] | None = None):
        return needs_rebuild(
            sources=sources,
            outputs=self.existing_packages(),
            required_stages=required_stages or [],
            event_log=self.event_log,
            dependency_digests=[p.digest for p in packages.values()],
            checksum_store=self.checksum_store,
            config_text=self.section_text,
            snapshot=self.snapshot,
        )

    def emitter_rule(self) -> bp.ContentRule:
        emits = self.spec.builder_specific.get("emits") or {}
        return bp.ContentRule(
            emitter=self.block_id,
            required_globs=tuple(emits.get("required", ())),
            optional_globs=tuple(emits.get("optional", ())))

    def run_import(self) -> StageReport:
        """Source this block's package from ``import_src`` instead of
        building; re-imports of an already-seen digest are skipped."""
        src = self.spec.import_src
        if not src:
            raise BuilderError(
                f"block '{self.block_id}' is set to source 'import' but has "
                f"no import_src")
        try:
            archive = bp.resolve_dependency(
                bp.DependencyRef(src), self.project_dir,
                download_dir=self.imports_dir, credentials=self.credentials)
            package = bp.open_package(archive, emitter=self.block_id)
            published = self.output_dir / archive.name
            if self.checksum_store.seen(package.digest) \
                    and published.exists() \
                    and not self.snapshot.changed(self.section_text):
                return StageReport(self.block_id, "build", skipped=True)
            bp.require_contents(package, self.emitter_rule())
        except bp.PackageError as exc:
            raise BuilderError(
                f"block '{self.block_id}' cannot import its package: "
                f"{exc}") from exc
        self.output_dir.mkdir(parents=True, exist_ok=True)
        if archive.resolve() != published.resolve():
            shutil.copy2(archive, published)
        self.checksum_store.record(package.digest)
        self.event_log.record("import")
        self.snapshot.save(self.section_text)
        return StageReport(self.block_id, "build",
                           artifacts=[published.name],
                           reasons=["dependency-checksum"])

    def finish_build(self, files: dict[str, Path]) -> bp.BlockPackage:
        package = bp.create_package(self.block_id, self.output_dir, files,
                                    workers=self.general.effective_threads())
        self.event_log.record("build")
        self.snapshot.save(self.section_text)
        return package

    # -- default commands ---------------------------------------------------

    def cmd_clean(self) -> StageReport:
        if self.work_dir.exists():
            shutil.rmtree(self.work_dir)
        return StageReport(self.block_id, "clean")

    def cmd_prepare(self) -> StageReport:
        self.env.ensure_image()
        return StageReport(self.block_id, "prepare")

    def cmd_start_container(self) -> StageReport:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        status = self.env.interactive_session(self.work_dir)
        return StageReport(self.block_id, "start-container",
                           exit_status=status)


# Command descriptors shared by the built-in builders.
PREPARE = CommandDescriptor(
    "prepare", "building", "Performs all the preparatory steps to prepare "
    "this block for building, but does not build it.")
BUILD = CommandDescriptor("build", "building", "Builds this block.")
CLEAN = CommandDescriptor("clean", "cleaning",
                          "Deletes all generated files of this block.")
START_CONTAINER = CommandDescriptor(
    "start-container", "debugging",
    "Starts the container image of this block in an interactive session.")
