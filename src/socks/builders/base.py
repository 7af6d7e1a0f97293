"""Shared builder behavior: work directory layout, dependency handling,
packaging, environment use, and incremental short-circuiting.

All file activity of a builder stays under ``temp/<block_id>/`` inside the
project folder:

    temp/<block_id>/
        output/       the package this block last published, and its
                      digest sidecar (.<package name>.digest)
        stage/        declared artifacts collected before packaging
        deps/<dep>/   extracted dependency packages
        deps/.<dep>.digest  digest of the package extracted in deps/<dep>/
        imports/      the downloaded import_src and URL extra packages,
                      with their digest sidecars
        imports/<dep>/  the download of URL dependency <dep>, and its
                      digest sidecar
        build.json    what the published package was built from, written
                      only after it is published
        src/          the git checkout (repository blocks), cloned in
                      .src.partial/ first
        checkout.json the checkout's baseline commit and applied patches,
                      each with its digest (repository blocks)
"""

from __future__ import annotations

import shutil
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from .. import blockpackage as bp
from ..configtree import ConfigTree, render_effective_config
from ..environment import EnvironmentManager
from ..errors import BuilderError
from ..incremental import BuildRecord, needs_rebuild
from ..registry import BuilderDescriptor, CommandDescriptor
from ..validation import GeneralSettings


class StageReport:
    def __init__(self, block_id: str, verb: str, skipped: bool = False,
                 duration: float = 0.0, artifacts: list[str] | None = None,
                 reasons: list[str] | None = None, exit_status: int = 0):
        self.block_id = block_id
        self.verb = verb
        self.skipped = skipped
        self.duration = duration
        self.artifacts = [] if artifacts is None else artifacts
        self.reasons = [] if reasons is None else reasons
        self.exit_status = exit_status


class Builder:
    """Base class wiring framework services together for one block.

    A builder reads its block's checked section (``section``), whose
    ``project`` mapping (``settings``) is checked against the builder's
    schema; both hold every key of their schema, defaults filled in, so
    keys are read by subscript.  ``tree`` is the processed configuration
    and ``project_dir`` the folder of the main configuration file.
    ``section_text`` renders the block's section as configured, without
    the defaults: a change of it rebuilds the block.
    """

    def __init__(self, *, descriptor: BuilderDescriptor, block_id: str,
                 section: dict, general: GeneralSettings, tree: ConfigTree,
                 project_dir: Path):
        self.descriptor = descriptor
        self.block_id = block_id
        self.section = section
        self.settings = section["project"]
        self.general = general
        self.tree = tree
        self.project_dir = Path(project_dir)
        self.section_text = render_effective_config(
            tree.get(f"blocks/{block_id}"))

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
    def record_path(self) -> Path:
        return self.work_dir / "build.json"

    @property
    def env(self) -> EnvironmentManager:
        container = self.section["container"]
        return EnvironmentManager(
            container["image"], container["tag"], self.general.container_tool,
            self.project_dir, self.general.effective_threads())

    @property
    def credentials(self) -> dict:
        """Per-host credentials for fetching URLs (``credentials`` key)."""
        return self.tree.get("credentials", {})

    # -- command dispatch --------------------------------------------------

    def apply(self, verb: str) -> StageReport:
        self.descriptor.require_command(verb, self.block_id)
        method = getattr(self, "cmd_" + verb.replace("-", "_"), None)
        if method is None:
            raise BuilderError(
                f"builder {self.descriptor.name} declares '{verb}' "
                f"but does not implement it")
        start = time.monotonic()
        with self.failure(f"cannot {verb}"):
            report = method()
        if report.duration == 0.0:
            report.duration = time.monotonic() - start
        return report

    @contextmanager
    def failure(self, doing: str):
        """Fail this block (exit 2) on a package or file error met while
        ``doing``; the message names the block and what it was doing."""
        try:
            yield
        except (bp.PackageError, OSError) as exc:
            raise BuilderError(
                f"block '{self.block_id}' {doing}: {exc}") from exc

    # -- shared building blocks -------------------------------------------

    def existing_packages(self) -> list[Path]:
        return sorted(self.output_dir.glob("*.tar.gz"))

    def resolve_dependencies(self) -> dict[str, bp.BlockPackage]:
        resolved = {}
        dependencies = self.settings["dependencies"]
        for dep_id in sorted(dependencies):
            with self.failure(f"cannot resolve dependency '{dep_id}'"):
                # Each URL dependency has a folder of its own: two URLs
                # may end in the same file name.
                archive = bp.resolve_dependency(
                    dependencies[dep_id], self.project_dir,
                    download_dir=self.imports_dir / dep_id,
                    credentials=self.credentials)
                resolved[dep_id] = bp.open_package(archive)
        return resolved

    def import_dependencies(self, packages: dict[str, bp.BlockPackage], *,
                            extract: bool = True) -> None:
        """Extract each package into ``deps/``, or without ``extract`` only
        list its members.  Extraction reads the whole archive; the listing
        does too unless a trusted sidecar holds it.  Either way a corrupt
        package fails here."""
        for dep_id, pkg in packages.items():
            with self.failure(f"cannot import dependency '{dep_id}'"):
                if extract:
                    bp.import_package(pkg, self.deps_dir / dep_id)
                else:
                    pkg.entries

    def build(self, *, sources: list, inputs: dict[str, str],
              publish: Callable[[], str]) -> StageReport:
        """The one sequence every ``build`` ends in: decide, publish,
        record, prune.

        Nothing happens unless ``needs_rebuild`` finds the build record
        stale.  ``publish`` then writes one package into ``output/`` and
        returns its name; only after that is ``build.json`` saved, and only
        then are the packages it supersedes dropped with their sidecars.
        """
        decision = needs_rebuild(record_path=self.record_path,
                                 output_dir=self.output_dir, sources=sources,
                                 inputs=inputs, config_text=self.section_text)
        if not decision.rebuild:
            return StageReport(self.block_id, "build", skipped=True)
        package_name = publish()
        with self.failure(
                f"cannot commit its build record {self.record_path}"):
            BuildRecord(package_name, inputs, self.section_text).save(
                self.record_path)
            for old in self.existing_packages():
                if old.name != package_name:
                    bp.digest_sidecar(old).unlink(missing_ok=True)
                    old.unlink()
        return StageReport(self.block_id, "build", artifacts=[package_name],
                           reasons=decision.reasons)

    def run_import(self) -> StageReport:
        """Source this block's package from ``import_src`` instead of
        building; an import of the digest last committed is skipped."""
        src = self.settings["import_src"]
        if not src:
            raise BuilderError(
                f"block '{self.block_id}' is set to source 'import' but has "
                f"no import_src")

        def publish() -> str:
            bp.require_contents(package, self.block_id,
                                self.settings["emits"]["required"])
            published = self.output_dir / archive.name
            with self.failure(
                    f"cannot publish its imported package {published}"):
                self.output_dir.mkdir(parents=True, exist_ok=True)
                if archive.resolve() != published.resolve():
                    # The copy may replace the recorded package under its
                    # own name: the record goes first, so an interrupted
                    # copy is never trusted.
                    self.record_path.unlink(missing_ok=True)
                    shutil.copy2(archive, published)
                    # Consumers read the copy's digest and listing instead
                    # of reading the copy.
                    bp.record_digest(published, package.digest,
                                     entries=package.entries)
            return published.name

        # A package or file error from the fetch up to the content check
        # in ``publish`` means the import failed.
        with self.failure("cannot import its package"):
            archive = bp.resolve_dependency(
                src, self.project_dir, download_dir=self.imports_dir,
                credentials=self.credentials)
            package = bp.open_package(archive)
            # Judged by digest only: a download is always newer than any
            # package, and a local copy keeps the mtime of its source.
            return self.build(sources=[],
                              inputs={"import_src": package.digest},
                              publish=publish)

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
