"""Coordinating instance: ordering, sequencing, fail-fast, interruption."""

from __future__ import annotations

import hashlib
import logging
import os

import pytest

from socks import blockpackage as bp
from socks import cli, orchestrator
from socks.builders.base import StageReport
from socks.errors import BuilderError, UsageError, ValidationError
from socks.graph import ALL, Invocation
from socks.incremental import BuildRecord
from socks.orchestrator import plan, run
from socks.project import Project

BUILD_ALL = Invocation(target=ALL, command="build")
CLEAN_ALL = Invocation(target=ALL, command="clean")


def test_plan_build_respects_edges(project):
    order = plan(project, BUILD_ALL)
    pos = {b: i for i, b in enumerate(order)}
    for dep, dependent in project.graph.all_edges():
        assert pos[dep] < pos[dependent]
    assert set(order) == set(project.graph.nodes)


def test_plan_clean_is_reverse_of_build(project):
    assert plan(project, CLEAN_ALL) == list(reversed(plan(project, BUILD_ALL)))


def test_plan_group_closure(project):
    order = plan(project, Invocation("rootfs", "build", group=True))
    assert set(order) == {"vivado", "devicetree", "kernel", "rootfs"}
    assert order.index("vivado") < order.index("devicetree")
    assert order.index("devicetree") < order.index("rootfs")
    assert order.index("kernel") < order.index("rootfs")


def test_plan_all_skips_unsupported_verbs(project):
    # Only the repo builder knows create-patches; 'all' quietly narrows.
    order = plan(project, Invocation(ALL, "create-patches"))
    assert order == ["kernel"]


def test_plan_logs_unsupported_blocks_in_execution_order(project, caplog):
    expected = [b for b in plan(project, BUILD_ALL) if b != "kernel"]
    caplog.set_level(logging.INFO, logger="socks.orchestrator")
    plan(project, Invocation(ALL, "create-patches"))
    logged = [record.args[0] for record in caplog.records
              if "has no 'create-patches' command" in record.getMessage()]
    assert logged == expected


def test_plan_explicit_unsupported_verb_rejected(project):
    with pytest.raises(UsageError, match="supported:"):
        plan(project, Invocation("vivado", "create-patches"))


def test_plan_rejects_a_verb_no_active_block_offers(project):
    with pytest.raises(UsageError, match="no block offers the command "
                                         "'biuld'; offered: build, clean"):
        plan(project, Invocation(ALL, "biuld"))


def import_vivado(project_dir):
    """Switch the fixture's vivado block to the import builder, which
    offers only build and clean."""
    config = project_dir / "project-zynqmp-default.yml"
    text = config.read_text(encoding="utf-8")
    start = text.index("  vivado:\n")
    end = text.index("  devicetree:\n")
    config.write_text(text[:start] + (
        "  vivado:\n"
        "    builder: Import_Builder\n"
        "    container:\n"
        "      image: socks-mock-builder\n"
        "    project:\n"
        "      import_src: ci/bp_vivado_*.tar.gz\n"
        "      emits:\n"
        "        required: [\"*.xsa\"]\n\n") + text[end:],
        encoding="utf-8")
    return Project.load(project_dir / "socks.yml")


def test_group_skips_a_dependency_without_the_verb(project_dir, caplog):
    project = import_vivado(project_dir)
    caplog.set_level(logging.INFO, logger="socks.orchestrator")
    inv = Invocation("devicetree", "prepare", group=True)
    assert plan(project, inv) == ["devicetree"]
    assert "block 'vivado' skipped: its builder has no 'prepare' command" \
        in caplog.text
    report = run(project, inv)
    assert report.outcome == "completed", vars(report)
    assert [e.block_id for e in report.entries] == ["devicetree"]
    assert cli.main(["-f", str(project_dir / "socks.yml"), "devicetree",
                     "-g", "prepare"]) == 0


def test_execution_is_strictly_sequential(project, monkeypatch):
    seen = []
    original = type(project.builders["vivado"]).apply

    def spying_apply(self, verb):
        seen.append(orchestrator._in_flight)
        return original(self, verb)

    for builder in project.builders.values():
        monkeypatch.setattr(type(builder), "apply", spying_apply,
                            raising=True)
    report = run(project, BUILD_ALL)
    assert report.outcome == "completed"
    assert len(seen) == 10
    assert set(seen) == {1}


def test_fail_fast_preserves_downstream(project, project_dir, monkeypatch):
    from socks.builders.base import Builder
    original = Builder.apply

    def failing_apply(self, verb):
        if self.block_id == "vivado":
            raise BuilderError("injected failure")
        return original(self, verb)

    monkeypatch.setattr(Builder, "apply", failing_apply)

    report = run(project, BUILD_ALL)
    assert report.outcome == "failed"
    assert report.at_block == "vivado"
    assert report.exit_code == 2
    # Nothing downstream of the failure was touched.
    for block in ("devicetree", "fsbl", "pmu_fw", "rootfs", "image"):
        assert not (project_dir / "temp" / block).exists()
    # Blocks ordered before vivado did run.
    done = {entry.block_id for entry in report.entries}
    assert "atf" in done


def test_interrupt_preserves_remaining_blocks(project, project_dir,
                                              monkeypatch):
    build_report = run(project, BUILD_ALL)
    assert build_report.outcome == "completed"

    clean_order = plan(project, CLEAN_ALL)
    cleaned = []
    from socks.builders.base import Builder
    original = Builder.apply

    def interrupting_apply(self, verb):
        if len(cleaned) == 2:
            raise KeyboardInterrupt
        cleaned.append(self.block_id)
        return original(self, verb)

    monkeypatch.setattr(Builder, "apply", interrupting_apply)
    report = run(project, CLEAN_ALL)
    assert report.outcome == "interrupted"
    assert report.exit_code == 130
    assert report.at_block == clean_order[2]
    assert cleaned == clean_order[:2]
    # Every block not yet processed keeps its files.
    for block in clean_order[2:]:
        assert (project_dir / "temp" / block / "output").exists()
    for block in cleaned:
        assert not (project_dir / "temp" / block).exists()


def test_invalid_config_fails_before_any_execution(project_dir, recorder):
    config = project_dir / "socks.yml"
    config.write_text(config.read_text().replace(
        "      kconfig_file: .config", "      kconfig_typo: .config"),
        encoding="utf-8")
    with pytest.raises(ValidationError):
        Project.load(config)
    assert recorder.calls == []
    assert not (project_dir / "temp").exists()


def test_skipped_blocks_reported(project):
    run(project, Invocation("atf", "build"))
    report = run(project, Invocation("atf", "build"))
    assert len(report.entries) == 1
    assert report.entries[0].skipped is True
    assert report.exit_code == 0


def test_command_category_lookup(project):
    # plan orders the blocks by the category of the verb: building,
    # debugging and configuring run dependencies first, cleaning in reverse.
    forward = plan(project, BUILD_ALL)
    assert plan(project, Invocation(ALL, "start-container")) == forward
    assert plan(project, CLEAN_ALL) == forward[::-1]
    group = Invocation("rootfs", "build", group=True)
    assert plan(project, group._replace(command="start-container")) \
        == plan(project, group)
    assert plan(project, group._replace(command="clean")) \
        == plan(project, group)[::-1]
    assert plan(project, Invocation(ALL, "create-patches")) == ["kernel"]


def test_in_place_package_rewrite_between_runs_yields_new_digest(
        project, project_dir, tmp_path):
    assert run(project, BUILD_ALL).outcome == "completed"
    (package,) = (project_dir / "temp" / "vivado" / "output").glob("bp_*")
    old = package.read_bytes()
    # Another valid vivado package of the same size: gzip readers skip
    # trailing zero padding.
    xsa = tmp_path / "system.xsa"
    xsa.write_text("<hardware rev='2'/>\n", encoding="utf-8")
    other = bp.create_package("vivado", tmp_path / "other",
                              {"system.xsa": xsa}).path.read_bytes()
    assert len(other) <= len(old)
    new = other + bytes(len(old) - len(other))

    st = package.stat()
    with open(package, "r+b") as fh:  # same inode, same size, same mtime
        fh.write(new)
    os.utime(package, ns=(st.st_atime_ns, st.st_mtime_ns))

    report = run(project, Invocation("devicetree", "build"))
    assert report.outcome == "completed"
    assert report.entries[0].reasons == ["dependency-checksum"]
    record = BuildRecord.load(
        project_dir / "temp" / "devicetree" / "build.json")
    assert record.inputs["vivado"] == hashlib.sha256(new).hexdigest()
