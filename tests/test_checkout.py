"""A repository block's checkout follows its record (``checkout.json``):
patches are applied once each, by name and digest, and a checkout that no
longer matches the configured series is refused, never reused."""

from __future__ import annotations

import subprocess
import tarfile
import time
from pathlib import Path

import pytest

from socks import cli
from socks.configedit import plan_list_append
from socks.errors import SourceError
from socks.graph import Invocation
from socks.orchestrator import run
from socks.project import Project

PATCH = "0001-add-mock-driver.patch"


def kernel(project_dir: Path, verb: str = "build"):
    return run(Project.load(project_dir / "socks.yml"),
               Invocation("kernel", verb))


def kernel_ok(project_dir: Path, verb: str = "build"):
    report = kernel(project_dir, verb)
    assert report.outcome == "completed", report.error
    return report.entries[0]


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout


def packages(project_dir: Path) -> list[str]:
    return sorted(p.name for p in
                  (project_dir / "temp" / "kernel" / "output").glob("*.gz"))


def driver(project_dir: Path) -> str:
    newest = (project_dir / "temp" / "kernel" / "output" /
              packages(project_dir)[-1])
    with tarfile.open(newest, "r:gz") as tar:
        return tar.extractfile("modules/mod1.txt").read().decode()


def add_patch(project_dir: Path, tmp_path: Path, name: str,
              file_name: str) -> None:
    """Write a patch that adds ``file_name`` on top of the checkout's HEAD
    and append it to the kernel's configured series."""
    scratch = tmp_path / f"scratch-{file_name}"
    git(tmp_path, "clone", "-q", str(project_dir / "temp" / "kernel" / "src"),
        str(scratch))
    (scratch / file_name).write_text(f"/* {file_name} */\n", encoding="utf-8")
    git(scratch, "add", file_name)
    git(scratch, "commit", "-q", "-m", f"add {file_name}")
    patch = git(scratch, "format-patch", "--stdout", "-1")
    (project_dir / "src" / "kernel" / name).write_text(patch,
                                                       encoding="utf-8")
    plan_list_append(Project.load(project_dir / "socks.yml").tree,
                     "kernel", "patches", [name])()


def test_patch_edited_in_place_asks_for_a_clean(project_dir):
    kernel_ok(project_dir)
    published = packages(project_dir)
    patch = project_dir / "src" / "kernel" / PATCH
    time.sleep(0.05)
    patch.write_text(patch.read_text().replace("return 0", "return 1"),
                     encoding="utf-8")

    report = kernel(project_dir)
    assert report.outcome == "failed"
    assert isinstance(report.error, SourceError)
    message = str(report.error)
    assert PATCH in message and "'socks kernel clean'" in message
    assert packages(project_dir) == published

    kernel_ok(project_dir, "clean")
    kernel_ok(project_dir)
    assert "return 1" in driver(project_dir)


def test_create_patches_then_build_then_skip(project_dir):
    kernel_ok(project_dir)
    checkout = project_dir / "temp" / "kernel" / "src"
    (checkout / "feature.c").write_text("int feature;\n", encoding="utf-8")
    git(checkout, "add", "feature.c")
    git(checkout, "commit", "-q", "-m", "add feature")

    created = kernel_ok(project_dir, "create-patches")
    assert created.artifacts == ["0002-add-feature.patch"]
    assert kernel_ok(project_dir).skipped is False
    assert kernel_ok(project_dir).skipped is True


def test_patch_appended_after_a_build_is_applied(project_dir, tmp_path):
    kernel_ok(project_dir)
    add_patch(project_dir, tmp_path, "0002-add-extra.patch", "extra.c")
    config = project_dir / "socks.yml"
    assert cli.main(["-f", str(config), "kernel", "build"]) == 0
    assert (project_dir / "temp" / "kernel" / "src" / "extra.c").is_file()


def test_patch_names_differing_only_in_punctuation_both_apply(project_dir,
                                                              tmp_path):
    kernel_ok(project_dir)
    add_patch(project_dir, tmp_path, "fix.v2.patch", "first.c")
    kernel_ok(project_dir)
    add_patch(project_dir, tmp_path, "fix-v2.patch", "second.c")
    kernel_ok(project_dir)
    checkout = project_dir / "temp" / "kernel" / "src"
    assert (checkout / "first.c").is_file()
    assert (checkout / "second.c").is_file()


@pytest.mark.parametrize("cause", ["older socks", "interrupted clone"])
def test_checkout_without_a_record_is_refused(project_dir, cause):
    work = project_dir / "temp" / "kernel"
    if cause == "older socks":
        kernel_ok(project_dir)
        (work / "checkout.json").unlink()
        (work / "events.csv").write_text(
            "source-sync,2026-01-01T00:00:00Z\n", encoding="utf-8")
        (work / "build.json").unlink()  # the record of the older build
    else:
        git(project_dir, "clone", "-q", "--branch", "xilinx-v2022.2",
            str(project_dir / "kernel-origin"), str(work / "src"))
    report = kernel(project_dir)
    assert report.outcome == "failed"
    assert isinstance(report.error, SourceError)
    assert str(work / "checkout.json") in str(report.error)
    assert "'socks kernel clean'" in str(report.error)
