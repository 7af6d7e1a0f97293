"""Output checks run after every benchmark operation.

They read the packages with ``tarfile`` and ``hashlib`` only, and compare
them with what the generator predicts, so an incremental result must equal
the from-scratch one.
"""

from __future__ import annotations

import hashlib
import re
import tarfile
from pathlib import Path

from generate import ALL_BLOCKS, IMAGE_DEPS, TOUCH_REBUILDS, Project

SUMMARY_RE = re.compile(r"^([a-z0-9_]+): build (done|skipped) \(")


def parse_summary(stdout: str) -> dict[str, str]:
    """Block -> "done" | "skipped", from the CLI's summary lines."""
    states = {}
    for line in stdout.splitlines():
        match = SUMMARY_RE.match(line)
        if match:
            states[match.group(1)] = match.group(2)
    return states


def newest_package(root: Path, block: str) -> Path | None:
    out = sorted((root / "temp" / block / "output").glob("bp_*.tar.gz"))
    return out[-1] if out else None


class Checker:
    """Checks one project.  Every package is read and hashed afresh after
    every operation: a cache keyed by file metadata would trust the same
    kind of shortcut the program's incremental layer takes."""

    def __init__(self, proj: Project):
        self.proj = proj

    @staticmethod
    def file_sha(path: Path) -> str:
        sha = hashlib.sha256()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                sha.update(chunk)
        return sha.hexdigest()

    @staticmethod
    def members(path: Path) -> dict[str, str]:
        found = {}
        with tarfile.open(path, "r:gz") as tar:
            for member in tar:
                if not member.isfile():
                    continue
                sha = hashlib.sha256()
                with tar.extractfile(member) as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        sha.update(chunk)
                found[member.name] = sha.hexdigest()
        return found

    def check(self, op: str, returncode: int, stdout: str) -> list[str]:
        """Every problem found after ``op``; an empty list means correct."""
        if returncode != 0:
            return [f"{op}: exit code {returncode}"]
        errors = []
        states = parse_summary(stdout)
        if set(states) != set(ALL_BLOCKS):
            errors.append(f"{op}: summary lists {sorted(states)}, "
                          f"expected all {len(ALL_BLOCKS)} blocks")
        done = {block for block, state in states.items() if state == "done"}
        if op == "noop" and done:
            errors.append(f"{op}: rebuilt {sorted(done)}, expected none")
        if op == "cold" and done != set(ALL_BLOCKS):
            errors.append(f"{op}: skipped {sorted(set(ALL_BLOCKS) - done)}")
        must = TOUCH_REBUILDS[self.proj.sizes.ci_import]
        if op == "touch" and not must <= done:
            errors.append(f"{op}: did not rebuild {sorted(must - done)}")

        packages = {}
        for block in ALL_BLOCKS:
            path = newest_package(self.proj.root, block)
            if path is None:
                errors.append(f"{op}: no package for {block}")
                continue
            packages[block] = path
            if block == "image":
                continue
            got = self.members(path)
            want = self.proj.expected_members(block)
            if got != want:
                wrong = sorted(name for name in set(got) | set(want)
                               if got.get(name) != want.get(name))
                errors.append(f"{op}: {block} package members differ: {wrong}")
        if "image" in packages:
            errors += self._check_manifest(op, packages)
        return errors

    def _check_manifest(self, op: str, packages: dict[str, Path]) -> list[str]:
        with tarfile.open(packages["image"], "r:gz") as tar:
            names = [m.name for m in tar if m.isfile()]
            if names != ["boot.img"]:
                return [f"{op}: image package holds {names}"]
            text = tar.extractfile("boot.img").read().decode()
        errors, listed = [], []
        for line in text.splitlines():
            fields = dict(part.split("=", 1) for part in line.split(" "))
            block = fields["block"]
            listed.append(block)
            if block not in packages:
                continue
            if fields["digest"] != self.file_sha(packages[block]):
                errors.append(f"{op}: manifest digest of {block} is not the "
                              f"sha256 of {packages[block].name}")
            want = ",".join(sorted(self.proj.expected_members(block)))
            if fields["files"] != want:
                errors.append(f"{op}: manifest lists {fields['files']} for "
                              f"{block}, expected {want}")
        if listed != sorted(IMAGE_DEPS):
            errors.append(f"{op}: manifest lists blocks {listed}")
        return errors

