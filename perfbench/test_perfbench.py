"""Tests of the benchmark itself: seeded generation, output checks and the
metric names declared in BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

import run
from checks import Checker
from generate import generate

ROOT = Path(__file__).resolve().parent.parent


def snapshot(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file, with ``root`` itself written
    as a token so two trees at different paths compare equal.  Git names a
    pack after its content, so that name is replaced by its kind."""
    token = str(root).encode()
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes().replace(token, b"<ROOT>")
            name = re.sub(r"pack-[0-9a-f]+", "pack-*",
                          str(path.relative_to(root)))
            out[name] = hashlib.sha256(data).hexdigest()
    return out


@pytest.mark.parametrize("workload", ["zynqmp-small", "zynqmp-ci-import"])
def test_same_seed_gives_identical_tree(tmp_path, workload):
    first = generate(workload, 7, tmp_path / "a", tmp_path)
    second = generate(workload, 7, tmp_path / "b", tmp_path)
    assert snapshot(first.root) == snapshot(second.root)
    assert (first.expected_members("rootfs")
            == second.expected_members("rootfs"))


def test_other_seed_changes_every_input(tmp_path):
    first = snapshot(generate("zynqmp-small", 7, tmp_path / "a",
                              tmp_path).root)
    second = snapshot(generate("zynqmp-small", 8, tmp_path / "b",
                               tmp_path).root)
    assert first.keys() == second.keys()
    same = {path for path in first if first[path] == second[path]}
    # Only seed-independent structure may repeat: the bare repository's
    # skeleton and the imported file holding the block sections.
    assert same <= {"kernel-origin/HEAD", "kernel-origin/config",
                    "project-zynqmp-default.yml"}


def test_checks_reject_a_silent_noop(tmp_path):
    proj = generate("zynqmp-small", 1, tmp_path / "p", tmp_path)
    errors = Checker(proj).check("cold", 0, "")
    assert any("summary lists []" in error for error in errors)
    assert any("no package for kernel" in error for error in errors)


def test_checks_pass_on_real_builds_and_catch_stale_output(tmp_path):
    proj = generate("zynqmp-small", 1, tmp_path / "p", tmp_path)
    checker = Checker(proj)
    cold = run.run_socks(proj, ["all", "build"], tmp_path)
    assert checker.check("cold", cold.returncode, cold.stdout) == []
    proj.touch()
    touch = run.run_socks(proj, ["all", "build"], tmp_path)
    assert checker.check("touch", touch.returncode, touch.stdout) == []
    # The prediction moves on, the packages do not: that must be caught.
    proj.touch()
    noop_errors = checker.check("noop", touch.returncode, touch.stdout)
    assert any("kernel package members differ" in e for e in noop_errors)
    assert any("rebuilt" in e for e in noop_errors)


def test_traced_process_reports_every_layer(tmp_path):
    proj = generate("zynqmp-ci-import", 1, tmp_path / "p", tmp_path)
    trace = tmp_path / "trace.json"
    result = run.run_socks(proj, ["all", "build"], tmp_path, trace)
    assert Checker(proj).check("cold", result.returncode, result.stdout) == []
    layers = run.layer_metrics(trace)
    assert layers["blockpackage.fetch.calls"] == 5
    assert layers["blockpackage.fetch.bytes"] > 5 * proj.sizes.ci_bytes
    assert layers["builders.apply.rebuilt"] == 10
    assert layers["environment.spawns.build"] > 0
    assert layers["cli.import.s"] > 0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.layer_metric_names()
    assert all(m["unit"] == run.layer_unit(m["name"])
               for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        run.WORKLOADS)


def test_trace_overhead_pairs_each_traced_op_with_the_one_before():
    bench = run.Run(proj=None, logs=None)
    # cycle 0 untraced, cycle 1 traced; cycle 2 has no traced partner
    bench.slot_walls = {(0, 0): 1.0, (1, 0): 1.5, (0, 1): 0.2, (1, 1): 0.3,
                        (0, 3): 0.4, (1, 3): 0.45, (2, 0): 9.0}
    assert bench.trace_overhead("cold") == [0.5]
    assert bench.trace_overhead("noop") == pytest.approx([0.1, 0.05])
    assert bench.trace_overhead("touch") == []

