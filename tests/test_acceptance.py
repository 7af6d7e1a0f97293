"""Acceptance gate: one test per acceptance criterion.

Each test carries a ``criterion`` marker; a conftest hook prints one
PASS/FAIL line per criterion at the end of its test.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import subprocess
import sys
import tarfile
import time
from pathlib import Path

import pytest

from helpers import tree_digest
from socks import cli
from socks.blockpackage import archive_digest
from socks.configtree import ConfigTree, process_project, resolve_imports, \
    load_project, resolve_placeholders
from socks.environment import daemon_problem, ready_images
from socks.errors import ConfigError, CycleError
from socks.fixture import materialize
from socks.graph import ALL, DependencyGraph, Invocation, compute_active_set, \
    order_for_command
from socks.orchestrator import plan, run
from socks.project import Project

IMAGE_DEPS = ("atf", "devicetree", "fsbl", "kernel", "pmu_fw", "uboot",
                  "vivado", "rootfs")
ROOTFS_CLOSURE = {"vivado", "devicetree", "kernel", "rootfs"}
ALL_BLOCKS = {"atf", "devicetree", "fsbl", "image", "kernel", "pmu_fw",
              "ramfs", "rootfs", "uboot", "vivado"}
REPO_BLOCK_VERBS = ["prepare", "build", "clean", "create-patches",
                   "create-cfg-snippet", "start-container", "menucfg"]


def newest_package(project_dir: Path, block_id: str) -> Path:
    out = sorted((project_dir / "temp" / block_id / "output").glob("*.tar.gz"))
    assert out, f"no package for {block_id}"
    return out[-1]


def image_manifest(project_dir: Path) -> str:
    with tarfile.open(newest_package(project_dir, "image"), "r:gz") as tar:
        return tar.extractfile("boot.img").read().decode()


def build_all(project_dir: Path) -> int:
    return cli.main(["-f", str(project_dir / "socks.yml"), "all", "build"])


@pytest.mark.criterion(1, "end-to-end fixture build produces a correct "
                          "image manifest in bounded time")
def test_criterion_01_end_to_end_build(project_dir):
    start = time.perf_counter()
    assert build_all(project_dir) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"full build took {elapsed:.1f}s"

    manifest = image_manifest(project_dir)
    lines = manifest.strip().splitlines()
    listed = [line.split(" ", 1)[0].split("=", 1)[1] for line in lines]
    assert sorted(listed) == sorted(IMAGE_DEPS)
    for line in lines:
        fields = dict(part.split("=", 1) for part in line.split(" "))
        expected = archive_digest(newest_package(project_dir, fields["block"]))
        assert fields["digest"] == expected, fields["block"]


@pytest.mark.criterion(2, "second all-build is a no-op: all 10 blocks "
                          "skipped, no builder steps, >=10x faster")
def test_criterion_02_incremental_noop(project_dir, recorder):
    project = Project.load(project_dir / "socks.yml")
    start = time.perf_counter()
    first = run(project, Invocation(ALL, "build"))
    first_elapsed = time.perf_counter() - start
    assert first.outcome == "completed"

    recorder.reset()
    start = time.perf_counter()
    second = run(project, Invocation(ALL, "build"))
    second_elapsed = time.perf_counter() - start
    assert second.outcome == "completed"
    assert len(second.entries) == 10
    assert all(entry.skipped for entry in second.entries)
    assert recorder.count("build") == 0  # zero builder steps executed
    assert second_elapsed < first_elapsed / 10


@pytest.mark.criterion(3, "touching one kernel source rebuilds exactly "
                          "{kernel, rootfs, image}")
def test_criterion_03_minimal_rebuild(project_dir):
    project = Project.load(project_dir / "socks.yml")
    assert run(project, Invocation(ALL, "build")).outcome == "completed"
    time.sleep(0.05)
    (project_dir / "temp" / "kernel" / "src" / "Makefile").touch()
    report = run(project, Invocation(ALL, "build"))
    assert report.outcome == "completed"
    rebuilt = {e.block_id for e in report.entries if not e.skipped}
    assert rebuilt == {"kernel", "rootfs", "image"}


@pytest.mark.criterion(4, "config edit rebuilds only the edited block with "
                          "reason 'config'")
def test_criterion_04_config_granular_rebuild(project_dir):
    project = Project.load(project_dir / "socks.yml")
    assert run(project, Invocation(ALL, "build")).outcome == "completed"

    config = project_dir / "socks.yml"
    config.write_text(config.read_text().replace(
        "      image: kernel-builder-alma9", "      image: socks-mock-builder"),
        encoding="utf-8")
    project = Project.load(config)

    rootfs = run(project, Invocation("rootfs", "build"))
    assert rootfs.entries[0].skipped is True  # deps already packaged

    kernel = run(project, Invocation("kernel", "build"))
    assert kernel.outcome == "completed"
    assert kernel.entries[0].skipped is False
    assert kernel.entries[0].reasons == ["config"]


@pytest.mark.criterion(5, "group build of rootfs activates exactly its "
                          "transitive dependency closure, edge-ordered")
def test_criterion_05_active_set(project_dir):
    project = Project.load(project_dir / "socks.yml")
    order = plan(project, Invocation("rootfs", "build", group=True))
    assert set(order) == ROOTFS_CLOSURE
    pos = {b: i for i, b in enumerate(order)}
    assert pos["vivado"] < pos["devicetree"] < pos["rootfs"]
    assert pos["kernel"] < pos["rootfs"]
    report = run(project, Invocation("rootfs", "build", group=True))
    assert report.outcome == "completed"
    assert [e.block_id for e in report.entries] == order


@pytest.mark.criterion(6, "clean order is the exact reverse of build order; "
                          "interruption preserves unprocessed blocks")
def test_criterion_06_clean_reversal_and_interrupt(project_dir, monkeypatch):
    project = Project.load(project_dir / "socks.yml")
    build_order = plan(project, Invocation(ALL, "build"))
    clean_order = plan(project, Invocation(ALL, "clean"))
    assert clean_order == list(reversed(build_order))

    assert run(project, Invocation(ALL, "build")).outcome == "completed"

    from socks.builders.base import Builder
    original = Builder.apply
    cleaned: list[str] = []

    def interrupting(self, verb):
        if len(cleaned) == 2:
            raise KeyboardInterrupt  # simulated Ctrl-C after two cleans
        cleaned.append(self.block_id)
        return original(self, verb)

    monkeypatch.setattr(Builder, "apply", interrupting)
    report = run(project, Invocation(ALL, "clean"))
    assert report.outcome == "interrupted"
    assert report.exit_code == 130
    assert cleaned == clean_order[:2]
    for block in clean_order[2:]:
        assert (project_dir / "temp" / block / "output").exists(), block


@pytest.mark.criterion(7, "missing required *.xsa marker fails the consumer "
                          "before any step; restoring it succeeds")
def test_criterion_07_package_validation(project_dir, recorder):
    project = Project.load(project_dir / "socks.yml")
    assert run(project, Invocation(ALL, "build")).outcome == "completed"

    # Publish a newer vivado package that lacks the .xsa marker.
    from socks.blockpackage import create_package
    marker = project_dir / "bogus.txt"
    marker.write_text("no hardware description here\n", encoding="utf-8")
    bad = create_package("vivado", project_dir / "temp" / "vivado" / "output",
                         {"other.bin": marker}, stamp="20990101T000000Z")

    recorder.reset()
    report = run(project, Invocation("devicetree", "build"))
    assert report.outcome == "failed"
    assert "*.xsa" in str(report.error)
    assert recorder.count("build") == 0  # failed before any step

    bad.path.unlink()
    restored = run(project, Invocation("devicetree", "build"))
    assert restored.outcome == "completed"


@pytest.mark.criterion(8, "imported vivado package yields a final image "
                          "manifest identical to the all-local build; "
                          "re-import is checksum-skipped")
def test_criterion_08_import_path(project_dir, tmp_path):
    assert build_all(project_dir) == 0
    local_manifest = image_manifest(project_dir)
    exported = tmp_path / newest_package(project_dir, "vivado").name
    shutil.copy2(newest_package(project_dir, "vivado"), exported)

    project = Project.load(project_dir / "socks.yml")
    assert run(project, Invocation(ALL, "clean")).outcome == "completed"

    config = project_dir / "socks.yml"
    config.write_text(config.read_text() + f"""\
  vivado:
    source: import
    project:
      import_src: {exported.resolve().as_uri()}
""", encoding="utf-8")
    assert build_all(project_dir) == 0
    assert image_manifest(project_dir) == local_manifest

    project = Project.load(config)
    again = run(project, Invocation("vivado", "build"))
    assert again.entries[0].skipped is True  # checksum-skipped re-import


@pytest.mark.criterion(9, "placeholders resolve through imports; dangling "
                          "refs and import cycles produce located errors; "
                          "1000 random cases resolve idempotently")
def test_criterion_09_config_language(project_dir, tmp_path):
    tree = process_project(project_dir / "socks.yml")
    assert tree.get("blocks/kernel/project/build_srcs/branch") \
        == "xilinx-v2022.2"

    with pytest.raises(ConfigError) as dangling:
        resolve_placeholders(ConfigTree({"a": "{{no/such/key}}"},
                                        source_file="cfg.yml"))
    assert dangling.value.key_path == "a"
    assert "no/such/key" in str(dangling.value)

    (tmp_path / "a.yml").write_text("import: [b.yml]\n", encoding="utf-8")
    (tmp_path / "b.yml").write_text("import: [a.yml]\n", encoding="utf-8")
    with pytest.raises(CycleError) as cycle:
        resolve_imports(load_project(tmp_path / "a.yml"), tmp_path)
    assert cycle.value.chain

    rng = random.Random(9)
    resolved_cases = 0
    for _ in range(500):  # acyclic: refs only point at earlier keys
        names = [f"k{i}" for i in range(rng.randint(1, 8))]
        root = {}
        for idx, name in enumerate(names):
            if idx == 0 or rng.random() < 0.5:
                root[name] = rng.choice(["v", 1, True, "x-y"])
            else:
                root[name] = f"p-{{{{{rng.choice(names[:idx])}}}}}"
        once = resolve_placeholders(ConfigTree(root))
        assert resolve_placeholders(once).root == once.root
        assert all("{{" not in str(v) for v in once.root.values())
        resolved_cases += 1
    rejected_cases = 0
    for _ in range(500):  # pure reference cycles of length 1..5
        length = rng.randint(1, 5)
        names = [f"c{i}" for i in range(length)]
        root = {name: f"{{{{{names[(i + 1) % length]}}}}}"
                for i, name in enumerate(names)}
        with pytest.raises(CycleError):
            resolve_placeholders(ConfigTree(root))
        rejected_cases += 1
    assert resolved_cases + rejected_cases == 1000


@pytest.mark.parametrize("tool", ["docker", "podman", "disabled"])
@pytest.mark.criterion(10, "fixture passes in every available container "
                           "mode; host mode spawns no container tool")
def test_criterion_10_mode_equivalence(tmp_path, recorder, tool):
    # The probe socks itself runs before it builds a container image.
    problem = tool != "disabled" and daemon_problem(tool)
    if problem:
        pytest.skip(f"{tool} cannot build here: {problem}")
    project_dir = materialize(tmp_path / f"proj-{tool}", container_tool=tool)
    recorder.reset()
    assert build_all(project_dir) == 0
    manifest = image_manifest(project_dir)
    assert len(manifest.strip().splitlines()) == 8
    if tool == "disabled":
        assert recorder.count("container-tool") == 0


def test_container_mode_builds_through_a_stand_in_docker(
        tmp_path, recorder, monkeypatch):
    """The container path end to end where no daemon answers: the steps
    run through ``docker run`` of tests/docker_standin.py, which sees the
    project only through its ``-v`` mount, and build the image that host
    mode builds."""
    host_dir = materialize(tmp_path / "host")
    assert build_all(host_dir) == 0
    steps = recorder.count("build")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "docker").write_text(
        f'#!/bin/sh\nexec "{sys.executable}" '
        f'"{Path(__file__).with_name("docker_standin.py")}" "$@"\n')
    (bin_dir / "docker").chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    project_dir = materialize(tmp_path / "docker", container_tool="docker")
    recorder.reset()
    daemon_problem.cache_clear()
    ready_images.clear()
    try:
        assert build_all(project_dir) == 0
    finally:
        daemon_problem.cache_clear()
        ready_images.clear()
    assert image_manifest(project_dir) == image_manifest(host_dir)
    # Each step ran in a container, and none on the host.
    runs = [argv for kind, argv in recorder.calls
            if kind == "container-tool" and argv[1] == "run"]
    assert len(runs) == steps > 0
    assert recorder.count("build") == 0
    # Each of the fixture's two images was inspected once.
    inspected = [argv[3] for kind, argv in recorder.calls
                 if kind == "container-tool" and argv[1:3] == ["image",
                                                               "inspect"]]
    assert len(inspected) == len(set(inspected)) == 2


@pytest.mark.criterion(11, "500 random DAGs: orders satisfy all edges, "
                           "cleans reverse, group closures exact")
def test_criterion_11_graph_properties():
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(1, 30)
        nodes = [f"n{i:02d}" for i in range(n)]
        edges = {node: set() for node in nodes}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.15:
                    edges[nodes[i]].add(nodes[j])
        graph = DependencyGraph(
            nodes=frozenset(nodes),
            edges={u: frozenset(vs) for u, vs in edges.items()})
        active = set(nodes)
        order = order_for_command(active, "building", graph)
        pos = {b: i for i, b in enumerate(order)}
        assert sorted(order) == sorted(nodes)
        for dep, dependents in graph.edges.items():
            for dependent in dependents:
                assert pos[dep] < pos[dependent]
        assert order_for_command(active, "cleaning", graph) \
            == list(reversed(order))

        target = rng.choice(nodes)
        closure = {target}
        changed = True
        while changed:  # brute-force transitive closure
            changed = False
            for dep, dependents in graph.edges.items():
                if dep not in closure and dependents & closure:
                    closure.add(dep)
                    changed = True
        inv = Invocation(target=target, command="build", group=True)
        assert compute_active_set(graph, inv) == closure


@pytest.mark.criterion(12, "create-patches and snippet round-trip reproduce "
                           "a byte-identical source tree after clean+build")
def test_criterion_12_source_roundtrip(project_dir):
    project = Project.load(project_dir / "socks.yml")
    assert run(project, Invocation("kernel", "build")).outcome == "completed"
    checkout = project_dir / "temp" / "kernel" / "src"

    def git(*args: str) -> None:
        subprocess.run(["git", "-C", str(checkout), *args], check=True,
                       capture_output=True, text=True)

    for i in (1, 2):
        (checkout / f"feature{i}.c").write_text(f"int f{i};\n",
                                                encoding="utf-8")
        git("add", f"feature{i}.c")
        git("commit", "-q", "-m", f"add feature {i}")

    report = run(project, Invocation("kernel", "create-patches"))
    assert report.outcome == "completed"
    assert len(report.entries[0].artifacts) == 2
    patches = (project_dir / "src" / "kernel").glob("000*.patch")
    assert len(list(patches)) == 3  # shipped patch + two new ones

    # Snippet round-trip: a single-key .config change.
    config_file = checkout / ".config"
    config_file.write_text(config_file.read_text().replace(
        "CONFIG_CORES=4", "CONFIG_CORES=8"), encoding="utf-8")
    snippet = run(Project.load(project_dir / "socks.yml"),
                  Invocation("kernel", "create-cfg-snippet"))
    assert snippet.outcome == "completed"
    created = snippet.entries[0].artifacts
    assert created == ["cfg-snippet-0002.cfg"]
    assert (project_dir / "src" / "kernel" / created[0]).read_text() \
        == "CONFIG_CORES=8\n"

    reloaded = process_project(project_dir / "socks.yml")
    assert len(reloaded.get("blocks/kernel/project/patches")) == 3
    assert len(reloaded.get("blocks/kernel/project/config_snippets")) == 2

    digest_before = tree_digest(checkout)
    project = Project.load(project_dir / "socks.yml")
    assert run(project, Invocation("kernel", "clean")).outcome == "completed"
    assert run(project, Invocation("kernel", "build")).outcome == "completed"
    assert tree_digest(checkout) == digest_before


@pytest.mark.criterion(13, "block help lists exactly the seven verbs, "
                           "follows the configured builder, and is "
                           "byte-deterministic")
def test_criterion_13_cli_help(project_dir):
    project = Project.load(project_dir / "socks.yml")
    text = cli.block_help(project, "kernel")
    assert "{" + ",".join(REPO_BLOCK_VERBS) + "}" in text
    assert text == cli.block_help(project, "kernel")

    # Swapping the kernel block's builder changes the generated help.
    config = project_dir / "socks.yml"
    swapped = config.read_text()
    swapped = swapped.replace("builder: Repo_Script_Builder",
                              "builder: Script_Builder")
    for line in ("      build_srcs:\n        source: kernel-origin\n"
                 "        branch: \"xilinx-v{{external_tools/xilinx/version}}\"\n",
                 "      patches:\n        - 0001-add-mock-driver.patch\n",
                 "      config_snippets:\n        - cfg-snippet-0001.cfg\n",
                 "      kconfig_file: .config\n"):
        assert line in swapped
        swapped = swapped.replace(line, "")
    config.write_text(swapped, encoding="utf-8")
    project = Project.load(config)
    text = cli.block_help(project, "kernel")
    assert "{prepare,build,clean,start-container}" in text
    assert "create-patches" not in text
