"""Seeded generator for the benchmark's ZynqMP-shaped SoCks projects.

``generate(workload, seed, dest, cache)`` writes a ten-block project and
returns a ``Project`` model that predicts, for every block, the exact bytes
of each package member.  The same seed gives a byte-identical tree, apart
from the absolute paths in ``socks.yml`` (the CI ``file://`` URL and the
location of the shared source tree); another seed changes every seeded
file.  Nothing here imports socks: the git origin is written with
``git fast-import`` and the CI archives with ``tarfile``/``gzip``, so the
predictions stay independent of the program under test.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os
import random
import re
import shutil
import subprocess
import tarfile
import time
from dataclasses import dataclass, field
from pathlib import Path

KERNEL_BRANCH = "xilinx-v2022.2"
KERNEL_ORIGIN = "kernel-origin"
CI_DIR = "ci"
CI_STAMP = "20260101T000000Z"
IMPORT_FILE = "project-zynqmp-default.yml"
PATCH_NAME = "0001-add-mock-driver.patch"
SNIPPET_NAME = "cfg-snippet-0001.cfg"
PAYLOADS = ("tool-1.0.pkg", "lib-2.1.pkg")
IMAGE_DEPS = ("atf", "devicetree", "fsbl", "kernel", "pmu_fw", "rootfs",
              "uboot", "vivado")
ALL_BLOCKS = ("atf", "devicetree", "fsbl", "image", "kernel", "pmu_fw",
              "ramfs", "rootfs", "uboot", "vivado")
CI_BLOCKS = ("atf", "fsbl", "pmu_fw", "uboot", "vivado")
# Fixed identity and dates: the origin's object ids depend on them.
GIT_WHO = "Fixture <fixture@example.com> 1767225600 +0000"
# No system or user git configuration: it could change what git does.
GIT_ENV = {"GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull}
MiB = 1 << 20


KERNEL_FILES = 200           # generated files in the kernel origin tree


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload."""

    tree_files: int          # extra kernel source tree; 0 = none
    rootfs_bytes: int        # base image, half seeded-random, half zeros
    ci_bytes: int            # payload per CI archive; 0 = build locally

    @property
    def ci_import(self) -> bool:
        return self.ci_bytes > 0


WORKLOADS = {
    "zynqmp-small": Sizes(tree_files=0, rootfs_bytes=64 << 10, ci_bytes=0),
    "zynqmp-large": Sizes(tree_files=20000, rootfs_bytes=32 * MiB,
                          ci_bytes=0),
    "zynqmp-ci-import": Sizes(tree_files=0, rootfs_bytes=64 << 10,
                              ci_bytes=16 * MiB),
}

# Blocks a touch must rebuild, keyed by ``Sizes.ci_import``: the edited
# block and everything downstream of it.
TOUCH_REBUILDS = {
    False: {"kernel", "rootfs", "image"},
    True: {"uboot", "image"},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _text_blob(rng: random.Random, lines: int, tag: str) -> bytes:
    return "".join(f"/* {tag} {i} {rng.getrandbits(64):016x} */\n"
                   for i in range(lines)).encode()


def merge_kconfig(base: str, snippet: str) -> str:
    """Expected ``.config`` after the snippet is merged (last key wins,
    unknown keys appended, trailing newline)."""
    key_re = re.compile(r"^(?:# )?([A-Za-z0-9_]+)(?:=.*| is not set)$")
    overrides = {key_re.match(line).group(1): line
                 for line in snippet.splitlines() if line.strip()}
    out, seen = [], set()
    for line in base.splitlines():
        match = key_re.match(line.strip())
        if match and match.group(1) in overrides:
            out.append(overrides[match.group(1)])
            seen.add(match.group(1))
        else:
            out.append(line)
    out += [line for key, line in overrides.items() if key not in seen]
    return "\n".join(out) + "\n"


@dataclass
class Project:
    """A generated project plus the state needed to predict its outputs."""

    workload: str
    seed: int
    sizes: Sizes
    root: Path
    # member name -> bytes for the blocks whose members are small
    fixed: dict[str, dict[str, bytes]] = field(default_factory=dict)
    makefile: bytes = b""
    kconfig: bytes = b""
    mock_driver: bytes = b""
    rootfs_base_sha: object = None      # hashlib state after the base image
    touches: int = 0                    # content edits since the last clone
    ci_versions: dict[str, int] = field(default_factory=dict)
    ci_members: dict[str, dict[str, bytes]] = field(default_factory=dict)

    @property
    def kernel_makefile(self) -> Path:
        return self.root / "temp" / "kernel" / "src" / "Makefile"

    def ci_archive(self, block: str) -> Path:
        return self.root / CI_DIR / f"bp_{block}_{CI_STAMP}.tar.gz"

    # -- operations on the inputs ------------------------------------------

    def after_clean(self) -> None:
        """A cold build re-clones the kernel, dropping earlier edits."""
        self.touches = 0

    def touch(self) -> None:
        """Change one input's content: the kernel checkout's Makefile, or
        the uboot archive that CI republishes at the same URL."""
        if self.sizes.ci_import:
            self.ci_versions["uboot"] += 1
            _write_ci_archive(self, "uboot")
            return
        self.touches += 1
        self.kernel_makefile.write_bytes(self._makefile_now())

    def _makefile_now(self) -> bytes:
        edits = "".join(f"# edit {i} seed {self.seed}\n"
                        for i in range(1, self.touches + 1))
        return self.makefile + edits.encode()

    # -- predictions --------------------------------------------------------

    def expected_members(self, block: str) -> dict[str, str]:
        """Member name -> sha256 of the bytes the block's package carries."""
        if block in self.ci_members:
            return {name: _sha(data)
                    for name, data in self.ci_members[block].items()}
        if block == "kernel":
            return {"Image.txt": _sha(self._kernel_image()),
                    "modules/mod1.txt": _sha(self.mock_driver)}
        if block == "rootfs":
            image = self._kernel_image()
            state = self.rootfs_base_sha.copy()
            state.update(image)
            members = {name: _sha(data)
                       for name, data in self.fixed["rootfs"].items()}
            members["rootfs.img"] = state.hexdigest()
            members["boot/Image"] = _sha(image)
            return members
        return {name: _sha(data) for name, data in self.fixed[block].items()}

    def _kernel_image(self) -> bytes:
        return self._makefile_now() + self.kconfig


def _git(cwd: Path, *args: str, stdin: bytes | None = None) -> None:
    subprocess.run(["git", "-c", "gc.auto=0", *args], cwd=cwd, input=stdin,
                   env=dict(os.environ, **GIT_ENV), check=True,
                   capture_output=True)


def _fast_import_stream(files: list[tuple[str, bytes]]) -> bytes:
    message = b"mock kernel tree\n"
    out = io.BytesIO()
    out.write(f"commit refs/heads/{KERNEL_BRANCH}\n".encode())
    out.write(f"author {GIT_WHO}\ncommitter {GIT_WHO}\n".encode())
    out.write(b"data %d\n%s" % (len(message), message))
    for path, data in files:
        out.write(f"M 100644 inline {path}\n".encode())
        out.write(b"data %d\n%s\n" % (len(data), data))
    out.write(b"done\n")
    return out.getvalue()


def _write_kernel_origin(proj: Project, rng: random.Random) -> None:
    """Bare origin repository with one commit; no index, so no stat data."""
    origin = proj.root / KERNEL_ORIGIN
    origin.mkdir(parents=True)
    _git(origin, "init", "-q", "--bare", "--template=")
    _git(origin, "symbolic-ref", "HEAD", f"refs/heads/{KERNEL_BRANCH}")
    proj.makefile = (f"# mock kernel makefile\nVERSION = 6\nPATCHLEVEL = 6\n"
                     f"NAME = zynqmp-bench-{proj.seed}\n").encode()
    config = ("CONFIG_BASE=y\n# CONFIG_MOCK is not set\nCONFIG_DEBUG=y\n"
              f"CONFIG_CORES=4\nCONFIG_SEED={proj.seed}\n")
    files = [("Makefile", proj.makefile), (".config", config.encode()),
             ("init/main.c", b"int main(void) { return 0; }\n")]
    for i in range(KERNEL_FILES):
        files.append((f"drivers/d{i // 100:03d}/f{i:05d}.c",
                      _text_blob(rng, 4, f"f{i}")))
    _git(origin, "fast-import", "--quiet", "--done",
         stdin=_fast_import_stream(files))

    proj.mock_driver = _text_blob(rng, 3, "mock driver")
    lines = proj.mock_driver.decode().splitlines()
    patch = "".join([
        "From 0000000000000000000000000000000000000000 Mon Sep 17 00:00:00 2001\n",
        "From: Fixture <fixture@example.com>\n",
        "Date: Thu, 1 Jan 2026 00:00:00 +0000\n",
        "Subject: [PATCH] add mock driver\n\n---\n",
        "diff --git a/drivers/mock.c b/drivers/mock.c\n",
        "new file mode 100644\n--- /dev/null\n+++ b/drivers/mock.c\n",
        f"@@ -0,0 +1,{len(lines)} @@\n",
        *(f"+{line}\n" for line in lines),
        "-- \n2.39.5\n\n"])
    snippet = (f"CONFIG_MOCK=y\n# CONFIG_DEBUG is not set\n"
               f"CONFIG_BENCH_SEED={rng.getrandbits(32)}\n")
    files_dir = proj.root / "src" / "kernel"
    files_dir.mkdir(parents=True)
    (files_dir / PATCH_NAME).write_text(patch, encoding="utf-8")
    (files_dir / SNIPPET_NAME).write_text(snippet, encoding="utf-8")
    proj.kconfig = merge_kconfig(config, snippet).encode()


def _ci_payload(proj: Project, block: str) -> dict[str, bytes]:
    version = proj.ci_versions[block]
    rng = random.Random(f"{proj.seed}/{block}/{version}")
    big = rng.randbytes(proj.sizes.ci_bytes)
    small = f"{block} v{version} seed {proj.seed}\n".encode()
    name = {"vivado": "system.xsa"}.get(block, f"{block}.elf")
    return {name: small, f"{block}.bin": big}


def _write_ci_archive(proj: Project, block: str) -> None:
    """What CI publishes: a canonical tar.gz written without socks code."""
    members = _ci_payload(proj, block)
    proj.ci_members[block] = members
    path = proj.ci_archive(block)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh, \
            gzip.GzipFile(filename="", fileobj=fh, mode="wb", mtime=0,
                          compresslevel=1) as gz, \
            tarfile.open(fileobj=gz, mode="w") as tar:
        for name, data in sorted(members.items()):
            info = tarfile.TarInfo(name)
            info.size = len(data)
            info.mode = 0o644
            tar.addfile(info, io.BytesIO(data))
    os.replace(tmp, path)


def _script_block(block: str, *, source: str, artifact: str,
                  deps: tuple[str, ...] = ()) -> str:
    """A Script_Builder block that concatenates each dependency's
    ``system.xsa`` and its own source file into its artifact."""
    inputs = [f'"$SOCKS_DEPS_DIR/{dep}/system.xsa"' for dep in deps]
    inputs.append(f'"$SOCKS_PROJECT_DIR/src/{block}/{source}"')
    step = f'cat {" ".join(inputs)} > "$SOCKS_STAGE_DIR/{artifact}"'
    text = (f"  {block}:\n"
            f"    builder: Script_Builder\n"
            f"    container:\n      image: socks-mock-builder\n"
            f"    project:\n"
            f"      inputs:\n        - src/{block}\n")
    if deps:
        text += "      dependencies:\n" + "".join(
            f"        {dep}: temp/{dep}/output/bp_{dep}_*.tar.gz\n"
            for dep in deps)
        text += "      consumes:\n" + "".join(
            f"        {dep}:\n          required: [\"*.xsa\"]\n"
            for dep in deps)
    if artifact.endswith(".xsa"):
        text += "      emits:\n        required: [\"*.xsa\"]\n"
    return (text + f"      steps:\n        - '{step}'\n"
            f"      outputs:\n        - {artifact}\n")


def _import_block(block: str) -> str:
    emits = ("      emits:\n        required: [\"*.xsa\"]\n"
             if block == "vivado" else "")
    return (f"  {block}:\n"
            f"    builder: Import_Builder\n"
            f"    source: import\n"
            f"    container:\n      image: socks-mock-builder\n"
            f"    project:\n"
            f"      import_src: \"{{{{ci/url}}}}/bp_{block}_{CI_STAMP}.tar.gz\"\n"
            + emits)


# (block, source file, artifact, dependencies) of the locally built blocks.
SCRIPT_BLOCKS = (
    ("vivado", "design.xsa", "system.xsa", ()),
    ("devicetree", "system-user.dtsi", "system.dtb", ("vivado",)),
    ("fsbl", "fsbl.c", "fsbl.elf", ("vivado",)),
    ("pmu_fw", "pmufw.c", "pmufw.elf", ()),
    ("atf", "bl31.c", "bl31.elf", ()),
    ("uboot", "u-boot.c", "u-boot.elf", ()),
    ("ramfs", "init.sh", "initramfs.cpio", ()),
)

KERNEL_SECTION = """\
  kernel:
    builder: Repo_Script_Builder
    container:
      image: kernel-builder-alma9
      tag: "{{external_tools/xilinx/version}}"
    project:
      build_srcs:
        source: kernel-origin
        branch: "xilinx-v{{external_tools/xilinx/version}}"
      patches:
        - 0001-add-mock-driver.patch
      config_snippets:
        - cfg-snippet-0001.cfg
      kconfig_file: .config
      steps:
        - 'cat "$SOCKS_SRC_DIR/Makefile" "$SOCKS_SRC_DIR/.config" > "$SOCKS_STAGE_DIR/Image.txt"'
        - 'mkdir -p "$SOCKS_STAGE_DIR/modules" && cp "$SOCKS_SRC_DIR/drivers/mock.c" "$SOCKS_STAGE_DIR/modules/mod1.txt"'
      outputs:
        - Image.txt
        - modules/mod1.txt
"""

ROOTFS_SECTION = """\
  rootfs:
    builder: Rootfs_Builder
    container:
      image: socks-mock-builder
    project:
      inputs:
        - src/rootfs
      dependencies:
        devicetree: temp/devicetree/output/bp_devicetree_*.tar.gz
        kernel: temp/kernel/output/bp_kernel_*.tar.gz
      consumes:
        kernel:
          required: [Image.txt]
      extra_packages:
        - payloads/tool-1.0.pkg
        - payloads/lib-2.1.pkg
      steps:
        - 'mkdir -p "$SOCKS_STAGE_DIR/boot" && cp "$SOCKS_DEPS_DIR/kernel/Image.txt" "$SOCKS_STAGE_DIR/boot/Image" && cp "$SOCKS_DEPS_DIR/devicetree/system.dtb" "$SOCKS_STAGE_DIR/boot/system.dtb"'
        - 'cat "$SOCKS_PROJECT_DIR/src/rootfs/base.img" "$SOCKS_DEPS_DIR/kernel/Image.txt" > "$SOCKS_STAGE_DIR/rootfs.img"'
      outputs:
        - rootfs.img
        - boot/Image
        - boot/system.dtb
"""


def _image_section() -> str:
    deps = "".join(f"        {dep}: temp/{dep}/output/bp_{dep}_*.tar.gz\n"
                   for dep in IMAGE_DEPS)
    return ("  image:\n    builder: Image_Builder\n"
            "    container:\n      image: socks-mock-builder\n"
            "    project:\n      dependencies:\n" + deps
            + "      consumes:\n        devicetree:\n"
              "          required: [system.dtb]\n")


def _write_rootfs_base(proj: Project, rng: random.Random) -> None:
    """Half seeded-random, half zeros, streamed so memory stays small."""
    path = proj.root / "src" / "rootfs" / "base.img"
    path.parent.mkdir(parents=True)
    sha = hashlib.sha256()
    size = proj.sizes.rootfs_bytes
    with open(path, "wb") as fh:
        for start, end, fill in ((0, size // 2, rng.randbytes),
                                 (size // 2, size, bytes)):
            for offset in range(start, end, MiB):
                block = fill(min(MiB, end - offset))
                fh.write(block)
                sha.update(block)
    proj.rootfs_base_sha = sha


def shared_tree(cache: Path, files: int) -> Path:
    """A read-only source tree of ``files`` files, the same for every seed.

    It is written once into ``cache`` and reused by later runs.  On a
    journal-less ext4, inode allocation skips inodes deleted in the last
    hours, so writing and deleting tens of thousands of files per run would
    make every later file creation, and with it every later build, slower.
    """
    tree = cache / f"kernel-tree-{files}"
    if tree.is_dir():
        return tree
    tmp = cache / f"tmp-{os.getpid()}"
    rng = random.Random("kernel-tree")
    for i in range(files):
        path = tmp / f"drivers/d{i // 100:03d}/f{i:05d}.c"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(_text_blob(rng, 4, f"f{i}"))
    age_tree(tmp)
    try:
        os.rename(tmp, tree)
    except OSError:            # another run finished it first
        shutil.rmtree(tmp)
    return tree


def age_tree(root: Path, age_seconds: float = 3600.0) -> None:
    """Push all mtimes into the past so fresh builds are clearly newer."""
    stamp = time.time() - age_seconds
    for dirpath, dirnames, filenames in os.walk(root):
        for name in filenames + dirnames:
            os.utime(os.path.join(dirpath, name), (stamp, stamp),
                     follow_symlinks=False)
    os.utime(root, (stamp, stamp))


def generate(workload: str, seed: int, dest: str | Path,
             cache: str | Path) -> Project:
    """Write the project for ``workload`` and ``seed`` into empty ``dest``;
    seed-independent shared inputs go to ``cache``."""
    sizes = WORKLOADS[workload]
    root = Path(dest).resolve()
    root.mkdir(parents=True, exist_ok=False)
    rng = random.Random(f"{workload}/{seed}")
    proj = Project(workload=workload, seed=seed, sizes=sizes, root=root)

    _write_kernel_origin(proj, rng)

    xsa = _text_blob(rng, 8, "hardware description")
    locally_built = [b for b in SCRIPT_BLOCKS
                     if not (sizes.ci_import and b[0] in CI_BLOCKS)]
    sections = []
    if sizes.ci_import:
        for block in CI_BLOCKS:
            proj.ci_versions[block] = 0
            _write_ci_archive(proj, block)
            sections.append(_import_block(block))
        xsa = proj.ci_members["vivado"]["system.xsa"]
    for block, source, artifact, deps in locally_built:
        data = xsa if block == "vivado" else _text_blob(rng, 6, block)
        (root / "src" / block).mkdir(parents=True)
        (root / "src" / block / source).write_bytes(data)
        if deps:
            data = xsa + data
        proj.fixed[block] = {artifact: data}
        sections.append(_script_block(block, source=source, artifact=artifact,
                                      deps=deps))
    payload_lines = []
    for name in PAYLOADS:
        data = _text_blob(rng, 5, name)
        (root / "payloads").mkdir(exist_ok=True)
        (root / "payloads" / name).write_bytes(data)
        payload_lines.append(f"{name} sha256={_sha(data)}\n")
    _write_rootfs_base(proj, rng)
    proj.fixed["rootfs"] = {
        "packages.txt": "".join(payload_lines).encode(),
        "boot/system.dtb": proj.fixed["devicetree"]["system.dtb"],
    }

    (root / IMPORT_FILE).write_text(
        "project:\n  type: ZynqMP\n\nblocks:\n" + "".join(sections)
        + ROOTFS_SECTION + _image_section(), encoding="utf-8")
    shared = ""
    kernel = KERNEL_SECTION
    if sizes.ci_import:
        shared = f"ci:\n  url: \"{(root / CI_DIR).as_uri()}\"\n"
    if sizes.tree_files:
        tree = shared_tree(Path(cache).resolve(), sizes.tree_files)
        shared = f"trees:\n  kernel: \"{tree}\"\n"
        kernel += "      inputs:\n        - \"{{trees/kernel}}\"\n"
    (root / "socks.yml").write_text(
        f"import:\n  - {IMPORT_FILE}\n\n"
        f"project:\n  name: bench-{workload}-{seed}\n\n"
        "external_tools:\n  container_tool: disabled\n"
        "  xilinx:\n    version: \"2022.2\"\n\n"
        + shared + "blocks:\n" + kernel, encoding="utf-8")
    age_tree(root)
    return proj
