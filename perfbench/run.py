"""SoCks benchmark: cold, no-op and one-touch builds of a generated project.

Usage::

    python3 perfbench/run.py --workload zynqmp-small --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  The benchmark generates the workload's
ZynqMP-shaped project from the seed, then drives the real ``socks`` CLI in a
closed loop (one client; the next operation starts when the previous one
has ended) through cycles of ``cold``, ``noop`` and ``touch`` builds, each
one ``socks all build`` process, and checks every output after every
operation.  It prints a table and, as its last line, one JSON object.

With ``--trace 0`` the JSON holds the end-to-end metrics, all measured on
untraced processes.  With ``--trace 1`` every other cycle runs its
processes under ``tracer.py`` and the JSON holds the per-layer metrics,
medians over the traced operations of each kind; the Chrome traces of the
last traced cycle are kept in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from checks import Checker
from generate import ALL_BLOCKS, GIT_ENV, WORKLOADS, Project, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"
CACHE = ROOT / ".perfbench_cache"

OPS = ("cold", "noop", "touch")
# One cycle of the closed loop.  The second no-op also sees the packages the
# touch superseded, which is how their pile-up shows as drift.
CYCLE = ("cold", "noop", "touch", "noop")
# --show-config samples before the first cycle; one more follows every
# cycle.
SETUP_REPS = 3
OP_TIMEOUT_S = 150.0
# The socks console script may not be installed, and ``python -m socks.cli``
# builds nothing, so the CLI entry point is called directly.
MAIN = "import sys; from socks.cli import main; sys.exit(main(sys.argv[1:]))"

END_TO_END = {
    "setup_s": "s", "cold_build_s": "s", "noop_build_s": "s",
    "touch_build_s": "s", "peak_rss_mib": "MiB",
}
# layer -> stats; reported per operation as <op>.<layer>.<stat>
LAYERS = {
    "configtree.process_project": ("s",),
    "project.load": ("s",),
    "graph.build_graph": ("s",),
    "orchestrator.plan": ("s",),
    "incremental.newest_mtime": ("calls", "s"),
    "incremental.needs_rebuild": ("calls", "s", "rebuild"),
    "incremental.reason": ("timestamps", "event-log", "dependency-checksum",
                           "config"),
    "blockpackage.open_package": ("calls", "s", "bytes"),
    "blockpackage.archive_digest": ("calls", "s", "bytes", "repeat_ratio"),
    "blockpackage.create_package": ("calls", "s", "bytes_in", "bytes_out"),
    "blockpackage.import_package": ("calls", "s", "extracted"),
    "blockpackage.fetch": ("calls", "bytes", "s"),
    "sources.sync_source": ("s",),
    "sources.apply_patches": ("s",),
    "sources.apply_config_snippets": ("s",),
    "environment.run": ("s",),
    "environment.execute_host": ("s",),
    "environment.spawns": ("host", "build"),
    "builders.apply": ("s", "rebuilt"),
    "builders.overhead": ("s",),
    "trace.overhead": ("s",),
}
COUNTERS = ("bytes", "bytes_in", "bytes_out", "extracted", "rebuild",
            "rebuilt", "repeat")


def layer_metric_names() -> list[str]:
    names = ["setup.cli.import.s"]
    for op in OPS:
        names += [f"{op}.{layer}.{stat}"
                  for layer, stats in LAYERS.items() for stat in stats]
    return names


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat == "s":
        return "s"
    if stat.startswith("bytes"):
        return "B"
    return "ratio" if stat.endswith("ratio") else "count"


@dataclass
class Result:
    returncode: int
    wall: float
    rss_mib: float
    stdout: str


def child_env() -> dict[str, str]:
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "")
                          .split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **GIT_ENV)


def run_socks(proj: Project, args: list[str], logs: Path,
              trace_file: Path | None = None) -> Result:
    """One socks process: wall time, peak RSS (``wait4``) and stdout."""
    if trace_file is None:
        argv = [sys.executable, "-c", MAIN, *args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(trace_file),
                *args]
    with open(logs / "stdout.txt", "w+b") as out, \
            open(logs / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=proj.root, env=child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode(errors="replace")
    return Result(proc.returncode, wall, usage.ru_maxrss / 1024, stdout)


def layer_metrics(trace_file: Path) -> dict[str, float]:
    """Per-layer counts and self times of one traced process."""
    with open(trace_file, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    spans = {e["args"]["id"]: e for e in events if e["ph"] == "X"}
    child_us: dict[int, float] = defaultdict(float)
    for span in spans.values():
        child_us[span["args"]["parent"]] += span["dur"]
    out: dict[str, float] = defaultdict(float)
    for span_id, span in spans.items():
        name, args = span["name"], span["args"]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += (span["dur"] - child_us[span_id]) / 1e6
        for key in COUNTERS:
            out[f"{name}.{key}"] += args.get(key, 0)
        for reason in args.get("reasons", ()):
            out[f"incremental.reason.{reason}"] += 1
        if name in ("environment.run", "environment.execute_host"):
            parent = spans.get(args["parent"])
            while parent is not None and parent["name"] != "builders.apply":
                parent = spans.get(parent["args"]["parent"])
            if parent is not None:
                out["builders.overhead.s"] -= span["dur"] / 1e6
        if name == "builders.apply":
            out["builders.overhead.s"] += span["dur"] / 1e6
            out[f"builders.apply.{args['block']}.total_s"] += span["dur"] / 1e6
    for event in events:
        if event["ph"] == "i" and event["name"] == "environment.spawn":
            out[f"environment.spawns.{event['args']['kind']}"] += 1
    digests = out["blockpackage.archive_digest.calls"]
    repeats = out["blockpackage.archive_digest.repeat"]
    out["blockpackage.archive_digest.repeat_ratio"] = (
        repeats / digests if digests else 0.0)
    return out


def median(values) -> float:
    """Median, or 0.0 when every sample failed (the run is then incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile_text(values: list[float]) -> str:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = "-"
    for pct in (90, 99, 99.9):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            best = f"p{pct:g}={cut[int(pct * 10) - 1]:.4f}"
    return best


@dataclass
class Run:
    """Samples and failures of one benchmark run."""

    proj: Project
    logs: Path
    checker: Checker = None
    walls: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    # (cycle, position in CYCLE) -> wall time, traced or not
    slot_walls: dict[tuple[int, int], float] = field(default_factory=dict)
    layers: dict[str, list[dict]] = field(
        default_factory=lambda: defaultdict(list))
    noop_by_position: dict[int, list[float]] = field(
        default_factory=lambda: defaultdict(list))
    setup: list[float] = field(default_factory=list)
    peak_rss: float = 0.0
    attempted: int = 0
    failed: int = 0

    def __post_init__(self):
        self.checker = Checker(self.proj)

    def record(self, op: str, result: Result, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            for error in errors:
                print(f"CHECK FAILED: {error}", file=sys.stderr)
        return not errors

    def show_config(self, keep: bool) -> None:
        result = run_socks(self.proj, ["--show-config"], self.logs)
        errors = [] if result.returncode == 0 else [
            f"--show-config: exit code {result.returncode}"]
        missing = [b for b in ALL_BLOCKS if f"\n  {b}:" not in result.stdout]
        if missing:
            errors.append(f"--show-config: blocks missing {missing}")
        if self.record("setup", result, errors) and keep:
            self.setup.append(result.wall)
            self.peak_rss = max(self.peak_rss, result.rss_mib)

    def cycle(self, number: int, traced: bool) -> None:
        for position, op in enumerate(CYCLE):
            if op == "cold":
                # Moved aside, deleted when the run ends: deleting thousands
                # of files makes file creation slow for seconds afterwards on
                # some filesystems, which would leak into the timed builds.
                temp = self.proj.root / "temp"
                if temp.exists():
                    temp.rename(self.logs.parent / f"old-temp-{number}")
                self.proj.after_clean()
            elif op == "touch":
                self.proj.touch()
            trace_file = (TRACES / f"{self.proj.workload}-{self.proj.seed}"
                          f"-{op}.json") if traced else None
            result = run_socks(self.proj, ["all", "build"], self.logs,
                               trace_file)
            if not self.record(op, result,
                               self.checker.check(op, result.returncode,
                                                  result.stdout)):
                continue
            self.slot_walls[(number, position)] = result.wall
            if traced:
                self.layers[op].append(layer_metrics(trace_file))
                continue
            self.walls[op].append(result.wall)
            self.peak_rss = max(self.peak_rss, result.rss_mib)
            if op == "noop":
                self.noop_by_position[position].append(result.wall)
        self.show_config(keep=True)

    def time_samples(self) -> dict[str, list[float]]:
        """Wall-time samples of each timed end-to-end metric."""
        return {"setup_s": self.setup,
                **{f"{op}_build_s": self.walls[op] for op in OPS}}

    def end_to_end(self) -> dict[str, float]:
        out = {name: median(values)
               for name, values in self.time_samples().items()}
        out["peak_rss_mib"] = self.peak_rss
        return out

    def trace_overhead(self, op: str) -> list[float]:
        """Traced minus untraced wall time of ``op``, each traced cycle
        paired with the untraced cycle before it, position by position."""
        return [self.slot_walls[(number + 1, position)] - wall
                for (number, position), wall in self.slot_walls.items()
                if number % 2 == 0 and CYCLE[position] == op
                and (number + 1, position) in self.slot_walls]

    def per_layer(self) -> dict[str, float]:
        out = {}
        for name in layer_metric_names():
            op, rest = name.split(".", 1)
            if op == "setup":
                samples = [m[rest] for ms in self.layers.values() for m in ms]
            elif rest == "trace.overhead.s":
                samples = self.trace_overhead(op)
            else:
                samples = [m.get(rest, 0.0) for m in self.layers[op]]
            out[name] = median(samples)
        return out


def report(run: Run, metrics: dict[str, float], units: dict[str, str]) -> None:
    proj = run.proj
    print(f"workload {proj.workload} seed {proj.seed}: {run.attempted} "
          f"operations, {run.failed} failed (failed_ratio = "
          f"{run.failed}/{run.attempted} = "
          f"{run.failed / max(run.attempted, 1):.3f})")
    samples = run.time_samples()
    for name, value in metrics.items():
        values = samples.get(name)
        if values:
            detail = (f"median of n={len(values)}, min={min(values):.4f} "
                      f"max={max(values):.4f} {percentile_text(values)}")
        elif name == "peak_rss_mib":
            detail = "max over all untraced socks processes"
        else:
            op = name.split(".", 1)[0]
            traced = (sum(map(len, run.layers.values())) if op == "setup"
                      else len(run.layers.get(op, ())))
            detail = f"median of n={traced} traced processes"
        print(f"  {name:<48} {value:>14.6f} {units[name]:<6} {detail}")
    positions = sorted(run.noop_by_position)
    if len(positions) > 1:
        first = statistics.median(run.noop_by_position[positions[0]])
        last = statistics.median(run.noop_by_position[positions[-1]])
        touches = CYCLE[:positions[-1]].count("touch")
        print(f"  noop drift: the no-op after {touches} touch(es) takes "
              f"{last / first:.3f}x the no-op right after the cold build")
    for op, samples_op in run.layers.items():
        blocks = sorted(k for k in samples_op[0] if k.endswith(".total_s"))
        for key in blocks:
            value = statistics.median(m[key] for m in samples_op)
            print(f"  {op}.{key:<44} {value:>14.6f} s      "
                  f"median apply time incl. children")


def remove_stale_work() -> None:
    """Delete work directories left behind by runs that were killed."""
    for entry in WORK.glob("*-*"):
        try:
            os.kill(int(entry.name.rsplit("-", 1)[1]), 0)
        except ProcessLookupError:
            shutil.rmtree(entry, ignore_errors=True)
        except (ValueError, PermissionError):
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "socks" / "cli.py").is_file():
        print(f"error: the socks sources are missing under {SRC}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    WORK.mkdir(exist_ok=True)
    CACHE.mkdir(exist_ok=True)
    remove_stale_work()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    logs = work / "logs"
    try:
        logs.mkdir(parents=True)
        if args.trace:
            TRACES.mkdir(exist_ok=True)
        proj = generate(args.workload, args.seed, work / "project", CACHE)
        run = Run(proj, logs)
        run.show_config(keep=False)     # warm-up: compiles the bytecode
        for _ in range(SETUP_REPS):
            run.show_config(keep=True)
        deadline = time.perf_counter() + args.seconds
        cycles = 0
        while cycles < 1 + args.trace or time.perf_counter() < deadline:
            run.cycle(cycles, traced=bool(args.trace) and cycles % 2 == 1)
            cycles += 1
        correct = run.failed == 0
        if args.trace:
            metrics = run.per_layer()
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics = run.end_to_end()
            units = END_TO_END
        report(run, metrics, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
