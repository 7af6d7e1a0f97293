"""Run one ``socks`` command in this process with spans around its layers.

Usage: ``python tracer.py TRACE.json [socks arguments...]``

The tracer imports ``socks.cli`` (timing the import), wraps the public
functions of each layer where their callers look them up, calls
``socks.cli.main`` and exits with its return code.  Spans (name, start, end,
parent and counters) stay in memory and are written once, at exit, to
``TRACE.json`` in the Chrome Trace Event format, which Perfetto opens.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# json and urllib.request are imported only after ``socks.cli``, whose
# import they would otherwise partly pre-pay and so hide from cli.import.


class Tracer:

    def __init__(self):
        self.events: list[dict] = []
        self.stack: list[dict] = []
        self.digested: set[tuple] = set()
        self.pid = os.getpid()

    def begin(self, name: str, **args) -> dict:
        span = {"name": name, "ph": "X", "pid": self.pid, "tid": 1,
                "start": time.perf_counter_ns(),
                "args": {"id": len(self.events) + 1,
                         "parent": self.stack[-1]["args"]["id"]
                         if self.stack else 0, **args}}
        self.events.append(span)
        self.stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["dur_ns"] = time.perf_counter_ns() - span["start"]
        self.stack.remove(span)

    def instant(self, name: str, **args) -> None:
        self.events.append({"name": name, "ph": "i", "s": "t",
                            "pid": self.pid, "tid": 1,
                            "start": time.perf_counter_ns(), "args": args})

    def write(self, path: str) -> None:
        import json

        origin = min(event["start"] for event in self.events)
        for event in self.events:
            event["ts"] = (event.pop("start") - origin) / 1000
            if "dur_ns" in event:
                event["dur"] = event.pop("dur_ns") / 1000
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": self.events,
                       "displayTimeUnit": "ms"}, fh)

    def spanned(self, fn, name: str, before=None, after=None):
        """``fn`` inside a span.  ``before`` sees the arguments and ``after``
        also the result; both return counters for the span."""

        @functools.wraps(fn)
        def call(*args, **kwargs):
            span = self.begin(name, **(before(*args, **kwargs)
                                       if before else {}))
            try:
                result = fn(*args, **kwargs)
                if after:
                    span["args"].update(after(result, *args, **kwargs))
                return result
            finally:
                self.end(span)

        return call

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        setattr(owner, attr,
                self.spanned(getattr(owner, attr), name, before, after))


class CountingResponse:
    """Response proxy that counts fetched bytes and ends the fetch span when
    the caller closes it."""

    def __init__(self, resp, span: dict, tracer: Tracer):
        self._resp, self._span, self._tracer = resp, span, tracer
        span["args"]["bytes"] = 0

    def read(self, *args):
        data = self._resp.read(*args)
        self._span["args"]["bytes"] += len(data)
        return data

    def close(self):
        if self._span in self._tracer.stack:
            self._tracer.end(self._span)
        self._resp.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __getattr__(self, name):
        return getattr(self._resp, name)


def _size(path) -> int:
    return os.stat(path).st_size


def install(tracer: Tracer) -> None:
    import urllib.request

    from socks import (blockpackage, environment, incremental, orchestrator,
                       project, sources)
    from socks.builders import base, repo

    tracer.wrap(project, "process_project", "configtree.process_project")
    tracer.wrap(project, "build_graph", "graph.build_graph")
    load = project.Project.__dict__["load"].__func__
    project.Project.load = classmethod(tracer.spanned(load, "project.load"))
    tracer.wrap(orchestrator, "plan", "orchestrator.plan")

    tracer.wrap(incremental, "newest_mtime", "incremental.newest_mtime")
    tracer.wrap(base, "needs_rebuild", "incremental.needs_rebuild",
                after=lambda decision, **_: {
                    "rebuild": int(decision.rebuild),
                    "reasons": [r.split(":", 1)[0] for r in decision.reasons]})

    def digest_args(path):
        st = os.stat(path)
        key = (os.path.realpath(path), st.st_size, st.st_mtime_ns)
        repeat = key in tracer.digested
        tracer.digested.add(key)
        return {"bytes": st.st_size, "repeat": int(repeat)}

    tracer.wrap(blockpackage, "archive_digest", "blockpackage.archive_digest",
                before=digest_args)
    tracer.wrap(blockpackage, "open_package", "blockpackage.open_package",
                before=lambda path, *a, **k: {"bytes": _size(path)})

    def package_inputs(block_id, output_dir, files, *a, **k):
        return {"bytes_in": sum(_size(src) for src in dict(files).values()
                                if os.path.isfile(src))}

    tracer.wrap(blockpackage, "create_package", "blockpackage.create_package",
                before=package_inputs,
                after=lambda pkg, *a, **k: {"bytes_out": _size(pkg.path)})
    tracer.wrap(blockpackage, "import_package", "blockpackage.import_package",
                after=lambda res, *a, **k: {"extracted": int(res["imported"])})

    original_urlopen = urllib.request.urlopen

    def urlopen(*args, **kwargs):
        span = tracer.begin("blockpackage.fetch")
        try:
            resp = original_urlopen(*args, **kwargs)
        except BaseException:
            tracer.end(span)
            raise
        return CountingResponse(resp, span, tracer)

    urllib.request.urlopen = urlopen

    for name in ("sync_source", "apply_patches", "apply_config_snippets"):
        tracer.wrap(repo, name, f"sources.{name}")
    tracer.wrap(sources, "execute_host", "environment.execute_host")
    tracer.wrap(environment.EnvironmentManager, "run", "environment.run")
    tracer.wrap(base.Builder, "apply", "builders.apply",
                before=lambda builder, verb: {"block": builder.block_id},
                after=lambda report, *a: {"rebuilt": int(not report.skipped)})
    environment.add_invocation_observer(
        lambda kind, argv: tracer.instant("environment.spawn", kind=kind,
                                          program=os.path.basename(argv[0])))


def main(argv: list[str]) -> int:
    trace_path, socks_args = argv[0], argv[1:]
    tracer = Tracer()
    span = tracer.begin("cli.import")
    import socks.cli
    tracer.end(span)
    install(tracer)
    span = tracer.begin("cli.main")
    try:
        return socks.cli.main(socks_args)
    finally:
        tracer.end(span)
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
