"""Command line front end: ``socks [GLOBAL-OPTS] <block|all> [-g] <command>``.

Help texts are generated at runtime from the loaded project configuration:
the commands offered for a block are exactly those of the builder selected
in the block's config section.
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path
from typing import NamedTuple

from .errors import BuilderError, GraphError, SocksError, UsageError
from .graph import ALL, Invocation, check_block
from .orchestrator import run
from .project import Project
from .registry import BuilderDescriptor, CommandDescriptor

DEFAULT_PROJECT_FILE = "socks.yml"
HELP_WIDTH = 96

log = logging.getLogger(__name__)


class HelpRequest(NamedTuple):
    level: str                 # "tool" | "block" | "command"
    block: str | None = None
    command: str | None = None


class ParsedArgs:
    def __init__(self, help: HelpRequest | None = None,
                 show_config: bool = False,
                 project_file: str = DEFAULT_PROJECT_FILE,
                 verbose: bool = False,
                 invocation: Invocation | None = None):
        self.help = help
        self.show_config = show_config
        self.project_file = project_file
        self.verbose = verbose
        self.invocation = invocation


def _help_parser(prog: str, **kwargs):
    """A parser that only formats help text, and its options group, which
    holds ``-h``."""
    # Imported here: only help texts need argparse.
    import argparse

    parser = argparse.ArgumentParser(
        prog=prog, add_help=False, **kwargs,
        formatter_class=lambda prog: argparse.HelpFormatter(
            prog, width=HELP_WIDTH))
    opts = parser.add_argument_group("options")
    opts.add_argument("-h", "--help", action="store_true",
                      help="show this help message and exit")
    return parser, opts


USAGE = ("usage: socks [-h] [-f FILE] [-v] [--show-config] "
         "{<block>|all} [-g] <command>")


def parse(argv: list[str]) -> ParsedArgs:
    """Total over argv: every input yields an invocation, a help request,
    or a usage error."""
    out = ParsedArgs()
    i = 0
    # global options
    while i < len(argv) and argv[i].startswith("-"):
        arg = argv[i]
        if arg in ("-h", "--help"):
            out.help = HelpRequest("tool")
            return out
        if arg in ("-f", "--file"):
            if i + 1 >= len(argv):
                raise UsageError(f"option {arg} needs a value\n{USAGE}")
            out.project_file = argv[i + 1]
            i += 2
            continue
        if arg in ("-v", "--verbose"):
            out.verbose = True
            i += 1
            continue
        if arg == "--show-config":
            out.show_config = True
            i += 1
            continue
        raise UsageError(f"unknown option: {arg}\n{USAGE}")

    if i >= len(argv):
        if out.show_config:
            return out
        raise UsageError(f"missing block and command\n{USAGE}")
    block = argv[i]
    i += 1

    group = False
    command = None
    while i < len(argv):
        arg = argv[i]
        if arg in ("-h", "--help"):
            if command is None:
                out.help = HelpRequest("block", block=block)
            else:
                out.help = HelpRequest("command", block=block, command=command)
            return out
        if arg in ("-g", "--group"):
            group = True
            i += 1
            continue
        if arg.startswith("-"):
            raise UsageError(f"unknown option: {arg}\n{USAGE}")
        if command is None:
            command = arg
            i += 1
            continue
        raise UsageError(f"unexpected argument: {arg}\n{USAGE}")

    if command is None:
        raise UsageError(f"missing command for block '{block}'\n{USAGE}")
    target = ALL if block == ALL else block
    if target == ALL and group:
        log.info("--group has no effect with 'all'")
        group = False
    out.invocation = Invocation(target=target, command=command, group=group)
    return out


def tool_help(project: Project | None) -> str:
    parser, opts = _help_parser(
        "socks",
        usage=USAGE.removeprefix("usage: "),
        description="Modular build orchestrator for multi-component "
                    "bootable system images.")
    opts.add_argument("-f", "--file", metavar="FILE",
                      help=f"project configuration file "
                           f"(default: ./{DEFAULT_PROJECT_FILE})")
    opts.add_argument("-v", "--verbose", action="store_true",
                      help="verbose logging")
    opts.add_argument("--show-config", action="store_true",
                      help="print the fully processed project configuration "
                           "and exit")
    text = parser.format_help()
    if project is not None:
        lines = [text.rstrip("\n"), "", "blocks:"]
        for block_id in sorted(project.builders):
            builder = project.builders[block_id]
            lines.append(f"  {block_id:<20}{builder.descriptor.description}")
        lines.append(f"  {'all':<20}apply the command to all blocks")
        text = "\n".join(lines) + "\n"
    return text


def _descriptor(project: Project, block_id: str) -> BuilderDescriptor:
    """Builder descriptor of a block; an unknown block is a usage error."""
    try:
        check_block(project.builders, block_id)
    except GraphError as exc:
        raise UsageError(str(exc)) from exc
    return project.builders[block_id].descriptor


def _command(project: Project, block_id: str, verb: str) -> CommandDescriptor:
    """A block's command; an unsupported verb is a usage error."""
    descriptor = _descriptor(project, block_id)
    try:
        return descriptor.require_command(verb, block_id)
    except BuilderError as exc:
        raise UsageError(str(exc)) from exc


def block_help(project: Project, block_id: str) -> str:
    if block_id == ALL:
        return tool_help(project)
    descriptor = _descriptor(project, block_id)
    verbs = descriptor.verbs()
    parser, opts = _help_parser(f"socks {block_id}",
                                description=descriptor.description)
    opts.add_argument("-g", "--group", action="store_true",
                      help="Interact not only with the specified block, but "
                           "also with all blocks on which this block "
                           "depends.")
    commands = parser.add_subparsers(
        title="commands", metavar="{" + ",".join(verbs) + "}")
    for cmd in descriptor.commands:
        commands.add_parser(cmd.verb, help=cmd.help)
    return parser.format_help()


def command_help(project: Project, block_id: str, verb: str) -> str:
    cmd = _command(project, block_id, verb)
    return (f"usage: socks {block_id} {verb}\n\n{cmd.help}\n"
            f"\ncategory: {cmd.category}\n")


def generate_help(level: str, *, project: Project | None = None,
                  block: str | None = None, command: str | None = None) -> str:
    if level == "tool":
        return tool_help(project)
    if project is None:
        raise UsageError(
            "block-level help needs a loadable project configuration; "
            f"run inside a project or pass -f FILE")
    if level == "command":
        return command_help(project, block, command)
    return block_help(project, block)


def _print_summary(report) -> None:
    for stage in report.entries:
        state = "skipped" if stage.skipped else "done"
        extra = f" -> {', '.join(stage.artifacts)}" if stage.artifacts else ""
        print(f"{stage.block_id}: {stage.verb} {state} "
              f"({stage.duration:.2f}s){extra}")
    if report.outcome == "failed":
        print(f"error: {report.outcome} at block '{report.at_block}'",
              file=sys.stderr)
        if report.error is not None:
            print(str(report.error), file=sys.stderr)
    elif report.outcome == "interrupted":
        print(f"interrupted at block '{report.at_block}'; remaining blocks "
              f"left untouched", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parsed = parse(argv)
    except UsageError as exc:
        print(f"socks: {exc}", file=sys.stderr)
        return 1

    logging.basicConfig(
        level=logging.DEBUG if parsed.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")

    needs_project = (parsed.show_config or parsed.invocation is not None
                     or (parsed.help is not None
                         and parsed.help.level != "tool"))
    project = None
    try:
        if needs_project:
            project = Project.load(parsed.project_file)
        elif parsed.help is not None and Path(parsed.project_file).exists():
            try:
                project = Project.load(parsed.project_file)
            except SocksError:
                project = None

        if parsed.help is not None:
            print(generate_help(parsed.help.level, project=project,
                                block=parsed.help.block,
                                command=parsed.help.command), end="")
            return 0
        if parsed.show_config:
            print(project.rendered_config(), end="")
            return 0

        inv = parsed.invocation
        if inv.target != ALL:
            _command(project, inv.target, inv.command)
        report = run(project, inv)
        _print_summary(report)
        if (report.outcome == "completed" and len(report.entries) == 1
                and report.entries[0].exit_status):
            return report.entries[0].exit_status
        return report.exit_code
    except UsageError as exc:
        print(f"socks: {exc}", file=sys.stderr)
        return 1
    except SocksError as exc:
        print(f"socks: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        print("socks: interrupted", file=sys.stderr)
        return 130


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
