"""Golden outputs: texts socks formats itself must stay byte-identical.

Covers the fixture's ``--show-config``, ``socks <block> <verb> --help`` for
every fixture block and verb, and the unknown-block error.  Help texts laid
out by argparse (tool and block help) are left out: their layout belongs to
the Python version.  To regenerate after a deliberate change, run::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from socks import cli
from socks.fixture import materialize
from socks.project import Project

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _run(config: Path, *args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["-f", str(config), *args])
    return code, out.getvalue(), err.getvalue()


def golden_outputs(project_dir: Path) -> dict[str, str]:
    """Each golden file's name and the text socks gives for it now."""
    config = project_dir / "socks.yml"
    code, show_config, _ = _run(config, "--show-config")
    assert code == 0
    helps = []
    project = Project.load(config)
    for block_id in sorted(project.builders):
        for verb in project.builders[block_id].descriptor.verbs():
            code, text, _ = _run(config, block_id, verb, "--help")
            assert code == 0
            helps.append(f"$ socks {block_id} {verb} --help\n{text}")
    code, _, unknown = _run(config, "nosuch", "build")
    return {"show-config.txt": show_config,
            "command-help.txt": "\n".join(helps),
            "unknown-block.txt": f"exit {code}\n{unknown}"}


def test_outputs_match_golden_files(project_dir):
    for name, text in golden_outputs(project_dir).items():
        assert text == (GOLDEN_DIR / name).read_text(encoding="utf-8"), name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = golden_outputs(materialize(Path(tmp) / "proj"))
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in outputs.items():
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
