"""README's examples run as shown.

The "Library use" block runs, the scenario block parses, and each `sh`
block of one `skillmas run` or `skillmas transplant` command prints what
the output block after it shows.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from skillmas.cli import main
from skillmas.orchestrator import TRANSPLANT_ROWS
from skillmas.store import parse_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks() -> list[tuple[str, str]]:
    """README's fenced blocks as (info string, text), in order."""
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```(\w*)\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def only(shown: list[tuple[str, str]], lang: str, start: str) -> int:
    """The index of the one block of `lang` whose text starts with `start`."""
    found = [
        i for i, (info, text) in enumerate(shown) if info == lang and text.startswith(start)
    ]
    assert len(found) == 1, found
    return found[0]


def test_library_use_runs():
    shown = blocks()
    code = shown[only(shown, "python", "from skillmas import")][1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    # the report's JSON, then one line per transplant variant
    assert [line.split()[0] for line in out.getvalue().splitlines()[-4:]] == list(TRANSPLANT_ROWS)


def test_scenario_block_parses():
    shown = blocks()
    pack = parse_scenario(shown[only(shown, "ini", "[tasks]")][1], name="readme")
    assert [t.id for t in pack.scenario.task_types] == ["examine"]
    assert set(pack.seed_state.executors) == {"manager", "worker-a"}


def test_commands_print_their_output_blocks(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shown = blocks()
    for start in ("skillmas run --scenario preset:mismatch --seed 7 --rounds 8",
                  "skillmas transplant --run demo-run --episodes 60"):
        index = only(shown, "sh", start)
        argv = shlex.split(shown[index][1])
        assert argv[0] == "skillmas" and shown[index + 1][0] == ""
        assert main(argv[1:]) == 0
        assert capsys.readouterr().out.startswith(shown[index + 1][1]), start
