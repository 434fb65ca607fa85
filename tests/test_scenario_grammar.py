"""Scenario files mutated at the level of their grammar.

Each example takes a preset's text and changes one token of one entry line
to an unknown id, a minted-looking id, a pair outside the task space, or a
number at or past a range's end, or it repeats the line.  The parser must
then refuse the mutated line, or, when the token it changed was a
definition (a task, phase, latent, executor, skill or card id), the first
later line that still names the old id; or it accepts, and the world runs:
`run --rounds 2 --episodes 50` exits 0 and `replay` of that run is clean.
`cli.main` runs in-process.
"""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from skillmas.cli import main
from skillmas.presets import PRESETS
from skillmas.store import ScenarioError, parse_scenario

# an entry line is tokens between these separators; a pair `task/phase` is one token
_SEPARATORS = re.compile(r"([\s=,|]+)")

REPLACEMENTS = (
    "zz",  # an unknown id
    "zz-r3",  # the suffix of an engine-minted id
    "zz-a",  # the suffix of a split half
    "zz/q",  # a pair outside the task space
    "0",
    "-1",
    "nan",
    "1e400",
    "1e308",
    repr(-math.ulp(0.0)),  # one ulp below 0, the low end of every range
    repr(math.nextafter(1.0, 2.0)),  # one ulp above 1, the top of noise and confidence
)


def entries(text: str) -> list[tuple[int, str, str]]:
    """Each entry line's 0-based index, section and body (its text before a comment)."""
    found, section = [], None
    for at, line in enumerate(text.splitlines()):
        body = line.split("#", 1)[0].strip()
        if body.startswith("["):
            section = body[1:-1]
        elif body:
            found.append((at, section, body))
    return found


def defined_id(section: str, words: list[str], index: int) -> str | None:
    """The id that word `index` of an entry defines, or None: the key of a
    task, latent or seed-state entry, or a task's phase, which defines the
    pair `task/phase`."""
    if section == "tasks" and 0 < index < len(words) - 1:
        return f"{words[0]}/{words[index]}"
    if section in ("tasks", "latent"):
        return words[0] if index == 0 else None
    return words[1] if section == "seed-state" and index == 1 else None


def names(line: str, ident: str) -> bool:
    """Whether `line` names `ident`, as a token or as a pair's task."""
    tokens = set(_SEPARATORS.split(line.split("#", 1)[0])[0::2])
    return ident in tokens or ident in {t.partition("/")[0] for t in tokens if "/" in t}


@st.composite
def mutants(draw):
    """A preset's text with one token of one entry line changed, or one
    entry line repeated: (text, the mutated line, and the id that the
    changed token defined, or None)."""
    lines = PRESETS[draw(st.sampled_from(sorted(PRESETS)))].splitlines()
    at, section, body = draw(st.sampled_from(entries("\n".join(lines))))
    if draw(st.integers(0, 9)) == 0:
        lines.insert(at + 1, lines[at])
        return "\n".join(lines) + "\n", at + 2, None
    parts = _SEPARATORS.split(body)
    index = draw(st.integers(0, len(parts) // 2))
    old = defined_id(section, parts[0::2], index)
    parts[2 * index] = draw(st.sampled_from(REPLACEMENTS))
    lines[at] = "".join(parts)
    return "\n".join(lines) + "\n", at + 1, old


def run_and_replay(tmp_path, scn) -> None:
    out = tmp_path / "run"
    argv = ["run", "--scenario", str(scn), "--seed", "3", "--rounds", "2",
            "--episodes", "50", "--out", str(out), "--quiet"]
    assert main(argv) == 0
    assert main(["replay", "--run", str(out)]) == 0


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutants())
def test_a_mutated_scenario_is_refused_at_its_line_or_runs(tmp_path_factory, capsys, mutant):
    text, line, old = mutant
    try:
        parse_scenario(text)
    except ScenarioError as err:
        if err.line != line:
            assert old is not None, (str(err), line)
            lines = enumerate(text.splitlines(), start=1)
            later = [n for n, body in lines if n > line and names(body, old)]
            assert later and err.line == later[0], (str(err), line, old)
        event("refused at a later line" if err.line != line else "refused at its line")
        return
    event("accepted")
    scn = tmp_path_factory.mktemp("mutant") / "world.scn"
    scn.write_text(text, encoding="utf-8")
    run_and_replay(scn.parent, scn)
    capsys.readouterr()


# each number is finite, but the pair's logit (1e308 + 1e308) overflows, and an
# overload of 1e308 on two excess skills would take it to inf - inf = NaN
OVERFLOW = """\
[tasks]
t = p | 1.0

[difficulty]
t/p = 1e308

[latent]
lat = t/p 1e308 missing-precondition

[penalties]
overload = 1e308

[seed-state]
executor m = * capacity=10 manager
executor w = t/p capacity=1
skill s1 = owner=w applies=t/p steps=lat
skill s2 = owner=w applies=t/p steps=lat,x
skill s3 = owner=w applies=t/p steps=lat,y
"""


def test_a_logit_that_overflows_is_refused_at_its_latent_line(tmp_path, capsys):
    scn = tmp_path / "overflow.scn"
    scn.write_text(OVERFLOW, encoding="utf-8")
    argv = ["run", "--scenario", str(scn), "--seed", "1", "--rounds", "2",
            "--episodes", "20", "--out", str(tmp_path / "run"), "--quiet"]
    assert main(argv) == 2
    message = "line 8: the difficulty of 't/p' plus its latent effects overflows"
    assert capsys.readouterr().err == f"error: {scn}: {message}\n"
    # a finite sum runs, and the infinite overload gives probability 0
    scn.write_text(OVERFLOW.replace("t/p = 1e308", "t/p = 1.0"), encoding="utf-8")
    run_and_replay(tmp_path, scn)


@pytest.mark.parametrize(
    "line, word, defined",
    [
        (3, 0, "examine"),  # a task
        (3, 1, "examine/search"),  # a phase
        (3, 3, None),  # the weight
        (13, 0, "ls-exam-scan"),  # a latent
        (26, 1, "worker-a"),  # an executor
        (26, 2, None),  # its boundary's first pair
        (9, 0, None),  # a difficulty's pair
        (29, 1, "pc-exam-scan"),  # a card
    ],
)
def test_defined_id_reads_the_definitions(line, word, defined):
    # the helper above decides which mutations may be refused at a later line
    at, section, body = next(e for e in entries(PRESETS["favorable"]) if e[0] == line - 1)
    assert defined_id(section, _SEPARATORS.split(body)[0::2], word) == defined
