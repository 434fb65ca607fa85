"""Every file the CLI reads, damaged: a usage error or a replay divergence.

Each input kind (a scenario file, `--config`, a snapshot, and the files of a
run directory) is truncated, has a byte flipped, gains a non-UTF-8 byte, is
emptied, replaced by a directory, or deleted, and then read by each command
that takes it.  `cli.main` runs in-process, so only a return code or
`SystemExit` may leave it.  Exit 2 must name the damaged file; exit 1 is
`replay` reporting a divergence, which must name the artifact it compared.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skillmas.cli import main
from skillmas.presets import PRESETS

# files that `replay` compares byte for byte; the rest are its inputs
CHECKED = ("checkpoint.json", "trajectory.json", "traces.jsonl", "snapshot")

COMMANDS = {
    "run": lambda ws, snap: [
        "run", "--scenario", f"{ws}/scenario.scn", "--config", f"{ws}/config.json",
        "--seed", "1", "--rounds", "1", "--out", f"{ws}/out", "--quiet",
    ],
    "eval": lambda ws, snap: [
        "eval", "--scenario", "preset:tiny", "--state", f"{ws}/run/{snap}",
        "--config", f"{ws}/config.json", "--episodes", "5", "--seed", "1",
    ],
    "report": lambda ws, snap: ["report", "--run", f"{ws}/run"],
    "transplant": lambda ws, snap: ["transplant", "--run", f"{ws}/run", "--episodes", "5"],
    "replay": lambda ws, snap: ["replay", "--run", f"{ws}/run"],
}

# input kind -> the commands that take it
READERS = {
    "scenario": ("run",),
    "config": ("run", "eval"),
    "snapshot": ("eval", "transplant", "replay"),
    "run.json": ("report", "transplant", "replay"),
    "checkpoint.json": ("report", "transplant", "replay"),
    "trajectory.json": ("report", "transplant", "replay"),
    "scenario.scn": ("report", "transplant", "replay"),
    "traces.jsonl": ("report", "transplant", "replay"),
}
CASES = [(kind, command) for kind, commands in READERS.items() for command in commands]


def truncate(path: Path, rng: random.Random) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: rng.randrange(len(data))])


def flip(path: Path, rng: random.Random) -> None:
    data = bytearray(path.read_bytes())
    data[rng.randrange(len(data))] ^= 1 << rng.randrange(7)  # stays ASCII
    path.write_bytes(bytes(data))


def non_utf8(path: Path, rng: random.Random) -> None:
    data = path.read_bytes()
    at = rng.randrange(len(data) + 1)
    path.write_bytes(data[:at] + b"\xff" + data[at:])


def empty(path: Path, rng: random.Random) -> None:
    path.write_bytes(b"")


def directory(path: Path, rng: random.Random) -> None:
    path.unlink()
    path.mkdir()


def delete(path: Path, rng: random.Random) -> None:
    path.unlink()


MUTATIONS = {f.__name__: f for f in (truncate, flip, non_utf8, empty, directory, delete)}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A tiny run directory beside a scenario file and a `--config` file;
    returns the directory and the checkpoint's snapshot name."""
    base = tmp_path_factory.mktemp("pristine")
    assert main(["run", "--scenario", "preset:tiny", "--seed", "42", "--rounds", "3",
                 "--out", str(base / "run"), "--quiet"]) == 0
    (base / "scenario.scn").write_text(PRESETS["tiny"], encoding="utf-8")
    (base / "config.json").write_text('{"top-k": 2, "mass-threshold": 3}\n', encoding="utf-8")
    snapshot = json.loads((base / "run" / "checkpoint.json").read_text())["snapshot"]
    return base, snapshot


def damaged_path(ws: Path, kind: str, snapshot: str) -> Path:
    if kind in ("scenario", "config"):
        return ws / {"scenario": "scenario.scn", "config": "config.json"}[kind]
    return ws / "run" / (snapshot if kind == "snapshot" else kind)


def check(ws: Path, kind: str, command: str, mutation, rng, snapshot, capsys) -> int:
    path = damaged_path(ws, kind, snapshot)
    mutation(path, rng)
    capsys.readouterr()
    try:
        code = main(COMMANDS[command](ws, snapshot))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    if code == 2:
        # the file by its path, or by its name in the run directory it belongs to
        assert str(path) in err or (str(path.parent) in err and path.name in err), err
    elif code == 1:
        assert command == "replay", out
        artifact = snapshot if kind == "snapshot" else kind
        if kind in CHECKED:
            assert out.startswith((f"replay divergence in {artifact}", f"replay divergence: {artifact}")), out
        else:
            assert out.startswith("replay divergence"), out
    else:
        assert code == 0, (code, out, err)
        # a damaged artifact can never replay clean
        assert not (command == "replay" and kind in CHECKED), out
    return code


@pytest.mark.parametrize("name", sorted(MUTATIONS))
@pytest.mark.parametrize("kind, command", CASES)
def test_damaged_input_is_refused_by_name(pristine, tmp_path, capsys, kind, command, name):
    base, snapshot = pristine
    ws = tmp_path / "ws"
    shutil.copytree(base, ws)
    rng = random.Random(f"{kind}/{command}/{name}")
    check(ws, kind, command, MUTATIONS[name], rng, snapshot, capsys)


# `check` empties capsys before each command, so sharing it is safe
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(CASES), st.sampled_from(["truncate", "flip", "non_utf8"]), st.randoms())
def test_damage_anywhere_is_refused_by_name(pristine, tmp_path_factory, capsys, case, name, rng):
    base, snapshot = pristine
    ws = tmp_path_factory.mktemp("ws") / "ws"
    shutil.copytree(base, ws)
    check(ws, *case, MUTATIONS[name], rng, snapshot, capsys)


def duplicate_record(at: int):
    """The mutation that writes snapshot line `at` twice."""
    def duplicate(path: Path, rng: random.Random) -> None:
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[: at + 1] + lines[at:]))
    return duplicate


@pytest.mark.parametrize("command", READERS["snapshot"])
def test_duplicated_snapshot_record_is_refused_by_name(pristine, tmp_path, capsys, command):
    base, snapshot = pristine
    ws = tmp_path / "ws"
    shutil.copytree(base, ws)
    path = damaged_path(ws, "snapshot", snapshot)
    intact = path.read_bytes()
    # every record between the header and the end marker
    for at in range(1, len(intact.splitlines()) - 1):
        path.write_bytes(intact)
        code = check(ws, "snapshot", command, duplicate_record(at), None, snapshot, capsys)
        assert code == (1 if command == "replay" else 2), at
