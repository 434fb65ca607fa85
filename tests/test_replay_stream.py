"""`replay` compares each artifact piece by piece, as the re-execution
produces it; what it reports must be what a comparison of the whole stored
file with the whole expected file reports.

The reference below decodes the whole stored file, compares it with the
whole expected text, and on a difference reports the first differing line
(`str.splitlines`, 1-based) or else both line counts.  A run directory with
one damaged file is replayed, and its report must equal the reference's on
that file, whose expected text is the undamaged copy.
"""

from __future__ import annotations

import random
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skillmas.cli import main


def reference_report(rel: str, stored: bytes, expected: str) -> str:
    try:
        text = stored.decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"replay divergence in {rel}: not UTF-8 ({exc.reason} at byte {exc.start})\n"
    assert text != expected, "the damage left the file as it was"
    stored_lines, expected_lines = text.splitlines(), expected.splitlines()
    for number, (got, want) in enumerate(zip(stored_lines, expected_lines), start=1):
        if got != want:
            return (
                f"replay divergence in {rel} at line {number}:\n"
                f"  stored:   {got}\n"
                f"  expected: {want}\n"
            )
    return (
        f"replay divergence in {rel}: length mismatch "
        f"({len(stored_lines)} stored vs {len(expected_lines)} expected lines)\n"
    )


def _cut_at_line(data: bytes, rng: random.Random) -> bytes:
    lines = data.splitlines(keepends=True)
    return b"".join(lines[: rng.randrange(len(lines))])


def _drop_line(data: bytes, rng: random.Random) -> bytes:
    lines = data.splitlines(keepends=True)
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def _insert(piece: bytes):
    def damage(data: bytes, rng: random.Random) -> bytes:
        at = rng.randrange(len(data) + 1)
        return data[:at] + piece + data[at:]

    return damage


def _flip(data: bytes, rng: random.Random) -> bytes:
    out = bytearray(data)
    out[rng.randrange(len(out))] ^= 1 << rng.randrange(7)  # stays ASCII
    return bytes(out)


DAMAGE = {
    "cut": lambda data, rng: data[: rng.randrange(len(data))],
    "cut-at-line": _cut_at_line,
    "drop-line": _drop_line,
    "flip": _flip,
    "insert-newline": _insert(b"\n"),
    "insert-line": _insert(b"{}\n"),
    "insert-ff": _insert(b"\xff"),
    "append": lambda data, rng: data + b"{}\n",
    "crlf": lambda data, rng: data.replace(b"\n", b"\r\n"),
}
FILES = ("traces.jsonl", "snapshots/state_r002.txt", "trajectory.txt", "checkpoint.json")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    out = tmp_path_factory.mktemp("pristine") / "run"
    assert main(["run", "--scenario", "preset:mismatch", "--seed", "3", "--rounds", "3",
                 "--episodes", "40", "--out", str(out), "--quiet"]) == 0
    return out


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(FILES), st.sampled_from(sorted(DAMAGE)), st.randoms())
def test_report_equals_the_whole_file_comparison(
    pristine, tmp_path_factory, capsys, rel, damage, rng
):
    expected = (pristine / rel).read_bytes()
    stored = DAMAGE[damage](expected, rng)
    if stored == expected:
        return
    run_dir = tmp_path_factory.mktemp("ws") / "run"
    shutil.copytree(pristine, run_dir)
    (run_dir / rel).write_bytes(stored)
    capsys.readouterr()
    assert main(["replay", "--run", str(run_dir)]) == 1
    assert capsys.readouterr().out == reference_report(rel, stored, expected.decode("utf-8"))
