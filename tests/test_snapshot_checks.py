"""Snapshots are checked on both sides: every id written passes the token
check, and every snapshot `eval` or `transplant` loads is validated against
the scenario (and, in a run directory, the round its name gives) before it
runs."""

from __future__ import annotations

import shutil

import pytest

from skillmas.cli import main
from skillmas.model import BoundedTag, CauseLabel, PolicyCard, UtilityTable
from skillmas.store import StoreError, serialize_state

from conftest import make_skill, make_state


@pytest.fixture
def run_dir(tmp_path):
    out = tmp_path / "run"
    code = main(["run", "--scenario", "preset:tiny", "--seed", "42", "--rounds", "3",
                 "--out", str(out), "--quiet"])
    assert code == 0
    return out


def disown(snapshot) -> int:
    """Hand-edit worker-a's `owns=` to drop sk-fetch, whose owner stays
    worker-a; return the byte offset of worker-a's line."""
    text = snapshot.read_text(encoding="utf-8")
    assert "owns=sk-fetch" in text
    snapshot.write_text(text.replace("owns=sk-fetch", "owns=-"), encoding="utf-8")
    return len(text[: text.index("executor worker-a ")].encode("utf-8"))


def test_eval_rejects_an_invalid_snapshot(run_dir, capsys):
    # `owns=` is derived from the skills' owners, so the writer comparison
    # refuses the edited line at its offset
    snapshot = run_dir / "snapshots" / "state_r000.txt"
    offset = disown(snapshot)
    code = main(["eval", "--scenario", "preset:tiny", "--state", str(snapshot),
                 "--episodes", "5", "--seed", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert f"snapshot {snapshot}:" in captured.err
    assert "owns=-" in captured.err and "where the writer writes" in captured.err
    assert "owns=sk-fetch\\n'" in captured.err
    assert f"(byte offset {offset})" in captured.err
    assert "total:" not in captured.out


def test_transplant_rejects_an_invalid_seed_snapshot(run_dir, capsys):
    snapshot = run_dir / "snapshots" / "state_r000.txt"
    disown(snapshot)
    assert main(["transplant", "--run", str(run_dir), "--episodes", "5"]) == 2
    assert f"snapshot {snapshot}:" in capsys.readouterr().err
    assert not (run_dir / "transplant.json").exists()


def test_eval_names_the_snapshot_of_a_parse_error(run_dir, capsys):
    snapshot = run_dir / "snapshots" / "state_r001.txt"
    snapshot.write_text(snapshot.read_text(encoding="utf-8").replace("\nend\n", "\n"))
    code = main(["eval", "--scenario", "preset:tiny", "--state", str(snapshot),
                 "--episodes", "5", "--seed", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"snapshot {snapshot}:" in err and "truncated" in err


def eval_as_version(run_dir, capsys, version: str) -> None:
    """`eval` refuses round 1's snapshot relabelled as `version`, naming both."""
    snapshot = run_dir / "snapshots" / "state_r001.txt"
    text = snapshot.read_text(encoding="utf-8")
    assert text.startswith("skillmas-state v3\n")
    snapshot.write_text(text.replace("v3", version, 1), encoding="utf-8")
    code = main(["eval", "--scenario", "preset:tiny", "--state", str(snapshot),
                 "--episodes", "5", "--seed", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"snapshot {snapshot}: snapshot version mismatch: file {version}, supported v3" in err
    assert "(byte offset 0)" in err


def test_eval_names_the_format_of_a_v1_snapshot(run_dir, capsys):
    eval_as_version(run_dir, capsys, "v1")


def test_eval_names_the_format_of_a_v2_snapshot(run_dir, capsys):
    # v2 kept pruned skills and their utility entries
    eval_as_version(run_dir, capsys, "v2")


def test_eval_rejects_a_utility_entry_of_an_unknown_skill(run_dir, capsys):
    # written in the writer's order, so only the validation refuses it
    snapshot = run_dir / "snapshots" / "state_r001.txt"
    text = snapshot.read_text(encoding="utf-8")
    entry = "qskill sk-fetch fetch 0 1\n"
    assert entry in text
    snapshot.write_text(text.replace(entry, entry + "qskill sk-gone fetch 1 2\n"), encoding="utf-8")
    code = main(["eval", "--scenario", "preset:tiny", "--state", str(snapshot),
                 "--episodes", "5", "--seed", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"snapshot {snapshot}: utility (sk-gone,fetch) references unknown skill 'sk-gone'" in err


@pytest.mark.parametrize(
    "field",
    ["qskill key", "qskill task", "qexec key", "qexec task", "pool", "card task", "card template"],
)
def test_every_snapshot_id_is_token_checked(field):
    skill = make_skill("sk")
    q_skill = UtilityTable({("sk", "t1"): (1, 2)})
    q_exec = UtilityTable({("worker", "t1"): (1, 2)})
    pool = {}
    card = PolicyCard("pc", CauseLabel.UNKNOWN, "t1", BoundedTag.NONE, "lat")
    bad = "has space"
    if field == "qskill key":
        q_skill = UtilityTable({(bad, "t1"): (1, 2)})
    elif field == "qskill task":
        q_skill = UtilityTable({("sk", bad): (1, 2)})
    elif field == "qexec key":
        q_exec = UtilityTable({(bad, "t1"): (1, 2)})
    elif field == "qexec task":
        q_exec = UtilityTable({("worker", bad): (1, 2)})
    elif field == "pool":
        pool = {bad: (0, 0)}
    elif field == "card task":
        card = PolicyCard("pc", CauseLabel.UNKNOWN, bad, BoundedTag.NONE)
    else:
        card = PolicyCard("pc", CauseLabel.UNKNOWN, "t1", BoundedTag.NONE, bad)
    state = make_state([skill], q_skill=q_skill, q_exec=q_exec, pool=pool, cards=(card,))
    with pytest.raises(StoreError, match="'has space' is not snapshot-safe"):
        serialize_state(state)


@pytest.mark.parametrize("where", ["skill id", "step", "guard", "card template"])
def test_a_lone_dash_is_no_token(where):
    # "-" is how a snapshot writes an empty set: as an id it would read back
    # as no set member, or as a card with no template
    skill = make_skill("-" if where == "skill id" else "sk",
                       steps=("-",) if where == "step" else ("a",),
                       guards=("-",) if where == "guard" else ())
    template = "-" if where == "card template" else "lat"
    card = PolicyCard("pc", CauseLabel.UNKNOWN, "t1", BoundedTag.NONE, template)
    with pytest.raises(StoreError, match="'-' is not snapshot-safe"):
        serialize_state(make_state([skill], cards=(card,)))


def test_eval_rejects_a_negative_round(run_dir, capsys):
    snapshot = run_dir / "snapshots" / "state_r000.txt"
    text = snapshot.read_text(encoding="utf-8")
    snapshot.write_text(text.replace("\nround 0\n", "\nround -3\n"), encoding="utf-8")
    code = main(["eval", "--scenario", "preset:tiny", "--state", str(snapshot),
                 "--episodes", "5", "--seed", "1"])
    assert code == 2
    assert f"snapshot {snapshot}: round -3 is negative" in capsys.readouterr().err


@pytest.mark.parametrize("held, named", [(0, 2), (2, 0)],
                         ids=["seed over checkpoint", "checkpoint over seed"])
def test_transplant_checks_each_snapshot_round_against_its_name(run_dir, capsys, held, named):
    # preset:tiny seed 42 over 3 rounds checkpoints round 2
    snapshots = run_dir / "snapshots"
    target = snapshots / f"state_r00{named}.txt"
    shutil.copyfile(snapshots / f"state_r00{held}.txt", target)
    assert main(["transplant", "--run", str(run_dir), "--episodes", "5"]) == 2
    err = capsys.readouterr().err
    assert f"snapshot {target}: holds round {held}, not round {named}" in err
    assert not (run_dir / "transplant.json").exists()
