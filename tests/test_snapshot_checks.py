"""Snapshots are checked on both sides: every id written passes the token
check, and every snapshot `eval` or `transplant` loads is validated against
the scenario before it runs."""

from __future__ import annotations

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


def orphan_owner(snapshot) -> None:
    """sk-fetch keeps owner worker-a, but worker-a no longer owns it."""
    text = snapshot.read_text(encoding="utf-8")
    assert "owns=sk-fetch" in text
    snapshot.write_text(text.replace("owns=sk-fetch", "owns=-"), encoding="utf-8")


def test_eval_rejects_an_invalid_snapshot(run_dir, capsys):
    snapshot = run_dir / "snapshots" / "state_r000.txt"
    orphan_owner(snapshot)
    code = main(["eval", "--scenario", "preset:tiny", "--state", str(snapshot),
                 "--episodes", "5", "--seed", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert f"snapshot {snapshot}:" in captured.err
    assert "missing from owner's skill set" in captured.err
    assert "total:" not in captured.out


def test_transplant_rejects_an_invalid_seed_snapshot(run_dir, capsys):
    snapshot = run_dir / "snapshots" / "state_r000.txt"
    orphan_owner(snapshot)
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


@pytest.mark.parametrize(
    "field",
    ["qskill key", "qskill task", "qexec key", "qexec task", "pool", "card task", "card template"],
)
def test_every_snapshot_id_is_token_checked(field):
    skill = make_skill("sk")
    q_skill = UtilityTable({("sk", "t1"): (0.5, 1)})
    q_exec = UtilityTable({("worker", "t1"): (0.5, 1)})
    pool = {}
    card = PolicyCard("pc", CauseLabel.UNKNOWN, "t1", BoundedTag.NONE, "lat")
    bad = "has space"
    if field == "qskill key":
        q_skill = UtilityTable({(bad, "t1"): (0.5, 1)})
    elif field == "qskill task":
        q_skill = UtilityTable({("sk", bad): (0.5, 1)})
    elif field == "qexec key":
        q_exec = UtilityTable({(bad, "t1"): (0.5, 1)})
    elif field == "qexec task":
        q_exec = UtilityTable({("worker", bad): (0.5, 1)})
    elif field == "pool":
        pool = {bad: (0, 0)}
    elif field == "card task":
        card = PolicyCard("pc", CauseLabel.UNKNOWN, bad, BoundedTag.NONE)
    else:
        card = PolicyCard("pc", CauseLabel.UNKNOWN, "t1", BoundedTag.NONE, bad)
    state = make_state([skill], q_skill=q_skill, q_exec=q_exec, pool=pool, cards=(card,))
    with pytest.raises(StoreError, match="'has space' is not snapshot-safe"):
        serialize_state(state)
