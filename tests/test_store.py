from __future__ import annotations

import dataclasses
import json
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from skillmas.cli import main
from skillmas.model import (
    Batch,
    BoundedTag,
    CauseLabel,
    Executor,
    PolicyCard,
    RoundState,
    SkillStatus,
    StateError,
    UtilityTable,
)
from skillmas.presets import PRESETS, load_preset
from skillmas.store import (
    ScenarioError,
    StoreError,
    deserialize_state,
    encode_trace_log,
    parse_scenario,
    serialize_state,
    trace_to_record,
)
from skillmas.world import Scenario, exec_round
from skillmas.config import EngineConfig
from skillmas.orchestrator import run_experiment

from conftest import make_skill, make_state, random_scenario


class TestSnapshots:
    def test_empty_seed_state_round_trips(self):
        state = make_state([])
        assert deserialize_state(serialize_state(state)) == state

    def test_rich_state_round_trips(self):
        skills = [
            make_skill(
                f"sk{i:02d}",
                pairs=(("t1", "p1"), ("t1", "p2"))[: 1 + i % 2],
                steps=tuple(f"a{j}" for j in range(1 + i % 3)),
                guards=(f"g{i}",) if i % 2 else (),
                checks=(f"c{i}",) if i % 3 else (),
                status=[SkillStatus.SEEDED, SkillStatus.VALIDATED, SkillStatus.POOLED][i % 3],
                owner=["worker", "manager"][i % 2],
            )
            for i in range(13)
        ]
        universe = frozenset({("t1", "p1"), ("t1", "p2")})
        executors = {
            "manager": Executor("manager", universe, capacity=9, is_manager=True),
            "worker": Executor("worker", universe),
            "extra-a": Executor("extra-a", frozenset({("t1", "p1")})),
            "extra-b": Executor("extra-b", frozenset({("t1", "p2")})),
        }
        # utility entries are (successes, attempts) counts
        q_skill = UtilityTable({("sk00", "t1"): (2, 3), ("sk01", "t1"): (1, 4)})
        q_exec = UtilityTable({("worker", "t1"): (4, 7)})
        state = RoundState(
            round_index=5,
            library={s.id: s for s in skills},
            executors=executors,
            q_skill=q_skill,
            q_exec=q_exec,
            pool={s.id: (2, 1) for s in skills if s.status is SkillStatus.POOLED},
            policy_index=(
                PolicyCard("pc1", CauseLabel.SKILL_CONFLICT, "t1",
                           BoundedTag.SPLIT_SKILL, "lat1"),
                PolicyCard("pc2", CauseLabel.UNKNOWN, "t1", BoundedTag.NONE),
            ),
        )
        text = serialize_state(state)
        assert "\nqexec worker t1 4 7\n" in text
        restored = deserialize_state(text)
        assert restored == state
        assert serialize_state(restored) == text

    def test_records_sorted(self):
        state = make_state([make_skill("zz"), make_skill("aa")])
        text = serialize_state(state)
        lines = [l for l in text.splitlines() if l.startswith("skill ")]
        assert lines == sorted(lines)

    def test_version_mismatch_refused(self):
        state = make_state([])
        text = serialize_state(state).replace("v3", "v4", 1)
        with pytest.raises(StoreError, match="version mismatch.*v4.*v3") as err:
            deserialize_state(text)
        assert err.value.offset == 0

    def test_a_v1_snapshot_is_refused_as_v1(self):
        # a snapshot as format v1 wrote it, with utility values as floats
        text = (
            "skillmas-state v1\nround 1\n"
            "executor manager manager=1 capacity=4 boundary=t1/p1 owns=-\n"
            "qexec manager t1 0.265306122449 49\nend\n"
        )
        with pytest.raises(StoreError, match=r"file v1, supported v3 \(byte offset 0\)") as err:
            deserialize_state(text)
        assert err.value.offset == 0

    def test_a_v2_snapshot_is_refused_as_v2(self):
        # a snapshot as format v2 wrote it, keeping a pruned skill and its utility
        text = (
            "skillmas-state v2\nround 3\n"
            "skill old owner=worker status=pruned applies=t1/p1 steps=go guards=- checks=-\n"
            "executor manager manager=1 capacity=4 boundary=t1/p1 owns=-\n"
            "executor worker manager=0 capacity=4 boundary=t1/p1 owns=-\n"
            "qskill old t1 0 5\nend\n"
        )
        with pytest.raises(StoreError, match=r"file v2, supported v3 \(byte offset 0\)") as err:
            deserialize_state(text)
        assert err.value.offset == 0

    def test_truncated_stream_rejected_atomically(self):
        state = make_state([make_skill("sk")])
        text = serialize_state(state)
        truncated = "\n".join(text.splitlines()[:-1])
        with pytest.raises(StoreError, match="truncated"):
            deserialize_state(truncated)

    def test_malformed_record_reports_byte_offset(self):
        state = make_state([])
        lines = serialize_state(state).splitlines()
        lines.insert(2, "qskill broken")
        with pytest.raises(StoreError, match="byte offset") as err:
            deserialize_state("\n".join(lines) + "\n")
        assert err.value.offset is not None

    def test_evolved_states_round_trip(self):
        # states that went through real rounds (created/refined/pruned skills,
        # added executors, populated tables) survive the snapshot round trip
        from skillmas.orchestrator import run_experiment
        from skillmas.presets import load_preset

        for preset, seed in (("mismatch", 2), ("favorable", 5), ("tiny", 1)):
            pack = load_preset(preset)
            result = run_experiment(pack.scenario, pack.seed_state, seed, 4,
                                    pack.config)
            for state in result.states:
                text = serialize_state(state)
                assert deserialize_state(text) == state
                assert serialize_state(deserialize_state(text)) == text


def _repeat(kind):
    def damage(lines):
        at = next(i for i, line in enumerate(lines) if line.split()[0] == kind)
        return lines[: at + 1] + lines[at:], at + 1
    return damage


def _append(kind, text):
    def damage(lines):
        at = next(i for i, line in enumerate(lines) if line.split()[0] == kind)
        return lines[:at] + [lines[at] + text] + lines[at + 1 :], at
    return damage


def _field(kind, index, text):
    """Set field `index` of the first record of `kind` to `text`."""
    def damage(lines):
        at = next(i for i, line in enumerate(lines) if line.split()[0] == kind)
        fields = lines[at].split(" ")
        fields[index] = text
        return lines[:at] + [" ".join(fields)] + lines[at + 1 :], at
    return damage


def _swap_first(kind):
    def damage(lines):
        at = next(i for i, line in enumerate(lines) if line.split()[0] == kind)
        assert lines[at + 1].split()[0] == kind
        return lines[:at] + [lines[at + 1], lines[at]] + lines[at + 2 :], at
    return damage


# damage the writer never writes: (damaged lines, index of the refused line,
# and optionally the text's last line end in place of "\n")
SNAPSHOT_DAMAGE = {
    "second round": lambda lines: (lines[:2] + ["round 9"] + lines[2:], 2),
    "round with two numbers": lambda lines: (lines[:1] + [lines[1] + " 7"] + lines[2:], 1),
    **{f"repeated {kind}": _repeat(kind)
       for kind in ("skill", "executor", "qskill", "qexec", "pool", "card")},
    "unknown skill key": _append("skill", " color=red"),
    "unknown executor key": _append("executor", " color=red"),
    "skill key given twice": _append("skill", " status=validated"),
    "executor key given twice": _append("executor", " manager=0"),
    "manager=2": _field("executor", 2, "manager=2"),
    "capacity=010": _field("executor", 3, "capacity=010"),
    "round 01": _field("round", 1, "01"),
    "guards=a,-": _field("skill", 6, "guards=a,-"),
    "utility 0.50": _field("qskill", 3, "0.50"),
    "attempts 07": _field("qexec", 4, "07"),
    "blank line": lambda lines: (lines[:2] + [""] + lines[2:], 2),
    "CRLF line ends": lambda lines: ([line + "\r" for line in lines], 0),
    "no final newline": lambda lines: (lines, len(lines) - 1, ""),
    "skill records swapped": _swap_first("skill"),
    "unsafe token": _field("skill", 1, "a!"),
    "pair a/b/c": _field("executor", 4, "boundary=a/b/c"),
}


@pytest.mark.parametrize("successes, attempts", [(99, 5), (-1, 5), (0, 0), (0, -2)])
def test_count_errors_follow_the_table_rule(evolved_snapshot, successes, attempts):
    # the reader refuses a count at its line by the rule `UtilityTable.check` applies
    at = next(i for i, line in enumerate(evolved_snapshot) if line.startswith("qexec "))
    kind, key, task_id, _, _ = evolved_snapshot[at].split()
    lines = list(evolved_snapshot)
    lines[at] = f"{kind} {key} {task_id} {successes} {attempts}"
    with pytest.raises(StateError) as rule:
        UtilityTable({(key, task_id): (successes, attempts)}).check()
    with pytest.raises(StoreError) as err:
        deserialize_state("\n".join(lines) + "\n")
    assert str(rule.value) in str(err.value)
    assert err.value.offset == sum(len(line) + 1 for line in lines[:at])


@pytest.fixture(scope="module")
def evolved_snapshot():
    """favorable seed 2 after one round: a snapshot holding every record kind."""
    pack = load_preset("favorable")
    state = run_experiment(pack.scenario, pack.seed_state, 2, 1, pack.config).states[1]
    return serialize_state(state).splitlines()


@pytest.mark.parametrize("damage", sorted(SNAPSHOT_DAMAGE))
def test_snapshot_reader_refuses_what_the_writer_never_writes(evolved_snapshot, damage):
    lines, at, *last_end = SNAPSHOT_DAMAGE[damage](evolved_snapshot)
    with pytest.raises(StoreError) as err:
        deserialize_state("\n".join(lines) + (last_end[0] if last_end else "\n"))
    assert err.value.offset == sum(len(line) + 1 for line in lines[:at])


# low thresholds, so that chained rounds create, prune and move skills
CHAIN = EngineConfig(episodes_per_round=30, mass_threshold=1, min_count=1, promote_min_uses=1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_owns_lists_the_skills_that_name_the_executor(world_seed):
    scenario, seed_state = random_scenario(random.Random(world_seed))
    for state in run_experiment(scenario, seed_state, world_seed, 4, CHAIN).states:
        text = serialize_state(state)
        for line in text.splitlines():
            if line.startswith("executor "):
                eid, owns = line.split()[1], line.rpartition(" owns=")[2]
                owned = sorted(sid for sid, skill in state.library.items() if skill.owner == eid)
                assert owns == (",".join(owned) or "-")
        assert serialize_state(deserialize_state(text)) == text


class TestTraceLog:
    """The log is write-only: per round, one `trace_to_record` line per
    shape-table entry, then the index in generation order."""

    def test_write_read_seventy(self):
        scenario, state = random_scenario(random.Random(11))
        batch = exec_round(dataclasses.replace(state, round_index=3), scenario, 70, 4,
                           EngineConfig())
        *table, index = [json.loads(line) for line in encode_trace_log(batch).splitlines()]
        assert table == [
            {**trace_to_record(shape), "round": 3, "shape": k}
            for k, shape in enumerate(batch.shapes)
        ]
        assert index == {"index": list(batch.index), "round": 3}
        assert len(table) < len(index["index"]) == 70

    def test_empty_file_empty_set(self):
        assert encode_trace_log(Batch(0, (), array("L"))) == '{"index":[],"round":0}\n'

    def test_append_only_monotonic(self):
        # a batch's lines are the same whichever batch was encoded before
        scenario, state = random_scenario(random.Random(2))
        first = exec_round(state, scenario, 5, 4, EngineConfig())
        later = exec_round(dataclasses.replace(state, round_index=1), scenario, 5, 5, EngineConfig())
        alone = encode_trace_log(later)
        assert encode_trace_log(first) + encode_trace_log(later) == encode_trace_log(first) + alone
        assert encode_trace_log(later) + encode_trace_log(first) == alone + encode_trace_log(first)


class TestScenarioFiles:
    def test_presets_parse_and_validate(self):
        for name in PRESETS:
            pack = load_preset(name)
            assert pack.scenario.name == name
            assert pack.seed_state.round_index == 0

    def test_missing_file(self, tmp_path, capsys):
        # scenario files are read by the CLI, `parse_scenario` takes text
        path = tmp_path / "nope.scn"
        code = main(["run", "--scenario", str(path), "--seed", "1", "--rounds", "1",
                     "--out", str(tmp_path / "run"), "--quiet"])
        assert code == 2
        assert f"{path}: file does not exist" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_omitted_values_take_the_dataclass_defaults(self):
        text = (
            "[tasks]\nt1 = p1 | 1.0\n[penalties]\noverload = 0.3\n"
            "[seed-state]\nexecutor m = * manager\nexecutor w = t1/p1 capacity=2\n"
        )
        pack = parse_scenario(text)
        default = {f.name: f.default for f in dataclasses.fields(Scenario)}
        assert pack.scenario.overload_weight == 0.3
        for name in ("interference_weight", "routing_noise", "cause_confidence"):
            assert getattr(pack.scenario, name) == default[name]
        executors = pack.seed_state.executors
        assert executors["m"].capacity == Executor("x", frozenset({("t1", "p1")})).capacity
        assert executors["m"].is_manager and not executors["w"].is_manager
        assert executors["w"].capacity == 2

    def test_error_carries_line_number(self):
        text = "[tasks]\nt1 = p1 | 1.0\n[difficulty]\nt1/p9 = 0.0\n"
        with pytest.raises(ScenarioError, match="line 4") as err:
            parse_scenario(text)
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "body, line, detail",
        [
            ("[tasks]\nt|1 = p1 | 1.0\n", 2, "id 't|1'"),
            ("[tasks]\nt1 = p1 p1 | 1.0\n", 2, "repeats a phase"),
            ("[tasks]\nt1 = p1 | 1.0\n[latent]\nl! = t1/p1 2.0 unknown\n", 4, "id 'l!'"),
            ("[tasks]\nt1 = p1 | 1.0\n[latent]\nl = t1/p1 -2.0 unknown\n", 4, "positive effect"),
            ("[tasks]\nt1 = p1 | 1.0\n[seed-state]\nexecutor m = * capacity=4x manager\n", 4,
             "invalid literal"),
            ("[tasks]\nt1 = p1 | 1.0\n[seed-state]\nexecutor m = * capacity=0 manager\n", 4,
             "capacity < 1"),
            # restructuring mints `exec-{task}-r{R}` in round R
            ("[tasks]\nt1 = p1 | 1.0\n[seed-state]\nexecutor m = * manager\n"
             "executor exec-t1-r2 = t1/p1 capacity=2\n", 5,
             "seed executor id 'exec-t1-r2' ends in -r<digits>"),
            ("[tasks]\nt1 = p1 | 1.0\n[seed-state]\nexecutor m = * manager\n"
             "skill s = owner=m applies=t1/p1 steps=a,b\xe9\n", 5, "id 'b\xe9'"),
            ("[tasks]\nt1 = p1 | 1.0\n[penalties]\nrouting-noise = 1.5\n", 4,
             "routing noise must be in [0, 1]"),
            # a lone "-" is how snapshots write an empty set
            ("[tasks]\nt1 = p1 | 1.0\n[seed-state]\nexecutor m = * manager\n"
             "skill - = owner=m applies=t1/p1 steps=go\n", 5, "id '-'"),
            ("[tasks]\nt1 = p1 | 1.0\n[seed-state]\nexecutor m = * manager\n"
             "skill s = owner=m applies=t1/p1 steps=go,-\n", 5, "id '-'"),
            ("[tasks]\nt1 = p1 | 1.0\n[seed-state]\nexecutor m = * manager\n"
             "card pc = t1 unknown none -\n", 5, "id '-'"),
            # a number read from the file must be finite
            ("[tasks]\nt1 = p1 | nan\n", 2, "weight 'nan' is not a finite number"),
            ("[tasks]\nt1 = p1 | 1.0\n[difficulty]\nt1/p1 = -inf\n", 4,
             "difficulty '-inf' is not a finite number"),
            ("[tasks]\nt1 = p1 | 1.0\n[latent]\nl = t1/p1 inf unknown\n", 4,
             "effect 'inf' is not a finite number"),
            ("[tasks]\nt1 = p1 | 1.0\n[penalties]\noverload = NaN\n", 4,
             "penalty value 'NaN' is not a finite number"),
            ("[tasks]\nt1 = p1 | 1.0\n[seed-state]\nexecutor m = * manager\n"
             "[thresholds]\nnear-miss-progress = 1e999\n", 6,
             "near_miss_progress expects a finite number, not inf"),
            # each weight is finite, but every draw would pick the last task: the
            # running total is refused at the task line where it overflows
            ("[tasks]\nt1 = p1 | 1e308\nt2 = p1 | 1e308\nt3 = p1 | 1.0\n", 3,
             "sum to a finite total"),
            # each number is finite, but the pair's logit overflows, and an
            # infinite penalty would take it to NaN: refused at the latent line
            ("[tasks]\nt = p | 1.0\n[difficulty]\nt/p = 1e308\n[latent]\n"
             "l = t/p 1e308 missing-precondition\n", 6,
             "the difficulty of 't/p' plus its latent effects overflows"),
            ("[tasks]\nt = p | 1.0\n[latent]\nl1 = t/p 1e308 missing-precondition\n"
             "l2 = t/p 1e308 wrong-action-order\n", 5,
             "the difficulty of 't/p' plus its latent effects overflows"),
            # an option given twice on one line, where the last would win
            ("[tasks]\nt1 = p1 | 1.0\n[seed-state]\n"
             "executor m = * manager capacity=3 capacity=9\n", 4,
             "repeated executor option 'capacity'"),
            ("[tasks]\nt1 = p1 | 1.0\n[seed-state]\nexecutor m = * manager manager\n", 4,
             "repeated executor option 'manager'"),
            ("[tasks]\nt = a | 1.0\n[seed-state]\nexecutor m = * manager\nexecutor w = t/a\n"
             "skill s1 = owner=w applies=t/a steps=x owner=m steps=y\n", 6,
             "repeated skill option 'owner'"),
            # a motif of latent L is minted `L-r{R}`, a split of skill S
            # `S-a-r{R}` and `S-b-r{R}`: equal when L is S-a or S-b
            ("[tasks]\nt1 = p1 | 1.0\n[latent]\nl = t1/p1 1.0 unknown\n"
             "sk-a = t1/p1 2.0 unknown\n", 5, "latent id 'sk-a' ends in -a or -b"),
            ("[tasks]\nt1 = p1 | 1.0\n[latent]\nsk-b = t1/p1 2.0 unknown\n", 4,
             "latent id 'sk-b' ends in -a or -b"),
            # owners are checked once every executor is read, at the skill's own line
            ("[tasks]\nt = a | 1.0\n[seed-state]\nexecutor m = * manager\n"
             "skill s0 = owner=w applies=t/a steps=x\nskill s1 = owner=ghost applies=t/a steps=x\n"
             "executor w = t/a\n", 6, "skill 's1' owned by unknown executor 'ghost'"),
            # a manager is checked at its own line, not at the seed state's
            ("[tasks]\nt = a b | 1.0\n[seed-state]\nexecutor w = t/a,t/b\n"
             "executor m = t/a manager\n", 5, "manager boundary misses pairs [('t', 'b')]"),
            ("[tasks]\nt = a | 1.0\n[seed-state]\nexecutor m = * manager\nexecutor w = t/a\n"
             "executor n = * manager\n", 6, "second manager 'n': 'm' is one"),
            # a ranged scenario value is refused at its own line
            ("[tasks]\nt1 = p1 | 1.0\nt2 = p1 | 0\n", 3,
             "task 't2' needs a positive sampling weight"),
            ("[tasks]\nt1 = p1 | 1.0\n[penalties]\noverload = 0.5\ninterference = -1\n", 5,
             "penalty weights must be non-negative and finite"),
            ("[tasks]\nt1 = p1 | 1.0\n[penalties]\ncause-confidence = 0\n", 4,
             "cause observation confidence must be in (0, 1]"),
            # so is a seed skill for a pair outside the task space
            ("[tasks]\nt = a | 1.0\n[seed-state]\nexecutor m = * manager\n"
             "skill s = owner=m applies=t/a,zz/q steps=x\n", 5,
             "pairs [('zz', 'q')] not in the task space"),
            # and a policy card naming a task or template the world lacks
            ("[tasks]\nt = a | 1.0\n[latent]\nl = t/a 1.0 missing-precondition\n"
             "[seed-state]\nexecutor m = * manager\n"
             "card c = zz missing-precondition add-guard l\n", 7,
             "card task 'zz' is not a task type"),
            ("[tasks]\nt = a | 1.0\n[latent]\nl = t/a 1.0 missing-precondition\n"
             "[seed-state]\nexecutor m = * manager\n"
             "card c = t missing-precondition add-guard ghost\n", 7,
             "card template 'ghost' names no latent procedure"),
            # a seed state without a manager at its header, as a world without tasks
            ("[tasks]\nt = a | 1.0\n[seed-state]\nexecutor w = t/a\n", 3,
             "seed state defines no manager"),
            ("[tasks]\nt = a | 1.0\n", 1, "seed state defines no manager"),
        ],
        ids=["task-id", "phase-repeated", "latent-id", "latent-effect", "capacity-literal",
             "capacity-zero", "executor-minted", "skill-step", "routing-noise", "skill-id-dash",
             "step-dash", "card-template-dash", "weight-nan", "difficulty-inf", "effect-inf",
             "penalty-nan", "threshold-overflow", "weights-total", "logit-difficulty",
             "logit-effects", "executor-option-repeated",
             "manager-repeated", "skill-option-repeated", "latent-split-a", "latent-split-b",
             "skill-owner-unknown", "manager-boundary", "manager-second", "weight-zero",
             "interference-negative", "confidence-zero", "skill-applies-unknown", "card-task",
             "card-template", "manager-none", "seed-state-absent"],
    )
    def test_bad_entry_names_its_line(self, body, line, detail):
        # every id ends up in snapshots, and every object's own checks run at parse
        with pytest.raises(ScenarioError) as err:
            parse_scenario(body)
        assert err.value.line == line
        assert detail in str(err.value)

    def test_a_skill_may_name_an_executor_declared_after_it(self):
        pack = parse_scenario(
            "[tasks]\nt = a | 1.0\n[seed-state]\nexecutor m = * manager\n"
            "skill s = owner=w applies=t/a steps=x\nexecutor w = t/a\n"
        )
        assert pack.seed_state.library["s"].owner == "w"
        assert "owns=s\n" in serialize_state(pack.seed_state)

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_scenario("[wat]\n")

    def test_bad_weight_rejected(self):
        with pytest.raises(ScenarioError, match="bad weight"):
            parse_scenario("[tasks]\nt1 = p1 | lots\n")

    def test_seed_state_requires_manager(self):
        text = (
            "[tasks]\nt1 = p1 | 1.0\n"
            "[seed-state]\nexecutor w = t1/p1 capacity=2\n"
        )
        with pytest.raises(ScenarioError, match="manager"):
            parse_scenario(text)

    def test_thresholds_flow_into_config(self):
        text = (
            "[tasks]\nt1 = p1 | 1.0\n"
            "[seed-state]\nexecutor m = * manager\n"
            "[thresholds]\nepisodes-per-round = 7\ntop-k = 2\n"
        )
        pack = parse_scenario(text)
        assert pack.config.episodes_per_round == 7
        assert pack.config.top_k == 2

    def test_unknown_threshold_rejected(self):
        text = (
            "[tasks]\nt1 = p1 | 1.0\n"
            "[seed-state]\nexecutor m = * manager\n"
            "[thresholds]\nwibble = 3\n"
        )
        with pytest.raises(ScenarioError, match="unknown threshold"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "section, first, repeat, message",
        [
            ("tasks", "t1 = p1 | 1.0", "t1 = p1 p2 | 2.0", "duplicate task 't1'"),
            ("difficulty", "t1/p1 = -1.0", "t1/p1 = 2.0", "duplicate difficulty for 't1/p1'"),
            (
                "latent",
                "ls = t1/p1 2.0 missing-precondition",
                "ls = t1/p1 1.0 skill-conflict",
                "duplicate latent 'ls'",
            ),
            ("penalties", "overload = 0.5", "overload = 0.1", "duplicate penalty 'overload'"),
            ("seed-state", "executor w = t1/p1", "executor w = t1/p1", "duplicate executor 'w'"),
            (
                "seed-state",
                "skill s = owner=m applies=t1/p1 steps=go",
                "skill s = owner=m applies=t1/p1 steps=look",
                "duplicate skill 's'",
            ),
            (
                "seed-state",
                "card c = t1 skill-conflict split-skill",
                "card c = t1 skill-conflict add-guard",
                "duplicate card 'c'",
            ),
            ("thresholds", "top-k = 3", "top-k = 1", "duplicate threshold 'top-k'"),
            ("thresholds", "top-k = 3", "top_k = 3", "duplicate threshold 'top_k'"),
        ],
    )
    def test_repeated_entry_rejected_at_its_line(self, section, first, repeat, message):
        body = {
            "tasks": ["t1 = p1 | 1.0"],
            "difficulty": [],
            "latent": [],
            "penalties": [],
            "seed-state": ["executor m = * manager"],
            "thresholds": [],
        }
        if section == "tasks":
            body["tasks"] = []
        body[section] += [first, repeat]
        lines = [line for name, entries in body.items() for line in (f"[{name}]", *entries)]
        text = "\n".join(lines) + "\n"
        with pytest.raises(ScenarioError, match=message) as err:
            parse_scenario(text)
        assert err.value.line == lines.index(repeat, lines.index(first) + 1) + 1
        parse_scenario(text.replace(repeat + "\n", ""))  # the first entry alone is fine

    @pytest.mark.parametrize("skill_id", ["ls-t0-r3", "sk-a-r12", "x-r0"])
    def test_seed_skill_id_in_the_engine_form_rejected(self, skill_id):
        # the engine mints `{latent}-r{R}` and `{rep}-{a|b}-r{R}` in round R;
        # a pruned skill's id is not kept, so a seed skill must not take one
        text = (
            "[tasks]\nt1 = p1 | 1.0\n[seed-state]\nexecutor m = * manager\n"
            f"skill {skill_id} = owner=m applies=t1/p1 steps=go\n"
        )
        message = f"seed skill id '{skill_id}' ends in -r<digits>"
        with pytest.raises(ScenarioError, match=message) as err:
            parse_scenario(text)
        assert err.value.line == 5
        pack = parse_scenario(text.replace(f"skill {skill_id} =", "skill ls-t0-r3x ="))
        assert "ls-t0-r3x" in pack.seed_state.library

    def test_seed_skills_and_cards_materialize(self):
        pack = load_preset("favorable")
        state = pack.seed_state
        assert state.library["sk-probe"].owner == "worker-a"
        assert state.policy_index[0].template_skill == "ls-exam-scan"
        assert state.executors["manager"].boundary == pack.scenario.universe()
