"""The routing, ranking and diagnosis rules against their plain statements.

`executor_route` picks its greedy executor in one pass, `rank_skills` reads
skill values through a bound method, `UtilityTable.value` reads the counts
directly, and `diagnose` hands out one shared `Diagnosis` per cause.  Each
is checked here against the rule it stands for, written out in full:

- the route's greedy executor is `min(eligible, key=lambda e: (-value(e),
  e))`, the highest value with the smallest id on ties, however the
  eligible ids are ordered;
- a ranking is `sorted(owned candidates, key=lambda s: (-value(s), s.id))`,
  its top k, then the first pooled skill not among them;
- a value is `get`'s first item, or the 0.5 prior when `get` is None;
- a diagnosis of cause c equals `Diagnosis(c, TAG_BY_CAUSE[c])`.

`tests/reference.py`'s `scan_route` applies the engine's own route rule, so
these tests are the independent check on it.  Counts are drawn so that
exact ties happen often: an unseen entry's 0.5 prior against a 1/2 entry,
and equal ratios of different counts.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from skillmas.model import (
    TAG_BY_CAUSE,
    CauseLabel,
    CauseObservation,
    ExecutorSlice,
    SkillStatus,
    TaskType,
    TraceShape,
    UtilityTable,
)
from skillmas.retention import Diagnosis, diagnose
from skillmas.utility import executor_route, rank_skills

from conftest import make_skill

TASK = TaskType("t1", ("p1",))
IDS = ["a", "b", "c", "m", "w-1", "w-10", "w-2", "z"]
# None is an unseen entry; (1, 2), (2, 4) and (3, 6) tie the 0.5 prior exactly
COUNTS = st.sampled_from([None, (1, 2), (2, 4), (3, 6), (0, 1), (1, 1), (2, 3), (4, 6), (1, 3)])


def old_value(table: UtilityTable, key: str, task_id: str) -> float:
    entry = table.get(key, task_id)
    return entry[0] if entry is not None else 0.5


@st.composite
def tables(draw, ids: list[str]) -> UtilityTable:
    counts = {}
    for key in ids:
        for task_id in ("t1", "t2"):
            entry = draw(COUNTS)
            if entry is not None:
                counts[key, task_id] = entry
    return UtilityTable(counts)


@st.composite
def routes(draw):
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=6, unique=True))
    eligible = draw(st.permutations(ids))
    return draw(tables(ids)), eligible


@settings(max_examples=300, deadline=None)
@given(routes())
def test_route_is_the_highest_value_smallest_id_on_ties(drawn):
    table, eligible = drawn
    route = executor_route(table, "t1", "p1", {("t1", "p1"): eligible})
    assert route.eligible == tuple(eligible)
    assert route.greedy == min(eligible, key=lambda e: (-old_value(table, e, "t1"), e))


def test_route_ties_the_prior_with_a_half_entry():
    table = UtilityTable({("b", "t1"): (1, 2), ("c", "t1"): (1, 3)})
    for eligible in (["a", "b", "c"], ["c", "b", "a"], ["b", "c", "a"]):
        assert executor_route(table, "t1", "p1", {("t1", "p1"): eligible}).greedy == "a"
    table = UtilityTable({("a", "t1"): (1, 3), ("b", "t1"): (2, 4)})
    assert executor_route(table, "t1", "p1", {("t1", "p1"): ["c", "b", "a"]}).greedy == "b"


@settings(max_examples=100, deadline=None)
@given(tables(IDS))
def test_value_is_gets_value_or_the_prior(table):
    for key in IDS:
        for task_id in ("t1", "t2"):
            assert table.value(key, task_id) == old_value(table, key, task_id)


@st.composite
def rankings(draw):
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=6, unique=True))
    skills = [
        make_skill(
            sid,
            owner=draw(st.sampled_from(["worker", "manager", "other"])),
            status=draw(st.sampled_from([SkillStatus.SEEDED, SkillStatus.POOLED])),
        )
        for sid in draw(st.permutations(ids))
    ]
    return draw(tables(ids)), skills, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(rankings())
def test_ranking_is_the_sorted_key_then_one_pooled_exposure(drawn):
    table, skills, k = drawn
    owners = {"worker", "manager"}
    ranked = sorted(
        (s for s in skills if s.owner in owners),
        key=lambda s: (-old_value(table, s.id, "t1"), s.id),
    )
    want = [s.id for s in ranked[:k]]
    want += [s.id for s in ranked[k:] if s.status is SkillStatus.POOLED][:1]
    assert rank_skills(table, skills, owners, "t1", k) == want


def failure(observation: CauseObservation | None) -> TraceShape:
    sl = ExecutorSlice("w", "p1", frozenset(), frozenset(), frozenset())
    return TraceShape(TASK, (sl,), 0, 0.0, observation)


def test_one_shared_diagnosis_per_cause():
    unknown = Diagnosis(CauseLabel.UNKNOWN, TAG_BY_CAUSE[CauseLabel.UNKNOWN])
    for cause in CauseLabel:
        confident = diagnose(failure(CauseObservation(cause, True)))
        assert confident == Diagnosis(cause, TAG_BY_CAUSE[cause])
        assert confident is diagnose(failure(CauseObservation(cause, True)))
        for observation in (CauseObservation(cause, False), None):
            assert diagnose(failure(observation)) == unknown
            assert diagnose(failure(observation)) is diagnose(failure(None))
