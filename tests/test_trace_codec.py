"""The trace-log writer against the per-episode record schema.

`encode_trace_log` writes a batch as its shape table and its index.  That
may not lose a bit: re-expanded (`reference.expand_log`), the log must be
the per-episode log `reference.reference_log` writes, one record per
episode, whatever the sharing, escapes or scalar types of the shapes.  The
log is write-only; `replay` reports a line that differs by file and line.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from skillmas.cli import main
from skillmas.model import (
    CauseLabel,
    CauseObservation,
    ExecutorSlice,
    TaskType,
    TraceShape,
)
from skillmas.store import _ENCODER, encode_trace_log

from conftest import batch_of
from reference import episodes_of, expand_log, reference_log

# ids that need JSON escapes or are not ASCII, next to plain ones
ID_TEXT = st.one_of(
    st.sampled_from(["a", "b", "sk-1", 'q"t', "back\\slash", "tab\tnl\n", "é", "日本", " "]),
    st.text(min_size=1, max_size=6),
)
# scalars that compare equal but encode differently
CONFIDENT_VALUES = [True, False, 1, 0, 1.0, 0.0, -0.0]
CONFIDENT = st.sampled_from(CONFIDENT_VALUES)
FAILED_PROGRESS = st.sampled_from([0.0, -0.0, 0, False, 0.5, 0.333333333333, 1.0, 1, True])
SUCCESS = st.sampled_from([(1, 1.0), (1, 1), (True, 1.0), (1, True), (True, True)])
FAILURE = st.sampled_from([0, False])
# mostly two labels, so causes that differ only in `confident` meet often
LABEL = st.sampled_from([CauseLabel.UNKNOWN, CauseLabel.SKILL_CONFLICT]) | st.sampled_from(
    list(CauseLabel)
)


def record_lines(batch) -> str:
    """Each episode's per-episode log line, in generation order."""
    return reference_log(episodes_of(batch))


@st.composite
def skill_ids(draw, string_ids: bool) -> list:
    if string_ids or draw(st.booleans()):
        return draw(st.lists(ID_TEXT, min_size=2, max_size=4, unique=True))
    # frozenset({1}) == frozenset({True}), yet they encode as [1] and [true]
    return draw(st.lists(st.sampled_from([0, 1, True, False, 1.0]), min_size=2, max_size=2, unique=True))


def retyped(value):
    """An equal value of another type where JSON tells them apart."""
    if isinstance(value, bool) or isinstance(value, float):
        return int(value)
    if isinstance(value, int) and value in (0, 1):
        return bool(value)
    return value


@st.composite
def slice_pool(draw, phase: str, string_ids: bool) -> list[ExecutorSlice]:
    """A slice of one phase plus one variant per field that differs from it
    in that field only, so a memo key that misses a field joins two of them,
    and one that is equal to it but encodes differently (or identically, for
    string ids) through the types of its skill ids."""
    ids = draw(skill_ids(string_ids))
    first = frozenset(ids[:1])
    subsets = st.sampled_from([frozenset(), first])
    base = ExecutorSlice(
        draw(st.sampled_from(["w", 'q"x']) | ID_TEXT), phase, frozenset(ids[:-1]),
        draw(subsets), draw(subsets),
    )
    return [
        base,
        dataclasses.replace(base, executor=base.executor + "2"),
        dataclasses.replace(base, selected=frozenset(ids)),
        dataclasses.replace(base, invoked=first - base.invoked),
        dataclasses.replace(base, pattern_supported=first - base.pattern_supported),
        ExecutorSlice(
            base.executor, phase,
            *(frozenset(map(retyped, values))
              for values in (base.selected, base.invoked, base.pattern_supported)),
        ),
    ]


@st.composite
def trace_batches(draw, string_ids: bool = True):
    """A batch of shapes drawn from a small pool of shared tasks and slices,
    some of them replaced by equal but distinct copies, and some episodes
    sharing an earlier episode's shape; its round index may be wider than
    four digits."""
    tasks = []
    for _ in range(draw(st.integers(1, 3))):
        phases = draw(st.lists(ID_TEXT, min_size=1, max_size=3, unique=True))
        tasks.append(TaskType(draw(ID_TEXT), tuple(phases)))
    pools = {
        (task, phase): draw(slice_pool(phase, string_ids))
        for task in tasks
        for phase in task.phases
    }
    shapes = []
    for _ in range(draw(st.integers(0, 25))):
        if shapes and draw(st.booleans()):
            shapes.append(draw(st.sampled_from(shapes)))
            continue
        task = draw(st.sampled_from(tasks))
        if draw(st.booleans()):
            task = dataclasses.replace(task)  # equal, not shared
        attempted = draw(st.integers(1, len(task.phases)))  # every trace routes a phase
        slices = []
        for phase in task.phases[:attempted]:
            sl = draw(st.sampled_from(pools[(task, phase)]))
            slices.append(dataclasses.replace(sl) if draw(st.booleans()) else sl)
        if attempted == len(task.phases) and draw(st.booleans()):
            outcome, progress = draw(SUCCESS)
            cause = None
        else:
            outcome, progress = draw(FAILURE), draw(FAILED_PROGRESS)
            cause = draw(st.none() | st.builds(CauseObservation, LABEL, CONFIDENT))
        shapes.append(TraceShape(task, tuple(slices), outcome, progress, cause))
    return batch_of(shapes, round_index=draw(st.integers(0, 12_000)))


@settings(max_examples=120, deadline=None)
@given(trace_batches(string_ids=False))
def test_writer_lines_equal_the_record_schema(batch):
    text = encode_trace_log(batch)
    assert len(text.splitlines()) == len(batch.shapes) + 1
    assert expand_log(text) == record_lines(batch)


def test_equal_scalars_of_other_types_encode_apart_in_one_batch():
    # every outcome, progress and cause next to its equal twins, all sharing
    # one task and one slices tuple, each in its own shape, which the batch
    # then repeats
    task = TaskType("t", ("p",))
    slices = (ExecutorSlice("w", "p", frozenset({"s"}), frozenset({"s"}), frozenset()),)
    heads = [(outcome, progress, None) for outcome, progress in
             [(1, 1.0), (1, 1), (True, 1.0), (1, True), (True, True)]]
    causes = [None] + [CauseObservation(CauseLabel.UNKNOWN, c) for c in CONFIDENT_VALUES]
    heads += [(outcome, progress, cause) for outcome in (0, False)
              for progress in (0.0, -0.0, 0, False, 0.5) for cause in causes]
    shapes = [TraceShape(task, slices, *head) for head in heads]
    batch = batch_of(shapes * 2)
    assert len(batch.shapes) == len(shapes)
    assert expand_log(encode_trace_log(batch)) == record_lines(batch)


@pytest.mark.parametrize("round_index", [0, 7, 9999, 10_000, 123_456])
@pytest.mark.parametrize("n_shapes", [1, 10, 101, 1234])
def test_index_line_is_the_encoder_s(n_shapes, round_index):
    """The index line joined from the entries' strings is `_ENCODER`'s
    line, past 25 shapes and past four-digit rounds."""
    task = TaskType("t", ("p",))
    slices = (ExecutorSlice("w", "p", frozenset(), frozenset(), frozenset()),)
    table = [TraceShape(task, slices, 1, 1.0) for _ in range(n_shapes)]
    # each entry first in order, then all in reverse, then the first half again
    shapes = table + table[::-1] + table[: n_shapes // 2]
    batch = batch_of(shapes, round_index=round_index)
    assert len(batch.shapes) == n_shapes
    line = encode_trace_log(batch).splitlines()[-1]
    assert line == _ENCODER.encode({"index": batch.index.tolist(), "round": round_index})


# ---------------------------------------------------------------------------
# malformed records: `skillmas replay` names the file and the line


@pytest.fixture
def run_dir(tmp_path):
    out = tmp_path / "run"
    code = main(["run", "--scenario", "preset:tiny", "--seed", "42", "--rounds", "3",
                 "--out", str(out), "--quiet"])
    assert code == 0
    return out


def _drop_task(record):
    del record["task"]


def _slices_not_a_list(record):
    record["slices"] = 5


def _unknown_cause(record):
    record["outcome"], record["progress"] = 0, 0.0
    record["cause"] = {"label": "bogus", "confident": True}


def _invoked_not_selected(record):
    record["slices"][0]["invoked"] = ["not-selected"]


# each id names what the record breaks: a missing key, a wrong type, an
# unknown value, a broken invariant, or JSON itself
@pytest.mark.parametrize(
    "corrupt",
    [_drop_task, _slices_not_a_list, _unknown_cause, _invoked_not_selected, None],
    ids=["KeyError", "TypeError", "ValueError", "StateError", "JSONDecodeError"],
)
def test_report_names_file_and_line_of_a_bad_record(run_dir, capsys, corrupt):
    # the log of a real run directory; `replay` diffs it line by line
    path = run_dir / "traces.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    # the third line or later, a table entry whose first phase was routed
    lineno = next(
        i for i, line in enumerate(lines, 1) if i >= 3 and json.loads(line).get("slices")
    )
    if corrupt is None:
        lines[lineno - 1] = lines[lineno - 1][:-7]
    else:
        record = json.loads(lines[lineno - 1])
        corrupt(record)
        lines[lineno - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", "--run", str(run_dir)]) == 1
    assert f"replay divergence in traces.jsonl at line {lineno}:" in capsys.readouterr().out
