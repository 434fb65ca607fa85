"""Interned outcome paths and trace shapes against a fresh table per episode.

`exec_round` walks one `ExecutionTable` path trie for the whole batch, so
episodes that take the same path share one `slices` tuple, every failure
shares one `CauseObservation` per value, and episodes that end the same way
share one `TraceShape`.  The round stages and the trace-log writer key their
memos on the shape; none of that may change a trace or a byte of the log.
"""

from __future__ import annotations

import dataclasses
import json
import random

from hypothesis import given, settings, strategies as st

from skillmas.model import TraceShape
from skillmas.numfmt import q12
from skillmas.presets import load_preset
from skillmas.store import encode_trace_log, trace_to_record
from skillmas.streams import substream
from skillmas.world import ExecutionTable, _weighted_choice, exec_round, sample_episode

from test_round_index import random_world

FIELDS = [f.name for f in dataclasses.fields(TraceShape)]


def fresh_table_round(state, scenario, n_episodes, seed, config, id_prefix):
    """Each episode on its own stream and its own table."""
    traces = []
    for i in range(n_episodes):
        rng = substream(seed, "episode", i)
        task = _weighted_choice(rng, scenario.task_types, scenario.task_weights)
        table = ExecutionTable(state, scenario, config)
        traces.append(sample_episode(table, task, rng, f"{id_prefix}e{i:05d}"))
    return traces


def executed(world_seed, n_episodes):
    scenario, state, config = random_world(random.Random(world_seed))
    seed = world_seed ^ 0x9A7
    traces = exec_round(state, scenario, n_episodes, seed, config, id_prefix="r0002")
    return scenario, state, config, seed, traces


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80))
def test_interned_round_matches_fresh_tables_field_by_field(world_seed, n_episodes):
    scenario, state, config, seed, traces = executed(world_seed, n_episodes)
    want = fresh_table_round(state, scenario, n_episodes, seed, config, "r0002")
    for got, ref in zip(traces, want, strict=True):
        assert got.episode_id == ref.episode_id
        for name in FIELDS:
            assert getattr(got.shape, name) == getattr(ref.shape, name), name
        assert repr(got.shape.progress) == repr(ref.shape.progress)
        assert type(got.shape.outcome) is type(ref.shape.outcome)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80))
def test_same_path_shares_one_slices_object(world_seed, n_episodes):
    _, _, _, _, traces = executed(world_seed, n_episodes)
    by_path = {}
    by_cause = {}
    for trace in traces:
        shape = trace.shape
        by_path.setdefault((shape.task_type.id, shape.slices), set()).add(id(shape.slices))
        obs = shape.latent_cause_observation
        if obs is not None:
            by_cause.setdefault(obs, set()).add(id(obs))
    assert all(len(ids) == 1 for ids in by_path.values())
    assert all(len(ids) == 1 for ids in by_cause.values())
    # distinct paths are distinct objects
    assert len({i for ids in by_path.values() for i in ids}) == len(by_path)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stored_progress_values_are_quantized_fractions(world_seed):
    scenario, state, config = random_world(random.Random(world_seed))
    table = ExecutionTable(state, scenario, config)
    for task in scenario.task_types:
        phases, progress, _, _ = table.paths(task)
        n = len(task.phases)
        assert [pair for pair, _ in phases] == list(task.pairs())
        assert [repr(p) for p in progress] == [repr(q12(c / n)) for c in range(n + 1)]
        assert table.paths(task)[1] is progress


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80))
def test_log_bytes_do_not_depend_on_sharing(world_seed, n_episodes):
    _, _, _, _, traces = executed(world_seed, n_episodes)
    rng = random.Random(world_seed)
    copies = []
    for trace in traces:
        slices = trace.shape.slices
        if rng.random() < 0.5:
            slices = tuple(dataclasses.replace(sl) for sl in slices)
        else:
            slices = tuple([*slices])
        copies.append(
            dataclasses.replace(trace, shape=dataclasses.replace(trace.shape, slices=slices))
        )
    assert encode_trace_log(copies) == encode_trace_log(traces)


def test_random_worlds_cover_the_path_cases():
    """Multi-phase successes and failures after a routed prefix."""
    seen = set()
    for world_seed in range(300):
        _, _, _, _, traces = executed(world_seed, 60)
        for trace in traces:
            shape = trace.shape
            if shape.outcome == 1:
                if len(shape.task_type.phases) > 1:
                    seen.add("multi-phase success")
            elif len(shape.slices) > 1:
                seen.add("failure after a prefix")
        if len(seen) == 2:
            break
    assert seen == {"multi-phase success", "failure after a prefix"}


def shape_record(trace):
    """The trace's log record without its episode id, as canonical JSON."""
    record = trace_to_record(trace)
    del record["episode"]
    return json.dumps(record, sort_keys=True)


def test_equal_records_share_one_shape_in_a_mismatch_round():
    pack = load_preset("mismatch")
    traces = exec_round(pack.seed_state, pack.scenario, 2000, 7001, pack.config)
    shapes_by_record = {}
    for trace in traces:
        shapes_by_record.setdefault(shape_record(trace), set()).add(id(trace.shape))
    assert all(len(ids) == 1 for ids in shapes_by_record.values())
    # and no two shapes encode alike
    assert len({id(t.shape) for t in traces}) == len(shapes_by_record)
    assert len(shapes_by_record) < 100  # a few dozen outcomes in 2000 episodes


def test_each_round_interns_its_own_shapes():
    pack = load_preset("mismatch")
    first = exec_round(pack.seed_state, pack.scenario, 200, 11, pack.config)
    second = exec_round(pack.seed_state, pack.scenario, 200, 11, pack.config)
    assert [trace_to_record(t) for t in first] == [trace_to_record(t) for t in second]
    assert {id(t.shape) for t in first}.isdisjoint(id(t.shape) for t in second)
