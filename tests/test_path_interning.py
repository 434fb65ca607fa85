"""Interned outcome paths and trace shapes against a fresh table per episode.

`exec_round` walks one `ExecutionTable` path trie for the whole batch, so
episodes that take the same path share one `slices` tuple, every failure
shares one `CauseObservation` per value, and episodes that end the same way
share one `TraceShape`, which the batch's table lists once.  None of that
may change an episode or a byte of the log re-expanded per episode.
"""

from __future__ import annotations

import dataclasses
import json
import random

from hypothesis import given, settings, strategies as st

from skillmas.numfmt import q12
from skillmas.presets import load_preset
from skillmas.store import encode_trace_log, trace_to_record
from skillmas.streams import episode_blocks
from skillmas.world import ExecutionTable, exec_round

from conftest import batch_of, episode_shape, task_at
from reference import Episode, episode_of, episodes_of, expand_log
from test_round_index import random_world

FIELDS = [f.name for f in dataclasses.fields(Episode)]


def fresh_table_round(state, scenario, n_episodes, seed, config, id_prefix):
    """Each episode on its own stream and its own execution table, so no
    episode shares a path or a shape with another."""
    blocks = episode_blocks(seed)
    return [
        episode_of(f"{id_prefix}e{i:05d}", episode_shape(table, blocks, i))
        for i in range(n_episodes)
        for table in (ExecutionTable(state, scenario, config),)
    ]


def executed(world_seed, n_episodes):
    scenario, state, config = random_world(random.Random(world_seed))
    seed = world_seed ^ 0x9A7
    batch = exec_round(
        dataclasses.replace(state, round_index=2), scenario, n_episodes, seed, config
    )
    return scenario, state, config, seed, batch


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80))
def test_interned_round_matches_fresh_tables_field_by_field(world_seed, n_episodes):
    scenario, state, config, seed, batch = executed(world_seed, n_episodes)
    want = fresh_table_round(state, scenario, n_episodes, seed, config, "r0002")
    for got, ref in zip(episodes_of(batch), want, strict=True):
        for name in FIELDS:
            assert getattr(got, name) == getattr(ref, name), name
        assert repr(got.progress) == repr(ref.progress)
        assert type(got.outcome) is type(ref.outcome)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80))
def test_same_path_shares_one_slices_object(world_seed, n_episodes):
    _, _, _, _, batch = executed(world_seed, n_episodes)
    by_path = {}
    by_cause = {}
    for shape in batch.shapes:
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
    for k, task in enumerate(scenario.task_types):
        # the middle of the task's share of the draw
        weight = scenario.task_weights[task.id]
        cumulative = scenario.cumulative_weights
        u = (cumulative[k] - weight / 2) / cumulative[-1]
        root_task, phases, progress, _, _ = task_at(table, u)
        assert root_task is task
        n = len(task.phases)
        assert [pair for pair, _ in phases] == list(task.pairs())
        assert [repr(p) for p in progress] == [repr(q12(c / n)) for c in range(n + 1)]
        assert task_at(table, u)[2] is progress


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80))
def test_log_bytes_do_not_depend_on_sharing(world_seed, n_episodes):
    _, _, _, _, batch = executed(world_seed, n_episodes)
    rng = random.Random(world_seed)
    copies = []
    for k in batch.index:  # one shape per episode, none shared
        shape = batch.shapes[k]
        slices = shape.slices
        if rng.random() < 0.5:
            slices = tuple(dataclasses.replace(sl) for sl in slices)
        else:
            slices = tuple([*slices])
        copies.append(dataclasses.replace(shape, slices=slices))
    unshared = batch_of(copies, round_index=batch.round_index)
    assert len(unshared.shapes) == len(batch.index)
    assert expand_log(encode_trace_log(unshared)) == expand_log(encode_trace_log(batch))


def test_random_worlds_cover_the_path_cases():
    """Multi-phase successes and failures after a routed prefix."""
    seen = set()
    for world_seed in range(300):
        _, _, _, _, batch = executed(world_seed, 60)
        for shape in batch.shapes:
            if shape.outcome == 1:
                if len(shape.task_type.phases) > 1:
                    seen.add("multi-phase success")
            elif len(shape.slices) > 1:
                seen.add("failure after a prefix")
        if len(seen) == 2:
            break
    assert seen == {"multi-phase success", "failure after a prefix"}


def shape_record(shape):
    """The shape's log record, as canonical JSON."""
    return json.dumps(trace_to_record(shape), sort_keys=True)


def test_equal_records_share_one_shape_in_a_mismatch_round():
    pack = load_preset("mismatch")
    batch = exec_round(pack.seed_state, pack.scenario, 2000, 7001, pack.config)
    shapes_by_record = {}
    for k in batch.index:
        shape = batch.shapes[k]
        shapes_by_record.setdefault(shape_record(shape), set()).add(id(shape))
    assert all(len(ids) == 1 for ids in shapes_by_record.values())
    # and no two shapes encode alike, each listed once
    assert len({id(shape) for shape in batch.shapes}) == len(batch.shapes)
    assert len(batch.shapes) == len(shapes_by_record)
    assert len(shapes_by_record) < 100  # a few dozen outcomes in 2000 episodes


def test_each_round_interns_its_own_shapes():
    pack = load_preset("mismatch")
    first = exec_round(pack.seed_state, pack.scenario, 200, 11, pack.config)
    second = exec_round(pack.seed_state, pack.scenario, 200, 11, pack.config)
    assert encode_trace_log(first) == encode_trace_log(second)
    assert {id(shape) for shape in first.shapes}.isdisjoint(id(shape) for shape in second.shapes)
