"""Whole rounds against the per-episode reference round.

`reference.reference_run_round` runs every stage that reads episodes
episode by episode, on records that compare by value.  Chained over several
rounds on random worlds, with and without cross-round repeats, every round
of `experiment_rounds` must give the reference's snapshot bytes, and its
report and trace log re-expanded to the per-episode format must give the
reference's report JSON and log bytes; the report's `retained` ids must be
the reference's own.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from skillmas.orchestrator import canonical_json, experiment_rounds
from skillmas.store import encode_trace_log, serialize_state

from reference import (
    expand_log,
    expand_retained,
    observed_cause,
    reference_failure_counts,
    reference_log,
    reference_rounds,
)
from test_round_index import random_world

ROUNDS = 5


def chained_world(world_seed: int, repeats: bool):
    """A `random_world` with low thresholds so that rounds retain, repair
    and restructure."""
    scenario, state, config = random_world(random.Random(world_seed))
    rng = random.Random(world_seed ^ 0x2A)
    config = config.replace(
        episodes_per_round=rng.randint(10, 60),
        cross_round_repeats=repeats,
        repeat_multiplicity=rng.randint(1, 4),
        mass_threshold=rng.randint(1, 3),
        min_count=rng.randint(1, 5),
        promote_min_uses=rng.randint(1, 3),
    )
    return scenario, state, config


def chained_rounds(world_seed: int, repeats: bool):
    """Each round of the engine's chain beside the reference's."""
    scenario, state, config = chained_world(world_seed, repeats)
    seed = world_seed ^ 0x5EED
    return zip(
        experiment_rounds(scenario, state, seed, ROUNDS, config),
        reference_rounds(scenario, state, seed, ROUNDS, config),
        strict=True,
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_chained_rounds_match_the_reference_round(world_seed, repeats):
    for (state, report, traces), (want_state, want_row, episodes) in chained_rounds(
        world_seed, repeats
    ):
        row = report.to_dict()
        row["retained"] = expand_retained(report.round_index, report.retained_entries, traces.index)
        assert canonical_json(row) == canonical_json(want_row)
        assert serialize_state(state) == serialize_state(want_state)
        assert expand_log(encode_trace_log(traces)) == reference_log(episodes)


def test_chained_worlds_cover_the_round_cases():
    """The chains above reach every restructuring decision, every skill
    action, demotion after a drop, and cross-round repeats that retain a
    failure its own round does not repeat often enough."""
    seen = Counter()
    for world_seed in range(40):
        for repeats in (False, True):
            multiplicity = chained_world(world_seed, repeats)[2].repeat_multiplicity
            for _, (_, row, episodes) in chained_rounds(world_seed, repeats):
                seen[row["restructure"]["action"]] += 1
                for action in row["skill_actions"]:
                    seen[action["action"]] += 1
                seen["drop"] += row["last_round_drop"]
                in_round = reference_failure_counts(episodes)
                by_id = {e.episode_id: e for e in episodes}
                seen["cross-round repeat"] += any(
                    in_round[by_id[i].task_type.id, observed_cause(by_id[i])] < multiplicity
                    for i in row["retained"].get("repeated-failure", ())
                )
    assert set(seen) == {
        "keep", "add", "merge-remove", "modify",
        "create", "refine", "prune", "hold-in-pool", "no-op",
        "drop", "cross-round repeat",
    }
    assert all(seen.values())
