from __future__ import annotations

import random
from array import array
from bisect import bisect_right

import pytest

from skillmas.config import EngineConfig
from skillmas.model import (
    Batch,
    CauseLabel,
    Executor,
    RoundState,
    Skill,
    SkillStatus,
    TaskType,
    TraceShape,
    UtilityTable,
    cluster_skills,
    token_holders,
)
from skillmas.retention import RetainedShape
from skillmas.world import ExecutionTable, LatentSkill, Scenario, end_episodes

CAUSES = [c for c in CauseLabel if c is not CauseLabel.UNKNOWN]


def make_skill(
    skill_id: str,
    pairs=(("t1", "p1"),),
    steps=("go", "do"),
    guards=(),
    checks=(),
    status=SkillStatus.SEEDED,
    owner="worker",
) -> Skill:
    return Skill(
        id=skill_id,
        applicability=frozenset(pairs),
        steps=tuple(steps),
        guards=frozenset(guards),
        checks=frozenset(checks),
        status=status,
        owner=owner,
    )


def library_clusters(library, threshold):
    """`cluster_skills` over a library's token sets and their holders."""
    tokens = {sid: skill.tokens() for sid, skill in library.items()}
    return cluster_skills(tokens, token_holders(tokens), threshold)


def make_state(
    skills=(),
    executors=None,
    tasks=(TaskType("t1", ("p1", "p2")),),
    q_skill=None,
    q_exec=None,
    pool=None,
    cards=(),
    round_index=0,
) -> RoundState:
    universe = frozenset(pair for task in tasks for pair in task.pairs())
    library = {s.id: s for s in skills}
    if executors is None:
        executors = [
            Executor("manager", universe, capacity=8, is_manager=True),
            Executor("worker", universe, capacity=8),
        ]
    return RoundState(
        round_index=round_index,
        library=library,
        executors={e.id: e for e in executors},
        q_skill=q_skill or UtilityTable(),
        q_exec=q_exec or UtilityTable(),
        pool=dict(pool or {}),
        policy_index=tuple(cards),
    )


def batch_of(shapes, round_index: int = 0) -> Batch:
    """The batch whose episode i has `shapes[i]`, tabled by identity in
    order of first appearance, as `exec_round` tables them."""
    position = {}
    index = array("L", [position.setdefault(shape, len(position)) for shape in shapes])
    return Batch(round_index, tuple(position), index)


def task_at(table: ExecutionTable, u: float) -> tuple:
    """The root of the task a uniform draw `u` in [0, 1) picks, each with
    probability proportional to its sampling weight: the bisection over the
    table's cumulative weights that `end_episodes`' integer task draw
    agrees with."""
    cumulative = table.scenario.cumulative_weights
    return table.roots[bisect_right(cumulative, u * cumulative[-1])]


def episode_shape(table: ExecutionTable, blocks, i: int) -> TraceShape:
    """Episode i's shape, ended by `end_episodes` on `table` alone."""
    [index] = end_episodes([table], blocks, range(i, i + 1))
    return table.shapes[index[0]]


def retained_shapes(batch: Batch, labels) -> list[RetainedShape]:
    """The retained table entries of `batch`, given `retain`'s labels of its
    tally, as `run_round` builds them."""
    return [
        RetainedShape(shape, count, batch.episode_id(first))
        for (shape, count), first, categories in zip(batch.tally(), batch.firsts(), labels)
        if categories
    ]


def random_scenario(rng: random.Random, name: str = "fuzz") -> tuple[Scenario, RoundState]:
    """A small randomized world plus a consistent seed state, for property tests."""
    n_tasks = rng.randint(1, 3)
    tasks = []
    weights = {}
    for t in range(n_tasks):
        phases = tuple(f"p{i}" for i in range(rng.randint(1, 3)))
        tasks.append(TaskType(f"task{t}", phases))
        weights[f"task{t}"] = rng.uniform(0.5, 2.0)
    universe = [pair for task in tasks for pair in task.pairs()]

    difficulty = {pair: rng.uniform(-1.5, 1.5) for pair in universe}
    latents = []
    for i, pair in enumerate(universe):
        if rng.random() < 0.6:
            latents.append(
                LatentSkill(
                    f"lat{i}",
                    pair,
                    rng.uniform(1.0, 3.0),
                    rng.choice(CAUSES),
                )
            )
    scenario = Scenario(
        name=name,
        task_types=tuple(tasks),
        task_weights=weights,
        base_difficulty=difficulty,
        latent_catalog=tuple(latents),
        interference_weight=rng.uniform(0.0, 0.6),
        overload_weight=rng.uniform(0.0, 0.8),
        routing_noise=rng.uniform(0.0, 0.3),
        cause_confidence=rng.uniform(0.5, 1.0),
    )

    executors = {
        "manager": Executor(
            "manager", frozenset(universe), capacity=rng.randint(2, 6), is_manager=True
        )
    }
    n_workers = rng.randint(1, 2)
    library = {}
    for w in range(n_workers):
        wid = f"worker{w}"
        region = frozenset(rng.sample(universe, rng.randint(1, len(universe))))
        for s in range(rng.randint(0, 2)):
            sid = f"seed-{wid}-{s}"
            pairs = frozenset(rng.sample(sorted(region), rng.randint(1, len(region))))
            library[sid] = Skill(
                id=sid,
                applicability=pairs,
                steps=tuple(f"act{rng.randint(0, 5)}" for _ in range(rng.randint(1, 3))),
                guards=frozenset({f"g{rng.randint(0, 3)}"} if rng.random() < 0.5 else set()),
                status=SkillStatus.SEEDED,
                owner=wid,
            )
        executors[wid] = Executor(wid, region, capacity=rng.randint(1, 5))
    state = RoundState(
        round_index=0,
        library=library,
        executors=executors,
        q_skill=UtilityTable(),
        q_exec=UtilityTable(),
        pool={},
        policy_index=(),
    )
    return scenario, state


@pytest.fixture
def config() -> EngineConfig:
    return EngineConfig()


# every phase covered by four or five executors and explored 90% of the
# time: randrange(4) rejects half its tries, so frozen walks read past an
# episode's leading words
NOISY = """\
[tasks]
assay = prep run check | 1.0
build = frame wire | 2.0

[difficulty]
assay/prep  = 0.6
assay/run   = -0.4
assay/check = 0.9
build/frame = 0.2
build/wire  = -0.8

[latent]
ls-run  = assay/run 2.0 missing-precondition
ls-wire = build/wire 1.6 wrong-action-order

[penalties]
interference     = 0.3
overload         = 0.4
routing-noise    = 0.9
cause-confidence = 0.7

[seed-state]
executor manager = * capacity=4 manager
executor w1 = assay/prep,assay/run,assay/check,build/frame,build/wire capacity=3
executor w2 = assay/prep,assay/run,assay/check,build/frame,build/wire capacity=2
executor w3 = assay/prep,assay/run,assay/check,build/frame,build/wire capacity=2
executor w4 = assay/run,build/wire capacity=1
skill sk-go = owner=w1 applies=assay/run,build/wire steps=go,look checks=ok

[thresholds]
episodes-per-round = 60
"""

