"""Synthetic task world with known ground truth.

The world stands in for a real benchmark harness: it generates verified
episode traces, emits (noisily observed) latent failure causes, and hides a
catalog of discoverable procedures.  Success is an additive-logit model
with two penalty directions — selection interference from non-matching
skill usage and executor overload from oversized owned-skill sets — so
both one-sided failure modes of coupled adaptation are expressible.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .config import EngineConfig
from .model import (
    CauseLabel,
    CauseObservation,
    EpisodeTrace,
    Executor,
    ExecutorSlice,
    Pair,
    RoundState,
    Skill,
    SkillStatus,
    StateError,
    TaskType,
    TraceShape,
    active_owned,
)
from .numfmt import q12
from .streams import StreamTape, check_stream_tape, episode_streams
from .utility import Route, executor_route, rank_skills, skills_by_task


@dataclass(frozen=True)
class LatentSkill:
    """A discoverable ground-truth procedure for one (task, phase) pair.

    Using a library skill that realizes it adds `effect` to the phase logit;
    when it stays unrealized, failures at the pair surface `repairs_cause`.
    """

    id: str
    applicability: Pair
    effect: float
    repairs_cause: CauseLabel
    realized_by: str | None = None

    def __post_init__(self) -> None:
        if self.effect <= 0:
            raise StateError(f"latent skill {self.id!r} needs a positive effect")


@dataclass(frozen=True)
class Scenario:
    """Ground-truth model of one synthetic task world."""

    name: str
    task_types: tuple[TaskType, ...]
    task_weights: dict[str, float]
    base_difficulty: dict[Pair, float]
    latent_catalog: tuple[LatentSkill, ...] = ()
    interference_weight: float = 0.0
    overload_weight: float = 0.0
    routing_noise: float = 0.1
    cause_confidence: float = 0.9

    def __post_init__(self) -> None:
        if not self.task_types:
            raise StateError("scenario has no task types")
        for task in self.task_types:
            if self.task_weights.get(task.id, 0.0) <= 0.0:
                raise StateError(f"task {task.id!r} needs a positive sampling weight")
        if self.interference_weight < 0 or self.overload_weight < 0:
            raise StateError("penalty weights must be non-negative")
        if not 0.0 <= self.routing_noise < 1.0:
            raise StateError("routing noise must be in [0, 1)")
        if not 0.0 < self.cause_confidence <= 1.0:
            raise StateError("cause observation confidence must be in (0, 1]")

    def universe(self) -> frozenset[Pair]:
        return frozenset(pair for task in self.task_types for pair in task.pairs())


def logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def motif_steps(latent_id: str) -> tuple[str, ...]:
    return (latent_id, f"{latent_id}:verify")


def motif_skill(latent: LatentSkill, skill_id: str, owner: str) -> Skill:
    """The canonical draft realizing a latent procedure."""
    return Skill(
        id=skill_id,
        applicability=frozenset({latent.applicability}),
        steps=motif_steps(latent.id),
        guards=frozenset({f"{latent.id}:guard"}),
        checks=frozenset({f"{latent.id}:check"}),
        status=SkillStatus.POOLED,
        owner=owner,
    )


def realizes(skill: Skill, latent: LatentSkill) -> bool:
    """A skill realizes a latent procedure when it carries the latent's
    marker step and covers its (task, phase) pair."""
    return (
        skill.status is not SkillStatus.PRUNED
        and latent.id in skill.steps
        and latent.applicability in skill.applicability
    )


def realized_catalog(
    scenario: Scenario, library: Mapping[str, Skill]
) -> tuple[LatentSkill, ...]:
    """The latent catalog with `realized_by` resolved against a library.

    Realization is derived, not stored: the lexicographically smallest
    non-pruned realizing skill wins, so the view is deterministic.  A
    latent's realizers carry its id as a step, so only the skills indexed
    under that step token are checked.
    """
    by_step: dict[str, list[Skill]] = {}
    for skill in library.values():
        if skill.status is not SkillStatus.PRUNED:
            for step in set(skill.steps):
                by_step.setdefault(step, []).append(skill)
    return tuple(
        replace(
            latent,
            realized_by=min(
                (s.id for s in by_step.get(latent.id, ()) if realizes(s, latent)),
                default=None,
            ),
        )
        for latent in scenario.latent_catalog
    )


def latents_by_pair(
    catalog: Iterable[LatentSkill],
) -> dict[Pair, tuple[LatentSkill, ...]]:
    """Each pair's latent procedures, in catalog order."""
    by_pair: dict[Pair, list[LatentSkill]] = {}
    for latent in catalog:
        by_pair.setdefault(latent.applicability, []).append(latent)
    return {pair: tuple(latents) for pair, latents in by_pair.items()}


def overload_excess(executor: Executor, library: Mapping[str, Skill]) -> int:
    """The executor's active owned skills beyond its capacity."""
    return max(0, len(active_owned(executor, library)) - executor.capacity)


class SuccessTerms(NamedTuple):
    """The terms of the success model at one routed phase."""

    realized: tuple[LatentSkill, ...]  # the pair's latents some used skill realizes
    absent: tuple[LatentSkill, ...]  # the pair's other latents, both in catalog order
    mismatched: int  # used skills that realize none of the pair's latents
    excess: int  # the executor's active owned skills beyond its capacity


def _terms(
    latents: Sequence[LatentSkill], used: Sequence[Skill], excess: int
) -> SuccessTerms:
    realized: list[LatentSkill] = []
    absent: list[LatentSkill] = []
    matching: set[str] = set()
    for latent in latents:
        realizers = [s.id for s in used if realizes(s, latent)]
        (realized if realizers else absent).append(latent)
        matching.update(realizers)
    mismatched = sum(1 for s in used if s.id not in matching)
    return SuccessTerms(tuple(realized), tuple(absent), mismatched, excess)


def _success_prob(scenario: Scenario, pair: Pair, terms: SuccessTerms) -> float:
    """logit = base difficulty
          + effects of latent procedures realized by some used skill
          - interference * (# used skills matching no latent here)
          - overload * max(0, owned skills - capacity)
    """
    logit = scenario.base_difficulty.get(pair, 0.0)
    for latent in terms.realized:
        logit += latent.effect
    logit -= scenario.interference_weight * terms.mismatched
    logit -= scenario.overload_weight * terms.excess
    return logistic(logit)


def _deficit(
    scenario: Scenario, terms: SuccessTerms
) -> tuple[CauseLabel, float] | None:
    """The largest unmet term of the success model, with its magnitude.

    Priority on exact ties: absent latent procedure, then interference,
    then overload.
    """
    candidates: list[tuple[float, int, CauseLabel]] = []
    if terms.absent:
        top = max(terms.absent, key=lambda l: (l.effect, l.id))
        candidates.append((top.effect, 0, top.repairs_cause))

    interference = scenario.interference_weight * terms.mismatched
    if interference > 0:
        cause = (
            CauseLabel.SKILL_CONFLICT
            if terms.mismatched >= 2
            else CauseLabel.MISLEADING_RETRIEVAL
        )
        candidates.append((interference, 1, cause))

    overload = scenario.overload_weight * terms.excess
    if overload > 0:
        candidates.append((overload, 2, CauseLabel.BAD_EXECUTOR_ASSIGNMENT))

    if not candidates:
        return None
    magnitude, _, cause = max(candidates, key=lambda c: (c[0], -c[1]))
    return cause, magnitude


# one shared observation per (label, confident): traces only read them
_OBSERVATIONS = {
    (cause, confident): CauseObservation(cause, confident)
    for cause in CauseLabel
    for confident in (True, False)
}
_UNOBSERVED = _OBSERVATIONS[CauseLabel.UNKNOWN, False]


def _observe_cause(
    deficit: tuple[CauseLabel, float] | None, rng: random.Random, confidence: float
) -> CauseObservation:
    if deficit is not None and rng.random() < confidence:
        return _OBSERVATIONS[deficit[0], True]
    return _UNOBSERVED


@dataclass(frozen=True)
class PhaseSlot:
    """What one executor does at one (task, phase) pair under a fixed state."""

    slice: ExecutorSlice
    success_prob: float
    # the dominant deficit of the slice's invoked and pattern-supported skills
    deficit: tuple[CauseLabel, float] | None


class ExecutionTable:
    """Round-scoped routing and candidate table for one frozen state.

    Every entry is a pure function of (state, scenario, config), which stay
    fixed while a batch executes, so an episode only makes its RNG draws and
    looks the rest up.  A task's routes and phase slots, each with its success
    probability and dominant deficit, are filled on first use, so the order
    in which entries are filled cannot change any result.
    Slots read indexes built on first use, once per table (each task's
    candidate skills, each pair's latents, each executor's overload excess,
    the manager id): a slot ranks its skills through `rank_skills`, and
    `_success_prob` and `_deficit` read the one `SuccessTerms` of its used
    skills.

    Outcome paths are interned: per task object the table keeps its phases'
    routes, its progress values `q12(c / n)` for c = 0..n, and the root of a
    trie whose steps are keyed by the drawn executor id.  A step holds the
    phase slot, the slices tuple of the path so far and the next phase's
    steps, so episodes that take the same path share one `slices` object.
    Trace shapes are interned too, one per (task, slices object, progress,
    cause observation), so each distinct shape is checked once per table
    and episodes that end the same way share one shape object.
    The table lives for one `exec_round` and is never shared between states.
    """

    def __init__(self, state: RoundState, scenario: Scenario, config: EngineConfig):
        self.state = state
        self.scenario = scenario
        self.config = config
        self.epsilon = (
            config.routing_noise
            if config.routing_noise is not None
            else scenario.routing_noise
        )
        self.tasks = scenario.task_types
        self.total_weight = sum(scenario.task_weights[t.id] for t in self.tasks)
        self.cumulative_weights = tuple(
            itertools.accumulate(scenario.task_weights[t.id] for t in self.tasks)
        )
        self._slots: dict[tuple[Pair, str], PhaseSlot] = {}
        self._excess: dict[str, int] = {}
        # id(task) -> (((pair, route), ...), progress values, trie root, task);
        # the value holds the task, so no id in a key is reused
        self._paths: dict[int, tuple] = {}
        # (id(task), id(slices), progress, id(observation)) -> shape; the
        # shape holds all three objects, so no id in a key is reused
        self.shapes: dict[tuple, TraceShape] = {}

    @functools.cached_property
    def _candidates(self) -> dict[str, list[Skill]]:
        return skills_by_task(self.state.library)

    @functools.cached_property
    def _latents(self) -> dict[Pair, tuple[LatentSkill, ...]]:
        return latents_by_pair(self.scenario.latent_catalog)

    @functools.cached_property
    def _manager_id(self) -> str:
        return self.state.manager_id()

    def draw_task(self, rng: random.Random) -> TaskType:
        """A task drawn with probability proportional to its sampling weight,
        by bisection over the cumulative weights."""
        mark = rng.random() * self.total_weight
        index = bisect.bisect_right(self.cumulative_weights, mark)
        return self.tasks[index] if index < len(self.tasks) else self.tasks[-1]

    def paths(self, task_type: TaskType) -> tuple:
        """The task's ((pair, route), ...), progress values, trie root and itself."""
        entry = self._paths.get(id(task_type))
        if entry is None:
            n = len(task_type.phases)
            entry = self._paths[id(task_type)] = (
                tuple((pair, self.route(pair)) for pair in task_type.pairs()),
                tuple(q12(c / n) for c in range(n + 1)),
                {},
                task_type,
            )
        return entry

    def route(self, pair: Pair) -> Route:
        return executor_route(self.state.q_exec, self.state, *pair)

    def slot(self, pair: Pair, executor_id: str) -> PhaseSlot:
        key = (pair, executor_id)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = self._fill(pair, self.state.executors[executor_id])
        return slot

    def _fill(self, pair: Pair, executor: Executor) -> PhaseSlot:
        """Retrieve skills for one routed phase, invoke the phase-matching ones,
        and evaluate the ground-truth success probability of the result."""
        task_id, phase = pair
        library = self.state.library
        selected = frozenset(
            rank_skills(
                self.state.q_skill,
                self._candidates.get(task_id, ()),
                {executor.id, self._manager_id},
                task_id,
                self.config.top_k,
            )
        )
        invoked = frozenset(sid for sid in selected if library[sid].applies_to(pair))
        realized_actions = frozenset(step for sid in invoked for step in library[sid].steps)
        pattern_supported = frozenset(
            sid for sid in selected - invoked if set(library[sid].steps) <= realized_actions
        )
        used = invoked | pattern_supported
        excess = self._excess.get(executor.id)
        if excess is None:
            excess = self._excess[executor.id] = overload_excess(executor, library)
        terms = _terms(
            self._latents.get(pair, ()), [library[sid] for sid in sorted(used)], excess
        )
        return PhaseSlot(
            ExecutorSlice(executor.id, phase, selected, invoked, pattern_supported),
            _success_prob(self.scenario, pair, terms),
            _deficit(self.scenario, terms),
        )


def walk_episode(
    table: ExecutionTable, task_type: TaskType, rng: random.Random
) -> tuple[tuple[ExecutorSlice, ...], float, PhaseSlot | None]:
    """Make one episode's routing and success draws, up to its outcome.

    Phases run in order; each routes an executor (greedy, or with the
    table's exploration rate one drawn at random) and draws a Bernoulli
    success with the slot's probability.  The walk stops at the first phase
    that fails and returns the slices of the phases it routed, the progress
    `q12(completed / phases)`, and the slot that failed, or None when every
    phase succeeded.  `rng` is a `random.Random` or a `streams.TapeCursor`:
    the walk only calls `random()` and `randrange(n)`, here and in
    `Route.draw`.
    """
    phases, progress, steps, _ = table.paths(task_type)
    slices: tuple[ExecutorSlice, ...] = ()
    for completed, (pair, route) in enumerate(phases):
        executor_id = route.draw(rng, table.epsilon)
        step = steps.get(executor_id)
        if step is None:
            slot = table.slot(pair, executor_id)
            step = steps[executor_id] = (slot, (*slices, slot.slice), {})
        slot, slices, steps = step
        if rng.random() < slot.success_prob:
            continue
        return slices, progress[completed], slot
    return slices, progress[-1], None


def sample_episode(
    table: ExecutionTable, task_type: TaskType, rng: random.Random, episode_id: str
) -> EpisodeTrace:
    """Run one episode against the ground truth with the table's state fixed.

    `walk_episode` makes the routing and success draws.  On failure the
    episode then draws its last value: the failing slot's dominant deficit
    is observed as the cause, confidently with the scenario's observation
    probability.  The trace carries the table's shape for that ending (a
    success when nothing was observed), which went through `TraceShape`'s
    checks when the table first met it.
    """
    slices, progress, failed = walk_episode(table, task_type, rng)
    if failed is None:
        observation = None
    else:
        observation = _observe_cause(failed.deficit, rng, table.scenario.cause_confidence)
    key = (id(task_type), id(slices), progress, id(observation))
    shape = table.shapes.get(key)
    if shape is None:
        outcome = 1 if observation is None else 0
        shape = table.shapes[key] = TraceShape(task_type, slices, outcome, progress, observation)
    return EpisodeTrace(episode_id, shape)


def exec_round(
    state: RoundState,
    scenario: Scenario,
    n_episodes: int,
    seed: int,
    config: EngineConfig,
    *,
    id_prefix: str = "",
) -> tuple[EpisodeTrace, ...]:
    """Execute a batch of episodes with the state held fixed, one trace each.

    Execution is read-only over the state.  Episode i draws from its own
    stream derived from (seed, i), so the batch is reproducible and safe to
    parallelize.  Trace i of the result is episode i: the batch's order is
    generation order, and every later stage reads it in that order.  Episode i
    reads its stream straight from `episode_streams(seed)(i)`, a generator
    seeded with `derive_seed(seed, "episode", i)`.  Adaptation runs its
    rounds here, since learning reads every trace; frozen evaluation only
    counts outcomes and runs `exec_shared`.
    """
    if n_episodes < 1:
        raise ValueError("a round needs at least one episode")
    table = ExecutionTable(state, scenario, config)
    stream = episode_streams(seed)
    traces = []
    for i in range(n_episodes):
        rng = stream(i)
        traces.append(sample_episode(table, table.draw_task(rng), rng, f"{id_prefix}e{i:05d}"))
    return tuple(traces)


def exec_shared(
    states: Sequence[RoundState],
    scenario: Scenario,
    n_episodes: int,
    seed: int,
    config: EngineConfig,
) -> Iterator[tuple[TaskType, tuple[bool, ...]]]:
    """Count outcomes of one batch against several frozen states on the same
    streams.

    Yields episode i's task and one success flag per state in order, each
    equal to the task and outcome of trace i of `exec_round(state,
    scenario, n_episodes, seed, config)`.  Episode i's generator is seeded
    once: its leading words go onto one `StreamTape`.  The states share the
    scenario, so the task is drawn once; then each state's `walk_episode`
    reads on from there through its own cursor.  No trace is built and no
    cause is observed, so no episode id is formatted either.  Nothing is
    kept from one episode to the next.
    """
    if n_episodes < 1:
        raise ValueError("a round needs at least one episode")
    check_stream_tape()
    tables = [ExecutionTable(state, scenario, config) for state in states]
    # an episode's walk draws at most: the task (2 words), then per phase the
    # exploration and routing draws (2 + 1) and the success draw (2); a
    # randrange rejection reads past the tape, which then extends
    longest = max(len(task.phases) for task in scenario.task_types)
    tape = StreamTape(2 + 5 * longest)
    lead = tape.cursor()
    walkers = [(table, tape.cursor()) for table in tables]
    draw_task = tables[0].draw_task
    stream = episode_streams(seed)
    for i in range(n_episodes):
        tape.load(stream(i))
        task = draw_task(lead)
        start = lead.pos
        flags = []
        for table, cursor in walkers:
            cursor.pos = start
            flags.append(walk_episode(table, task, cursor)[2] is None)
        yield task, tuple(flags)
