"""Synthetic task world with known ground truth.

The world stands in for a real benchmark harness: it generates verified
episode traces, emits (noisily observed) latent failure causes, and hides a
catalog of discoverable procedures.  Success is an additive-logit model
with two penalty directions — selection interference from non-matching
skill usage and executor overload from oversized owned-skill sets — so
both one-sided failure modes of coupled adaptation are expressible.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .config import EngineConfig
from .model import (
    Batch,
    CauseLabel,
    CauseObservation,
    Executor,
    ExecutorSlice,
    Pair,
    RoundState,
    Skill,
    SkillStatus,
    StateError,
    TaskType,
    TraceShape,
)
from .numfmt import q12
from .streams import (
    Blocks,
    episode_blocks,
    weight_cuts,
    word_cut,
    word_random,
    word_randrange,
    word_window,
)
from .utility import Route, covering_ids, executor_route, rank_skills, skills_by_task


@dataclass(frozen=True)
class LatentSkill:
    """A discoverable ground-truth procedure for one (task, phase) pair.

    Using a library skill that realizes it adds `effect` to the phase logit;
    when it stays unrealized, failures at the pair surface `repairs_cause`.
    Which skills realize it depends on the library, so it is never stored
    here (`realizers`).
    """

    id: str
    applicability: Pair
    effect: float
    repairs_cause: CauseLabel

    def __post_init__(self) -> None:
        if not self.effect > 0:  # NaN fails too
            raise StateError(f"latent skill {self.id!r} needs a positive effect")


# Each ranged `Scenario` value's test (a NaN fails each) and the message that
# refuses it; `Scenario` and the scenario parser, at the value's line, check here.
_PENALTY = (lambda v: 0.0 <= v < math.inf, "penalty weights must be non-negative and finite")
_RANGES: dict[str, tuple[Callable[[float], bool], str]] = {
    "task_weights": (lambda v: v > 0.0, "task {} needs a positive sampling weight"),
    # their total, `cumulative_weights[-1]`: at infinity every draw picks the last task
    "cumulative_weights": (
        lambda v: v < math.inf, "the task sampling weights must sum to a finite total"
    ),
    "interference_weight": _PENALTY,
    "overload_weight": _PENALTY,
    "routing_noise": (lambda v: 0.0 <= v <= 1.0, "routing noise must be in [0, 1]"),
    "cause_confidence": (
        lambda v: 0.0 < v <= 1.0, "cause observation confidence must be in (0, 1]"
    ),
}


def check_range(field: str, value: float, task_id: str = "") -> None:
    """Refuse `value` for the `Scenario` field `field` when it is outside
    the field's range; a task weight's message names the task."""
    test, message = _RANGES[field]
    if not test(value):
        raise StateError(message.format(repr(task_id)))


def add_effect(logits: dict[Pair, float], latent: LatentSkill) -> None:
    """Add `latent`'s effect to its pair's logit in `logits` (0 when absent).
    A pair's base difficulty plus all its latents' effects, added in catalog
    order, must be finite: the effects are positive, so no realized subset
    overflows, and an infinite penalty then gives a logit of -inf, not NaN.
    `Scenario` and the scenario parser, at the latent's line, add here."""
    pair = latent.applicability
    logits[pair] = logit = logits.get(pair, 0.0) + latent.effect
    if not math.isfinite(logit):
        raise StateError(f"the difficulty of {'/'.join(pair)!r} plus its latent effects overflows")


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
        # every check is written so that a NaN fails it
        for task in self.task_types:
            check_range("task_weights", self.task_weights.get(task.id, 0.0), task.id)
        check_range("cumulative_weights", self.cumulative_weights[-1])
        if not all(map(math.isfinite, self.base_difficulty.values())):
            raise StateError("base difficulties must be finite")
        logits = dict(self.base_difficulty)
        for latent in self.latent_catalog:
            add_effect(logits, latent)
        for field in ("interference_weight", "overload_weight", "routing_noise",
                      "cause_confidence"):
            check_range(field, getattr(self, field))
        if len({l.id for l in self.latent_catalog}) != len(self.latent_catalog):
            raise StateError("latent procedure ids must be unique")

    def universe(self) -> frozenset[Pair]:
        """Every task pair, the set `validate_state` checks coverage of."""
        return self._universe

    # Scenario-scoped views, built on first use and shared by every table and round.

    @functools.cached_property
    def _universe(self) -> frozenset[Pair]:
        return frozenset(pair for task in self.task_types for pair in task.pairs())

    @functools.cached_property
    def latents_at(self) -> dict[Pair, tuple[LatentSkill, ...]]:
        """Each pair's latent procedures, in catalog order."""
        by_pair: dict[Pair, list[LatentSkill]] = {}
        for latent in self.latent_catalog:
            by_pair.setdefault(latent.applicability, []).append(latent)
        return {pair: tuple(latents) for pair, latents in by_pair.items()}

    @functools.cached_property
    def pair_views(self) -> dict[Pair, tuple]:
        """Each task pair's base logit, its latents in catalog order, and the
        same latents in deficit order, `(effect, id)` descending."""
        return {
            pair: (
                self.base_difficulty.get(pair, 0.0),
                latents,
                tuple(sorted(latents, key=lambda l: (l.effect, l.id), reverse=True)),
            )
            for task in self.task_types
            for pair in task.pairs()
            for latents in (self.latents_at.get(pair, ()),)
        }

    @functools.cached_property
    def cumulative_weights(self) -> tuple[float, ...]:
        """The task weights' running sums, in task order; the last is the
        total (not `sum`, which adds floats with compensation from Python
        3.12 on).  The task draw u picks the task at `bisect_right(
        cumulative_weights, u * total)`, or len(tasks) when u * total
        rounds up to the total."""
        return tuple(itertools.accumulate(self.task_weights[t.id] for t in self.task_types))

    @functools.cached_property
    def task_cuts(self) -> tuple[int, ...]:
        """The task draw's cuts, `streams.weight_cuts(cumulative_weights)`."""
        return weight_cuts(self.cumulative_weights)

    @functools.cached_property
    def task_buckets(self) -> list[int]:
        """Per first word's top 12 bits, the task position of every draw in
        that bucket, or -1 when a cut falls strictly inside it.  Bucket b
        holds the draws x in [b * 2**41, (b + 1) * 2**41), whose first words
        have top 12 bits b (x >> 41 is the first word >> 20), and position p
        picks x in [e, f), its cuts' span, so it fills buckets ceil(e /
        2**41) to f // 2**41 - 1."""
        buckets = [-1] * 4096
        edges = [0, *self.task_cuts, 2**53]
        for position, (e, f) in enumerate(zip(edges, edges[1:])):
            lo, hi = -(-e >> 41), f >> 41
            buckets[lo:hi] = [position] * (hi - lo)
        return buckets

    @functools.cached_property
    def task_views(self) -> tuple[tuple[TaskType, tuple[Pair, ...], tuple[float, ...]], ...]:
        """Each task with its pairs and progress values `q12(c / n)`, c = 0..n."""
        return tuple(
            (task, pairs, tuple(q12(c / len(pairs)) for c in range(len(pairs) + 1)))
            for task in self.task_types
            for pairs in (task.pairs(),)
        )


def logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def motif_steps(latent_id: str) -> tuple[str, ...]:
    return (latent_id, f"{latent_id}:verify")


def motif_tokens(latent_id: str) -> frozenset[str]:
    """The step and guard tokens of every `motif_skill` draft of a latent id."""
    return frozenset(motif_steps(latent_id)) | {f"{latent_id}:guard"}


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
    return latent.id in skill.steps and latent.applicability in skill.applicability


def realizers(scenario: Scenario, library: Mapping[str, Skill]) -> dict[str, str]:
    """Each realized latent procedure's id with its lexicographically
    smallest realizing skill id in `library`, in catalog order.

    A latent's realizers carry its id as a step, so only the skills indexed
    under that step token are checked.
    """
    by_step: dict[str, list[Skill]] = {}
    for skill in library.values():
        for step in set(skill.steps):
            by_step.setdefault(step, []).append(skill)
    found: dict[str, str] = {}
    for latent in scenario.latent_catalog:
        ids = [s.id for s in by_step.get(latent.id, ()) if realizes(s, latent)]
        if ids:
            found[latent.id] = min(ids)
    return found


def slot_outcome(
    scenario: Scenario, pair: Pair, used: Iterable[Skill], excess: int
) -> tuple[float, tuple[CauseLabel, float] | None]:
    """One routed phase's success probability and dominant deficit.  The
    logit is the base difficulty, plus the effects of the latents some used
    skill realizes (in catalog order), minus interference per used skill
    realizing none, minus overload per owned skill over capacity.  The
    deficit is the largest unmet term.  Among equally effective absent
    latents the largest id wins (`pair_views` order); on exact ties an
    absent latent beats interference, which beats overload.
    """
    base, latents, by_deficit = scenario.pair_views[pair]
    realized_steps: set[str] = set()  # of the used skills realizing a latent here
    mismatched = 0
    for skill in used:
        if pair in skill.applicability and any(l.id in skill.steps for l in latents):
            realized_steps.update(skill.steps)
        else:
            mismatched += 1
    logit = base
    for latent in latents:
        if latent.id in realized_steps:
            logit += latent.effect
    interference = scenario.interference_weight * mismatched
    overload = scenario.overload_weight * excess
    logit -= interference
    logit -= overload

    deficit = None
    for latent in by_deficit:
        if latent.id not in realized_steps:
            deficit = (latent.repairs_cause, latent.effect)
            break
    if interference > 0 and (deficit is None or interference > deficit[1]):
        cause = CauseLabel.SKILL_CONFLICT if mismatched >= 2 else CauseLabel.MISLEADING_RETRIEVAL
        deficit = (cause, interference)
    if overload > 0 and (deficit is None or overload > deficit[1]):
        deficit = (CauseLabel.BAD_EXECUTOR_ASSIGNMENT, overload)
    return logistic(logit), deficit


# one shared observation per (label, confident): shapes only read them
_OBSERVATIONS = {
    (cause, confident): CauseObservation(cause, confident)
    for cause in CauseLabel
    for confident in (True, False)
}
_UNOBSERVED = _OBSERVATIONS[CauseLabel.UNKNOWN, False]


class PhaseSlot(NamedTuple):
    """What one executor does at one (task, phase) pair under a fixed state."""

    slice: ExecutorSlice
    success_prob: float
    # the dominant deficit of the slice's invoked and pattern-supported skills
    deficit: tuple[CauseLabel, float] | None


class ExecutionTable:
    """Round-scoped routing and candidate table for one frozen state.

    Every entry is a pure function of (state, scenario, config), which stay
    fixed while a batch executes, so an episode only reads its stream words
    and looks the rest up.  The table is built before the batch's first
    episode: every task's root, in task order, with its routes and the
    greedy executor's first step, whose slot is filled then.  Explore steps
    and later phases fill their slots on first use; the order in which
    entries are filled cannot change any result.
    Slots read indexes built once per table (each task's candidate skills
    and each owner's skill count, from one pass over the library; one empty
    slice per (executor, phase); the manager id) or once per scenario
    (`pair_views`): a slot ranks its skills through `rank_skills` unless its
    task has no candidate skill, and `slot_outcome` evaluates them in one
    pass (`tests/reference.py` keeps `_terms`, `_success_prob` and
    `_deficit`).  Routes read the
    covering index, each pair's covering executor ids, built in one pass
    over the executors.

    Outcome paths are interned.  At each position the task draw picks from
    the scenario's `task_cuts`, `roots` holds (task, ((pair, route), ...),
    progress values `q12(c / n)` for c = 0..n, first trie steps, the greedy
    first step); the task's pairs and progress values are the scenario's
    `task_views`.  `end_episodes` reads phase 0 at its first
    step, greedy or explored, and `walk_episode` reads the rest.  A step,
    keyed by the drawn executor id, is the list [slot, the path's slices, next steps,
    then the positions in `shapes` of the shapes that end there: success,
    failure observed, unobserved], built by `trie_step`.  So an episode ends
    at its shape with a list lookup.  `shapes` lists each shape once, in
    order of first appearance (the batch's table), checked once, when it is
    added.
    A table lives for one `exec_shared` call and belongs to one state.
    """

    def __init__(self, state: RoundState, scenario: Scenario, config: EngineConfig):
        self.state = state
        self.scenario = scenario
        self.config = config
        self._slots: dict[tuple[Pair, str], PhaseSlot] = {}
        self._empty: dict[tuple[str, str], ExecutorSlice] = {}
        self._owned: Counter[str] = Counter()
        self._candidates = skills_by_task(state.library, self._owned)
        self._covering = covering_ids(state.executors)
        self.shapes: list[TraceShape] = []
        self.roots = self._roots()

    @functools.cached_property
    def _manager_id(self) -> str:
        return self.state.manager_id()

    def _roots(self) -> list[tuple]:
        """Every task's root in task order, then the last task's again: a
        draw at or past the last cut picks position len(tasks).
        A root's last item is its greedy first step, the one `end_episodes`
        reads."""
        roots = []
        for task, pairs, progress in self.scenario.task_views:
            routes = tuple((pair, self.route(pair)) for pair in pairs)
            pair, route = routes[0]
            greedy = trie_step(self.slot(pair, route.greedy), ())
            roots.append((task, routes, progress, {route.greedy: greedy}, greedy))
        roots.append(roots[-1])
        return roots

    def route(self, pair: Pair) -> Route:
        return executor_route(self.state.q_exec, *pair, self._covering)

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
        excess = max(0, self._owned.get(executor.id, 0) - executor.capacity)
        if task_id not in self._candidates:
            nothing = self._empty.get((executor.id, phase))
            if nothing is None:
                none = frozenset()
                nothing = self._empty[executor.id, phase] = ExecutorSlice(
                    executor.id, phase, none, none, none
                )
            return PhaseSlot(nothing, *slot_outcome(self.scenario, pair, (), excess))
        selected = rank_skills(
            self.state.q_skill,
            self._candidates[task_id],
            {executor.id, self._manager_id},
            task_id,
            self.config.top_k,
        )
        invoked = frozenset(sid for sid in selected if pair in library[sid].applicability)
        realized_actions = {step for sid in invoked for step in library[sid].steps}
        pattern_supported = frozenset(
            sid
            for sid in selected
            if sid not in invoked and realized_actions.issuperset(library[sid].steps)
        )
        # `slot_outcome` does not depend on the order of the used skills
        used = [library[sid] for sid in invoked | pattern_supported]
        return PhaseSlot(
            ExecutorSlice(executor.id, phase, frozenset(selected), invoked, pattern_supported),
            *slot_outcome(self.scenario, pair, used, excess),
        )


def trie_step(slot: PhaseSlot, slices: tuple[ExecutorSlice, ...]) -> list:
    """A new trie step at `slot`, after the path's earlier `slices`: no next
    steps and no shapes yet."""
    return [slot, (*slices, slot.slice), {}, None, None, None]


def walk_episode(
    table: ExecutionTable, root: tuple, words: list[int], blocks: Blocks, episode: int
) -> tuple[list, PhaseSlot | None, int]:
    """Make one episode's routing and success draws, up to its outcome.

    `words` is episode `episode`'s stream from `blocks`, whose words 0-1
    drew the task of `root`.  Phases run in order; each routes an executor
    (greedy, or with the scenario's exploration rate one drawn at random) and
    draws a Bernoulli success with the slot's probability.  Each routing and
    success draw is a `word_random` call, and an executor draw a
    `word_randrange` call, so the rules extend `words` past its end.
    The walk stops at the first phase that fails and returns the last step,
    the slot that failed (None when every phase succeeded) and the position
    after the last word read.
    """
    epsilon = table.scenario.routing_noise
    _, phases, _, steps, _ = root
    slices: tuple[ExecutorSlice, ...] = ()
    pos = 2
    for pair, route in phases:
        if word_random(words, pos, blocks, episode) < epsilon:
            index, pos = word_randrange(words, pos + 2, len(route.eligible), blocks, episode)
            executor_id = route.eligible[index]
        else:
            executor_id = route.greedy
            pos += 2
        step = steps.get(executor_id)
        if step is None:
            step = steps[executor_id] = trie_step(table.slot(pair, executor_id), slices)
        slot, slices, steps, _, _, _ = step
        u = word_random(words, pos, blocks, episode)
        pos += 2
        if not u < slot.success_prob:
            return step, slot, pos
    return step, None, pos


def _ending(step: list) -> tuple:
    """A phase-0 trie step, its success draw's window, and the ends of a
    failure there by the cause draw's column: observes, undecided, does not."""
    slot = step[0]
    fails = (5, 5, 5) if slot.deficit is None else (4, None, 5)
    return (step, *word_window(word_cut(slot.success_prob)), fails)


CHUNK = 1024  # consecutive episodes whose first blocks `end_episodes` derives in one call


def end_episodes(
    tables: Sequence[ExecutionTable], blocks: Blocks, episodes: range
) -> list[array]:
    """Run the consecutive `episodes` against the ground truth once for each
    table, its state fixed, each episode on its stream from `blocks`;
    returns, per table, the episodes' positions in its `shapes`.

    The tables share the scenario, so they share the task draw and the
    exploration rate.  Block 0 of up to `CHUNK` episodes at a time comes
    from one `blocks` call, and its draws are read once for every table, as
    columns of the chunk: words 0-1 draw the task, and a greedy phase 0's
    routing, success and cause draws are words 2-3, 4-5 and 6-7.  Every
    task is decided here: the first word's entry in `Scenario.task_buckets`,
    or, in a bucket a cut falls inside, `bisect_right(task_cuts, x)` of the
    draw's x.  Each phase-0 draw is decided from its first word alone,
    against its threshold's `streams.word_window`; a first word in a window
    decides nothing.  Then each table runs the chunk's episodes in order.
    An episode whose phase 0 surely explores (its routing word is below the
    window) draws its executor by `word_randrange`'s rule on words 4 to 12,
    the first top-bits value below n taken, with each table's shift; its
    success and cause draws start one and three words after the one taken.  An episode ends on its
    phase-0 step (the root's greedy first step, or the explored executor's,
    filled on first use) with no call when that phase fails, or succeeds on
    a single-phase task, as far as the first words tell.  Every other
    episode, and one whose executor tries in block 0 are all rejected, is
    walked by `walk_episode` on a list of its sixteen words, one list per
    episode for all tables, so no block is derived twice; the walk reads
    every draw after the task's by the word rules.  On failure the episode
    then draws its last value: the failing slot's dominant deficit is
    observed as the cause, confidently with the scenario's observation
    probability; with no deficit nothing is drawn.
    The episode's shape is the one its last trie step holds for that ending.
    """
    scenario = tables[0].scenario
    cuts, buckets = scenario.task_cuts, scenario.task_buckets
    confidence = scenario.cause_confidence
    explore_below, greedy_from = word_window(word_cut(scenario.routing_noise))
    observe_lo, observe_hi = word_window(word_cut(confidence))
    indexes = [array("L") for _ in tables]
    for first in range(episodes.start, episodes.stop, CHUNK):
        stop = min(first + CHUNK, episodes.stop)
        w = blocks(first, 0, stop - first)
        positions = [buckets[a >> 20] for a in w[0::16]]
        k = -1  # a task left at -1, in a bucket a cut falls inside, by its draw's x
        for _ in range(positions.count(-1)):
            k = positions.index(-1, k + 1)
            positions[k] = bisect_right(cuts, (w[16 * k] >> 5) << 26 | w[16 * k + 1] >> 6)
        # phase 0's success word, or None when its routing draw may explore
        successes = [None if r < greedy_from else s for r, s in zip(w[2::16], w[4::16])]
        # the cause draw observes (0), may (1) or does not (2)
        observed = [0 if c < observe_lo else 2 if c >= observe_hi else 1 for c in w[6::16]]
        lists: dict[int, list[int]] = {}  # each walked episode's words
        for table, index in zip(tables, indexes):
            roots, shapes = table.roots, table.shapes
            ends: list[int] = []  # the chunk's positions in `shapes`
            # at each task position: the greedy first step's `_ending` and
            # whether the task has one phase
            greedy = [(*_ending(step), len(phases) == 1) for _, phases, _, _, step in roots]
            # at each task position, once an episode explores there: phase
            # 0's pair, eligible executors, the executor draw's shift, the
            # root's steps and, per executor index, its first step's `_ending`
            explore: list = [None] * len(roots)
            for i, position, s, seen in zip(range(first, stop), positions, successes, observed):
                step, lo, hi, fails, single = greedy[position]
                if s is None:  # the routing draw may explore
                    k = 16 * (i - first)
                    if w[k + 2] < explore_below:  # it does
                        if explore[position] is None:
                            _, ((pair, route), *_), _, steps, _ = roots[position]
                            n = len(route.eligible)
                            explore[position] = (pair, route.eligible, 32 - n.bit_length(),
                                                 steps, [None] * n)
                        pair, eligible, shift, steps, cached = explore[position]
                        # `word_randrange`'s tries from word 4, up to the
                        # last whose cause draw starts in block 0
                        for j in range(k + 4, k + 13):
                            x = w[j] >> shift
                            if x < len(eligible):
                                entry = cached[x]
                                if entry is None:
                                    eid = eligible[x]
                                    if eid not in steps:
                                        steps[eid] = trie_step(table.slot(pair, eid), ())
                                    entry = cached[x] = _ending(steps[eid])
                                step, lo, hi, fails = entry
                                s, c = w[j + 1], w[j + 3]
                                seen = 0 if c < observe_lo else 2 if c >= observe_hi else 1
                                break
                end = None  # none yet: the episode is walked
                if s is not None:
                    if s >= hi:
                        end = fails[seen]
                    elif s < lo and single:
                        end = 3
                if end is None:
                    words = lists.get(i)
                    if words is None:
                        k = 16 * (i - first)
                        words = lists[i] = list(w[k : k + 16])
                    step, failed, pos = walk_episode(table, roots[position], words, blocks, i)
                    if failed is None:
                        end = 3
                    elif failed.deficit is None:
                        end = 5
                    else:  # the cause draw
                        end = 4 if word_random(words, pos, blocks, i) < confidence else 5
                shape = step[end]
                if shape is None:
                    shape = step[end] = len(shapes)
                    slices = step[1]
                    cause = None if end == 3 else _UNOBSERVED if end == 5 else (
                        _OBSERVATIONS[step[0].deficit[0], True]
                    )
                    completed = len(slices) - (end != 3)
                    task, _, progress, _, _ = roots[position]
                    shapes.append(
                        TraceShape(task, slices, int(end == 3), progress[completed], cause)
                    )
                ends.append(shape)
            index.fromlist(ends)
    return indexes


def exec_shared(
    states: Sequence[RoundState],
    scenario: Scenario,
    n_episodes: int,
    seed: int,
    config: EngineConfig,
) -> list[Batch]:
    """Execute one batch of episodes against each of several frozen states,
    all on the same streams; returns one batch per state, in order.

    Episode i reads its own stream, `episode_blocks(seed)` at i, so the
    batches are reproducible and safe to parallelize, and each state's batch
    is the one it would get alone: `exec_round(state, ...)`.  Each batch is
    round `state.round_index`'s: its table's shapes, in order of first
    appearance, and episode i's position among them at `index[i]`.
    `end_episodes` runs the episodes for every state's table in one pass, so
    the draws the states share are derived and read once.
    """
    if n_episodes < 1:
        raise ValueError("a round needs at least one episode")
    if not states:
        raise ValueError("frozen evaluation needs at least one state")
    tables = [ExecutionTable(state, scenario, config) for state in states]
    indexes = end_episodes(tables, episode_blocks(seed), range(n_episodes))
    return [
        Batch(table.state.round_index, tuple(table.shapes), index)
        for table, index in zip(tables, indexes)
    ]


def exec_round(
    state: RoundState,
    scenario: Scenario,
    n_episodes: int,
    seed: int,
    config: EngineConfig,
) -> Batch:
    """Execute a batch of episodes with the state held fixed: the batch of
    `exec_shared` on this one state.  Execution is read-only over the
    state.  Adaptation runs its rounds here; frozen evaluation of one state
    too."""
    [batch] = exec_shared([state], scenario, n_episodes, seed, config)
    return batch
