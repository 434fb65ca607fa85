"""Per-call and per-episode references for the engine.

The engine builds each rule's inputs once per round (`world.ExecutionTable`,
`streams.episode_blocks`) and applies the rule through one shared function.
Each function in the first part rebuilds those inputs for a single call and
applies the same rule, so a test can compare the indexed engine against it
call by call.  The success model is the exception: `_terms`,
`_success_prob` and `_deficit` build its terms one at a time and are
independent of `world.slot_outcome`, the engine's one-pass evaluation.
So are `all_pairs_clusters` and `scan_nearest_cluster`, which compare
every library skill where the engine compares only those that share a
token.

The second part is a whole round, episode by episode: every stage reads a
list of `Episode` records, which compare by value, in generation order, and
`reference_run_round` chains the stages as `orchestrator.run_round` does.
`episodes_of` is the one function that reads the engine's batch, and
`_propose` the one that hands the engine's proposal rule a record.  No
engine code calls any of them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from skillmas.config import EngineConfig
from skillmas.evolution import (
    Diagnosis,
    apply_skill_delta,
    promote_pool,
    proposal_index,
    propose,
    retrieve_policy_cards,
    skill_evolve,
)
from skillmas.model import (
    TAG_BY_CAUSE,
    Batch,
    BoundedTag,
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
    UtilityTable,
    jaccard,
    validate_state,
)
from skillmas.numfmt import q12
from skillmas.orchestrator import (
    RoundReport,
    TrajectoryReport,
    _summarize_action,
    _summarize_decision,
)
from skillmas.restructure import (
    apply_restructure,
    decide_restructure,
    evidence_holds,
)
from skillmas.retention import RetainedShape, RetentionCategory
from skillmas.streams import derive_seed
from skillmas.utility import (
    Route,
    executor_route,
    rank_skills,
    skills_by_task,
    used_skills,
)
from skillmas.world import (
    _OBSERVATIONS,
    _UNOBSERVED,
    LatentSkill,
    Scenario,
    logistic,
    realizes,
)


def mt_blocks(seed: int):
    """`(first, b, count=1) -> ` block b of episodes `first` to `first +
    count - 1` on the Mersenne Twister, concatenated: episode i's block b is
    the 32-bit words 16b to 16b + 15 of `random.Random(derive_seed(seed,
    "episode", i))`."""

    def block(episode: int, index: int) -> list[int]:
        rng = random.Random(derive_seed(seed, "episode", episode))
        words = [rng.getrandbits(32) for _ in range(16 * (index + 1))]
        return words[16 * index :]

    def blocks(first: int, index: int, count: int = 1) -> list[int]:
        return [w for episode in range(first, first + count) for w in block(episode, index)]

    return blocks


class WordStream:
    """One reader of episode `episode`'s words from `blocks`, fetched a
    block at a time as the reads reach them.

    It draws as `random.Random` draws from its own 32-bit outputs:
    `random()` from the tops of two words, `randrange(n)` from the top
    `n.bit_length()` bits of one word per try, rejecting values >= n.
    """

    def __init__(self, blocks, episode: int):
        self.blocks, self.episode = blocks, episode
        self.words: list[int] = []
        self.read = 0

    def word(self) -> int:
        if self.read == len(self.words):
            self.words += self.blocks(self.episode, len(self.words) // 16)
        self.read += 1
        return self.words[self.read - 1]

    def random(self) -> float:
        high, low = self.word() >> 5, self.word() >> 6
        return (high * 67108864.0 + low) / 9007199254740992.0

    def randrange(self, n: int) -> int:
        bits = n.bit_length()
        while True:
            value = self.word() >> (32 - bits)
            if value < n:
                return value


def reference_blocks(seed: int):
    """`(i, b) -> ` block b of episode i's stream, as the engine derives it:
    the BLAKE2b-512 digest of the whole message, label path, separator and
    both counters, cut into sixteen little-endian 32-bit words."""

    def block(episode: int, index: int) -> list[int]:
        message = (
            f"{seed}\x1fepisode\x1f".encode("utf-8")
            + episode.to_bytes(8, "little")
            + index.to_bytes(8, "little")
        )
        digest = hashlib.blake2b(message).digest()
        return [int.from_bytes(digest[k : k + 4], "little") for k in range(0, 64, 4)]

    return block


def episode_stream(seed: int, episode: int) -> WordStream:
    """Episode `episode` of the batch seeded `seed`, as a reader."""
    return WordStream(reference_blocks(seed), episode)


def scan_route(state: RoundState, task_id: str, phase: str) -> Route:
    """`executor_route` over a linear scan of `state.executors`: the ids of
    every executor whose boundary holds the pair, sorted, in place of the
    covering index."""
    pair = (task_id, phase)
    eligible = sorted(e.id for e in state.executors.values() if pair in e.boundary)
    return executor_route(state.q_exec, task_id, phase, {pair: eligible})


def all_pairs_clusters(library: Mapping[str, Skill], threshold: float) -> list[tuple[str, ...]]:
    """`cluster_skills` comparing every pair of skills, in place of the
    pairs that share a token."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("clustering threshold must be in (0, 1]")
    members = sorted(library.values(), key=lambda s: s.id)
    parent = {s.id: s.id for s in members}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tokens = {s.id: s.tokens() for s in members}
    for a, b in itertools.combinations(members, 2):
        if jaccard(tokens[a.id], tokens[b.id]) >= threshold:
            ra, rb = find(a.id), find(b.id)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    grouped: dict[str, list[str]] = {}
    for s in members:
        grouped.setdefault(find(s.id), []).append(s.id)
    return [tuple(sorted(ids)) for _, ids in sorted(grouped.items())]


def scan_nearest_cluster(draft: Skill, index, threshold: float) -> str:
    """`evolution._nearest_cluster` scanning every library skill's tokens
    in id order, in place of the skills that share a token with the draft."""
    tokens = draft.tokens()
    best_id, best_sim = None, 0.0
    for sid, skill_tokens in index.tokens.items():
        sim = jaccard(tokens, skill_tokens)
        if sim > best_sim:
            best_id, best_sim = sid, sim
    if best_id is not None and best_sim >= threshold:
        return index.keys[best_id]
    return f"new:{draft.id}"


def route_draw(route: Route, rng, epsilon: float) -> str:
    """Greedy with epsilon exploration: the routing draw of one phase."""
    if rng.random() < epsilon:
        return route.eligible[rng.randrange(len(route.eligible))]
    return route.greedy


def observe_cause(deficit: tuple[CauseLabel, float] | None, rng, confidence: float):
    """A failure's cause observation: a deficit is observed confidently
    with probability `confidence`; with no deficit nothing is drawn."""
    if deficit is not None and rng.random() < confidence:
        return _OBSERVATIONS[deficit[0], True]
    return _UNOBSERVED


def select_skills(
    q_skill: UtilityTable,
    state: RoundState,
    task_id: str,
    phase: str,
    executor: Executor | str,
    k: int,
) -> list[str]:
    """Task-conditioned skill retrieval for one phase.

    Candidates are the non-pruned skills applicable to the task type and
    owned by the routed executor or the manager; retrieval is task-wide, and
    only skills whose applicability covers the exact phase end up invoked.
    This is the per-call form of what `ExecutionTable` fills from its
    round-scoped index; both rank through `rank_skills`.
    """
    executor_id = executor.id if isinstance(executor, Executor) else executor
    owners = {executor_id, state.manager_id()}
    candidates = skills_by_task(state.library).get(task_id, ())
    return rank_skills(q_skill, candidates, owners, task_id, k)


class SuccessTerms(NamedTuple):
    """The terms of the success model at one routed phase."""

    realized: tuple[LatentSkill, ...]  # the pair's latents some used skill realizes
    absent: tuple[LatentSkill, ...]  # the pair's other latents, both in catalog order
    mismatched: int  # used skills that realize none of the pair's latents
    excess: int  # the executor's active owned skills beyond its capacity


def _terms(
    latents: Sequence[LatentSkill], used: Sequence[Skill], excess: int
) -> SuccessTerms:
    """Each latent checked against every used skill, one term at a time."""
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

    Among equally effective absent latents the largest id wins; on exact
    ties between terms: absent latent procedure, then interference, then
    overload.
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


def success_terms(
    scenario: Scenario,
    library: Mapping[str, Skill],
    pair: Pair,
    executor: Executor,
    used_skill_ids: Iterable[str],
) -> SuccessTerms:
    """The terms that both the success probability and the dominant deficit read."""
    used = []
    for skill_id in used_skill_ids:
        skill = library.get(skill_id)
        if skill is None:
            raise StateError(f"used skill {skill_id!r} is not in the library")
        used.append(skill)
    latents = [l for l in scenario.latent_catalog if l.applicability == pair]
    # library skills whose owner is this executor, beyond capacity, floored at 0
    owned = sum(1 for skill in library.values() if skill.owner == executor.id)
    return _terms(latents, used, max(0, owned - executor.capacity))


def ground_truth_success_prob(
    scenario: Scenario,
    library: Mapping[str, Skill],
    task_id: str,
    phase: str,
    executor: Executor,
    used_skill_ids: Iterable[str],
) -> float:
    """Phase success probability under the additive-logit ground truth
    (`_success_prob`), recomputing its terms from the library."""
    pair = (task_id, phase)
    if pair not in executor.boundary:
        raise StateError(f"executor {executor.id!r} routed outside its boundary {pair}")
    terms = success_terms(scenario, library, pair, executor, used_skill_ids)
    return _success_prob(scenario, pair, terms)


def _dominant_deficit(
    scenario: Scenario,
    library: Mapping[str, Skill],
    executor: Executor,
    task_id: str,
    phase: str,
    used_ids: frozenset[str],
) -> tuple[CauseLabel, float] | None:
    """`_deficit` with its terms recomputed from the library."""
    terms = success_terms(scenario, library, (task_id, phase), executor, used_ids)
    return _deficit(scenario, terms)


def _weighted_choice(
    rng: random.Random, tasks: Sequence[TaskType], weights: Mapping[str, float]
) -> TaskType:
    """Linear-scan reference for `ExecutionTable.task_at(rng.random())`."""
    total = sum(weights[t.id] for t in tasks)
    mark = rng.random() * total
    acc = 0.0
    for task in tasks:
        acc += weights[task.id]
        if mark < acc:
            return task
    return tasks[-1]


# ------------------------------------------------------------------ a round


@dataclass(frozen=True)
class Episode:
    """One episode as its trace-log line records it; compares by value."""

    episode_id: str
    task_type: TaskType
    slices: tuple[ExecutorSlice, ...]
    outcome: int
    progress: float
    cause: CauseObservation | None = None

    def executors(self) -> list[str]:
        """Routed executors in first-appearance order."""
        return list(dict.fromkeys(sl.executor for sl in self.slices))

    def shape(self) -> TraceShape:
        """A fresh engine shape with the episode's fields."""
        return TraceShape(self.task_type, self.slices, self.outcome, self.progress, self.cause)


@dataclass(frozen=True)
class RetainedEpisode:
    episode: Episode
    categories: frozenset[RetentionCategory]


def episode_of(episode_id: str, shape: TraceShape) -> Episode:
    return Episode(
        episode_id,
        shape.task_type,
        shape.slices,
        shape.outcome,
        shape.progress,
        shape.latent_cause_observation,
    )


def episodes_of(batch: Batch) -> list[Episode]:
    """The engine's batch as records, in generation order."""
    return [episode_of(batch.episode_id(i), batch.shapes[k]) for i, k in enumerate(batch.index)]


def record(e: Episode) -> dict[str, object]:
    """The episode's trace-log record."""
    cause = e.cause
    return {
        "episode": e.episode_id,
        "task": {"id": e.task_type.id, "phases": list(e.task_type.phases)},
        "outcome": e.outcome,
        "progress": e.progress,
        "cause": {"label": cause.cause.value, "confident": cause.confident} if cause else None,
        "slices": [
            {
                "executor": sl.executor,
                "phase": sl.phase,
                "selected": sorted(sl.selected),
                "invoked": sorted(sl.invoked),
                "pattern": sorted(sl.pattern_supported),
            }
            for sl in e.slices
        ],
    }


def _line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def reference_log(episodes: Iterable[Episode]) -> str:
    """The per-episode trace log of `episodes`: one canonical JSON record
    per line, the log's format before it held shape tables."""
    return "".join(_line(record(e)) for e in episodes)


# ------------------------------------------------ the per-episode format
#
# Until the trace log held shape tables, a run directory spelt every
# episode out: one log line per episode (`reference_log`), `retained` as
# lists of episode ids in `trajectory.json` format 1, and `run.json` format
# 3.  These functions rebuild those bytes from the new artifacts alone, so
# tests can check them against the digests recorded then.


def episode_id(round_index: int, i: int) -> str:
    """Episode i's id in the per-episode format."""
    return f"r{round_index:04d}e{i:05d}"


def log_rounds(text: str) -> Iterator[tuple[int, list[dict], list[int]]]:
    """Each round of a shape-table trace log as (round, its table's records
    without "round" and "shape", its index), checking that each round's
    entries are numbered 0, 1, ... and that its index line closes it."""
    table: list[dict] = []
    rounds: set[int] = set()
    for line in text.splitlines():
        record = json.loads(line)
        round_index = record.pop("round")
        if "index" in record:
            index = record.pop("index")
            assert not record and rounds <= {round_index}
            # the table lists its entries in order of first appearance
            assert list(dict.fromkeys(index)) == list(range(len(table)))
            yield round_index, table, index
            table, rounds = [], set()
        else:
            assert record.pop("shape") == len(table)
            table.append(record)
            rounds.add(round_index)
    assert not table, "a table without its index line"


def expand_log(text: str) -> str:
    """A shape-table trace log in the per-episode format: episode i's line
    is its table entry's record with the episode's id."""
    return "".join(
        _line({**table[k], "episode": episode_id(round_index, i)})
        for round_index, table, index in log_rounds(text)
        for i, k in enumerate(index)
    )


def expand_retained(
    round_index: int, entries: Mapping[str, Sequence[int]], index: Sequence[int]
) -> dict[str, list[str]]:
    """`retained`'s table entries per category as the per-episode format's
    id lists: the ids of the episodes whose entry carries the category, in
    generation order."""
    carried = {category: set(ks) for category, ks in entries.items()}
    return {
        category: [episode_id(round_index, i) for i, k in enumerate(index) if k in ks]
        for category, ks in sorted(carried.items())
    }


def _pretty(payload: object) -> str:
    """`orchestrator.canonical_json`'s text, by its definition."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def expand_report(report: TrajectoryReport, indexes: Sequence[Sequence[int]]) -> str:
    """A trajectory report's JSON in the per-episode format: format 1, with
    each round's `retained` re-expanded from its entries and that round's
    batch index, `indexes[r]`."""
    payload = report.to_dict()
    assert payload["format"] == 2
    payload["format"] = 1
    for row, r, index in zip(payload["rounds"], report.rounds, indexes, strict=True):
        row["retained"] = expand_retained(r.round_index, row["retained"], index)
    return _pretty(payload)


def expand_run_dir(run_dir: Path, out: Path) -> None:
    """Copy a run directory to `out` in the per-episode format, from its
    files alone: the log re-expanded, each round's `retained` re-expanded
    through that round's index line and `trajectory.json` format 1; every
    other file, `run.json` included, as it is."""
    shutil.copytree(run_dir, out)
    log = (run_dir / "traces.jsonl").read_text(encoding="utf-8")
    (out / "traces.jsonl").write_text(expand_log(log), encoding="utf-8")
    indexes = {round_index: index for round_index, _, index in log_rounds(log)}
    trajectory = json.loads((run_dir / "trajectory.json").read_text(encoding="utf-8"))
    assert trajectory["format"] == 2
    trajectory["format"] = 1
    for row in trajectory["rounds"]:
        row["retained"] = expand_retained(row["round"], row["retained"], indexes[row["round"]])
    (out / "trajectory.json").write_text(_pretty(trajectory), encoding="utf-8")


def reference_slot(scenario, state, pair, executor_id, config):
    """One routed phase's slice, success probability and dominant deficit,
    with retrieval and every ground-truth term recomputed."""
    task_id, phase = pair
    executor = state.executors[executor_id]
    selected = frozenset(
        select_skills(state.q_skill, state, task_id, phase, executor, config.top_k)
    )
    invoked = frozenset(s for s in selected if pair in state.library[s].applicability)
    actions = frozenset(step for s in invoked for step in state.library[s].steps)
    supported = frozenset(s for s in selected - invoked if set(state.library[s].steps) <= actions)
    used = invoked | supported
    return (
        ExecutorSlice(executor_id, phase, selected, invoked, supported),
        ground_truth_success_prob(scenario, state.library, task_id, phase, executor, sorted(used)),
        _dominant_deficit(scenario, state.library, executor, task_id, phase, used),
    )


def reference_episode(scenario, state, task_type, rng, episode_id, config) -> Episode:
    """One episode with every routing, retrieval and ground-truth value
    recomputed at each phase."""
    epsilon = scenario.routing_noise
    slices = []
    completed = 0
    observation = None
    for phase in task_type.phases:
        pair = (task_type.id, phase)
        executor_id = route_draw(scan_route(state, task_type.id, phase), rng, epsilon)
        sl, p, deficit = reference_slot(scenario, state, pair, executor_id, config)
        slices.append(sl)
        if rng.random() < p:
            completed += 1
            continue
        observation = observe_cause(deficit, rng, scenario.cause_confidence)
        break
    outcome = 1 if completed == len(task_type.phases) else 0
    return Episode(
        episode_id,
        task_type,
        tuple(slices),
        outcome,
        q12(completed / len(task_type.phases)),
        observation if outcome == 0 else None,
    )


def reference_exec_round(state, scenario, n_episodes, seed, config, id_prefix) -> list[Episode]:
    """Episode i on its own fresh stream, every value recomputed."""
    episodes = []
    for i in range(n_episodes):
        rng = episode_stream(seed, i)
        task = _weighted_choice(rng, scenario.task_types, scenario.task_weights)
        episodes.append(
            reference_episode(scenario, state, task, rng, f"{id_prefix}e{i:05d}", config)
        )
    return episodes


def reference_learn(q_skill, q_exec, episodes, *, known_skills=None, known_executors=None):
    """Add each episode's (outcome, 1) to every key it credits, once per
    executor that used the key, one episode at a time."""
    skill_ids = frozenset(known_skills) if known_skills is not None else None
    executor_ids = frozenset(known_executors) if known_executors is not None else None
    s_counts = dict(q_skill.counts)
    a_counts = dict(q_exec.counts)

    def credit(counts, key, outcome):
        successes, attempts = counts.get(key, (0, 0))
        counts[key] = (successes + outcome, attempts + 1)

    for e in episodes:  # already in generation order
        task_id = e.task_type.id
        used_by = {}
        for sl in e.slices:
            if executor_ids is not None and sl.executor not in executor_ids:
                raise StateError(f"trace {e.episode_id} routes unknown executor {sl.executor!r}")
            if skill_ids is not None and not sl.selected <= skill_ids:
                unknown = sorted(sl.selected - skill_ids)
                raise StateError(f"trace {e.episode_id} references unknown skills {unknown}")
            used_by.setdefault(sl.executor, set()).update(used_skills(sl))
        for executor_id in e.executors():
            for skill_id in used_by[executor_id]:
                credit(s_counts, (skill_id, task_id), e.outcome)
            credit(a_counts, (executor_id, task_id), e.outcome)
    return UtilityTable(s_counts), UtilityTable(a_counts)


def reference_pool_counters(pool, episodes):
    new_pool = dict(pool)
    for e in episodes:
        used_all = set()
        for sl in e.slices:
            used_all.update(used_skills(sl))
        for sid in sorted(used_all):
            if sid in new_pool:
                uses, successes = new_pool[sid]
                new_pool[sid] = (uses + 1, successes + e.outcome)
    return new_pool


def observed_cause(e: Episode) -> CauseLabel:
    return e.cause.cause if e.cause is not None else CauseLabel.UNKNOWN


def reference_failure_counts(episodes) -> Counter:
    """Failed episodes per (task id, observed cause)."""
    return Counter((e.task_type.id, observed_cause(e)) for e in episodes if e.outcome == 0)


def reference_retain(episodes, q_exec_prior, config, library, *, prior_failure_counts=None):
    failure_keys = reference_failure_counts(episodes)
    for key, count in (prior_failure_counts or {}).items():
        failure_keys[key] += count
    retained = []
    for e in episodes:
        categories = set()
        task_id = e.task_type.id
        if e.outcome == 0:
            if failure_keys[(task_id, observed_cause(e))] >= config.repeat_multiplicity:
                categories.add(RetentionCategory.REPEATED_FAILURE)
            if e.progress >= config.near_miss_progress:
                categories.add(RetentionCategory.NEAR_MISS)
        else:
            pooled_used = any(
                library[sid].status is SkillStatus.POOLED
                for sl in e.slices
                for sid in used_skills(sl)
                if sid in library
            )
            weak_executor = any(
                q_exec_prior.count(eid, task_id) >= 1
                and q_exec_prior.value(eid, task_id) < config.low_estimate
                for eid in e.executors()
            )
            if pooled_used or weak_executor:
                categories.add(RetentionCategory.REUSABLE_SUCCESS)
        if any(sl.selected - used_skills(sl) for sl in e.slices):
            categories.add(RetentionCategory.RETRIEVAL_MISMATCH)
        if categories:
            retained.append(RetainedEpisode(e, frozenset(categories)))
    return retained


def reference_diagnosis(e: Episode) -> Diagnosis:
    """A failure's cause and tag: the cause counts only when observed
    confidently."""
    confident = e.cause is not None and bool(e.cause.confident)
    cause = e.cause.cause if confident else CauseLabel.UNKNOWN
    return Diagnosis(cause, TAG_BY_CAUSE[cause])


def _propose(kept: RetainedEpisode, diagnosis, cards, state, config, index):
    """The engine's proposal rule on one retained episode."""
    e = kept.episode
    retained = RetainedShape(e.shape(), 1, e.episode_id)
    return propose(retained, diagnosis, cards, state.library, state.round_index, config, index)


def reference_proposals(retained, state, config, index):
    proposals = []
    for kept in retained:
        e = kept.episode
        if e.outcome == 0:
            diagnosis = reference_diagnosis(e)
            cards = retrieve_policy_cards(state.policy_index, e.task_type.id, diagnosis.cause)
        else:
            diagnosis, cards = None, ()
        proposal = _propose(kept, diagnosis, cards, state, config, index)
        if proposal is not None:
            proposals.append(proposal)
    return proposals


def reference_artifacts(retained, q_exec_plus, skill_delta):
    addressed = skill_delta.source_traces()
    failures = {}
    for kept in retained:
        if kept.episode.outcome == 0:
            failures.setdefault(kept.episode.task_type.id, []).append(kept.episode)
    artifacts = []
    for task_id in sorted(failures):
        family = failures[task_id]
        last = [e.slices[-1] for e in family]
        facts = {
            "task_type": task_id,
            "failure_mass": sum(1 for e in family if e.episode_id not in addressed),
            "executors": [
                {"id": eid, "value": q_exec_plus.value(eid, task_id),
                 "count": q_exec_plus.count(eid, task_id)}
                for eid in sorted({sl.executor for sl in last})
            ],
            "handoff_present": any(
                reference_diagnosis(e).tag is BoundedTag.HANDOFF_TO_STRUCTURE for e in family
            ),
        }
        artifacts.append((facts, frozenset((task_id, sl.phase) for sl in last)))
    return artifacts


def reference_run_round(
    state: RoundState,
    scenario: Scenario,
    config: EngineConfig,
    seed: int,
    *,
    last_round_drop: bool = False,
    last_round_edits: frozenset[str] = frozenset(),
    prior_failure_counts: Mapping[tuple[str, CauseLabel], int] | None = None,
) -> tuple[RoundState, dict, list[Episode]]:
    """`run_round` with every per-episode stage replaced by its reference;
    the stages that read no episode are the engine's.  The report is a
    round's row in the per-episode format: its `retained` lists are the
    reference's own episode ids."""
    episodes = reference_exec_round(
        state, scenario, config.episodes_per_round, seed, config, f"r{state.round_index:04d}"
    )
    q_skill_plus, q_exec_plus = reference_learn(
        state.q_skill,
        state.q_exec,
        episodes,
        known_skills=state.library,
        known_executors=state.executors,
    )
    pool_counted = reference_pool_counters(state.pool, episodes)
    retained = reference_retain(
        episodes, state.q_exec, config, state.library, prior_failure_counts=prior_failure_counts
    )
    index = proposal_index(scenario, state.library, config)
    delta = skill_evolve(
        reference_proposals(retained, state, config, index),
        state.library,
        state.policy_index,
        q_skill_plus,
        config,
        index,
        last_round_drop=last_round_drop,
        last_round_edits=last_round_edits,
    )
    library2, pool2 = apply_skill_delta(state.library, state.executors, pool_counted, delta)
    decision = decide_restructure(
        reference_artifacts(retained, q_exec_plus, delta),
        state.executors,
        q_exec_plus,
        config,
        round_index=state.round_index,
        library=library2,
    )
    if not evidence_holds(decision):
        raise StateError(f"round {state.round_index}: {decision.action!r} fails its evidence")
    library3, executors3, pool3, ownership_log = apply_restructure(
        library2, state.executors, pool2, q_skill_plus, decision, config
    )
    library4, executors4, pool4, promotions = promote_pool(library3, pool3, executors3, config)
    next_state = RoundState(
        round_index=state.round_index + 1,
        library=library4,
        executors=executors4,
        # a pruned skill's utility entries go with it
        q_skill=UtilityTable(
            {(sid, task): n for (sid, task), n in q_skill_plus.counts.items() if sid in library4}
        ),
        q_exec=q_exec_plus,
        pool=pool4,
        policy_index=state.policy_index,
    )
    validate_state(next_state, scenario.universe())

    retained_ids: dict[str, list[str]] = {}
    for kept in retained:
        for category in sorted(c.value for c in kept.categories):
            retained_ids.setdefault(category, []).append(kept.episode.episode_id)
    per_family: dict[str, tuple[int, int]] = {}
    for e in episodes:
        s, a = per_family.get(e.task_type.id, (0, 0))
        per_family[e.task_type.id] = (s + e.outcome, a + 1)
    report = RoundReport(
        round_index=state.round_index,
        episodes=len(episodes),
        successes=sum(e.outcome for e in episodes),
        per_family=per_family,
        active_skills=state.active_skill_count(),
        active_executors=len(state.executors),
        pool_size=len(state.pool),
        retained_entries={},
        skill_actions=tuple(_summarize_action(a) for a in delta.actions),
        restructure=_summarize_decision(decision, ownership_log),
        promotions=tuple(promotions),
        last_round_drop=last_round_drop,
    )
    row = report.to_dict()
    row["retained"] = dict(sorted(retained_ids.items()))
    return next_state, row, episodes


def reference_rounds(scenario, seed_state, seed, rounds, config):
    """Chain `reference_run_round` as `experiment_rounds` chains `run_round`:
    a success drop arms the next round's demotion, and with
    `cross_round_repeats` earlier rounds' failure counts are folded in."""
    state = seed_state
    successes: list[int] = []
    last_edits: frozenset[str] = frozenset()
    history: Counter = Counter()
    for r in range(rounds):
        drop = r >= 2 and successes[r - 1] < successes[r - 2]
        prior = dict(history) if config.cross_round_repeats and r > 0 else None
        state, row, episodes = reference_run_round(
            state,
            scenario,
            config,
            derive_seed(seed, "round", r),
            last_round_drop=drop,
            last_round_edits=last_edits,
            prior_failure_counts=prior,
        )
        successes.append(row["successes"])
        last_edits = frozenset(
            sid
            for action in row["skill_actions"]
            if action["action"] in ("create", "refine", "hold-in-pool")
            for sid in action["skills"]
        )
        history.update(reference_failure_counts(episodes))
        yield state, row, episodes
