"""Domain model: tasks, skills, executors, utility tables, batches, round state.

Everything here is an immutable value.  The orchestrator builds new
RoundState instances rather than mutating, so a state can be shared
read-only across parallel episode workers; mutation happens only through
the sequential round update.
"""

from __future__ import annotations

import functools
import operator
from array import array
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .numfmt import q12

Pair = tuple[str, str]
"""A (task type id, phase id) coordinate in the routing space."""


class StateError(ValueError):
    """A state object violates a structural invariant."""


class SkillStatus(str, Enum):
    SEEDED = "seeded"
    POOLED = "pooled"
    VALIDATED = "validated"


class CauseLabel(str, Enum):
    """Closed enumeration of latent failure causes."""

    MISSING_PRECONDITION = "missing-precondition"
    WRONG_ACTION_ORDER = "wrong-action-order"
    MISLEADING_RETRIEVAL = "misleading-retrieval"
    SKILL_CONFLICT = "skill-conflict"
    BAD_EXECUTOR_ASSIGNMENT = "bad-executor-assignment"
    UNKNOWN = "unknown"


class BoundedTag(str, Enum):
    """Closed enumeration of bounded update tags; NONE means no edit."""

    ADD_GUARD = "add-guard"
    REORDER_STEP = "reorder-step"
    TIGHTEN_RETRIEVAL = "tighten-retrieval"
    SPLIT_SKILL = "split-skill"
    HANDOFF_TO_STRUCTURE = "handoff-to-structure"
    NONE = "none"


#: Tags that permit a local skill repair (everything except structural
#: handoff and the no-edit tag).
REPAIR_TAGS: frozenset[BoundedTag] = frozenset(
    {
        BoundedTag.ADD_GUARD,
        BoundedTag.REORDER_STEP,
        BoundedTag.TIGHTEN_RETRIEVAL,
        BoundedTag.SPLIT_SKILL,
    }
)

#: Fixed cause -> bounded tag routing.
TAG_BY_CAUSE: dict[CauseLabel, BoundedTag] = {
    CauseLabel.MISSING_PRECONDITION: BoundedTag.ADD_GUARD,
    CauseLabel.WRONG_ACTION_ORDER: BoundedTag.REORDER_STEP,
    CauseLabel.MISLEADING_RETRIEVAL: BoundedTag.TIGHTEN_RETRIEVAL,
    CauseLabel.SKILL_CONFLICT: BoundedTag.SPLIT_SKILL,
    CauseLabel.BAD_EXECUTOR_ASSIGNMENT: BoundedTag.HANDOFF_TO_STRUCTURE,
    CauseLabel.UNKNOWN: BoundedTag.NONE,
}


@dataclass(frozen=True, slots=True)
class TaskType:
    id: str
    phases: tuple[str, ...]

    def __post_init__(self) -> None:
        phases = self.phases
        if not phases:
            raise StateError(f"task type {self.id!r} has no phases")
        if len(phases) > 1 and len(set(phases)) != len(phases):
            raise StateError(f"task type {self.id!r} repeats a phase id")

    def pairs(self) -> tuple[Pair, ...]:
        return tuple((self.id, phase) for phase in self.phases)


@dataclass(frozen=True)
class Skill:
    """A reusable procedure package.

    Content is a token-set abstraction (steps, guards, checks) rather than
    natural language, which keeps similarity, guard matching, and
    verification deterministic.  Exactly one executor owns a skill.
    """

    id: str
    applicability: frozenset[Pair]
    steps: tuple[str, ...]
    guards: frozenset[str] = frozenset()
    checks: frozenset[str] = frozenset()
    status: SkillStatus = SkillStatus.SEEDED
    owner: str = ""

    def __post_init__(self) -> None:
        if not self.applicability:
            raise StateError(f"skill {self.id!r} has empty applicability")
        if not self.steps:
            raise StateError(f"skill {self.id!r} has no steps")

    def tokens(self) -> frozenset[str]:
        """Step and guard tokens, the basis of skill similarity."""
        return frozenset(self.steps) | self.guards


@dataclass(frozen=True)
class Executor:
    """An agent role with a responsibility boundary.  Its skills are the
    library's skills that name it as owner (`owned_by`)."""

    id: str
    boundary: frozenset[Pair]
    capacity: int = 4
    is_manager: bool = False

    def __post_init__(self) -> None:
        if not self.boundary:
            raise StateError(f"executor {self.id!r} has an empty boundary")
        if self.capacity < 1:
            raise StateError(f"executor {self.id!r} has capacity < 1")


@functools.lru_cache(maxsize=1024)
def ratio(successes: int, attempts: int) -> float:
    """`q12(successes / attempts)`, memoized by the integer counts.  The
    same few hundred ratios are read thousands of times per run; the memo
    keeps at most its `maxsize` of them, the most recently read."""
    return q12(successes / attempts)


@dataclass(frozen=True)
class UtilityTable:
    """Verified outcomes keyed by (skill or executor id, task id).

    Every outcome is 0 or 1, so an entry is exactly its (successes,
    attempts) counts.  Its value, the mean outcome `ratio(successes,
    attempts)`, is computed where it is read: `value`, which routing and
    ranking call once per candidate, reads `counts` directly, and `get`
    also gives the attempts.
    """

    counts: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)

    @functools.cached_property
    def entries(self) -> dict[tuple[str, str], tuple[float, int]]:
        """The read view: each key's `get`, built on first use."""
        return {key: self.get(*key) for key in self.counts}

    def get(self, key: str, task_id: str) -> tuple[float, int] | None:
        """The entry's (value, attempts), or None when it has no attempt."""
        entry = self.counts.get((key, task_id))
        return None if entry is None else (ratio(*entry), entry[1])

    def value(self, key: str, task_id: str) -> float:
        """The entry's value, `get`'s first item, or the 0.5 prior when it
        has no attempt."""
        entry = self.counts.get((key, task_id))
        return 0.5 if entry is None else ratio(*entry)

    def count(self, key: str, task_id: str) -> int:
        entry = self.counts.get((key, task_id))
        return entry[1] if entry is not None else 0

    @staticmethod
    def check_counts(key: str, task_id: str, successes: int, attempts: int) -> None:
        """The one rule for an entry: 0 <= successes <= attempts, attempts >= 1."""
        if not 0 <= successes <= attempts or attempts < 1:
            raise StateError(
                f"utility ({key},{task_id}) counts {successes}/{attempts} out of range: "
                "need 0 <= successes <= attempts and attempts >= 1"
            )

    def check(self) -> None:
        for (key, task_id), (successes, attempts) in self.counts.items():
            self.check_counts(key, task_id, successes, attempts)


@dataclass(frozen=True)
class CauseObservation:
    cause: CauseLabel
    confident: bool


@dataclass(frozen=True, slots=True)
class ExecutorSlice:
    """The executor-local portion of one episode phase."""

    executor: str
    phase: str
    selected: frozenset[str]
    invoked: frozenset[str]
    pattern_supported: frozenset[str]

    def __post_init__(self) -> None:
        selected = self.selected
        if not self.invoked <= selected:
            raise StateError("invoked skills must be a subset of selected")
        if not self.pattern_supported <= selected:
            raise StateError("pattern-supported skills must be a subset of selected")


_PHASE = operator.attrgetter("phase")


@dataclass(frozen=True, slots=True, eq=False)
class TraceShape:
    """Everything an episode's trace records apart from its id.

    Shapes compare and hash by identity: the execution table interns one
    shape per outcome path, so episodes that took the same path share one
    shape object, which a round's `Batch` lists once.
    """

    task_type: TaskType
    slices: tuple[ExecutorSlice, ...]
    outcome: int
    progress: float
    latent_cause_observation: CauseObservation | None = None

    def __post_init__(self) -> None:
        outcome = self.outcome
        if outcome not in (0, 1):
            raise StateError("outcome must be binary")
        if outcome == 1 and self.progress != 1.0:
            raise StateError("a successful episode must have progress 1.0")
        if self.latent_cause_observation is not None and outcome == 1:
            raise StateError("cause observations accompany failures only")
        slices = self.slices
        if not slices:
            raise StateError("a trace routes at least its first phase")
        if tuple(map(_PHASE, slices)) != self.task_type.phases[: len(slices)]:
            raise StateError("slices must cover the attempted phases in order")

    def executors(self) -> tuple[str, ...]:
        """Routed executors in first-appearance order."""
        seen: dict[str, None] = {}
        for sl in self.slices:
            seen.setdefault(sl.executor, None)
        return tuple(seen)


@dataclass(frozen=True, slots=True)
class Batch:
    """One round's verified episodes: a table of their distinct shapes, in
    order of first appearance, and episode i's position in that table at
    `index[i]`, in generation order.

    `index` is an `array` of typecode "L", which holds at least 2**32
    values.  Episode ids are not stored: `episode_id` formats one where it
    is written.  `counts` holds each shape's number of episodes, counted once.
    """

    round_index: int
    shapes: tuple[TraceShape, ...]
    index: array
    counts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        counts = Counter(self.index)
        object.__setattr__(self, "counts", tuple(counts[k] for k in range(len(self.shapes))))

    def episode_id(self, i: int) -> str:
        """The id of episode i, the one format of an episode id."""
        return f"r{self.round_index:04d}e{i:05d}"

    def tally(self) -> list[tuple[TraceShape, int]]:
        """Each shape with its number of episodes, in table order."""
        return list(zip(self.shapes, self.counts))

    def firsts(self) -> list[int]:
        """Each shape's first episode, in table order."""
        firsts: list[int] = []
        i = 0
        for k in range(len(self.shapes)):
            i = self.index.index(k, i)
            firsts.append(i)
        return firsts


@dataclass(frozen=True)
class PolicyCard:
    """A fixed repair prior keyed by (task type, cause)."""

    id: str
    cause: CauseLabel
    task_type: str
    recommended_tag: BoundedTag
    template_skill: str | None = None


@dataclass(frozen=True)
class RoundState:
    """The full adaptive state carried between rounds."""

    round_index: int
    library: dict[str, Skill]
    executors: dict[str, Executor]
    q_skill: UtilityTable
    q_exec: UtilityTable
    pool: dict[str, tuple[int, int]]
    policy_index: tuple[PolicyCard, ...] = ()

    def manager_id(self) -> str:
        for executor in self.executors.values():
            if executor.is_manager:
                return executor.id
        raise StateError("no manager executor present")

    def active_skill_count(self) -> int:
        return len(self.library)


def owned_by(library: Mapping[str, Skill]) -> dict[str, list[Skill]]:
    """Each owner id with its skills, in library order.  `Skill.owner` is
    the one record of ownership, so an executor's skills are derived here."""
    owned: dict[str, list[Skill]] = {}
    for skill in library.values():
        owned.setdefault(skill.owner, []).append(skill)
    return owned


def validate_state(state: RoundState, universe: frozenset[Pair]) -> None:
    """Check the structural invariants; raise StateError listing every violation.

    The manager's boundary must cover `universe`, the scenario's full
    (task, phase) space, so every pair an episode reaches can be routed.
    Ownership is stored once, as `Skill.owner`, so the one ownership rule
    is that every owner is an executor of the state.
    """
    problems: list[str] = []
    if state.round_index < 0:
        problems.append(f"round {state.round_index} is negative")

    managers = [e.id for e in state.executors.values() if e.is_manager]
    if len(managers) != 1:
        problems.append(f"expected exactly one manager, found {managers!r}")
    else:
        manager = state.executors[managers[0]]
        missing = sorted(universe - manager.boundary)
        if missing:
            problems.append(f"manager boundary misses pairs {missing!r}")

    for skill in state.library.values():
        if skill.owner not in state.executors:
            problems.append(f"skill {skill.id!r} has orphan owner {skill.owner!r}")
        if skill.status is SkillStatus.POOLED and skill.id not in state.pool:
            problems.append(f"pooled skill {skill.id!r} absent from pool map")

    for skill_id in state.pool:
        skill = state.library.get(skill_id)
        if skill is None:
            problems.append(f"pool references unknown skill {skill_id!r}")
        elif skill.status is not SkillStatus.POOLED:
            problems.append(f"pool entry {skill_id!r} is not pooled")

    for skill_id, task_id in state.q_skill.counts:
        if skill_id not in state.library:
            problems.append(f"utility ({skill_id},{task_id}) references unknown skill {skill_id!r}")

    for skill_id, (uses, successes) in state.pool.items():
        if uses < 0 or successes < 0 or successes > uses:
            problems.append(f"pool counters for {skill_id!r} are inconsistent")

    try:
        state.q_skill.check()
        state.q_exec.check()
    except StateError as exc:
        problems.append(str(exc))

    if problems:
        raise StateError("; ".join(problems))


def jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    """Jaccard similarity of two token sets; 0.0 when both are empty."""
    union = a | b
    return len(a & b) / len(union) if union else 0.0


def skill_similarity(a: Skill, b: Skill) -> float:
    """Jaccard similarity over the union of step and guard tokens."""
    return jaccard(a.tokens(), b.tokens())


def token_holders(tokens: Mapping[str, frozenset[str]]) -> dict[str, list[str]]:
    """Each token with the ids whose token set holds it, in `tokens` order."""
    holders: dict[str, list[str]] = {}
    for sid, held in tokens.items():
        for token in held:
            holders.setdefault(token, []).append(sid)
    return holders


def cluster_skills(
    tokens: Mapping[str, frozenset[str]], holders: Mapping[str, list[str]], threshold: float
) -> list[tuple[str, ...]]:
    """Single-linkage clusters of skills under skill_similarity, from each
    skill id's token set (`Skill.tokens`) and their `token_holders`.

    Clusters and their members are in lexicographic id order, so the result
    is order-independent.  A threshold in (0, 1] never links two skills
    that share no token, so only pairs found through `holders` are
    compared.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("clustering threshold must be in (0, 1]")
    parent = {sid: sid for sid in tokens}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, held in tokens.items():
        # the root of a component is its smallest id, whatever the link order
        for b in {b for token in held for b in holders[token] if b > a}:
            if jaccard(held, tokens[b]) >= threshold:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    grouped: dict[str, list[str]] = {}
    for sid in sorted(tokens):
        grouped.setdefault(find(sid), []).append(sid)
    return [tuple(ids) for _, ids in sorted(grouped.items())]
