"""Domain model: tasks, skills, executors, utility tables, traces, round state.

Everything here is an immutable value.  The orchestrator builds new
RoundState instances rather than mutating, so a state can be shared
read-only across parallel episode workers; mutation happens only through
the sequential round update.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

Pair = tuple[str, str]
"""A (task type id, phase id) coordinate in the routing space."""


class StateError(ValueError):
    """A state object violates a structural invariant."""


class SkillStatus(str, Enum):
    SEEDED = "seeded"
    POOLED = "pooled"
    VALIDATED = "validated"
    PRUNED = "pruned"


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

    def applies_to(self, pair: Pair) -> bool:
        return pair in self.applicability


@dataclass(frozen=True)
class Executor:
    """An agent role with a responsibility boundary and an owned skill set."""

    id: str
    boundary: frozenset[Pair]
    owned_skills: frozenset[str] = frozenset()
    capacity: int = 4
    is_manager: bool = False

    def __post_init__(self) -> None:
        if not self.boundary:
            raise StateError(f"executor {self.id!r} has an empty boundary")
        if self.capacity < 1:
            raise StateError(f"executor {self.id!r} has capacity < 1")

    def covers(self, pair: Pair) -> bool:
        return pair in self.boundary


@dataclass(frozen=True)
class UtilityTable:
    """Empirical success estimates keyed by (skill or executor id, task id).

    Each entry carries the number of verified updates applied to it; with
    the count-based step size the value is exactly the running mean of the
    binary outcomes fed to the entry.
    """

    entries: dict[tuple[str, str], tuple[float, int]] = field(default_factory=dict)

    def get(self, key: str, task_id: str) -> tuple[float, int] | None:
        return self.entries.get((key, task_id))

    def value(self, key: str, task_id: str, default: float = 0.5) -> float:
        entry = self.entries.get((key, task_id))
        return entry[0] if entry is not None else default

    def count(self, key: str, task_id: str) -> int:
        entry = self.entries.get((key, task_id))
        return entry[1] if entry is not None else 0

    def sorted_entries(self) -> list[tuple[tuple[str, str], tuple[float, int]]]:
        return sorted(self.entries.items())

    def check(self) -> None:
        for (key, task_id), (value, count) in self.entries.items():
            if not 0.0 <= value <= 1.0:
                raise StateError(f"utility ({key},{task_id}) out of [0,1]: {value}")
            if count < 0:
                raise StateError(f"utility ({key},{task_id}) has negative count")


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
    shape per outcome path, so traces that took the same path share one
    shape object, and every per-shape stage keys its memo on it.
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
        if tuple(map(_PHASE, slices)) != self.task_type.phases[: len(slices)]:
            raise StateError("slices must cover the attempted phases in order")

    def executors(self) -> tuple[str, ...]:
        """Routed executors in first-appearance order."""
        seen: dict[str, None] = {}
        for sl in self.slices:
            seen.setdefault(sl.executor, None)
        return tuple(seen)


@dataclass(frozen=True, slots=True)
class EpisodeTrace:
    """One verified episode: its id and the shape of its outcome path."""

    episode_id: str
    shape: TraceShape


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
        return sum(1 for s in self.library.values() if s.status != SkillStatus.PRUNED)


def active_owned(executor: Executor, library: Mapping[str, Skill]) -> list[Skill]:
    """The executor's owned skills that are in the library and not pruned."""
    return [
        skill
        for sid in executor.owned_skills
        if (skill := library.get(sid)) is not None and skill.status is not SkillStatus.PRUNED
    ]


def place_skill(
    library: dict[str, Skill], executors: dict[str, Executor], skill: Skill
) -> None:
    """Store `skill` in a round's fresh library and keep ownership in step.

    The skill leaves the owned set of whoever owns its previous version and,
    unless it is pruned, joins its owner's owned set.  Both dicts are edited
    in place; the owner must be in `executors`.
    """
    old = library.get(skill.id)
    library[skill.id] = skill
    if old is not None:
        holder = executors.get(old.owner)
        if holder is not None and skill.id in holder.owned_skills:
            executors[old.owner] = dataclasses.replace(
                holder, owned_skills=holder.owned_skills - {skill.id}
            )
    if skill.status is not SkillStatus.PRUNED:
        owner = executors[skill.owner]
        executors[skill.owner] = dataclasses.replace(
            owner, owned_skills=owner.owned_skills | {skill.id}
        )


def validate_state(state: RoundState, universe: frozenset[Pair]) -> None:
    """Check the structural invariants; raise StateError listing every violation.

    The manager's boundary must cover `universe`, the scenario's full
    (task, phase) space, so every pair an episode reaches can be routed.
    """
    problems: list[str] = []

    managers = [e.id for e in state.executors.values() if e.is_manager]
    if len(managers) != 1:
        problems.append(f"expected exactly one manager, found {managers!r}")
    else:
        manager = state.executors[managers[0]]
        missing = sorted(universe - manager.boundary)
        if missing:
            problems.append(f"manager boundary misses pairs {missing!r}")

    owner_of: dict[str, str] = {}
    for executor in state.executors.values():
        for skill_id in executor.owned_skills:
            if skill_id in owner_of:
                problems.append(
                    f"skill {skill_id!r} owned by both {owner_of[skill_id]!r} "
                    f"and {executor.id!r}"
                )
            owner_of[skill_id] = executor.id
            skill = state.library.get(skill_id)
            if skill is None:
                problems.append(f"{executor.id!r} owns unknown skill {skill_id!r}")
            elif skill.status is SkillStatus.PRUNED:
                problems.append(f"{executor.id!r} owns pruned skill {skill_id!r}")

    for skill in state.library.values():
        if skill.status is SkillStatus.PRUNED:
            continue
        if skill.owner not in state.executors:
            problems.append(f"skill {skill.id!r} has orphan owner {skill.owner!r}")
        elif owner_of.get(skill.id) != skill.owner:
            problems.append(f"skill {skill.id!r} missing from owner's skill set")
        if skill.status is SkillStatus.POOLED and skill.id not in state.pool:
            problems.append(f"pooled skill {skill.id!r} absent from pool map")

    for skill_id in state.pool:
        skill = state.library.get(skill_id)
        if skill is None:
            problems.append(f"pool references unknown skill {skill_id!r}")
        elif skill.status is not SkillStatus.POOLED:
            problems.append(f"pool entry {skill_id!r} is not pooled")

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


def skill_similarity(a: Skill, b: Skill) -> float:
    """Jaccard similarity over the union of step and guard tokens."""
    if a.status is SkillStatus.PRUNED or b.status is SkillStatus.PRUNED:
        raise ValueError("similarity is undefined for pruned skills")
    ta, tb = a.tokens(), b.tokens()
    union = ta | tb
    if not union:
        return 1.0
    return len(ta & tb) / len(union)


def cluster_skills(
    library: Mapping[str, Skill], threshold: float = 0.5
) -> list[tuple[str, ...]]:
    """Single-linkage clusters of the library's non-pruned skills under
    skill_similarity.

    Clusters and their members are in lexicographic id order, so the result
    is order-independent.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("clustering threshold must be in (0, 1]")
    members = sorted(
        (s for s in library.values() if s.status is not SkillStatus.PRUNED),
        key=lambda s: s.id,
    )
    parent = {s.id: s.id for s in members}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in itertools.combinations(members, 2):
        if skill_similarity(a, b) >= threshold:
            ra, rb = find(a.id), find(b.id)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    grouped: dict[str, list[str]] = {}
    for s in members:
        grouped.setdefault(find(s.id), []).append(s.id)
    return [tuple(sorted(ids)) for _, ids in sorted(grouped.items())]


def cluster_key_map(
    library: Mapping[str, Skill], threshold: float = 0.5
) -> dict[str, str]:
    """Map each non-pruned skill id to its library-wide cluster key.

    The key is the lexicographically smallest member id, so keys are stable
    under insertion order.
    """
    return {
        skill_id: cluster[0]
        for cluster in cluster_skills(library, threshold)
        for skill_id in cluster
    }
