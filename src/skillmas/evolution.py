"""Bounded skill evolution: per-shape proposals, consolidation, pool lifecycle.

Each retained shape yields at most one proposal, a failure's from its
`RetainedShape.diagnosis` (`retention.diagnose`), and a proposal holds
exactly one change: new drafts or an edit of one skill.  Consolidation
makes one candidate action per proposal and applies at most one action per
implicated skill cluster per round; new or heavily rewritten skills sit in
the validation pool until usage evidence promotes or prunes them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .config import EngineConfig
from .model import (
    BoundedTag,
    CauseLabel,
    Executor,
    Pair,
    PolicyCard,
    Skill,
    SkillStatus,
    StateError,
    TraceShape,
    UtilityTable,
    cluster_skills,
    jaccard,
    token_holders,
)
from .retention import Diagnosis, RetainedShape
from .utility import pooled_used, used_skills
from .world import LatentSkill, Scenario, motif_skill, motif_tokens, realizers


def retrieve_policy_cards(
    policy_index: Sequence[PolicyCard], task_id: str, cause: CauseLabel
) -> list[PolicyCard]:
    """Up to three repair priors matching (task type, cause), by id."""
    matches = sorted(
        (c for c in policy_index if c.task_type == task_id and c.cause == cause),
        key=lambda c: c.id,
    )
    return matches[:3]


@dataclass(frozen=True)
class SkillEdit:
    """A bounded token change to one existing skill."""

    tag: BoundedTag
    target: str
    steps: tuple[str, ...]
    guards: frozenset[str]
    checks: frozenset[str]
    applicability: frozenset[tuple[str, str]]


def apply_edit(skill: Skill, edit: SkillEdit) -> Skill:
    """The skill with the edit's token sets in place of its own."""
    return dataclasses.replace(
        skill,
        steps=edit.steps,
        guards=edit.guards,
        checks=edit.checks,
        applicability=edit.applicability,
    )


@dataclass(frozen=True)
class Proposal:
    """At most one per retained shape, whose first episode is the source:
    a success motif or a failure repair.  It holds exactly one change, its
    drafts or its edit."""

    source_trace: str
    target_cluster: str
    task_type: str
    cause: CauseLabel | None = None
    drafts: tuple[Skill, ...] = ()
    edit: SkillEdit | None = None

    def __post_init__(self) -> None:
        if bool(self.drafts) == (self.edit is not None):
            held = "both drafts and an edit" if self.drafts else "neither drafts nor an edit"
            raise StateError(f"proposal from {self.source_trace!r} holds {held}")


@dataclass(frozen=True)
class SkillAction:
    cluster: str
    action: str  # create | refine | prune | hold-in-pool | no-op
    skills: tuple[str, ...]
    source_trace: str | None = None
    task_type: str | None = None
    cause: str | None = None
    note: str = ""
    new_skills: tuple[Skill, ...] = ()
    edit: SkillEdit | None = None


@dataclass(frozen=True)
class SkillDelta:
    actions: tuple[SkillAction, ...] = ()

    def source_traces(self) -> frozenset[str]:
        """Traces whose proposals became a create or refine."""
        return frozenset(
            a.source_trace
            for a in self.actions
            if a.action in ("create", "refine") and a.source_trace
        )


@dataclass(frozen=True)
class ProposalIndex:
    """The round-scoped view of one frozen library, shared by every proposal
    of a round and by its consolidation.

    Everything in it reads the same library under the same cluster
    threshold, so building it once per round instead of once per shape
    changes nothing but the cost.  Realization and clustering are derived
    here and nowhere stored.
    """

    clusters: Mapping[str, tuple[str, ...]]  # cluster key -> member ids
    keys: Mapping[str, str]  # skill id -> cluster key, its smallest member id
    tokens: Mapping[str, frozenset[str]]  # skill id -> `Skill.tokens`, in id order
    holders: Mapping[str, list[str]]  # token -> ids of the skills holding it, in id order
    realizer: Mapping[str, str]  # latent id -> smallest realizing skill id
    latents_at: Mapping[Pair, tuple[LatentSkill, ...]]  # the scenario's, by pair

    def unrealized(self, pair: Pair) -> list[LatentSkill]:
        """The pair's latent procedures no library skill realizes, in catalog order."""
        return [l for l in self.latents_at.get(pair, ()) if l.id not in self.realizer]


def proposal_index(
    scenario: Scenario, library: Mapping[str, Skill], config: EngineConfig
) -> ProposalIndex:
    """Build the proposal index of one frozen library, once per round."""
    tokens = {sid: library[sid].tokens() for sid in sorted(library)}
    holders = token_holders(tokens)
    clusters = {c[0]: c for c in cluster_skills(tokens, holders, config.cluster_threshold)}
    return ProposalIndex(
        clusters=clusters,
        keys={sid: key for key, members in clusters.items() for sid in members},
        tokens=tokens,
        holders=holders,
        realizer=realizers(scenario, library),
        latents_at=scenario.latents_at,
    )


def _nearest_cluster(draft: Skill, index: ProposalIndex, threshold: float) -> str:
    """The cluster of the first skill in id order most similar to the draft,
    if that similarity reaches the threshold; a skill sharing no token with
    the draft has similarity 0 and is never read."""
    tokens = draft.tokens()
    best_id, best_sim = None, 0.0
    for sid in sorted({sid for token in tokens for sid in index.holders.get(token, ())}):
        sim = jaccard(tokens, index.tokens[sid])
        if sim > best_sim:
            best_id, best_sim = sid, sim
    if best_id is not None and best_sim >= threshold:
        return index.keys[best_id]
    return f"new:{draft.id}"


def _pick_implicated(
    candidates: Sequence[str], library: Mapping[str, Skill], pair: tuple[str, str]
) -> Skill | None:
    """Lexicographically smallest usable skill, preferring exact-pair coverage."""
    usable = [library[sid] for sid in sorted(candidates) if sid in library]
    for skill in usable:
        if pair in skill.applicability:
            return skill
    return usable[0] if usable else None


def _repair_latent(
    index: ProposalIndex,
    pair: tuple[str, str],
    cause: CauseLabel,
    cards: Sequence[PolicyCard],
) -> LatentSkill | None:
    """The unrealized latent procedure this repair should target, if any.

    The first matching policy card's template takes precedence; otherwise the
    lexicographically smallest candidate.
    """
    unrealized = [l for l in index.unrealized(pair) if l.repairs_cause == cause]
    by_id = {l.id: l for l in unrealized}
    for card in cards:
        if card.template_skill in by_id:
            return by_id[card.template_skill]
    return min(unrealized, key=lambda l: l.id) if unrealized else None


def _repair_edit(
    tag: BoundedTag,
    skill: Skill,
    latent: LatentSkill | None,
    cause: CauseLabel,
    pair: tuple[str, str],
) -> SkillEdit | None:
    steps = skill.steps
    guards = skill.guards
    checks = skill.checks
    applicability = skill.applicability

    if tag is BoundedTag.ADD_GUARD:
        if latent is not None and latent.id not in steps:
            steps = steps + (latent.id,)
        token = f"require:{latent.id}" if latent is not None else f"require:{cause.value}"
        guards = guards | {token}
    elif tag is BoundedTag.REORDER_STEP:
        if latent is not None:
            rest = tuple(s for s in steps if s != latent.id)
            steps = (latent.id,) + rest  # the missing-order action leads
        else:
            steps = tuple(sorted(steps))  # canonical order as the repair
    elif tag is BoundedTag.TIGHTEN_RETRIEVAL:
        if latent is not None:
            if latent.id not in steps:
                steps = steps + (latent.id,)
            checks = checks | {f"match:{latent.id}"}
        elif len(applicability) > 1:
            applicability = applicability - {pair}
        else:
            guards = guards | {f"scope:{pair[0]}:{pair[1]}"}

    unchanged = (
        steps == skill.steps
        and guards == skill.guards
        and checks == skill.checks
        and applicability == skill.applicability
    )
    return None if unchanged else SkillEdit(tag, skill.id, steps, guards, checks, applicability)


def _split(
    rep: Skill,
    latent: LatentSkill | None,
    pair: tuple[str, str],
    cause: CauseLabel,
    round_index: int,
) -> tuple[tuple[Skill, ...], SkillEdit | None]:
    """Two narrower drafts partitioning the representative's applicability,
    or an isolating refine when there is nothing to partition: (drafts,
    None) or ((), edit)."""
    if len(rep.applicability) >= 2:
        pairs = sorted(rep.applicability)
        halves = (pairs[: len(pairs) // 2], pairs[len(pairs) // 2 :])
        drafts = []
        for suffix, half in zip(("a", "b"), halves):
            steps = rep.steps
            if latent is not None and pair in half and latent.id not in steps:
                steps = steps + (latent.id,)
            drafts.append(
                Skill(
                    id=f"{rep.id}-{suffix}-r{round_index}",
                    applicability=frozenset(half),
                    steps=steps,
                    guards=rep.guards,
                    checks=rep.checks,
                    status=SkillStatus.POOLED,
                    owner=rep.owner,
                )
            )
        return tuple(drafts), None
    steps = rep.steps
    if latent is not None and latent.id not in steps:
        steps = steps + (latent.id,)
    return (), SkillEdit(
        BoundedTag.SPLIT_SKILL,
        rep.id,
        steps,
        rep.guards,
        rep.checks | {f"isolate:{cause.value}"},
        rep.applicability,
    )


def propose(
    retained: RetainedShape,
    diagnosis: Diagnosis | None,
    cards: Sequence[PolicyCard],
    library: Mapping[str, Skill],
    round_index: int,
    config: EngineConfig,
    index: ProposalIndex,
) -> Proposal | None:
    """Convert one retained shape into at most one local proposal.

    Successes can yield a motif draft realizing an undiscovered latent
    procedure (unless a pooled skill already took part, whose counters carry
    the evidence).  Failures yield a repair only when locally diagnosable;
    structural handoffs and unknown causes yield nothing.  `index` is the
    `proposal_index` of `library` under `config`.
    """
    shape = retained.shape
    task_id = shape.task_type.id

    if shape.outcome == 1:
        if pooled_used(shape, library):
            return None
        for sl in shape.slices:
            pair = (task_id, sl.phase)
            latent = min(index.unrealized(pair), key=lambda l: l.id, default=None)
            if latent is None:
                continue
            draft = motif_skill(latent, f"{latent.id}-r{round_index}", sl.executor)
            return Proposal(
                source_trace=retained.source,
                target_cluster=_nearest_cluster(draft, index, config.cluster_threshold),
                task_type=task_id,
                drafts=(draft,),
            )
        return None

    if diagnosis is None or not diagnosis.locally_diagnosable:
        return None
    failing = shape.slices[-1]
    pair = (task_id, failing.phase)
    cause = diagnosis.cause
    latent = _repair_latent(index, pair, cause, cards)

    candidates = sorted(used_skills(failing)) or sorted(failing.selected)
    implicated = _pick_implicated(candidates, library, pair)
    if implicated is None:
        return None

    if diagnosis.tag is BoundedTag.SPLIT_SKILL:
        drafts, edit = _split(implicated, latent, pair, cause, round_index)
    else:
        if diagnosis.tag is BoundedTag.TIGHTEN_RETRIEVAL and latent is None:
            # target the interfering usage rather than the pair-matching skill
            realized_here = {
                index.realizer[l.id]
                for l in index.latents_at.get(pair, ())
                if l.id in index.realizer
            }
            noisy = [sid for sid in candidates if sid not in realized_here]
            implicated = _pick_implicated(noisy, library, pair) or implicated
        drafts, edit = (), _repair_edit(diagnosis.tag, implicated, latent, cause, pair)
        if edit is None:
            return None
    return Proposal(
        source_trace=retained.source,
        target_cluster=index.keys[implicated.id],
        task_type=task_id,
        cause=cause,
        drafts=drafts,
        edit=edit,
    )


_ACTION_PRIORITY = {"prune": 0, "refine": 1, "create": 2, "hold-in-pool": 3, "no-op": 4}


def _token_change_is_heavy(before: frozenset[str], edit: SkillEdit) -> bool:
    after = frozenset(edit.steps) | edit.guards
    return len(before ^ after) > len(before) / 2


def _is_duplicate(
    draft: Skill,
    library: Mapping[str, Skill],
    index: ProposalIndex,
    policy_index: Sequence[PolicyCard],
    threshold: float,
) -> bool:
    """A validated skill or a policy card's template is near the draft."""
    tokens = draft.tokens()
    return any(
        jaccard(tokens, index.tokens[sid]) >= threshold
        for sid, skill in library.items()
        if skill.status is SkillStatus.VALIDATED
    ) or any(
        jaccard(tokens, motif_tokens(card.template_skill)) >= threshold
        for card in policy_index
        if card.template_skill
    )


def _cluster_prunable(
    member_ids: Sequence[str],
    library: Mapping[str, Skill],
    q_skill: UtilityTable,
    config: EngineConfig,
) -> bool:
    """Every member has enough evidence and poor utility on every covered task."""
    for sid in member_ids:
        skill = library[sid]
        covered = sorted({pair[0] for pair in skill.applicability})
        for task_id in covered:
            entry = q_skill.get(sid, task_id)
            if entry is None:
                return False
            value, count = entry
            if count < config.prune_min_count or value >= config.prune_max_utility:
                return False
    return True


def skill_evolve(
    proposals: Sequence[Proposal],
    library: Mapping[str, Skill],
    policy_index: Sequence[PolicyCard],
    q_skill: UtilityTable,
    config: EngineConfig,
    index: ProposalIndex,
    *,
    last_round_drop: bool = False,
    last_round_edits: frozenset[str] = frozenset(),
) -> SkillDelta:
    """Consolidate proposals into at most one action per implicated cluster.

    Create drafts are deduplicated against validated skills and policy-card
    templates; repairs that rewrite more than half a skill's tokens are held
    in the pool instead of refined; clusters whose members all show enough
    low-utility evidence are pruned.  After a round-level performance drop,
    the previous round's edits are demoted to the pool first and their
    clusters are off limits for further actions.  `index` is the
    `proposal_index` of `library` under `config`.  Proposals keep the order
    given (`collect_proposals` emits them in table order, the order of each
    shape's first episode).  Each proposal makes one candidate action, and
    a cluster keeps the first of its highest-priority candidates.
    """
    actions: list[SkillAction] = []
    claimed: set[str] = set()

    if last_round_drop and last_round_edits:
        demotable = sorted(
            sid
            for sid in last_round_edits
            if sid in library
            and library[sid].status in (SkillStatus.VALIDATED, SkillStatus.SEEDED)
        )
        by_cluster: dict[str, list[str]] = {}
        for sid in demotable:
            by_cluster.setdefault(index.keys[sid], []).append(sid)
        for key in sorted(by_cluster):
            actions.append(
                SkillAction(
                    cluster=key,
                    action="hold-in-pool",
                    skills=tuple(by_cluster[key]),
                    note="demoted after round-level performance drop",
                )
            )
            claimed.add(key)

    grouped: dict[str, list[Proposal]] = {}
    for proposal in proposals:
        grouped.setdefault(proposal.target_cluster, []).append(proposal)

    for key in sorted(grouped):
        if key in claimed:
            continue
        group = grouped[key]
        candidates: list[SkillAction] = []

        member_ids = index.clusters.get(key, ())
        if member_ids and _cluster_prunable(member_ids, library, q_skill, config):
            candidates.append(
                SkillAction(
                    cluster=key,
                    action="prune",
                    skills=tuple(member_ids),
                    source_trace=group[0].source_trace,
                    task_type=group[0].task_type,
                    note="all members below the utility floor",
                )
            )

        for proposal in group:
            made = {
                "cluster": key,
                "source_trace": proposal.source_trace,
                "task_type": proposal.task_type,
                "cause": proposal.cause.value if proposal.cause else None,
            }
            edit = proposal.edit
            if edit is not None:
                heavy = _token_change_is_heavy(index.tokens[edit.target], edit)
                candidates.append(SkillAction(
                    action="hold-in-pool" if heavy else "refine", skills=(edit.target,),
                    note="rewrite beyond half the tokens" if heavy else "", edit=edit, **made,
                ))
                continue
            fresh = tuple(
                d
                for d in proposal.drafts
                if not _is_duplicate(d, library, index, policy_index, config.dedup_similarity)
            )
            if fresh:
                candidates.append(SkillAction(
                    action="create", skills=tuple(d.id for d in fresh), new_skills=fresh, **made
                ))
            else:
                candidates.append(SkillAction(
                    action="no-op", skills=tuple(d.id for d in proposal.drafts),
                    note="duplicate of an existing validated skill or template", **made,
                ))

        distinct = {a.action for a in candidates}
        chosen = min(candidates, key=lambda a: _ACTION_PRIORITY[a.action])
        if len(distinct) > 1:
            note = f"conflicting candidates {sorted(distinct)}; kept {chosen.action}"
            chosen = dataclasses.replace(
                chosen, note=f"{chosen.note}; {note}" if chosen.note else note
            )
        actions.append(chosen)
        claimed.add(key)

    return SkillDelta(tuple(sorted(actions, key=lambda a: a.cluster)))


def apply_skill_delta(
    library: Mapping[str, Skill],
    executors: Mapping[str, Executor],
    pool: Mapping[str, tuple[int, int]],
    delta: SkillDelta,
) -> tuple[dict[str, Skill], dict[str, tuple[int, int]]]:
    """Apply consolidated actions, keeping the pool map consistent: the new
    library and pool.  Drafts name their owner, which must be one of
    `executors`; the executors themselves do not change."""
    lib = dict(library)
    new_pool = dict(pool)
    for action in delta.actions:
        if action.action == "create":
            for draft in action.new_skills:
                if draft.id in lib:
                    raise StateError(f"skill id {draft.id!r} would be reused")
                if draft.owner not in executors:
                    raise StateError(f"draft {draft.id!r} owned by unknown executor")
                lib[draft.id] = draft
                new_pool[draft.id] = (0, 0)
        elif action.action == "refine":
            edit = action.edit
            assert edit is not None
            lib[edit.target] = apply_edit(lib[edit.target], edit)
        elif action.action == "hold-in-pool":
            for sid in action.skills:
                skill = lib[sid]
                if action.edit is not None and action.edit.target == sid:
                    skill = apply_edit(skill, action.edit)
                lib[sid] = dataclasses.replace(skill, status=SkillStatus.POOLED)
                new_pool[sid] = (0, 0)
        elif action.action == "prune":
            for sid in action.skills:
                del lib[sid]
                new_pool.pop(sid, None)
    return lib, new_pool


def update_pool_counters(
    pool: Mapping[str, tuple[int, int]], tally: Iterable[tuple[TraceShape, int]]
) -> dict[str, tuple[int, int]]:
    """Advance usage/success counters for pooled skills that saw real use,
    over a batch's (shape, count) pairs: each episode of a shape uses the
    shape's skills once."""
    new_pool = dict(pool)
    for shape, count in tally:
        for sid in {sid for sl in shape.slices for sid in used_skills(sl)} & pool.keys():
            uses, successes = new_pool[sid]
            new_pool[sid] = (uses + count, successes + shape.outcome * count)
    return new_pool


def promote_pool(
    library: Mapping[str, Skill],
    pool: Mapping[str, tuple[int, int]],
    executors: Mapping[str, Executor],
    config: EngineConfig,
) -> tuple[
    dict[str, Skill],
    dict[str, Executor],
    dict[str, tuple[int, int]],
    list[tuple[str, str]],
]:
    """Promote pooled skills with sufficient evidence; prune the hopeless ones.
    The executors are returned as given."""
    lib = dict(library)
    new_pool = dict(pool)
    outcomes: list[tuple[str, str]] = []
    for sid in sorted(pool):
        uses, successes = pool[sid]
        if uses >= config.promote_min_uses and successes / uses >= config.promote_min_ratio:
            lib[sid] = dataclasses.replace(lib[sid], status=SkillStatus.VALIDATED)
            del new_pool[sid]
            outcomes.append((sid, "validated"))
        elif uses >= config.pool_prune_min_uses and successes / uses < config.pool_prune_max_ratio:
            del lib[sid]
            del new_pool[sid]
            outcomes.append((sid, "pruned"))
    return lib, executors, new_pool, outcomes
