"""Evidence-gated restructuring: per-family evidence and the single bounded edit.

The decision operator returns exactly one of keep/add/merge-remove/modify
per round, and anything other than keep must carry evidence that
re-evaluates true on the recorded values.  Each predicate's evidence is
built once, as the plain dict the report records, and `_fires` decides on
that dict alone.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .config import EngineConfig
from .evolution import SkillDelta
from .model import (
    BoundedTag,
    Executor,
    Pair,
    Skill,
    SkillStatus,
    StateError,
    UtilityTable,
    jaccard,
    owned_by,
    skill_similarity,
)
from .numfmt import q12
from .retention import RetainedShape


@dataclass(frozen=True)
class RestructureDecision:
    action: str  # keep | add | merge-remove | modify
    subjects: tuple[str, ...] = ()
    new_boundary: frozenset[Pair] | None = None
    transferred_skills: tuple[str, ...] = ()
    evidence: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.action != "keep" and not self.evidence:
            raise StateError("a non-keep decision requires evidence")


def build_artifacts(
    retained: Sequence[RetainedShape],
    q_exec_plus: UtilityTable,
    skill_delta: SkillDelta,
) -> list[tuple[dict[str, object], frozenset[Pair]]]:
    """One `(facts, boundary)` pair per task family holding retained
    failures, in task-id order: `facts` holds the values the add evidence
    records (`task_type`, `failure_mass`, `executors`, the utility entry
    `{"id", "value", "count"}` of each executor a failure ended at, in id
    order, and `handoff_present`), and `boundary` the pairs where the
    family's failures ended, an added specialist's boundary.

    Failure mass counts a retained failure shape's episodes, less the first
    when its proposal already became a pending create or refine this round
    (a proposal's source is its shape's first episode), so restructuring
    only sees what skill repair leaves unaddressed.
    """
    addressed = skill_delta.source_traces()
    failures: dict[str, list[RetainedShape]] = {}
    for rt in retained:
        if rt.shape.outcome == 0:
            failures.setdefault(rt.shape.task_type.id, []).append(rt)

    artifacts = []
    for task_id in sorted(failures):
        mass = 0
        implicated: set[str] = set()
        boundary: set[Pair] = set()
        handoff = False
        for rt in failures[task_id]:
            mass += rt.count - (rt.source in addressed)
            last = rt.shape.slices[-1]  # a failure ends at its last routed phase
            implicated.add(last.executor)
            boundary.add((task_id, last.phase))
            handoff = handoff or rt.diagnosis.tag is BoundedTag.HANDOFF_TO_STRUCTURE
        facts = {
            "task_type": task_id,
            "failure_mass": mass,
            "executors": [
                {"id": eid, "value": q_exec_plus.value(eid, task_id),
                 "count": q_exec_plus.count(eid, task_id)}
                for eid in sorted(implicated)
            ],
            "handoff_present": handoff,
        }
        artifacts.append((facts, frozenset(boundary)))
    return artifacts


def _fires(ev: Mapping[str, object]) -> bool:
    """The one test of a restructuring predicate, on the values it records."""
    predicate = ev["predicate"]
    if predicate == "add":
        return (
            ev["failure_mass"] >= ev["mass_threshold"]
            and bool(ev["handoff_present"])
            and bool(ev["executors"])
            and all(
                e["count"] >= ev["min_count"] and e["value"] < ev["weak_utility"]
                for e in ev["executors"]
            )
        )
    if predicate == "merge-remove":
        gaps = ev["utility_gaps"].values()
        return (
            ev["skill_overlap"] >= ev["overlap_threshold"]
            and bool(gaps)
            and all(gap < ev["merge_gap"] for gap in gaps)
        )
    if predicate == "modify":
        return (
            ev["owned_skills"] > ev["capacity"]
            and ev["count"] >= ev["min_count"]
            and ev["utility"] < ev["weak_utility"]
        )
    return False


def decide_restructure(
    artifacts: Sequence[tuple[Mapping[str, object], frozenset[Pair]]],
    executors: Mapping[str, Executor],
    q_exec_plus: UtilityTable,
    config: EngineConfig,
    *,
    round_index: int,
    library: Mapping[str, Skill],
) -> RestructureDecision:
    """Evaluate the restructuring predicates in fixed priority.

    (1) add a specialist: a family's unaddressed failure mass meets the
    threshold, every implicated executor is demonstrably weak there, and the
    failures include structural handoffs; (2) merge two redundant
    non-manager executors with overlapping boundaries, near-identical skill
    content, and indistinguishable utility on every shared family;
    (3) modify an over-capacity executor with a demonstrably weak family by
    narrowing its boundary; otherwise (4) keep.  `artifacts` are
    `build_artifacts`' pairs: an add's evidence is a family's facts with
    the thresholds added.  Each candidate's evidence is built as it would
    be recorded, and `_fires` decides on it, so every decision re-evaluates
    true on its own evidence.
    """
    # (1) add
    for facts, boundary in artifacts:
        evidence = {
            "predicate": "add",
            **facts,
            "mass_threshold": config.mass_threshold,
            "weak_utility": config.weak_executor_utility,
            "min_count": config.min_count,
        }
        if not _fires(evidence):
            continue
        validated = (s for s in library.values() if s.status is SkillStatus.VALIDATED)
        transferred = tuple(sorted(s.id for s in validated if s.applicability & boundary))
        return RestructureDecision(
            action="add",
            subjects=(f"exec-{facts['task_type']}-r{round_index}",),
            new_boundary=boundary,
            transferred_skills=transferred,
            evidence=evidence,
        )

    owned = owned_by(library)

    # (2) merge-remove
    workers = sorted(eid for eid, e in executors.items() if not e.is_manager)
    tokens = {eid: frozenset(t for s in owned.get(eid, ()) for t in s.tokens()) for eid in workers}
    for a_id, b_id in itertools.combinations(workers, 2):
        a, b = executors[a_id], executors[b_id]
        if not a.boundary & b.boundary:
            continue
        shared_families = sorted({p[0] for p in a.boundary} & {p[0] for p in b.boundary})
        entries = [
            (task_id, q_exec_plus.get(a_id, task_id), q_exec_plus.get(b_id, task_id))
            for task_id in shared_families
        ]
        if not all(
            ea is not None and eb is not None and min(ea[1], eb[1]) >= config.min_count
            for _, ea, eb in entries
        ):
            continue
        evidence = {
            "predicate": "merge-remove",
            "survivor": a_id,
            "removed": b_id,
            "skill_overlap": q12(jaccard(tokens[a_id], tokens[b_id])),
            "overlap_threshold": config.overlap_threshold,
            "utility_gaps": {t: q12(abs(ea[0] - eb[0])) for t, ea, eb in entries},
            "merge_gap": config.merge_gap,
        }
        if _fires(evidence):
            return RestructureDecision(
                action="merge-remove", subjects=(a_id, b_id), evidence=evidence
            )

    # (3) modify
    for eid in sorted(executors):
        executor = executors[eid]
        if executor.is_manager:
            continue
        skills = owned.get(eid, [])
        for task_id in sorted({p[0] for p in executor.boundary}):
            entry = q_exec_plus.get(eid, task_id)
            if entry is None:
                continue
            evidence = {
                "predicate": "modify",
                "executor": eid,
                "owned_skills": len(skills),
                "capacity": executor.capacity,
                "weak_family": task_id,
                "utility": entry[0],
                "count": entry[1],
                "weak_utility": config.weak_executor_utility,
                "min_count": config.min_count,
            }
            if not _fires(evidence):
                continue
            new_boundary = frozenset(p for p in executor.boundary if p[0] != task_id)
            if not new_boundary:
                continue
            transferred = tuple(
                sorted(s.id for s in skills if not s.applicability & new_boundary)
            )
            return RestructureDecision(
                action="modify",
                subjects=(eid,),
                new_boundary=new_boundary,
                transferred_skills=transferred,
                evidence=evidence,
            )

    return RestructureDecision(action="keep")


def evidence_holds(decision: RestructureDecision) -> bool:
    """Re-evaluate a decision's firing predicate on its recorded values."""
    ev = decision.evidence
    if decision.action == "keep":
        return not ev
    return ev.get("predicate") == decision.action and _fires(ev)


def apply_restructure(
    library: Mapping[str, Skill],
    executors: Mapping[str, Executor],
    pool: Mapping[str, tuple[int, int]],
    q_skill: UtilityTable,
    decision: RestructureDecision,
    config: EngineConfig,
) -> tuple[
    dict[str, Skill], dict[str, Executor], dict[str, tuple[int, int]], list[str]
]:
    """Apply the single bounded edit, transferring skill ownership as needed.

    Merges consolidate near-duplicate owned skills down to the higher-utility
    copy; modify hands out-of-boundary skills to the manager.  The manager
    can never be removed.
    """
    lib = dict(library)
    execs = dict(executors)
    new_pool = dict(pool)
    log: list[str] = []

    manager_id = next(eid for eid, e in execs.items() if e.is_manager)

    def reassign(skill_id: str, new_owner: str) -> None:
        lib[skill_id] = dataclasses.replace(lib[skill_id], owner=new_owner)
        log.append(f"transferred {skill_id} to {new_owner}")

    if decision.action == "keep":
        return lib, execs, new_pool, log

    if decision.action == "add":
        new_id = decision.subjects[0]
        if new_id in execs:
            raise StateError(f"executor id {new_id!r} would be reused")
        assert decision.new_boundary is not None
        execs[new_id] = Executor(
            id=new_id,
            boundary=decision.new_boundary,
            capacity=config.default_capacity,
        )
        for sid in decision.transferred_skills:
            reassign(sid, new_id)

    elif decision.action == "merge-remove":
        survivor_id, removed_id = sorted(decision.subjects)
        if execs[removed_id].is_manager or execs[survivor_id].is_manager:
            raise StateError("the manager executor cannot be merged away")
        survivor = execs[survivor_id]
        removed = execs.pop(removed_id)
        execs[survivor_id] = dataclasses.replace(
            survivor, boundary=survivor.boundary | removed.boundary
        )
        for sid in sorted(s.id for s in owned_by(lib).get(removed_id, ())):
            reassign(sid, survivor_id)

        # consolidate near-duplicates down to the higher-utility copy
        owned = sorted(s.id for s in owned_by(lib).get(survivor_id, ()))
        best: dict[str, float] = {}  # each skill's highest utility, 0.5 with no entry
        for (sid, _), (value, _) in q_skill.entries.items():
            best[sid] = max(value, best.get(sid, value))

        dropped: set[str] = set()
        for a_id, b_id in itertools.combinations(owned, 2):
            if a_id in dropped or b_id in dropped:
                continue
            if skill_similarity(lib[a_id], lib[b_id]) < config.dedup_similarity:
                continue
            keep_id, drop_id = a_id, b_id
            if (best.get(b_id, 0.5), a_id) > (best.get(a_id, 0.5), b_id):
                keep_id, drop_id = b_id, a_id
            del lib[drop_id]
            new_pool.pop(drop_id, None)
            dropped.add(drop_id)
            log.append(f"consolidated {drop_id} into {keep_id}")

    elif decision.action == "modify":
        eid = decision.subjects[0]
        executor = execs[eid]
        if executor.is_manager:
            raise StateError("the manager boundary cannot be narrowed")
        assert decision.new_boundary is not None
        execs[eid] = dataclasses.replace(executor, boundary=decision.new_boundary)
        for sid in decision.transferred_skills:
            reassign(sid, manager_id)
    else:
        raise StateError(f"unknown restructuring action {decision.action!r}")

    if not any(e.is_manager for e in execs.values()):
        raise StateError("restructuring removed the manager executor")
    return lib, execs, new_pool, log
