"""Round orchestration: the full adaptation loop, experiments, and reports.

A round is one transactional state transition: execute a batch with the
state fixed, learn utilities, retain evidence, consolidate skill proposals,
apply at most one restructuring edit, promote from the validation pool.
Any failure aborts the round with the input state untouched.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .config import EngineConfig
from .evolution import (
    Proposal,
    ProposalIndex,
    apply_skill_delta,
    diagnose,
    promote_pool,
    proposal_index,
    propose,
    retrieve_policy_cards,
    skill_evolve,
    update_pool_counters,
)
from .model import (
    CauseLabel,
    EpisodeTrace,
    RoundState,
    SkillStatus,
    StateError,
    TaskType,
    TraceShape,
    place_skill,
    validate_state,
)
from .numfmt import q12
from .restructure import (
    apply_restructure,
    build_artifacts,
    decide_restructure,
    evidence_holds,
)
from .retention import failure_counts, retain
from .streams import derive_seed
from .utility import learn
from .world import Scenario, exec_round, exec_shared

TRANSPLANT_ROWS = (
    "Full",
    "Final-library/seed-MAS",
    "Specialized-MAS/seed-skills",
    "Seed",
)


@dataclass(frozen=True)
class RoundReport:
    """Everything needed to audit and replay one round."""

    round_index: int
    episodes: int
    successes: int
    per_family: dict[str, tuple[int, int]]  # task id -> (successes, attempts)
    active_skills: int
    active_executors: int
    pool_size: int
    retained: dict[str, list[str]]  # category -> episode ids
    skill_actions: tuple[dict[str, object], ...]
    restructure: dict[str, object]
    promotions: tuple[tuple[str, str], ...]
    last_round_drop: bool

    @property
    def success_rate(self) -> float:
        return q12(self.successes / self.episodes) if self.episodes else 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "round": self.round_index,
            "episodes": self.episodes,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "per_family": {
                task: {"successes": s, "attempts": a}
                for task, (s, a) in sorted(self.per_family.items())
            },
            "active_skills": self.active_skills,
            "active_executors": self.active_executors,
            "pool_size": self.pool_size,
            "retained": {k: v for k, v in sorted(self.retained.items())},
            "skill_actions": list(self.skill_actions),
            "restructure": self.restructure,
            "promotions": [list(p) for p in self.promotions],
            "last_round_drop": self.last_round_drop,
        }


@dataclass(frozen=True)
class TrajectoryReport:
    scenario: str
    seed: int
    rounds: tuple[RoundReport, ...]
    checkpoint_round: int

    def to_dict(self) -> dict[str, object]:
        return {
            "format": 1,
            "scenario": self.scenario,
            "seed": self.seed,
            "rounds": [r.to_dict() for r in self.rounds],
            "checkpoint": {
                "round": self.checkpoint_round,
                "successes": self.rounds[self.checkpoint_round].successes,
            },
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


@dataclass(frozen=True)
class ExperimentResult:
    """A trajectory report plus the per-round states (X_0 .. X_R)."""

    report: TrajectoryReport
    states: tuple[RoundState, ...]

    @property
    def seed_state(self) -> RoundState:
        return self.states[0]

    @property
    def checkpoint_state(self) -> RoundState:
        return self.states[self.report.checkpoint_round]

    @property
    def final_state(self) -> RoundState:
        return self.states[-1]


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    successes: int
    episodes: int

    @property
    def rate(self) -> float:
        return q12(self.successes / self.episodes) if self.episodes else 0.0


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]

    def to_dict(self) -> dict[str, object]:
        return {
            "format": 1,
            "rows": [
                {
                    "variant": r.label,
                    "successes": r.successes,
                    "episodes": r.episodes,
                    "rate": r.rate,
                }
                for r in self.rows
            ],
        }


def canonical_json(payload: object) -> str:
    """Deterministic JSON rendering used for every persisted report."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _summarize_action(action) -> dict[str, object]:
    summary: dict[str, object] = {
        "cluster": action.cluster,
        "action": action.action,
        "skills": list(action.skills),
    }
    if action.source_trace:
        summary["source_trace"] = action.source_trace
    if action.task_type:
        summary["task_type"] = action.task_type
    if action.cause:
        summary["cause"] = action.cause
    if action.note:
        summary["note"] = action.note
    return summary


def _summarize_decision(decision, log: list[str]) -> dict[str, object]:
    summary: dict[str, object] = {
        "action": decision.action,
        "subjects": list(decision.subjects),
        "evidence": decision.evidence,
    }
    if decision.new_boundary is not None:
        summary["new_boundary"] = [list(p) for p in sorted(decision.new_boundary)]
    if decision.transferred_skills:
        summary["transferred_skills"] = list(decision.transferred_skills)
    if log:
        summary["ownership_log"] = log
    return summary


def collect_proposals(
    retained: Sequence,
    state: RoundState,
    config: EngineConfig,
    index: ProposalIndex,
) -> list[Proposal]:
    """At most one local proposal per retained trace.

    Failures go through diagnosis and policy-card retrieval first; successes
    go straight to motif extraction.  Every proposal reads `index`, the
    `proposal_index` of the round's frozen library.  Diagnosis, retrieval
    and proposal read only a trace's shape, so they run once per shape; a
    later trace of the same shape gets the same proposal with its own
    `source_trace`.
    """
    by_shape: dict[TraceShape, Proposal | None] = {}
    proposals: list[Proposal] = []
    for rt in retained:
        trace = rt.trace
        shape = trace.shape
        if shape in by_shape:
            proposal = by_shape[shape]
        else:
            if shape.outcome == 0:
                diagnosis = diagnose(rt)
                cards = retrieve_policy_cards(
                    state.policy_index, shape.task_type.id, diagnosis.cause
                )
            else:
                diagnosis, cards = None, ()
            proposal = by_shape[shape] = propose(
                rt, diagnosis, cards, state.library, state.round_index, config, index
            )
        if proposal is not None:
            if proposal.source_trace != trace.episode_id:
                proposal = dataclasses.replace(proposal, source_trace=trace.episode_id)
            proposals.append(proposal)
    return proposals


def run_round(
    state: RoundState,
    scenario: Scenario,
    config: EngineConfig,
    seed: int,
    *,
    last_round_drop: bool = False,
    last_round_edits: frozenset[str] = frozenset(),
    prior_failure_counts: Mapping[tuple[str, CauseLabel], int] | None = None,
) -> tuple[RoundState, RoundReport, tuple[EpisodeTrace, ...]]:
    """One adaptation round; returns the next state, its report, and the traces.

    The update is all-or-nothing: every stage builds fresh values, so an
    error anywhere leaves the caller's state exactly as passed in.
    """
    traces = exec_round(
        state,
        scenario,
        config.episodes_per_round,
        seed,
        config,
        id_prefix=f"r{state.round_index:04d}",
    )

    q_skill_plus, q_exec_plus = learn(
        state.q_skill,
        state.q_exec,
        traces,
        known_skills=state.library,
        known_executors=state.executors,
    )
    pool_counted = update_pool_counters(state.pool, state.library, traces)

    retained = retain(
        traces,
        state.q_exec,
        config,
        state.library,
        prior_failure_counts=prior_failure_counts,
    )

    index = proposal_index(scenario, state.library, config)
    proposals = collect_proposals(retained, state, config, index)

    delta = skill_evolve(
        proposals,
        state.library,
        state.policy_index,
        q_skill_plus,
        config,
        last_round_drop=last_round_drop,
        last_round_edits=last_round_edits,
        cluster_keys=index.keys,
    )
    library2, executors2, pool2 = apply_skill_delta(
        state.library, state.executors, pool_counted, delta
    )

    artifacts = build_artifacts(retained, q_exec_plus, delta)
    decision = decide_restructure(
        artifacts,
        state.executors,
        q_exec_plus,
        config,
        round_index=state.round_index,
        library=library2,
    )
    if not evidence_holds(decision):
        raise StateError(
            f"round {state.round_index}: restructuring decision {decision.action!r} "
            f"does not hold on its evidence "
            f"(predicate {decision.evidence.get('predicate', decision.action)!r})"
        )
    library3, executors3, pool3, ownership_log = apply_restructure(
        library2, executors2, pool2, q_skill_plus, decision, config
    )

    library4, pool4, executors4, promotions = promote_pool(
        library3, pool3, executors3, config
    )

    next_state = RoundState(
        round_index=state.round_index + 1,
        library=library4,
        executors=executors4,
        q_skill=q_skill_plus,
        q_exec=q_exec_plus,
        pool=pool4,
        policy_index=state.policy_index,
    )
    validate_state(next_state, scenario.universe())

    retained_summary: dict[str, list[str]] = {}
    for rt in retained:
        for category in sorted(c.value for c in rt.categories):
            retained_summary.setdefault(category, []).append(rt.trace.episode_id)

    report = RoundReport(
        round_index=state.round_index,
        episodes=len(traces),
        successes=sum(t.shape.outcome for t in traces),
        per_family=family_tally((t.shape.task_type, t.shape.outcome) for t in traces),
        active_skills=state.active_skill_count(),
        active_executors=len(state.executors),
        pool_size=len(state.pool),
        retained=retained_summary,
        skill_actions=tuple(_summarize_action(a) for a in delta.actions),
        restructure=_summarize_decision(decision, ownership_log),
        promotions=tuple(promotions),
        last_round_drop=last_round_drop,
    )
    return next_state, report, traces


def experiment_rounds(
    scenario: Scenario,
    seed_state: RoundState,
    seed: int,
    rounds: int,
    config: EngineConfig,
) -> Iterator[tuple[RoundState, RoundReport, tuple[EpisodeTrace, ...]]]:
    """Chain rounds from the scenario's seed state, yielding each round's
    `run_round` result, (next state, report, traces), as the round ends.

    A round-level success drop arms the demotion penalty for the next
    round's consolidation.  The chainer keeps no round's traces: with
    `cross_round_repeats` on, it keeps only their per-(task, cause) failure
    counts.
    """
    if rounds < 1:
        raise ValueError("an experiment needs at least one round")
    validate_state(seed_state, scenario.universe())

    state = seed_state
    successes: list[int] = []
    last_edits: frozenset[str] = frozenset()
    failure_history: Counter[tuple[str, CauseLabel]] = Counter()

    for r in range(rounds):
        drop = r >= 2 and successes[r - 1] < successes[r - 2]
        prior = dict(failure_history) if config.cross_round_repeats and r > 0 else None
        state, report, traces = run_round(
            state,
            scenario,
            config,
            derive_seed(seed, "round", r),
            last_round_drop=drop,
            last_round_edits=last_edits,
            prior_failure_counts=prior,
        )
        successes.append(report.successes)
        last_edits = frozenset(
            sid
            for action in report.skill_actions
            if action["action"] in ("create", "refine", "hold-in-pool")
            for sid in action["skills"]  # type: ignore[union-attr]
        )
        if config.cross_round_repeats:
            failure_history.update(failure_counts(traces))
        yield state, report, traces
        del traces  # the next round runs without this one's traces


def trajectory_report(
    scenario: Scenario, seed: int, reports: Sequence[RoundReport]
) -> TrajectoryReport:
    """The trajectory of a run's round reports.  The checkpoint is the
    round with the highest success count, earliest on ties."""
    best = max(range(len(reports)), key=lambda r: (reports[r].successes, -r))
    return TrajectoryReport(
        scenario=scenario.name,
        seed=seed,
        rounds=tuple(reports),
        checkpoint_round=best,
    )


def run_experiment(
    scenario: Scenario,
    seed_state: RoundState,
    seed: int,
    rounds: int,
    config: EngineConfig,
) -> ExperimentResult:
    """Chain rounds from the scenario's seed state (`experiment_rounds`),
    keeping every state and report but no trace."""
    states = [seed_state]
    reports: list[RoundReport] = []
    for next_state, report, _ in experiment_rounds(
        scenario, seed_state, seed, rounds, config
    ):
        states.append(next_state)
        reports.append(report)
    return ExperimentResult(trajectory_report(scenario, seed, reports), tuple(states))


def _reowned(
    library_source: RoundState, mas_source: RoundState, *, reown_all_to_manager: bool
) -> RoundState:
    """Cross-combine one state's library side with another's executor side."""
    manager_id = mas_source.manager_id()
    executors = {
        eid: dataclasses.replace(e, owned_skills=frozenset())
        for eid, e in mas_source.executors.items()
    }
    library = {}
    for skill in library_source.library.values():
        if skill.status is not SkillStatus.PRUNED and (
            reown_all_to_manager or skill.owner not in executors
        ):
            skill = dataclasses.replace(skill, owner=manager_id)
        place_skill(library, executors, skill)
    return RoundState(
        round_index=0,
        library=library,
        executors=executors,
        q_skill=library_source.q_skill,
        q_exec=mas_source.q_exec,
        pool=dict(library_source.pool),
        policy_index=library_source.policy_index,
    )


def transplant_variants(
    final_state: RoundState, seed_state: RoundState
) -> dict[str, RoundState]:
    """The four frozen cross-combinations of final and seed sides."""
    return {
        TRANSPLANT_ROWS[0]: final_state,
        TRANSPLANT_ROWS[1]: _reowned(
            final_state, seed_state, reown_all_to_manager=True
        ),
        TRANSPLANT_ROWS[2]: _reowned(
            seed_state, final_state, reown_all_to_manager=False
        ),
        TRANSPLANT_ROWS[3]: seed_state,
    }


def transplant_stress_test(
    scenario: Scenario,
    seed_state: RoundState,
    seed: int,
    rounds: int,
    eval_episodes: int,
    config: EngineConfig,
) -> ComparisonTable:
    """Cross-transplant the adapted library and executor organization.

    Runs a full experiment, then evaluates four frozen variants on the same
    fresh evaluation stream: the adapted checkpoint, each one-sided
    transplant, and the untouched seed.
    """
    result = run_experiment(scenario, seed_state, seed, rounds, config)
    return evaluate_transplants(
        scenario, result.checkpoint_state, seed_state, seed, eval_episodes, config
    )


def evaluate_transplants(
    scenario: Scenario,
    final_state: RoundState,
    seed_state: RoundState,
    seed: int,
    eval_episodes: int,
    config: EngineConfig,
) -> ComparisonTable:
    """Each transplant variant's successes over one fresh evaluation batch.

    The variants run on the same episode streams, each stream seeded once
    for all four (`exec_shared`), which walks each episode to its outcome
    and builds no trace; successes are counted as episodes finish.
    """
    variants = transplant_variants(final_state, seed_state)
    successes = [0] * len(TRANSPLANT_ROWS)
    for _, flags in exec_shared(
        [variants[label] for label in TRANSPLANT_ROWS],
        scenario,
        eval_episodes,
        derive_seed(seed, "transplant-eval"),
        config,
    ):
        for k, flag in enumerate(flags):
            successes[k] += flag
    return ComparisonTable(
        tuple(
            ComparisonRow(label, count, eval_episodes)
            for label, count in zip(TRANSPLANT_ROWS, successes)
        )
    )


@dataclass(frozen=True)
class FamilyRow:
    task_type: str
    successes: int
    attempts: int
    baseline_successes: int | None = None
    baseline_attempts: int | None = None

    @property
    def gain(self) -> int | None:
        if self.baseline_successes is None:
            return None
        return self.successes - self.baseline_successes


def family_tally(outcomes: Iterable[tuple[TaskType, int]]) -> dict[str, tuple[int, int]]:
    """Task id -> (successes, attempts) over a batch's (task, outcome) pairs."""
    counts: dict[str, tuple[int, int]] = {}
    for task, outcome in outcomes:
        s, a = counts.get(task.id, (0, 0))
        counts[task.id] = (s + outcome, a + 1)
    return counts


def family_rows(
    counts: Mapping[str, tuple[int, int]],
    baseline: Mapping[str, tuple[int, int]] | None = None,
) -> list[FamilyRow]:
    """One row per family of `counts` (task id -> (successes, attempts)), in
    task-id order, with the baseline's counts (0/0 where absent) when given."""
    rows = []
    for task_id in sorted(counts):
        s, a = counts[task_id]
        if baseline is not None:
            bs, ba = baseline.get(task_id, (0, 0))
            rows.append(FamilyRow(task_id, s, a, bs, ba))
        else:
            rows.append(FamilyRow(task_id, s, a))
    return rows


def _ratio(successes: int, attempts: int) -> str:
    pct = 100.0 * successes / attempts if attempts else 0.0
    return f"{successes}/{attempts} ({pct:.1f}%)"


def render_trajectory(report: Mapping[str, Any]) -> str:
    """The trajectory table of a canonical report dict: `TrajectoryReport.to_dict()`
    or a parsed `trajectory.json`."""
    checkpoint_round = report["checkpoint"]["round"]
    lines = [
        f"Scenario {report['scenario']}, seed {report['seed']}",
        f"{'R':>2}  {'Success':<16} {'Skills':>6}  {'Executors':>9}  Event",
    ]
    for r in report["rounds"]:
        event = r["restructure"].get("action", "keep")
        if event == "add":
            event = f"+ executor {', '.join(r['restructure'].get('subjects', []))}"
        marker = " *" if r["round"] == checkpoint_round else ""
        lines.append(
            f"{r['round']:>2}  {_ratio(r['successes'], r['episodes']):<16} "
            f"{r['active_skills']:>6}  {r['active_executors']:>9}  {event}{marker}"
        )
    lines.append(f"Checkpoint: round {checkpoint_round}")
    return "\n".join(lines) + "\n"


def render_breakdown(rows: Sequence[FamilyRow]) -> str:
    has_baseline = any(r.baseline_successes is not None for r in rows)
    if has_baseline:
        lines = [f"{'Task family':<24} {'Seed':<16} {'Best':<16} Gain"]
        for r in rows:
            base = _ratio(r.baseline_successes or 0, r.baseline_attempts or 0)
            gain = r.gain or 0
            lines.append(
                f"{r.task_type:<24} {base:<16} "
                f"{_ratio(r.successes, r.attempts):<16} {gain:+d}"
            )
    else:
        lines = [f"{'Task family':<24} Success"]
        for r in rows:
            lines.append(f"{r.task_type:<24} {_ratio(r.successes, r.attempts)}")
    return "\n".join(lines) + "\n"


def render_comparison(table: ComparisonTable) -> str:
    lines = [f"{'Variant':<28} Success"]
    for row in table.rows:
        lines.append(f"{row.label:<28} {_ratio(row.successes, row.episodes)}")
    return "\n".join(lines) + "\n"
