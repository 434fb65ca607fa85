"""Round orchestration: the full adaptation loop, experiments, and reports.

A round is one transactional state transition: execute a batch with the
state fixed, learn utilities, retain evidence, consolidate skill proposals,
apply at most one restructuring edit, promote from the validation pool.
Any failure aborts the round with the input state untouched.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .config import EngineConfig
from .evolution import (
    Proposal,
    ProposalIndex,
    apply_skill_delta,
    promote_pool,
    proposal_index,
    propose,
    retrieve_policy_cards,
    skill_evolve,
    update_pool_counters,
)
from .model import (
    Batch,
    CauseLabel,
    RoundState,
    StateError,
    TraceShape,
    UtilityTable,
    validate_state,
)
from .numfmt import q12
from .restructure import (
    apply_restructure,
    build_artifacts,
    decide_restructure,
    evidence_holds,
)
from .retention import RetainedShape, failure_counts, retain
from .streams import derive_seed
from .utility import learn
from .world import Scenario, exec_round, exec_shared

TRANSPLANT_ROWS = (
    "Full",
    "Final-library/seed-MAS",
    "Specialized-MAS/seed-skills",
    "Seed",
)
# `trajectory.json`'s format; 2 since `retained` lists shape-table entries
TRAJECTORY_FORMAT = 2


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
    retained_entries: dict[str, list[int]]  # category -> ascending table entries
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
            "per_family": family_records(self.per_family),
            "active_skills": self.active_skills,
            "active_executors": self.active_executors,
            "pool_size": self.pool_size,
            "retained": dict(sorted(self.retained_entries.items())),
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
            "format": TRAJECTORY_FORMAT,
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


_CANONICAL = json.JSONEncoder(sort_keys=True, indent=2, check_circular=False)


def canonical_json(payload: object) -> str:
    """Deterministic JSON rendering used for every persisted report: the
    text of `json.dumps(payload, sort_keys=True, indent=2)` and a newline.

    The indenting encoder yields one small string per token, about 55
    bytes each.  They are joined a hundred at a time, so the tokens alive
    at once take a few kilobytes rather than several times the text.
    """
    tokens = _CANONICAL.iterencode(payload)
    return "".join(iter(lambda: "".join(itertools.islice(tokens, 100)), "")) + "\n"


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
    retained: Sequence[RetainedShape],
    state: RoundState,
    config: EngineConfig,
    index: ProposalIndex,
) -> list[Proposal]:
    """At most one local proposal per retained shape, in the order given.

    Failures go through diagnosis and policy-card retrieval first; successes
    go straight to motif extraction.  Every proposal reads `index`, the
    `proposal_index` of the round's frozen library.
    """
    proposals: list[Proposal] = []
    for rt in retained:
        diagnosis = rt.diagnosis
        cards = () if diagnosis is None else retrieve_policy_cards(
            state.policy_index, rt.shape.task_type.id, diagnosis.cause
        )
        proposal = propose(rt, diagnosis, cards, state.library, state.round_index, config, index)
        if proposal is not None:
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
) -> tuple[RoundState, RoundReport, Batch]:
    """One adaptation round; returns the next state, its report, and the batch.

    The update is all-or-nothing: every stage builds fresh values, so an
    error anywhere leaves the caller's state exactly as passed in.  Every
    stage reads the batch's (shape, count) tally; the report keeps each
    retention category's table entries.  The next state keeps no utility
    entry of a skill that a stage dropped.
    """
    batch = exec_round(state, scenario, config.episodes_per_round, seed, config)
    tally = batch.tally()

    q_skill_plus, q_exec_plus = learn(
        state.q_skill,
        state.q_exec,
        batch,
        known_skills=state.library,
        known_executors=state.executors,
    )
    pool_counted = update_pool_counters(state.pool, tally)

    labels = retain(
        tally,
        state.q_exec,
        config,
        state.library,
        prior_failure_counts=prior_failure_counts,
    )
    retained = [
        RetainedShape(shape, count, batch.episode_id(first))
        for (shape, count), first, categories in zip(tally, batch.firsts(), labels)
        if categories
    ]

    index = proposal_index(scenario, state.library, config)
    proposals = collect_proposals(retained, state, config, index)

    delta = skill_evolve(
        proposals,
        state.library,
        state.policy_index,
        q_skill_plus,
        config,
        index,
        last_round_drop=last_round_drop,
        last_round_edits=last_round_edits,
    )
    library2, pool2 = apply_skill_delta(state.library, state.executors, pool_counted, delta)

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
        library2, state.executors, pool2, q_skill_plus, decision, config
    )

    library4, executors4, pool4, promotions = promote_pool(
        library3, pool3, executors3, config
    )

    next_state = RoundState(
        round_index=state.round_index + 1,
        library=library4,
        executors=executors4,
        q_skill=UtilityTable(
            {key: entry for key, entry in q_skill_plus.counts.items() if key[0] in library4}
        ),
        q_exec=q_exec_plus,
        pool=pool4,
        policy_index=state.policy_index,
    )
    validate_state(next_state, scenario.universe())

    entries: dict[str, list[int]] = {}
    for k, categories in enumerate(labels):
        for category in categories:
            entries.setdefault(category.value, []).append(k)

    report = RoundReport(
        round_index=state.round_index,
        episodes=len(batch.index),
        successes=sum(shape.outcome * count for shape, count in tally),
        per_family=family_tally(tally),
        active_skills=state.active_skill_count(),
        active_executors=len(state.executors),
        pool_size=len(state.pool),
        retained_entries=entries,
        skill_actions=tuple(_summarize_action(a) for a in delta.actions),
        restructure=_summarize_decision(decision, ownership_log),
        promotions=tuple(promotions),
        last_round_drop=last_round_drop,
    )
    return next_state, report, batch


def experiment_rounds(
    scenario: Scenario,
    seed_state: RoundState,
    seed: int,
    rounds: int,
    config: EngineConfig,
) -> Iterator[tuple[RoundState, RoundReport, Batch]]:
    """Chain rounds from the scenario's seed state, yielding each round's
    `run_round` result, (next state, report, batch), as the round ends.

    A round-level success drop arms the demotion penalty for the next
    round's consolidation.  The chainer keeps no round's batch: with
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
        state, report, batch = run_round(
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
            failure_history.update(failure_counts(batch.tally()))
        yield state, report, batch
        del batch  # the next round runs without this one's batch


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
    keeping every state and report but no batch."""
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
    executors = mas_source.executors
    return RoundState(
        round_index=0,
        library={
            sid: skill
            if skill.owner in executors and not reown_all_to_manager
            else dataclasses.replace(skill, owner=manager_id)
            for sid, skill in library_source.library.items()
        },
        executors=dict(executors),
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

    The variants run on the same episode streams, seeded once for all four,
    in one `exec_shared` call; each variant's successes are summed from its
    batch's tally, as `run_round` sums a round's.
    """
    variants = transplant_variants(final_state, seed_state)
    batches = exec_shared(
        [variants[label] for label in TRANSPLANT_ROWS],
        scenario,
        eval_episodes,
        derive_seed(seed, "transplant-eval"),
        config,
    )
    return ComparisonTable(
        tuple(
            ComparisonRow(
                label, sum(shape.outcome * count for shape, count in batch.tally()), eval_episodes
            )
            for label, batch in zip(TRANSPLANT_ROWS, batches)
        )
    )


def family_tally(tally: Iterable[tuple[TraceShape, int]]) -> dict[str, tuple[int, int]]:
    """Task id -> (successes, attempts) over a batch's (shape, episodes) pairs."""
    counts: dict[str, tuple[int, int]] = {}
    for shape, episodes in tally:
        task_id = shape.task_type.id
        s, a = counts.get(task_id, (0, 0))
        counts[task_id] = (s + shape.outcome * episodes, a + episodes)
    return counts


def family_records(counts: Mapping[str, tuple[int, int]]) -> dict[str, dict[str, int]]:
    """Per-family counts as every report records them: task id ->
    {"successes": s, "attempts": a}, in task-id order."""
    return {task: {"successes": s, "attempts": a} for task, (s, a) in sorted(counts.items())}


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


def render_breakdown(
    counts: Mapping[str, tuple[int, int]],
    baseline: Mapping[str, tuple[int, int]] | None = None,
) -> str:
    """One row per family of `counts` (task id -> (successes, attempts)), in
    task-id order; with a baseline, its counts (0/0 where absent) and the
    gain in successes."""
    if baseline is None:
        lines = [f"{'Task family':<24} Success"]
        for task_id, (s, a) in sorted(counts.items()):
            lines.append(f"{task_id:<24} {_ratio(s, a)}")
    else:
        lines = [f"{'Task family':<24} {'Seed':<16} {'Best':<16} Gain"]
        for task_id, (s, a) in sorted(counts.items()):
            bs, ba = baseline.get(task_id, (0, 0))
            lines.append(f"{task_id:<24} {_ratio(bs, ba):<16} {_ratio(s, a):<16} {s - bs:+d}")
    return "\n".join(lines) + "\n"


def render_comparison(table: ComparisonTable) -> str:
    lines = [f"{'Variant':<28} Success"]
    for row in table.rows:
        lines.append(f"{row.label:<28} {_ratio(row.successes, row.episodes)}")
    return "\n".join(lines) + "\n"
