"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a PASS line on completion so the suite reads as a checklist
under `pytest -s tests/test_acceptance.py`.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from array import array

import pytest

from skillmas.cli import main
from skillmas.config import EngineConfig
from skillmas.model import (
    Batch,
    ExecutorSlice,
    TaskType,
    TraceShape,
    UtilityTable,
    validate_state,
)
from skillmas.orchestrator import (
    TRANSPLANT_ROWS,
    run_experiment,
    run_round,
    transplant_stress_test,
)
from skillmas.presets import load_preset
from skillmas.restructure import RestructureDecision, evidence_holds
from skillmas.streams import derive_seed
from skillmas.utility import learn, used_skills
from skillmas.world import exec_round

from conftest import random_scenario
from reference import expand_retained


def _entry_shapes() -> tuple[TraceShape, TraceShape]:
    """The shapes of one (task, slice) that fail and that succeed, so that
    an outcome is its shape's position."""
    task = TaskType("t", ("p",))
    sl = ExecutorSlice("w", "p", frozenset({"s"}), frozenset({"s"}), frozenset())
    return tuple(TraceShape(task, (sl,), outcome, float(outcome)) for outcome in (0, 1))


def test_running_mean_identity():
    """Every utility entry equals the arithmetic mean of its outcomes (1e-9)."""
    start = time.monotonic()
    rng = random.Random(20240)
    for case in range(1000):
        outcomes = [rng.randint(0, 1) for _ in range(rng.randint(1, 100))]
        batch = Batch(0, _entry_shapes(), array("L", outcomes))
        q_skill, q_exec = learn(UtilityTable(), UtilityTable(), batch)
        mean = sum(outcomes) / len(outcomes)
        for table, key in ((q_skill, "s"), (q_exec, "w")):
            value, count = table.get(key, "t")
            assert count == len(outcomes)
            assert abs(value - mean) < 1e-9, f"case {case}: {value} vs {mean}"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"running-mean check took {elapsed:.2f}s"
    print(f"\nPASS running-mean identity: 1000 sequences within 1e-9 ({elapsed:.2f}s)")


def test_credit_gating():
    """Across randomized rounds, only used skills and routed executors move."""
    start = time.monotonic()
    config = EngineConfig(episodes_per_round=15)
    for case in range(200):
        scenario, state = random_scenario(random.Random(case))
        batch = exec_round(state, scenario, 15, case, config)
        q_skill, q_exec = learn(state.q_skill, state.q_exec, batch)

        allowed_skill_keys = set()
        allowed_exec_keys = set()
        for shape in batch.shapes:
            task_id = shape.task_type.id
            for sl in shape.slices:
                for sid in used_skills(sl):
                    allowed_skill_keys.add((sid, task_id))
                allowed_exec_keys.add((sl.executor, task_id))

        changed_skills = {
            k for k, v in q_skill.entries.items() if state.q_skill.entries.get(k) != v
        }
        changed_execs = {
            k for k, v in q_exec.entries.items() if state.q_exec.entries.get(k) != v
        }
        assert changed_skills <= allowed_skill_keys
        assert changed_execs <= allowed_exec_keys
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"credit gating took {elapsed:.2f}s"
    print(f"\nPASS credit gating: 200 randomized rounds, no stray updates ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def invariant_sweep():
    """50 randomized experiments x 10 rounds, with per-round audit hooks."""
    config = EngineConfig(episodes_per_round=16)
    decisions = []
    keep_only_rounds = 0
    total_rounds = 0
    start = time.monotonic()
    for experiment in range(50):
        scenario, state = random_scenario(random.Random(1000 + experiment))
        last_edits: frozenset[str] = frozenset()
        previous_successes: list[int] = []
        for round_index in range(10):
            drop = (
                len(previous_successes) >= 2
                and previous_successes[-1] < previous_successes[-2]
            )
            next_state, report, batch = run_round(
                state,
                scenario,
                config,
                derive_seed(experiment, "round", round_index),
                last_round_drop=drop,
                last_round_edits=last_edits,
            )
            total_rounds += 1

            # boundedness of utilities
            for table in (next_state.q_skill, next_state.q_exec):
                for value, count in table.entries.values():
                    assert 0.0 <= value <= 1.0 and count >= 0

            # retained evidence is a subset of the round's episodes
            trace_ids = {batch.episode_id(i) for i in range(len(batch.index))}
            retained_ids = {
                eid
                for ids in expand_retained(
                    report.round_index, report.retained_entries, batch.index
                ).values()
                for eid in ids
            }
            assert retained_ids <= trace_ids

            # at most one skill action per implicated cluster
            clusters = [a["cluster"] for a in report.skill_actions]
            assert len(clusters) == len(set(clusters))

            # at most one structural edit, manager always present
            action = report.restructure["action"]
            assert action in ("keep", "add", "merge-remove", "modify")
            if action == "keep":
                keep_only_rounds += 1
            validate_state(next_state, scenario.universe())
            assert any(e.is_manager for e in next_state.executors.values())

            decisions.append(report.restructure)
            last_edits = frozenset(
                sid
                for a in report.skill_actions
                if a["action"] in ("create", "refine", "hold-in-pool")
                for sid in a["skills"]
            )
            previous_successes.append(report.successes)
            state = next_state
    elapsed = time.monotonic() - start
    return {
        "decisions": decisions,
        "rounds": total_rounds,
        "keep_rounds": keep_only_rounds,
        "elapsed": elapsed,
    }


def test_boundedness_and_subset_laws(invariant_sweep):
    """Utilities bounded, retention a subset, action bounds, manager alive."""
    assert invariant_sweep["rounds"] == 500
    assert invariant_sweep["elapsed"] < 120.0
    print(
        f"\nPASS boundedness/subset laws: 500 rounds audited "
        f"({invariant_sweep['elapsed']:.1f}s)"
    )


def test_gatedness(invariant_sweep):
    """Every non-keep edit re-evaluates true; a mismatch-free world always keeps."""
    non_keep = 0
    for summary in invariant_sweep["decisions"]:
        if summary["action"] == "keep":
            assert summary["evidence"] == {}
            continue
        non_keep += 1
        decision = RestructureDecision(
            action=summary["action"],
            subjects=tuple(summary["subjects"]),
            new_boundary=(
                frozenset(tuple(p) for p in summary["new_boundary"])
                if "new_boundary" in summary
                else None
            ),
            transferred_skills=tuple(summary.get("transferred_skills", ())),
            evidence=summary["evidence"],
        )
        assert evidence_holds(decision), f"stale evidence: {summary}"

    pack = load_preset("hostile")
    keeps = 0
    rounds = 0
    for seed in range(20):
        result = run_experiment(pack.scenario, pack.seed_state, seed, 5, pack.config)
        for report in result.report.rounds:
            rounds += 1
            if report.restructure["action"] == "keep":
                keeps += 1
    assert keeps == rounds, "structural mismatch invented where none exists"
    print(
        f"\nPASS gatedness: {non_keep} non-keep edits re-evaluate true; "
        f"hostile world kept {keeps}/{rounds} rounds"
    )


def test_transplant_directionality():
    """Full beats every frozen transplant variant on the mismatch world."""
    start = time.monotonic()
    pack = load_preset("mismatch")
    per_variant: dict[str, list[int]] = {label: [] for label in TRANSPLANT_ROWS}
    for seed in range(20):
        table = transplant_stress_test(
            pack.scenario, pack.seed_state, seed, rounds=8, eval_episodes=60,
            config=pack.config,
        )
        for row in table.rows:
            per_variant[row.label].append(row.successes)
    medians = {label: statistics.median(v) for label, v in per_variant.items()}
    full = medians["Full"]
    for label in TRANSPLANT_ROWS[1:]:
        assert full > medians[label], f"Full {full} vs {label} {medians[label]}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        "\nPASS transplant directionality: medians "
        + ", ".join(f"{label}={medians[label]:g}" for label in TRANSPLANT_ROWS)
        + f" ({elapsed:.1f}s)"
    )


def test_trajectory_improvement():
    """Favorable world gains >= 10 points at checkpoint; hostile world is flat."""
    start = time.monotonic()
    pack = load_preset("favorable")
    round0_rates = []
    best_rates = []
    for seed in range(20):
        result = run_experiment(pack.scenario, pack.seed_state, seed, 6, pack.config)
        rounds = result.report.rounds
        round0_rates.append(100.0 * rounds[0].successes / rounds[0].episodes)
        best = rounds[result.report.checkpoint_round]
        best_rates.append(100.0 * best.successes / best.episodes)
    gain = statistics.median(best_rates) - statistics.median(round0_rates)
    assert gain >= 10.0, f"median gain {gain:.1f} points"

    hostile = load_preset("hostile")
    for seed in range(20):
        result = run_experiment(
            hostile.scenario, hostile.seed_state, seed, 6, hostile.config
        )
        skills = {r.active_skills for r in result.report.rounds}
        executors = {r.active_executors for r in result.report.rounds}
        assert len(skills) == 1 and len(executors) == 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        f"\nPASS trajectory improvement: favorable gain {gain:.1f} points; "
        f"hostile counts constant ({elapsed:.1f}s)"
    )


def test_determinism_and_replay(tmp_path, capsys):
    """Byte-identical reruns; replay flags any single-record corruption."""
    start = time.monotonic()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(
            ["run", "--scenario", "preset:tiny", "--seed", "11", "--rounds", "3",
             "--out", str(out), "--quiet"]
        ) == 0
    for rel in ("trajectory.json", "trajectory.txt", "checkpoint.json",
                "traces.jsonl", "snapshots/state_r003.txt"):
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    assert main(["replay", "--run", str(out_a)]) == 0

    snapshot = out_a / "snapshots" / "state_r002.txt"
    lines = snapshot.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith(("qskill", "qexec")):
            parts = line.split()
            parts[3] = "0.999999999999"
            lines[i] = " ".join(parts)
            break
    snapshot.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--run", str(out_a)]) == 1
    printed = capsys.readouterr().out
    assert "state_r002.txt" in printed
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\nPASS determinism/replay: reruns byte-identical, corruption caught ({elapsed:.1f}s)")


def test_empirical_rate_calibration():
    """Known per-phase probability reproduces p^phases within 3 binomial sigma."""
    start = time.monotonic()
    pack = load_preset("calibration")
    n = 1000
    batch = exec_round(
        pack.seed_state, pack.scenario, n, derive_seed(7, "calibration"), pack.config
    )
    successes = sum(shape.outcome * count for shape, count in batch.tally())
    expected = 0.8 ** 2
    sigma = math.sqrt(n * expected * (1 - expected))
    assert abs(successes - n * expected) <= 3 * sigma, (
        f"{successes}/{n} vs expected {n * expected:.0f} +/- {3 * sigma:.0f}"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"\nPASS empirical-rate calibration: {successes}/{n} within 3 sigma of "
        f"{n * expected:.0f} ({elapsed:.1f}s)"
    )
