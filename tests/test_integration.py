"""Cross-module checks on the reference scenarios."""

from __future__ import annotations

from skillmas.model import CauseLabel, owned_by
from skillmas.orchestrator import run_experiment
from skillmas.presets import load_preset
from skillmas.world import realizers


def test_repair_guards_point_at_the_repairing_procedure():
    # an add-guard repair carries a require:<latent> guard whose latent
    # repairs the diagnosed cause, and the edited skill then realizes it
    pack = load_preset("favorable")
    result = run_experiment(pack.scenario, pack.seed_state, 4, 6, pack.config)
    latents = {l.id: l for l in pack.scenario.latent_catalog}

    checked = 0
    for report in result.report.rounds:
        for action in report.skill_actions:
            if action["action"] not in ("refine", "hold-in-pool"):
                continue
            if action.get("cause") != CauseLabel.MISSING_PRECONDITION.value:
                continue
            for sid in action["skills"]:
                skill = result.final_state.library[sid]
                for guard in skill.guards:
                    if not guard.startswith("require:ls-"):
                        continue
                    latent = latents[guard.split(":", 1)[1]]
                    assert latent.repairs_cause is CauseLabel.MISSING_PRECONDITION
                    checked += 1
    assert checked >= 1, "no add-guard repair landed in six rounds"


def test_created_motifs_become_the_realizers():
    pack = load_preset("mismatch")
    result = run_experiment(pack.scenario, pack.seed_state, 2, 6, pack.config)
    created = {
        sid
        for report in result.report.rounds
        for action in report.skill_actions
        if action["action"] == "create"
        for sid in action["skills"]
    }
    assert created, "no motif was created in six rounds"
    realizer_ids = set(realizers(pack.scenario, result.final_state.library).values())
    # at least one surviving created skill is the realizer of its procedure
    assert created & result.final_state.library.keys() & realizer_ids


def test_favorable_checkpoint_realizes_most_of_the_catalog():
    pack = load_preset("favorable")
    result = run_experiment(pack.scenario, pack.seed_state, 9, 6, pack.config)
    realized = realizers(pack.scenario, result.checkpoint_state.library)
    assert len(realized) >= len(pack.scenario.latent_catalog) // 2


def test_mismatch_restructuring_relieves_overload():
    pack = load_preset("mismatch")
    hits = 0
    for seed in range(6):
        result = run_experiment(pack.scenario, pack.seed_state, seed, 8, pack.config)
        added = [
            r.restructure
            for r in result.report.rounds
            if r.restructure["action"] == "add"
        ]
        if not added:
            continue
        hits += 1
        final = result.final_state
        for summary in added:
            new_id = summary["subjects"][0]
            if new_id not in final.executors:
                continue  # may have been merged away later
            specialist = final.executors[new_id]
            assert len(owned_by(final.library).get(new_id, ())) <= specialist.capacity
    assert hits >= 3, "restructuring fired too rarely on the mismatch world"
