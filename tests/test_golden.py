"""Golden artifact hashes: the engine's output must not move by a byte.

Every value below was first recorded when episode streams became BLAKE2b
blocks, and re-recorded where it moved when utility entries became exact
(successes, attempts) counts, when the trace log became per-round shape
tables, and when a pruned skill left the snapshots (only digests over
snapshot bytes moved then).  The run-directory digests moved again when
`run.json`'s config lost `routing_noise` (format 6), and the wide24
reports moved when the modify predicate began to see the post-delta
organization (its evidence's owned-skill count).  The MT_* constants at the end of the file
pin the engine on the Mersenne Twister streams that episodes read before,
patched back in.  A change that is meant to be a pure optimisation must
leave all of them unchanged; a change that alters behaviour on purpose must
say so and re-record them.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

import skillmas.world as world
from conftest import NOISY, random_scenario, task_at
from reference import expand_report, expand_run_dir, mt_blocks
from skillmas import EngineConfig, load_preset, run_experiment
from skillmas.cli import main
from skillmas.orchestrator import (
    TRANSPLANT_ROWS,
    experiment_rounds,
    trajectory_report,
    transplant_variants,
)
from skillmas.presets import PRESETS
from skillmas.store import parse_scenario, serialize_state
from skillmas.streams import derive_seed, episode_blocks, word_random
from skillmas.world import ExecutionTable, walk_episode

SEEDS = (1, 7, 11)
ROUNDS = 8

REPORT_SHA256 = {
    ("calibration", 1): "72600b9b879b20bdcc48266cb2b36ea8d600d7299c240489ab1e2201152ef791",
    ("calibration", 7): "867011cacf016e4447cb8ab42e0497bac9ea0b90aee822db6cb5ac2f896bf3fe",
    ("calibration", 11): "7a238c39947c2479b2201651b35f62b10ebd35303b9a5807ecace644efb1049f",
    ("favorable", 1): "ef5c1e3bf110cbb055eed11ff64d586a003227fbf4eeb434370ac50c94eb0757",
    ("favorable", 7): "1c900ec2130f41eb6c1afde987a0c56c0013ad30280b7a51b02173bafd3f3c68",
    ("favorable", 11): "fcb1e19c76e90fa2cd53993323185ef0c891128ef634c4b7e1ba66bd983e256f",
    ("hostile", 1): "ed28b68fef474941431df3e644f852d2b690916924588bd296d642140d3ce748",
    ("hostile", 7): "6e27ecb9e6ecbbdbaaf05ee9bfbfe32e8a4364329ca8bbd4a5921a1abbf8baa9",
    ("hostile", 11): "08bdef5e37e797ccb1d0ed9bb353818744b48370ebb4df8ad3900c62dd77f08b",
    ("mismatch", 1): "5c1e6879548419f36cc4fa5f5938240dd2e5f33bcfb080e0805c42cb5e137349",
    ("mismatch", 7): "e7f92435d1124c3181dfa651f97644e5f8a2a6b74e04756b1c1c3797b87dbde7",
    ("mismatch", 11): "257f0ab4287bfa5fd750c7a3004f0ae00014781e29a7ff0f51e43b38ba90864e",
    ("tiny", 1): "6783de81d13c4f12191e9438d484042780b1f273fba54cab2224c232c367413b",
    ("tiny", 7): "c7d1b4dfa0d37afd58f4b7230b9fc01f8c9fcbca3bfeff62b510a056e06a403b",
    ("tiny", 11): "4a77d9bdce59b9fd44384fb6d09ac49d7a480424768f922b15285bd67fd74731",
}

# generated wide world, N = 24, 100 episodes x 10 rounds, seed 7: the run
# prunes 19 skills and its library ends at 14
WIDE_SHA256 = "dc2fc8f701d56b53691555c6ee3f79e572e35bbe0023ae05689590c758b49bf9"

# `skillmas run --scenario preset:mismatch --seed 7 --rounds 4 --episodes 200`
RUN_DIR_SHA256 = "c1b624ae1311f4af0d7fc8cc87db4227e8d2422bf9e3dcd72a1394678bd47bba"

# the same run with `--config` {"cross-round-repeats": true}: earlier rounds'
# failures count towards repeats, so rounds 1 and 3 retain 147 and 129
# repeated failures where the default run retains 146 and 128
CROSS_ROUND_RUN_DIR_SHA256 = "877bf75f986d54777bfb5d0e4d3fb3881bc1bdf815539bdf14d012b2cc746d5f"

# runs whose rounds fire `modify` before their last round (of the goldens
# above, only the wide run modifies, at its last round, 9), by (scenario,
# seed, rounds): the report, one digest over `serialize_state`
# of every state X_0 .. X_R, and one over the four transplant variants of
# the checkpoint.  mismatch seed 32 modifies at round 5 and wide24 seed 27
# at round 7: of seeds 1 up, the first of each that modified before its last
# round when first recorded (wide24 seeds 7 and 21 modify only at round 9;
# since utility entries are exact counts, seed 14 modifies at round 6 too).
OWNERSHIP_SHA256 = {
    ("mismatch", 32, 8): (
        "a0d922479f5850d0cfd132e773ca5b6f4ceb464e74d5a6420991e82167a3f8d2",
        "66b80e4c2cd789b35839967a071c9cbd68c8776fa81cd25b2c89ce6cc3b48c2b",
        "2789b64c54dba325570b6a3ed2dba9619ca479eb533ff7497376e31e4d239dec",
    ),
    ("wide24", 27, 10): (
        "9469d82f3a423ef1439ac2d646a8030afc756f084f324b071b5af514f9061531",
        "5141c26445a681f082b2e0b14fad2bb1401ca6f8b0b0007ba97dab1f9e7fc6b4",
        "77a3e2cd733c5215241d048d5cdf591a1d1f193294fd014d8ff28449775c27e4",
    ),
}

# a run whose round 1 fires `merge-remove` (no preset or wide world does):
# `conftest.random_scenario(random.Random(171))`, engine seed 171, 60 episodes
# x 8 rounds, the first of random worlds 0-299 run that way to merge.
# `worker0` absorbs `worker1` with skill overlap 0.5, exactly the overlap
# threshold, and utility gap 0.098 against a merge gap of 0.1.  The report,
# then one digest over `serialize_state` of every state X_0 .. X_8.
MERGE_SHA256 = (
    "73ef10489034bb6902dc44a5a91459a6de6ccd1e2727026b5a846d34b58845d1",
    "f095243733897c9f68269f82930bc1700b69f32df1f3cc7bc2249dd73a7e757f",
)

# The per-episode format of the artifacts above, before the trace log held
# shape tables: a log line per episode and `retained` as episode-id lists in
# `trajectory.json` format 1.  The report values are the ones REPORT_SHA256
# and WIDE_SHA256 had then; `reference.expand_report` and
# `reference.expand_run_dir` rebuild those bytes from the new artifacts, so
# no information moved.  The run-directory values moved with the snapshots
# when a pruned skill left them (the rest of the directory did not), and with
# `run.json` when its config lost `routing_noise`; the wide value moved with
# WIDE_SHA256 when the modify predicate began to see the post-delta
# organization.
PER_EPISODE_REPORT_SHA256 = {
    ("calibration", 1): "af6508b36cc242f995b765fad7b18b3a389155dc8a3f033971f9070da1256ff9",
    ("calibration", 7): "ab0cfdff1f7148d7f074d730f38bc951bdf408909146a55a55d296268e8b3239",
    ("calibration", 11): "400802de637f00d1ee04e5de8c6d5da97378c6c58690487384760ac58334ba2d",
    ("favorable", 1): "fe400cd4987769865bcc991183c4be72b71ea82074378b6906783140fb85327d",
    ("favorable", 7): "0df3cebd9f7424181a9520d5477cdfbc133cb8e92d72c3e964fc06ae371cf7b8",
    ("favorable", 11): "e3edce2103993b9a973b210ccfccba990f43b76ab9ec9a0d0042968008a9f38e",
    ("hostile", 1): "4d204138013769db253f341325e2fcb6fa6a89f18978bd5fa6dd067b9b23f6b0",
    ("hostile", 7): "bf757e9d1b672dc098b78c14e68fec0ae44cd05f995b7bf06f89e8f403e27920",
    ("hostile", 11): "f22d8369231f6ece85055fed63ec05ef5386ade1b6d68ee70aaa847c2b9ead4a",
    ("mismatch", 1): "3160415b131076feed8642f0c800330d0d07e98751e6c3f2ac0b3039c276c454",
    ("mismatch", 7): "364b453fe4fb9506ad96d0da0ee5a1ede5bf913c0baa2f30a75d39a40df2b940",
    ("mismatch", 11): "86bc3c0baee3b1ecf10f54e68c27c00dada8336ed1f912301315e1008f666f6f",
    ("tiny", 1): "7f296d5c622987fb9d89de4070de0136491366ac07f8cb61c2a8408bee311225",
    ("tiny", 7): "47d13fa3675bfd813b45ddb371571814de218b4a9ff127d7e002a868a187a36f",
    ("tiny", 11): "2df12caf9156ff35f254a1da4ee224b905251588dbbfbd4f7b0396b70c4affc3",
}
PER_EPISODE_WIDE_SHA256 = "23184b4e2ac2dcf23d43eaa6d7beda7efd8d2b563f68c76ad15b566a89604266"
PER_EPISODE_RUN_DIR_SHA256 = "5a4f2ce87ff85715664d725a327e4fd6acb83300cea6887c4c7887a1d636884f"
PER_EPISODE_CROSS_ROUND_RUN_DIR_SHA256 = (
    "7724e9179db06189af3757afe7746a35e45a12c69eced7349bd795ee65707947"
)

# `skillmas transplant --episodes 200` on the RUN_DIR_SHA256 directory
TRANSPLANT_SHA256 = "96b30d451110b4e38451fe802b63e5b2a0f4d55f6e297ded850f6e5d9629b18c"

# `skillmas eval --scenario preset:mismatch --state snapshots/state_r004.txt
# --episodes 500 --seed 7` on the RUN_DIR_SHA256 directory: its stdout, a NUL
# byte, then the `--out` JSON
EVAL_SHA256 = "d721bb8c19c9a3038a7880dd0071d898ee7204aa6775a9bf4b3567a8faa79b59"

# conftest's NOISY world saved as `noisy.scn` and run with `--seed 11 --rounds
# 3`, then `skillmas transplant --episodes 300` on that directory and `skillmas
# eval --state snapshots/state_r003.txt --episodes 300 --seed 11`: each
# command's stdout, a NUL byte, then its JSON.  Frozen walks there read past
# an episode's first block of 16 words.
NOISY_SHA256 = {
    "transplant": "cbe009e447f5d8d02af69fd1299aa77ddd1f53da50223d79d5f8b0b8ebc339b5",
    "eval": "5be742d7ed3e7a3865dabf02beec69a62ff8cb72a0af5c45ff3e67a77d5b5ca2",
}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dir_digest(path) -> str:
    """SHA-256 over every file of a directory tree, by relative path."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(file.relative_to(path).as_posix().encode("utf-8") + b"\0")
        digest.update(file.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def states_digest(states) -> str:
    """SHA-256 over the snapshots of a sequence of states, in order."""
    digest = hashlib.sha256()
    for state in states:
        digest.update(serialize_state(state).encode("utf-8") + b"\0")
    return digest.hexdigest()


def wide_text(n_families: int, episodes: int) -> str:
    """N single-phase families with one latent each, one worker covering all
    of them at capacity 3, so many skills are created and pruned."""
    causes = ("missing-precondition", "misleading-retrieval", "wrong-action-order")
    families = [f"f{i}" for i in range(n_families)]
    return "\n".join(
        [
            "[tasks]",
            *(f"{f} = handle | 1.0" for f in families),
            "[difficulty]",
            *(f"{f}/handle = -1.1" for f in families),
            "[latent]",
            *(
                f"lat-{f} = {f}/handle 2.4 {causes[i % 3]}"
                for i, f in enumerate(families)
            ),
            "[penalties]",
            "interference = 0.25",
            "overload = 0.6",
            "routing-noise = 0.1",
            "cause-confidence = 0.9",
            "[seed-state]",
            "executor manager = * capacity=1 manager",
            "executor worker = "
            + ",".join(f"{f}/handle" for f in families)
            + " capacity=3",
            "[thresholds]",
            f"episodes-per-round = {episodes}",
        ]
    ) + "\n"


def report_and_indexes(pack, seed, rounds):
    """A run's trajectory report and each round's batch index, which
    `reference.expand_report` reads."""
    reports, indexes = [], []
    for _, report, batch in experiment_rounds(
        pack.scenario, pack.seed_state, seed, rounds, pack.config
    ):
        reports.append(report)
        indexes.append(batch.index)
    return trajectory_report(pack.scenario, seed, reports), indexes


def preset_report(preset, seed):
    pack = load_preset(preset)
    return run_experiment(pack.scenario, pack.seed_state, seed, ROUNDS, pack.config).report


def report_digest(preset, seed) -> str:
    return sha256_text(preset_report(preset, seed).to_json())


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("seed", SEEDS)
def test_preset_report_hash(preset, seed):
    report, indexes = report_and_indexes(load_preset(preset), seed, ROUNDS)
    assert sha256_text(expand_report(report, indexes)) == PER_EPISODE_REPORT_SHA256[(preset, seed)]
    assert sha256_text(report.to_json()) == REPORT_SHA256[(preset, seed)]


def test_wide_report_hash():
    pack = parse_scenario(wide_text(24, 100), name="wide24")
    report, indexes = report_and_indexes(pack, 7, 10)
    assert sha256_text(expand_report(report, indexes)) == PER_EPISODE_WIDE_SHA256
    assert sha256_text(report.to_json()) == WIDE_SHA256


@pytest.mark.parametrize("scenario, seed, rounds", sorted(OWNERSHIP_SHA256))
def test_ownership_edits_hash(scenario, seed, rounds):
    if scenario == "wide24":
        pack = parse_scenario(wide_text(24, 100), name="wide24")
    else:
        pack = load_preset(scenario)
    result = run_experiment(pack.scenario, pack.seed_state, seed, rounds, pack.config)
    actions = [r.restructure["action"] for r in result.report.rounds]
    assert "modify" in actions
    variants = transplant_variants(result.checkpoint_state, result.seed_state)
    assert (
        sha256_text(result.report.to_json()),
        states_digest(result.states),
        states_digest(variants[label] for label in TRANSPLANT_ROWS),
    ) == OWNERSHIP_SHA256[(scenario, seed, rounds)]


def test_merge_remove_hash():
    scenario, seed_state = random_scenario(random.Random(171))
    result = run_experiment(scenario, seed_state, 171, 8, EngineConfig(episodes_per_round=60))
    actions = [r.restructure["action"] for r in result.report.rounds]
    assert actions == ["keep", "merge-remove", "keep", "keep", "keep", "keep", "keep", "keep"]
    merge = result.report.rounds[1].restructure["evidence"]
    assert (merge["survivor"], merge["removed"]) == ("worker0", "worker1")
    assert (
        sha256_text(result.report.to_json()),
        states_digest(result.states),
    ) == MERGE_SHA256


def run_mismatch(out) -> None:
    code = main(
        ["run", "--scenario", "preset:mismatch", "--seed", "7", "--rounds", "4",
         "--episodes", "200", "--out", str(out), "--quiet"]
    )
    assert code == 0


def test_run_directory_digest(tmp_path):
    out = tmp_path / "run"
    run_mismatch(out)
    expand_run_dir(out, tmp_path / "per-episode")
    assert dir_digest(tmp_path / "per-episode") == PER_EPISODE_RUN_DIR_SHA256
    assert dir_digest(out) == RUN_DIR_SHA256


def test_cross_round_run_directory_digest(tmp_path, capsys):
    config = tmp_path / "cross-round.json"
    config.write_text('{"cross-round-repeats": true}\n')
    out = tmp_path / "run"
    code = main(
        ["run", "--scenario", "preset:mismatch", "--seed", "7", "--rounds", "4",
         "--episodes", "200", "--config", str(config), "--out", str(out), "--quiet"]
    )
    assert code == 0
    expand_run_dir(out, tmp_path / "per-episode")
    assert dir_digest(tmp_path / "per-episode") == PER_EPISODE_CROSS_ROUND_RUN_DIR_SHA256
    assert dir_digest(out) == CROSS_ROUND_RUN_DIR_SHA256
    assert main(["replay", "--run", str(out)]) == 0
    assert "replay clean" in capsys.readouterr().out


def test_transplant_digest(tmp_path):
    out = tmp_path / "run"
    run_mismatch(out)
    assert main(["transplant", "--run", str(out), "--episodes", "200"]) == 0
    transplant = (out / "transplant.json").read_bytes()
    assert hashlib.sha256(transplant).hexdigest() == TRANSPLANT_SHA256


def test_eval_digest(tmp_path, capsys):
    out = tmp_path / "run"
    run_mismatch(out)
    capsys.readouterr()
    result = tmp_path / "eval.json"
    code = main(
        ["eval", "--scenario", "preset:mismatch",
         "--state", str(out / "snapshots" / "state_r004.txt"),
         "--episodes", "500", "--seed", "7", "--out", str(result)]
    )
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8") + b"\0")
    digest.update(result.read_bytes())
    assert digest.hexdigest() == EVAL_SHA256


def noisy_digests(tmp_path, capsys) -> dict[str, str]:
    """NOISY_SHA256's two digests, of `transplant` and of `eval`."""
    scenario_path = tmp_path / "noisy.scn"
    scenario_path.write_text(NOISY, encoding="utf-8")
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(scenario_path), "--seed", "11", "--rounds", "3",
                 "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["transplant", "--run", str(out), "--episodes", "300"]) == 0
    transplant = hashlib.sha256(capsys.readouterr().out.encode("utf-8") + b"\0")
    transplant.update((out / "transplant.json").read_bytes())
    result = tmp_path / "eval.json"
    assert main(["eval", "--scenario", str(scenario_path),
                 "--state", str(out / "snapshots" / "state_r003.txt"),
                 "--episodes", "300", "--seed", "11", "--out", str(result)]) == 0
    evaluated = hashlib.sha256(capsys.readouterr().out.encode("utf-8") + b"\0")
    evaluated.update(result.read_bytes())
    return {"transplant": transplant.hexdigest(), "eval": evaluated.hexdigest()}


def test_noisy_transplant_and_eval_digests(tmp_path, capsys):
    assert noisy_digests(tmp_path, capsys) == NOISY_SHA256

    # both commands' walks read past an episode's first block of 16 words
    pack = parse_scenario(NOISY, name="noisy")
    run = run_experiment(pack.scenario, pack.seed_state, 11, 3, pack.config)
    variants = transplant_variants(run.checkpoint_state, pack.seed_state)
    frozen = [(variants[label], derive_seed(11, "transplant-eval")) for label in TRANSPLANT_ROWS]
    frozen.append((run.states[3], derive_seed(11, "eval")))
    for state, eval_seed in frozen:
        table = ExecutionTable(state, pack.scenario, pack.config)
        blocks = episode_blocks(eval_seed)
        read = []
        for i in range(300):
            words = blocks(i, 0)
            task = task_at(table, word_random(words, 0, blocks, i))
            read.append(walk_episode(table, task, words, blocks, i)[2])
        assert max(read) > 16


def scenario_text(scenario, state, episodes_per_round):
    """A scenario document that parses back to (scenario, state); floats by `repr`."""
    lines = ["[tasks]"]
    lines += [
        f"{t.id} = {' '.join(t.phases)} | {scenario.task_weights[t.id]!r}"
        for t in scenario.task_types
    ]
    lines.append("[difficulty]")
    lines += [f"{t}/{p} = {v!r}" for (t, p), v in scenario.base_difficulty.items()]
    lines.append("[latent]")
    lines += [
        f"{l.id} = {l.applicability[0]}/{l.applicability[1]} {l.effect!r} {l.repairs_cause.value}"
        for l in scenario.latent_catalog
    ]
    lines += [
        "[penalties]",
        f"interference = {scenario.interference_weight!r}",
        f"overload = {scenario.overload_weight!r}",
        f"routing-noise = {scenario.routing_noise!r}",
        f"cause-confidence = {scenario.cause_confidence!r}",
        "[seed-state]",
    ]
    for e in state.executors.values():
        boundary = ",".join(f"{t}/{p}" for t, p in sorted(e.boundary))
        manager = " manager" if e.is_manager else ""
        lines.append(f"executor {e.id} = {boundary} capacity={e.capacity}{manager}")
    for s in state.library.values():
        applies = ",".join(f"{t}/{p}" for t, p in sorted(s.applicability))
        guards = f" guards={','.join(sorted(s.guards))}" if s.guards else ""
        lines.append(
            f"skill {s.id} = owner={s.owner} applies={applies} "
            f"steps={','.join(s.steps)}{guards} status={s.status.value}"
        )
    lines += ["[thresholds]", f"episodes-per-round = {episodes_per_round}"]
    return "\n".join(lines) + "\n"


def test_merge_remove_run_directory(tmp_path, capsys):
    # the MERGE_SHA256 world as a scenario file named like the generator's world
    scenario, seed_state = random_scenario(random.Random(171))
    path = tmp_path / "fuzz.scn"
    path.write_text(scenario_text(scenario, seed_state, 60), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(path), "--seed", "171", "--rounds", "8",
                 "--out", str(out), "--quiet"]) == 0
    trajectory = (out / "trajectory.json").read_bytes()
    assert hashlib.sha256(trajectory).hexdigest() == MERGE_SHA256[0]
    merge = json.loads(trajectory)["rounds"][1]["restructure"]
    assert merge["action"] == "merge-remove"
    assert (merge["evidence"]["survivor"], merge["evidence"]["removed"]) == ("worker0", "worker1")
    capsys.readouterr()
    assert main(["replay", "--run", str(out)]) == 0
    assert capsys.readouterr().out.startswith("replay clean: 13 artifacts match")


# ---------------------------------------------------------------------------
# The engine on the Mersenne Twister words that episode streams read before
# they were BLAKE2b blocks (`reference.mt_blocks`).  When the streams changed,
# these reproduced the goldens recorded on Mersenne Twister streams, so the
# stream was the only behaviour change then; they were re-recorded where they
# moved when utility entries became exact counts, when the trace log became
# per-round shape tables and (the run directory) when a pruned skill left
# the snapshots and when `run.json`'s config lost `routing_noise`.

MT_REPORT_SHA256 = {
    ("calibration", 1): "90bee2d8365856de869188665adbc51c8fd0cf610bd775ce781760568e43b612",
    ("calibration", 7): "2b0f9fa10961c11fce1968bca761b01dadf49fd27d97f4e43440e8b00a28a317",
    ("calibration", 11): "9ace823b28cc59eb39a2737b05b394d07b999cf5a63e053dcfd24eeb348660d2",
    ("favorable", 1): "fe41090a50bab6c29f7d62c51b8a16dbc3c43c63a021200d3e2b4c4aff85fdec",
    ("favorable", 7): "f9f03449ec4843ee326fd2d8fdf2bf76dc38478c4ba654cfe8cd03b7ebbd67dc",
    ("favorable", 11): "dba36399972bf64d021c4f9ce7a5f7a7b6e4ae3c3571897bafaec9929ed949c8",
    ("hostile", 1): "e773ecbaaa6f9215cc5ecdef3d48cc101b70a04efb72d7ac1bd82280f5ce6b72",
    ("hostile", 7): "b03d48d7964ca233f06902d7cceed3079fab82b8135fcc8ce751b01c9c17fa90",
    ("hostile", 11): "85f8e08cc5c046aba81840bdbcb9acce4e4c5a8e4c409d2c8344426f9303c1b6",
    ("mismatch", 1): "7a467a8dda8dddf5c276c74436eaf341ee392d56d9903896fa131fcffdf7f932",
    ("mismatch", 7): "ec05bc86100d6de7738afee90e9d8cebee4f6a6f9cf78db7c90a5839867b55c5",
    ("mismatch", 11): "c5efd26eb56dddda7f981991bacf42a97b4f698eac50e3948c8dd87b84516062",
    ("tiny", 1): "947774e63e58a4d846bc59cff3f3417fa4ac1aeefd089f72e109149b123b2f95",
    ("tiny", 7): "9d0c7ead53d0e0c5a1846852dc62d0430dd076beeee4947a9fcc985babefebe9",
    ("tiny", 11): "8afd5fe94fe39911026f4e389857f8d13288e699be5ca2037a58298cbda17b95",
}
MT_RUN_DIR_SHA256 = "f7a2fea61c4c145cc1af1c1cd2ae7c0852a928a2d1820ffe88096bcf168d24f2"
MT_NOISY_SHA256 = {
    "transplant": "1ab8b4add5fe7bc67691593849300bf0ca84774a5e565c8196f9101090b72ce2",
    "eval": "c967fc64bcde66078134c6aa48170cf3d125e75c5f6db5e139f469f0d04d82c6",
}


@pytest.fixture
def mt_words(monkeypatch):
    monkeypatch.setattr(world, "episode_blocks", mt_blocks)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("seed", SEEDS)
def test_mt_words_reproduce_the_report_hash(preset, seed, mt_words):
    assert report_digest(preset, seed) == MT_REPORT_SHA256[(preset, seed)]


def test_mt_words_reproduce_the_run_directory_digest(tmp_path, mt_words):
    out = tmp_path / "run"
    run_mismatch(out)
    assert dir_digest(out) == MT_RUN_DIR_SHA256


def test_mt_words_reproduce_the_noisy_digests(tmp_path, capsys, mt_words):
    assert noisy_digests(tmp_path, capsys) == MT_NOISY_SHA256
