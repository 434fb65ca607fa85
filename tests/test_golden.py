"""Golden artifact hashes: the engine's output must not move by a byte.

Every value below was recorded from the engine before any speed work on the
round pipeline, except OWNERSHIP_SHA256 and TRANSPLANT_SHA256, recorded
before each rule that edits skill ownership got a single implementation, and
EVAL_SHA256, recorded before `sample_episode` took only an execution table,
MERGE_SHA256, recorded before the per-call references left the engine, and
NOISY_SHA256, recorded before frozen evaluation dropped its tape cursors.
A change that is meant to be a pure optimisation must leave
all of them unchanged; a change that alters behaviour on purpose must say so
and re-record them.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from conftest import NOISY, random_scenario
from reference import _weighted_choice
from skillmas import EngineConfig, load_preset, run_experiment
from skillmas.cli import main
from skillmas.orchestrator import TRANSPLANT_ROWS, transplant_variants
from skillmas.presets import PRESETS
from skillmas.store import parse_scenario, serialize_state
from skillmas.streams import derive_seed
from skillmas.world import ExecutionTable, walk_episode

SEEDS = (1, 7, 11)
ROUNDS = 8

REPORT_SHA256 = {
    ("calibration", 1): "e7f481f7254e64cc7e177d2f457deeed6d6228943114fb71b3b4f08f4147a31b",
    ("calibration", 7): "cfb30810727a3281324bcf11ce395b8645e4ad95661850a235246c07d8850c5f",
    ("calibration", 11): "e8818e0465cba97ad51dca0b97c334a5c1670a24e35c9be20f4bb0442ede40c6",
    ("favorable", 1): "fb524eae243c2f5506e173e3e749236dfd121fcd6efe018df3b89d968f888b3e",
    ("favorable", 7): "35f7749144ddf1728ae7cd731298e8419a6374505afd0fad08bc6d2a9d0137ef",
    ("favorable", 11): "a40dfbb3cfb30927668a6a6abc21d93c38ee4d303f272467d3fa01732f8bb833",
    ("hostile", 1): "212795e0c83a4a938b25da07bf07e6f530c799e3b86c1fd47e87a4d4613fe85e",
    ("hostile", 7): "c9138cad4ff1818239ed08bfc2660590424a04f92711b6c295e10239bf9e32d1",
    ("hostile", 11): "4fed511c866a13b3bc4d3a5c675b55643aef822244c6092a253f72081f635b8a",
    ("mismatch", 1): "5817711dabe9b1094e9d1b063bcd1e1228d45acf12da9bb293724a33f48c54cf",
    ("mismatch", 7): "677142a0efe06079f9221a7b817087e606c4a1d9e8fae1ab1f08bce1a21ccb03",
    ("mismatch", 11): "d9e11450ef46e2388a6c1accf36f4372498a66e30b9f535b2a2e742d5c7dc45b",
    ("tiny", 1): "748dc383458ff9c4ba57ed0c2f0c2178a8a30cf9d52ce4f648dde84f5bd76fc7",
    ("tiny", 7): "fd189a33bda917a8784d32544cdbda7df29e710bf41f294d5049f386ce74c93b",
    ("tiny", 11): "50d84eeb60da909f22f8cb519a430860143ed83b73d4e19ab67fa9b671f7a99e",
}

# generated wide world, N = 24, 100 episodes x 10 rounds, seed 7: the
# library ends at 27 entries, 13 of them pruned
WIDE_SHA256 = "d50f566c37c38d780cd0633ec5453c90fda8e568a6e00ff7e3565411f91e1531"

# `skillmas run --scenario preset:mismatch --seed 7 --rounds 4 --episodes 200`
RUN_DIR_SHA256 = "5f6099c49ac01d81b4b0313f40e6e15d378af6064e4ad751567eb991ddefff40"

# the same run with `--config` {"cross-round-repeats": true}: earlier rounds'
# failures count towards repeats, so rounds 1-3 retain 136/130/97
# repeated failures where the default run retains 135/129/96
CROSS_ROUND_RUN_DIR_SHA256 = "96c89410a58e25d59ef4ed350fbfbfd9f542a21abc6ddcf4fc39e7ad60915628"

# runs whose rounds fire `modify` (the goldens above fire only keep and add),
# by (scenario, seed, rounds): the report, one digest over `serialize_state`
# of every state X_0 .. X_R, and one over the four transplant variants of
# the checkpoint.  mismatch seed 5 modifies at rounds 5 and 6, wide24 seed 4
# at round 5.
OWNERSHIP_SHA256 = {
    ("mismatch", 5, 8): (
        "5d201397b19cf3f5d492ddf2c11059babf08d1f4712a548608fd8833509f6d56",
        "b7c51acc4ee82e531d311f701b09614d1d5ec344490e413b31a6d2959e918882",
        "0ffa9a56e2d50b77f78b58f08c1e0bbbac6baf1af8fbfcfe6511cc3fe260a891",
    ),
    ("wide24", 4, 10): (
        "63ea691b8b111bebd84a08629033691a2cd659cdd8143c8117e088ba328c5e00",
        "813ef72ef95e614fe48d1e6934d2819369544304a326d861dad584663b3aab05",
        "97c6bffa10a7108a654d8f732f433fb0e9d41b52f29d4743e2b16f653031a129",
    ),
}

# a run whose round 6 fires `merge-remove` (no preset or wide world does):
# `conftest.random_scenario(random.Random(136))`, engine seed 136, 60 episodes
# x 8 rounds.  `worker0` absorbs `worker1` with skill overlap 0.6 and utility
# gaps 0.074 and 0.067 against a merge gap of 0.1.  The report, then one
# digest over `serialize_state` of every state X_0 .. X_8.
MERGE_SHA256 = (
    "3e1667ec262c2ca5d4135c60076d875d7269803ae2e53baa00b4c6f0ebd8bbe2",
    "a6ebbdc06c0b6c71c41a6cf01e666b31cee42e82b6db25c9b9a35c12645043ef",
)

# `skillmas transplant --episodes 200` on the RUN_DIR_SHA256 directory
TRANSPLANT_SHA256 = "0627094a9e19038f8cb3a1bf90220ffeb6398624b249312a169e7f1eef6d3bb2"

# `skillmas eval --scenario preset:mismatch --state snapshots/state_r004.txt
# --episodes 500 --seed 7` on the RUN_DIR_SHA256 directory: its stdout, a NUL
# byte, then the `--out` JSON
EVAL_SHA256 = "31bfb3c944ea5ff23e347b3edae8d188fc38b967c32235375cbe1b8ab2dcd73d"

# conftest's NOISY world saved as `noisy.scn` and run with `--seed 11 --rounds
# 3`, then `skillmas transplant --episodes 300` on that directory and `skillmas
# eval --state snapshots/state_r003.txt --episodes 300 --seed 11`: each
# command's stdout, a NUL byte, then its JSON.  Frozen walks there read past
# an episode's leading 2 + 5 x (most phases) words.
NOISY_SHA256 = {
    "transplant": "1ab8b4add5fe7bc67691593849300bf0ca84774a5e565c8196f9101090b72ce2",
    "eval": "c967fc64bcde66078134c6aa48170cf3d125e75c5f6db5e139f469f0d04d82c6",
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
    of them at capacity 3, so pruned tombstones pile up in the library."""
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


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("seed", SEEDS)
def test_preset_report_hash(preset, seed):
    pack = load_preset(preset)
    result = run_experiment(pack.scenario, pack.seed_state, seed, ROUNDS, pack.config)
    assert sha256_text(result.report.to_json()) == REPORT_SHA256[(preset, seed)]


def test_wide_report_hash():
    pack = parse_scenario(wide_text(24, 100), name="wide24")
    result = run_experiment(pack.scenario, pack.seed_state, 7, 10, pack.config)
    assert sha256_text(result.report.to_json()) == WIDE_SHA256


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
    scenario, seed_state = random_scenario(random.Random(136))
    result = run_experiment(scenario, seed_state, 136, 8, EngineConfig(episodes_per_round=60))
    actions = [r.restructure["action"] for r in result.report.rounds]
    assert actions == ["keep", "add", "keep", "keep", "keep", "keep", "merge-remove", "keep"]
    merge = result.report.rounds[6].restructure["evidence"]
    assert (merge["survivor"], merge["removed"]) == ("worker0", "worker1")
    assert (
        sha256_text(result.report.to_json()),
        states_digest(result.states),
    ) == MERGE_SHA256


def test_run_directory_digest(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["run", "--scenario", "preset:mismatch", "--seed", "7", "--rounds", "4",
         "--episodes", "200", "--out", str(out), "--quiet"]
    )
    assert code == 0
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
    assert dir_digest(out) == CROSS_ROUND_RUN_DIR_SHA256
    assert main(["replay", "--run", str(out)]) == 0
    assert "replay clean" in capsys.readouterr().out


def test_transplant_digest(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["run", "--scenario", "preset:mismatch", "--seed", "7", "--rounds", "4",
         "--episodes", "200", "--out", str(out), "--quiet"]
    )
    assert code == 0
    assert main(["transplant", "--run", str(out), "--episodes", "200"]) == 0
    transplant = (out / "transplant.json").read_bytes()
    assert hashlib.sha256(transplant).hexdigest() == TRANSPLANT_SHA256


def test_eval_digest(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["run", "--scenario", "preset:mismatch", "--seed", "7", "--rounds", "4",
         "--episodes", "200", "--out", str(out), "--quiet"]
    )
    assert code == 0
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


class WordCounter(random.Random):
    """A generator that counts the 32-bit words its draws read."""

    words = 0

    def random(self):
        self.words += 2
        return super().random()

    def getrandbits(self, k):  # one try of `randrange`, k <= 32
        self.words += 1
        return super().getrandbits(k)


def test_noisy_transplant_and_eval_digests(tmp_path, capsys):
    scenario_path = tmp_path / "noisy.scn"
    scenario_path.write_text(NOISY, encoding="utf-8")
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(scenario_path), "--seed", "11", "--rounds", "3",
                 "--out", str(out), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["transplant", "--run", str(out), "--episodes", "300"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8") + b"\0")
    digest.update((out / "transplant.json").read_bytes())
    assert digest.hexdigest() == NOISY_SHA256["transplant"]
    result = tmp_path / "eval.json"
    assert main(["eval", "--scenario", str(scenario_path),
                 "--state", str(out / "snapshots" / "state_r003.txt"),
                 "--episodes", "300", "--seed", "11", "--out", str(result)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8") + b"\0")
    digest.update(result.read_bytes())
    assert digest.hexdigest() == NOISY_SHA256["eval"]

    # both commands' walks, on `random.Random` alone, read past the leading words
    pack = parse_scenario(NOISY, name="noisy")
    run = run_experiment(pack.scenario, pack.seed_state, 11, 3, pack.config)
    variants = transplant_variants(run.checkpoint_state, pack.seed_state)
    frozen = [(variants[label], derive_seed(11, "transplant-eval")) for label in TRANSPLANT_ROWS]
    frozen.append((run.states[3], derive_seed(11, "eval")))
    lead = 2 + 5 * max(len(task.phases) for task in pack.scenario.task_types)
    for state, eval_seed in frozen:
        table = ExecutionTable(state, pack.scenario, pack.config)
        read = []
        for i in range(300):
            rng = WordCounter(derive_seed(eval_seed, "episode", i))
            task = _weighted_choice(rng, pack.scenario.task_types, pack.scenario.task_weights)
            walk_episode(table, task, rng)
            read.append(rng.words)
        assert max(read) > lead


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
    scenario, seed_state = random_scenario(random.Random(136))
    path = tmp_path / "fuzz.scn"
    path.write_text(scenario_text(scenario, seed_state, 60), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["run", "--scenario", str(path), "--seed", "136", "--rounds", "8",
                 "--out", str(out), "--quiet"]) == 0
    trajectory = (out / "trajectory.json").read_bytes()
    assert hashlib.sha256(trajectory).hexdigest() == MERGE_SHA256[0]
    merge = json.loads(trajectory)["rounds"][6]["restructure"]
    assert merge["action"] == "merge-remove"
    assert (merge["evidence"]["survivor"], merge["evidence"]["removed"]) == ("worker0", "worker1")
    capsys.readouterr()
    assert main(["replay", "--run", str(out)]) == 0
    assert capsys.readouterr().out.startswith("replay clean: 13 artifacts match")
