"""Golden artifact hashes at benchmark scale.

`tests/test_golden.py` pins small runs; these pin the traffic the benchmark
measures: the 96-family wide world at 400 episodes x 10 rounds, a
`skillmas run` directory of preset:mismatch at 2000 episodes x 8 rounds,
and the transplant audit of that directory.  All were recorded when
episode streams became BLAKE2b blocks; the wide96 reports and the run
directory were re-recorded when utility entries became exact counts and
when the trace log became per-round shape tables (the transplant audit did
not move), and the run directory again when a pruned skill left the
snapshots and when `run.json`'s config lost `routing_noise`.  The
80-round wide96 report, the run directory and the transplant audit moved
when the modify predicate began to see the post-delta organization (the
10-round wide96 reports did not).  A pure optimisation must leave every
value unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from skillmas import parse_scenario, run_experiment
from skillmas.cli import main

from reference import expand_run_dir

# the benchmark's wide world (perfbench/scenarios.py), N = 96, 400 episodes
# x 10 rounds, by engine seed
WIDE96_SHA256 = {
    7000: "20d0687cab4b0c07ca10236341421d129fb4b22ef7fffa444cb011b39dde6eca",
    7003: "493fc814c1100fd40488c48edd6079f0e9775907e98810e94ac440360d3be1ed",
}

# the same world over 80 rounds at engine seed 7001, past the point where
# pruned skills outnumber live ones: recorded while pruned skills were kept
# in the library, unmoved when they were deleted, and re-recorded when the
# modify predicate began to see the post-delta organization (round 11 and
# 35 modify where they kept)
WIDE96_LONG_SHA256 = "6cbe16d3188529477c7f756163091802b55e17689382898702f7f51e26f51429"

# `skillmas run --scenario preset:mismatch --seed=7001 --rounds 8 --episodes 2000`
RUN_DIR_SHA256 = "dcef76ff6375b1c823c081153cef888f33edae081fb5eb8a41f9551b4fc88d05"

# that run directory in the per-episode format, before the trace log held
# shape tables (a log line per episode, `retained` as episode-id lists),
# rebuilt by `reference.expand_run_dir`
PER_EPISODE_RUN_DIR_SHA256 = "467588d200d8a47f19b233627ad99bf16de73abfd317cd528b05d5794fafea8f"

# `skillmas transplant --episodes 2000` on that run directory: its stdout,
# a NUL byte, then `transplant.json`
TRANSPLANT_SHA256 = "c07b44a79b40e263478503bd335a9f427de8277bb72863f4c05c809253e49ef3"

WIDE_CAUSES = ("missing-precondition", "misleading-retrieval", "wrong-action-order")


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


def wide_scenario(n_families: int, episodes_per_round: int) -> str:
    """The benchmark's wide world, line for line: N single-phase families
    `t{i}/handle` with one latent each, one worker covering all of them."""
    families = [f"t{i}" for i in range(n_families)]
    lines = [
        f"# Wide world: {n_families} single-phase families, one latent each.",
        "[tasks]",
        *(f"{t} = handle | 1.0" for t in families),
        "",
        "[difficulty]",
        *(f"{t}/handle = -1.1" for t in families),
        "",
        "[latent]",
        *(
            f"ls-{t} = {t}/handle 2.4 {WIDE_CAUSES[i % len(WIDE_CAUSES)]}"
            for i, t in enumerate(families)
        ),
        "",
        "[penalties]",
        "interference     = 0.25",
        "overload         = 0.6",
        "routing-noise    = 0.1",
        "cause-confidence = 0.9",
        "",
        "[seed-state]",
        "executor manager  = * capacity=1 manager",
        "executor worker-a = " + ",".join(f"{t}/handle" for t in families) + " capacity=3",
        "",
        "[thresholds]",
        f"episodes-per-round = {episodes_per_round}",
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", sorted(WIDE96_SHA256))
def test_wide96_report_hash(seed):
    pack = parse_scenario(wide_scenario(96, 400), name="wide96")
    result = run_experiment(pack.scenario, pack.seed_state, seed, 10, pack.config)
    assert sha256_text(result.report.to_json()) == WIDE96_SHA256[seed]


def test_wide96_long_horizon_report_hash():
    pack = parse_scenario(wide_scenario(96, 400), name="wide96")
    result = run_experiment(pack.scenario, pack.seed_state, 7001, 80, pack.config)
    assert sha256_text(result.report.to_json()) == WIDE96_LONG_SHA256


def test_mismatch2k_run_directory_digest(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["run", "--scenario", "preset:mismatch", "--seed=7001", "--rounds", "8",
         "--episodes", "2000", "--out", str(out), "--quiet"]
    )
    assert code == 0
    expand_run_dir(out, tmp_path / "per-episode")
    assert dir_digest(tmp_path / "per-episode") == PER_EPISODE_RUN_DIR_SHA256
    assert dir_digest(out) == RUN_DIR_SHA256


def test_mismatch2k_transplant_digest(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["run", "--scenario", "preset:mismatch", "--seed=7001", "--rounds", "8",
         "--episodes", "2000", "--out", str(out), "--quiet"]
    )
    assert code == 0
    capsys.readouterr()
    assert main(["transplant", "--run", str(out), "--episodes", "2000"]) == 0
    stdout = capsys.readouterr().out
    digest = hashlib.sha256(stdout.encode("utf-8") + b"\0")
    digest.update((out / "transplant.json").read_bytes())
    assert digest.hexdigest() == TRANSPLANT_SHA256
