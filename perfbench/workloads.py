"""The benchmark's workloads: set-up, the timed operation, and output checks.

Every workload drives the engine's public API from one thread, one
operation at a time (a closed loop with a single caller).  The workload seed
picks the engine seeds: repetition j runs engine seed `1000 * seed + j mod
panel`, so a run covers `panel` distinct engine seeds and repeats them when
time allows.  The engine receives only the scenario text, the config and the
engine seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import skillmas
import skillmas.cli
from skillmas.restructure import RestructureDecision, evidence_holds

from scenarios import wide_scenario


@dataclass(frozen=True)
class OpResult:
    """What one timed operation produced, reduced to what the checks need."""

    episodes: int
    digest: str  # SHA-256 of everything the operation outputs
    report_json: str  # the trajectory report the operation produced or read


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dir_digest(path: Path) -> str:
    """SHA-256 over every file of a directory tree, by relative path."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(file.relative_to(path).as_posix().encode("utf-8") + b"\0")
        digest.update(file.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`skillmas <argv>` in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = skillmas.cli.main(argv)
    return code, out.getvalue()


def replay_problems(run_dir: Path) -> list[str]:
    code, out = run_cli(["replay", "--run", str(run_dir)])
    if code != 0 or "replay clean" not in out:
        return [f"replay of {run_dir.name} exited {code}: {out.strip()}"]
    return []


def evidence_problems(report_json: str) -> list[str]:
    """Every non-keep restructuring decision must re-evaluate true on the
    evidence recorded with it."""
    problems = []
    for row in json.loads(report_json)["rounds"]:
        summary = row["restructure"]
        if summary["action"] == "keep":
            continue
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
        if not evidence_holds(decision):
            problems.append(f"round {row['round']}: stale {summary['action']} evidence")
    return problems


def checkpoint_counts(report_json: str) -> tuple[int, int]:
    """(successes, episodes) of the report's checkpoint round."""
    report = json.loads(report_json)
    row = report["rounds"][report["checkpoint"]["round"]]
    return row["successes"], row["episodes"]


def report_episodes(report_json: str) -> int:
    return sum(row["episodes"] for row in json.loads(report_json)["rounds"])


def mismatch_run_argv(engine_seed: int, out: Path) -> list[str]:
    """`skillmas run` on preset:mismatch at 2000 episodes x 8 rounds."""
    return [
        "run", "--scenario", "preset:mismatch", f"--seed={engine_seed}",
        "--rounds", "8", "--episodes", "2000", "--out", str(out), "--quiet",
    ]


class Workload:
    name = ""
    why = ""
    panel = 1  # distinct engine seeds per run
    min_reps = 1  # timed repetitions made even when the time is up
    setup_runs = 5  # set-ups timed per run, each in a fresh interpreter

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed

    def engine_seed(self, rep: int) -> int:
        return 1000 * self.seed + rep % self.panel

    def setup(self, out: Path) -> None:
        """The set-up a fresh process makes before the first operation."""

    def prepare(self, setup_dirs: list[Path]) -> list[str]:
        """In-process preparation after the timed set-ups; returns problems."""
        return []

    def operation(self, engine_seed: int, rep: int) -> Callable[[], Any]:
        raise NotImplementedError

    def result(self, engine_seed: int, rep: int, raw: Any) -> OpResult:
        raise NotImplementedError

    def verify(self, digests: dict[int, str]) -> list[tuple[str, list[str]]]:
        """Checks after the timed loop: (operation, problems) per operation."""
        return []


class AdaptWide96(Workload):
    name = "adapt-wide96"
    why = (
        "run_experiment on a generated 96-family world, 400 episodes x 10 rounds: "
        "pruned tombstones pile up, so skill evolution dominates"
    )
    families = 96
    episodes_per_round = 400
    rounds = 10
    panel = 10
    min_reps = 10

    def setup(self, out: Path) -> None:
        self.text = wide_scenario(self.families, self.episodes_per_round)
        self.pack = skillmas.parse_scenario(self.text, name=f"wide{self.families}")

    def prepare(self, setup_dirs: list[Path]) -> list[str]:
        self.setup(self.work)
        return []

    def operation(self, engine_seed: int, rep: int) -> Callable[[], Any]:
        pack = self.pack
        return lambda: skillmas.run_experiment(
            pack.scenario, pack.seed_state, engine_seed, self.rounds, pack.config
        )

    def result(self, engine_seed: int, rep: int, raw: Any) -> OpResult:
        report_json = raw.report.to_json()
        return OpResult(report_episodes(report_json), sha256_text(report_json), report_json)

    def verify(self, digests: dict[int, str]) -> list[tuple[str, list[str]]]:
        """`skillmas run` on the same world must reproduce the first engine
        seed's report, and `skillmas replay` must find that run clean."""
        seed = self.engine_seed(0)
        scenario_path = self.work / f"wide{self.families}.scn"
        scenario_path.write_text(self.text, encoding="utf-8")
        run_dir = self.work / f"run-{seed}"
        code, out = run_cli(
            ["run", "--scenario", str(scenario_path), f"--seed={seed}",
             "--rounds", str(self.rounds), "--out", str(run_dir), "--quiet"]
        )
        problems = [] if code == 0 else [f"skillmas run exited {code}: {out.strip()}"]
        if not problems:
            written = sha256_text((run_dir / "trajectory.json").read_text(encoding="utf-8"))
            if written != digests.get(seed):
                problems.append("skillmas run wrote another report than run_experiment")
        return [("run", problems), ("replay", replay_problems(run_dir) if not problems else ["no run"])]


class AdaptMismatch2k(Workload):
    name = "adapt-mismatch2k"
    why = (
        "skillmas run on preset:mismatch, 2000 episodes x 8 rounds, writing the run "
        "directory: per-episode execution and trace-log writes on a small library"
    )
    panel = 6
    min_reps = 7  # the whole panel, then the first seed again

    def setup(self, out: Path) -> None:
        skillmas.load_preset("mismatch")

    def prepare(self, setup_dirs: list[Path]) -> list[str]:
        self.setup(self.work)
        self.replay_dir: Path | None = None
        return []

    def operation(self, engine_seed: int, rep: int) -> Callable[[], Any]:
        argv = mismatch_run_argv(engine_seed, self.work / f"run-{rep}")
        return lambda: skillmas.cli.main(argv)

    def result(self, engine_seed: int, rep: int, raw: Any) -> OpResult:
        run_dir = self.work / f"run-{rep}"
        if raw != 0:
            raise RuntimeError(f"skillmas run exited {raw}")
        report_json = (run_dir / "trajectory.json").read_text(encoding="utf-8")
        result = OpResult(report_episodes(report_json), dir_digest(run_dir), report_json)
        if self.replay_dir is None:
            self.replay_dir = run_dir
        else:
            shutil.rmtree(run_dir)
        return result

    def verify(self, digests: dict[int, str]) -> list[tuple[str, list[str]]]:
        if self.replay_dir is None:
            return [("replay", ["no run directory was written"])]
        return [("replay", replay_problems(self.replay_dir))]


class AuditMismatch2k(Workload):
    name = "audit-mismatch2k"
    why = (
        "skillmas report then transplant (4 x 2000 frozen episodes) on a mismatch "
        "2000x8 run directory: the read side of the store, no adaptation"
    )
    panel = 1
    min_reps = 5
    setup_runs = 3
    transplant_episodes = 2000

    def setup(self, out: Path) -> None:
        code = skillmas.cli.main(mismatch_run_argv(self.engine_seed(0), out))
        if code != 0:
            raise RuntimeError(f"skillmas run exited {code}")

    def prepare(self, setup_dirs: list[Path]) -> list[str]:
        self.run_dir = setup_dirs[0]
        self.report_json = (self.run_dir / "trajectory.json").read_text(encoding="utf-8")
        first = dir_digest(self.run_dir)
        return [
            f"set-up {k} wrote another run directory than set-up 0"
            for k, other in enumerate(setup_dirs[1:], start=1)
            if dir_digest(other) != first
        ]

    def operation(self, engine_seed: int, rep: int) -> Callable[[], Any]:
        run = str(self.run_dir)
        episodes = str(self.transplant_episodes)

        def audit() -> tuple[int, str, int, str]:
            report_code, report_out = run_cli(["report", "--run", run])
            transplant_code, transplant_out = run_cli(
                ["transplant", "--run", run, "--episodes", episodes]
            )
            return report_code, report_out, transplant_code, transplant_out

        return audit

    def result(self, engine_seed: int, rep: int, raw: Any) -> OpResult:
        report_code, report_out, transplant_code, transplant_out = raw
        if report_code != 0 or transplant_code != 0:
            raise RuntimeError(f"report exited {report_code}, transplant {transplant_code}")
        table = (self.run_dir / "transplant.json").read_text(encoding="utf-8")
        episodes = sum(row["episodes"] for row in json.loads(table)["rows"])
        return OpResult(
            episodes, sha256_text(report_out + transplant_out + table), self.report_json
        )

    def verify(self, digests: dict[int, str]) -> list[tuple[str, list[str]]]:
        return [("replay", replay_problems(self.run_dir))]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (AdaptWide96, AdaptMismatch2k, AuditMismatch2k)
}
