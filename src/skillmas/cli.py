"""Command-line surface: run, eval, transplant, report, replay.

Every artifact a run writes is a deterministic function of (scenario, seed,
config); `replay` re-executes a run directory and diffs the regenerated
bytes against what is on disk, so determinism is an executable check, not a
promise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import ExitStack, closing, contextmanager
from pathlib import Path
from typing import Any, Iterator, NoReturn

from .config import RETIRED_THRESHOLDS, EngineConfig, config_from_mapping
from .model import RoundState, StateError, validate_state
from .orchestrator import (
    canonical_json,
    evaluate_transplants,
    experiment_rounds,
    family_rows,
    family_tally,
    render_breakdown,
    render_comparison,
    render_trajectory,
    trajectory_report,
)
from .presets import load_preset
from .store import (
    ScenarioError,
    ScenarioPack,
    StoreError,
    deserialize_state,
    encode_trace_log,
    parse_scenario,
    serialize_state,
)
from .streams import derive_seed
from .world import Scenario, exec_shared


class UsageError(Exception):
    pass


def _load_pack(source: str) -> ScenarioPack:
    if source.startswith("preset:"):
        try:
            return load_preset(source.split(":", 1)[1])
        except KeyError as exc:
            raise UsageError(str(exc.args[0])) from None
    path = Path(source)
    return _read_scenario(path, path.stem)


def _read_scenario(path: Path, name: str, named_by: Path | None = None) -> ScenarioPack:
    """The one reader of scenario files: `run --scenario` and a run's `scenario.scn`."""
    text = _read_text(path, "scenario", named_by=named_by)
    try:
        return parse_scenario(text, name=name)
    except ScenarioError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _load_config(
    pack: ScenarioPack, args: argparse.Namespace, *, episodes_override: bool = False
) -> EngineConfig:
    config = pack.config
    override_path = getattr(args, "config", None)
    if override_path:
        overrides = _read_json_object(Path(override_path), {})
        try:
            config = config_from_mapping(overrides, base=config)
        except ValueError as exc:
            raise UsageError(f"{override_path}: {exc}") from None
    if episodes_override and args.episodes is not None:
        config = config.replace(episodes_per_round=args.episodes)
    return config


def _default_out(scenario_name: str, seed: int) -> Path:
    base = os.environ.get("SKILLMAS_OUT", "runs")
    return Path(base) / f"{scenario_name}-{seed}"


def _snapshot_name(round_index: int) -> str:
    return f"snapshots/state_r{round_index:03d}.txt"


TRACE_LOG = "traces.jsonl"
_SNAPSHOT = re.compile(r"state_r[0-9]+\.txt")


def artifact_pieces(
    pack: ScenarioPack, seed: int, rounds: int, config: EngineConfig
) -> Iterator[tuple[str, str]]:
    """Every run artifact as (path in the run directory, text), round by
    round as the rounds end; shared by run and replay.

    Each piece is a whole file except the trace log's: each round's lines
    are one piece, and the log is their concatenation.  Every piece ends
    with a newline.  The order is `snapshots/state_r000.txt`, then per
    round its log lines and the snapshot of the state it produced, then
    `trajectory.json`, `trajectory.txt` and `checkpoint.json`.
    """
    yield _snapshot_name(0), serialize_state(pack.seed_state)
    reports = []
    for state, report, traces in experiment_rounds(
        pack.scenario, pack.seed_state, seed, rounds, config
    ):
        reports.append(report)
        yield TRACE_LOG, encode_trace_log(traces)
        del traces  # the next round runs without this one's traces
        yield _snapshot_name(state.round_index), serialize_state(state)
    report = trajectory_report(pack.scenario, seed, reports)
    trajectory = report.to_dict()
    yield "trajectory.json", canonical_json(trajectory)
    yield "trajectory.txt", render_trajectory(trajectory)
    yield "checkpoint.json", canonical_json(
        {
            "round": report.checkpoint_round,
            "successes": report.rounds[report.checkpoint_round].successes,
            "snapshot": _snapshot_name(report.checkpoint_round),
        }
    )


@contextmanager
def _writing(path: Path) -> Iterator[None]:
    """Every `OSError` inside is a usage error naming `path`: the one
    error mapping of the CLI's writes."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"{path}: cannot write: {exc.strerror or exc}") from None


def _write_text(path: Path, text: str) -> None:
    """Write one file of the CLI's output as UTF-8, creating its directory."""
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _write_run_dir(
    out: Path, pack: ScenarioPack, seed: int, rounds: int, config: EngineConfig
) -> str:
    """Run the experiment into `out`, writing each artifact as the round
    that produces it ends; returns the trajectory table.

    What an earlier run left is removed first: its snapshots, trajectory
    files and `transplant.*` files.  The trajectory files are written last,
    so a run that stops early leaves its completed rounds' snapshots and log
    lines and no trajectory.
    """
    try:
        (out / "snapshots").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(
            f"{out}: cannot create the run directory: {exc.strerror or exc}"
        ) from None
    _write_text(out / "scenario.scn", pack.text)
    _write_text(
        out / "run.json",
        canonical_json(
            {
                "format": 1,
                "scenario": "scenario.scn",
                "scenario_name": pack.scenario.name,
                "seed": seed,
                "rounds": rounds,
                "config": config.to_dict(),
            }
        ),
    )
    stale = [
        out / name
        for name in ("trajectory.json", "trajectory.txt", "checkpoint.json",
                     "transplant.json", "transplant.txt")
    ]
    with _writing(out / "snapshots"):
        stale += (p for p in (out / "snapshots").iterdir() if _SNAPSHOT.fullmatch(p.name))
    for path in stale:
        with _writing(path):
            path.unlink(missing_ok=True)
    log_path = out / TRACE_LOG
    with _writing(log_path), log_path.open("w", encoding="utf-8") as log:
        for rel, text in artifact_pieces(pack, seed, rounds, config):
            if rel == TRACE_LOG:
                log.write(text)
                log.flush()  # a run that stops later keeps this round's lines
            else:
                _write_text(out / rel, text)
            if rel == "trajectory.txt":
                table = text
    return table


_JSON_TYPES = {
    dict: "an object",
    list: "a list",
    str: "a string",
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    type(None): "null",
}


def _typed(path: Path, payload: dict, key: str, kind: type, where: str = "") -> Any:
    """`payload[key]`, present and of JSON type `kind`; an integer is never a
    bool.  Errors name the key by its path in the file, `where` + `key`."""
    name = where + key
    if key not in payload:
        raise UsageError(f"{path}: missing key {name!r}")
    value = payload[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise UsageError(
            f"{path}: {name!r} must be {_JSON_TYPES[kind]}, "
            f"not {_JSON_TYPES[type(value)]}"
        )
    return value


def _read_text(
    path: Path, kind: str, label: str | None = None, named_by: Path | None = None
) -> str:
    """A file's UTF-8 text.  A file that cannot be read, or is not UTF-8, is
    a usage error naming it by `label` (its path by default); a missing one
    also names the file `named_by` that gave its path."""
    name = label or str(path)
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        source = f" (named by {named_by})" if named_by else ""
        raise UsageError(f"{name}: file does not exist{source}") from None
    except OSError as exc:
        raise UsageError(f"{name}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"{name}: invalid {kind}: not UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None


def _read_json_object(path: Path, required: dict[str, type]) -> dict:
    """A JSON object from a run directory or `--config`, holding at least the
    keys of `required`, each of its JSON type."""
    try:
        payload = json.loads(_read_text(path, "JSON"))
    except ValueError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise UsageError(f"{path}: expected a JSON object")
    for key, kind in required.items():
        _typed(path, payload, key, kind)
    return payload


_ROW_COUNTS = ("round", "episodes", "successes", "active_skills", "active_executors")


def _read_trajectory(path: Path) -> tuple[dict, dict[int, dict[str, tuple[int, int]]]]:
    """`trajectory.json` with every value `report` reads checked, and each
    round's per-family counts (task id -> (successes, attempts)) by round."""
    trajectory = _read_json_object(
        path, {"scenario": str, "seed": int, "rounds": list, "checkpoint": dict}
    )
    checkpoint_round = _typed(path, trajectory["checkpoint"], "round", int, "checkpoint.")
    per_round: dict[int, dict[str, tuple[int, int]]] = {}
    for index, row in enumerate(trajectory["rounds"]):
        where = f"rounds[{index}]."
        if not isinstance(row, dict):
            raise UsageError(f"{path}: 'rounds[{index}]' must be an object")
        for key in _ROW_COUNTS:
            _typed(path, row, key, int, where)
        restructure = _typed(path, row, "restructure", dict, where)
        if "action" in restructure:
            _typed(path, restructure, "action", str, where + "restructure.")
        subjects = restructure.get("subjects", [])
        if not isinstance(subjects, list) or not all(isinstance(s, str) for s in subjects):
            raise UsageError(
                f"{path}: '{where}restructure.subjects' must be a list of strings"
            )
        counts = {}
        for task_id, entry in _typed(path, row, "per_family", dict, where).items():
            at = f"{where}per_family[{json.dumps(task_id)}]"
            if not isinstance(entry, dict):
                raise UsageError(f"{path}: {at!r} must be an object")
            successes = _typed(path, entry, "successes", int, at + ".")
            attempts = _typed(path, entry, "attempts", int, at + ".")
            if not 0 <= successes <= attempts:
                raise UsageError(
                    f"{path}: {at!r} needs 0 <= successes <= attempts, "
                    f"not {successes}/{attempts}"
                )
            counts[task_id] = (successes, attempts)
        if row["round"] in per_round:
            raise UsageError(f"{path}: '{where}round' {row['round']} appears twice")
        per_round[row["round"]] = counts
    if checkpoint_round not in per_round:
        raise UsageError(
            f"{path}: 'checkpoint.round' {checkpoint_round} is not one of the rounds"
        )
    return trajectory, per_round


def _load_run_dir(run_dir: Path) -> tuple[ScenarioPack, int, int, EngineConfig]:
    manifest_path = run_dir / "run.json"
    manifest = _read_json_object(
        manifest_path, {"scenario": str, "seed": int, "rounds": int, "config": dict}
    )
    if manifest["rounds"] < 1:
        raise UsageError(f"{manifest_path}: 'rounds' must be at least 1")
    if manifest["scenario"] != "scenario.scn":
        raise UsageError(
            f"{manifest_path}: 'scenario' must be 'scenario.scn', not {manifest['scenario']!r}"
        )
    if "scenario_name" in manifest:
        _typed(manifest_path, manifest, "scenario_name", str)
    pack = _read_scenario(
        run_dir / "scenario.scn", manifest.get("scenario_name", "scenario"), manifest_path
    )
    # manifests written before a threshold was retired still carry it
    stored = {
        key: value
        for key, value in manifest["config"].items()
        if key.replace("-", "_") not in RETIRED_THRESHOLDS
    }
    try:
        config = config_from_mapping(stored)
    except ValueError as exc:
        raise UsageError(f"{manifest_path}: {exc}") from None
    return pack, manifest["seed"], manifest["rounds"], config


def _load_snapshot(
    path: Path, scenario: Scenario, named_by: Path | None = None
) -> RoundState:
    """Read a state snapshot and validate it against the scenario's universe."""
    text = _read_text(path, "snapshot", f"snapshot {path}", named_by)
    try:
        state = deserialize_state(text)
        validate_state(state, scenario.universe())
    except (StoreError, StateError) as exc:
        raise UsageError(f"snapshot {path}: {exc}") from None
    return state


def cmd_run(args: argparse.Namespace) -> int:
    if args.rounds < 1:
        raise UsageError("--rounds must be at least 1")
    if args.episodes is not None and args.episodes < 1:
        raise UsageError("--episodes must be at least 1")
    pack = _load_pack(args.scenario)
    config = _load_config(pack, args, episodes_override=True)
    out = Path(args.out) if args.out else _default_out(pack.scenario.name, args.seed)
    table = _write_run_dir(out, pack, args.seed, args.rounds, config)
    if not args.quiet:
        print(table, end="")
        print(f"run directory: {out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.episodes < 1:
        raise UsageError("--episodes must be at least 1")
    pack = _load_pack(args.scenario)
    config = _load_config(pack, args)
    state = _load_snapshot(Path(args.state), pack.scenario)
    counts = family_tally(
        (task, success)
        for task, (success,) in exec_shared(
            [state], pack.scenario, args.episodes, derive_seed(args.seed, "eval"), config
        )
    )
    rows = family_rows(counts)
    successes = sum(s for s, _ in counts.values())
    print(render_breakdown(rows), end="")
    print(f"total: {successes}/{args.episodes}")
    if args.out:
        _write_text(
            Path(args.out),
            canonical_json(
                {
                    "episodes": args.episodes,
                    "successes": successes,
                    "per_family": {
                        r.task_type: {"successes": r.successes, "attempts": r.attempts}
                        for r in rows
                    },
                }
            ),
        )
    return 0


def cmd_transplant(args: argparse.Namespace) -> int:
    if args.episodes < 1:
        raise UsageError("--episodes must be at least 1")
    run_dir = Path(args.run)
    pack, seed, rounds, config = _load_run_dir(run_dir)
    checkpoint_path = run_dir / "checkpoint.json"
    checkpoint = _read_json_object(checkpoint_path, {"snapshot": str, "round": int})
    if not 0 <= checkpoint["round"] <= rounds:
        raise UsageError(
            f"{checkpoint_path}: 'round' must lie in [0, {rounds}], not {checkpoint['round']}"
        )
    trajectory_path = run_dir / "trajectory.json"
    trajectory, _ = _read_trajectory(trajectory_path)
    if checkpoint["round"] != trajectory["checkpoint"]["round"]:
        raise UsageError(
            f"{checkpoint_path}: 'round' {checkpoint['round']} disagrees with "
            f"{trajectory_path}: 'checkpoint.round' {trajectory['checkpoint']['round']}"
        )
    snapshot = _snapshot_name(checkpoint["round"])
    if checkpoint["snapshot"] != snapshot:
        raise UsageError(
            f"{checkpoint_path}: 'snapshot' must be {snapshot!r} for round "
            f"{checkpoint['round']}, not {checkpoint['snapshot']!r}"
        )
    final_state = _load_snapshot(run_dir / snapshot, pack.scenario, checkpoint_path)
    seed_state = _load_snapshot(run_dir / _snapshot_name(0), pack.scenario)
    table = evaluate_transplants(
        pack.scenario, final_state, seed_state, seed, args.episodes, config
    )
    print(render_comparison(table), end="")
    _write_text(run_dir / "transplant.json", canonical_json(table.to_dict()))
    _write_text(run_dir / "transplant.txt", render_comparison(table))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    trajectory, per_round = _read_trajectory(Path(args.run) / "trajectory.json")
    best = per_round[trajectory["checkpoint"]["round"]]
    print(render_trajectory(trajectory))
    if best:
        print(render_breakdown(family_rows(best, baseline=per_round.get(0, {}))), end="")
    return 0


class _Divergence(Exception):
    """A run directory differs from its re-execution; the message says where."""


@contextmanager
def _reading(rel: str) -> Iterator[None]:
    """Every `OSError` inside is a replay divergence naming the artifact."""
    try:
        yield
    except FileNotFoundError:
        raise _Divergence(
            f"replay divergence: {rel} is missing from the run directory"
        ) from None
    except OSError as exc:
        raise _Divergence(
            f"replay divergence in {rel}: cannot read: {exc.strerror or exc}"
        ) from None


class _StoredArtifact:
    """A stored file of a run directory, compared with its regenerated text
    piece by piece, each piece at the byte offset where the last one ended."""

    def __init__(self, run_dir: Path, rel: str) -> None:
        self.rel = rel
        self.handle = (run_dir / rel).open("rb")
        self.at = 0  # bytes matched

    def close(self) -> None:
        self.handle.close()

    def compare(self, text: str) -> None:
        """The next piece."""
        want = text.encode("utf-8")
        got = self.handle.read(len(want))
        if got != want:
            self._diverge(got, want)
        self.at += len(want)

    def finish(self) -> None:
        """After the file's last piece: nothing may follow it."""
        if got := self.handle.read(1):
            self._diverge(got, b"")

    def _diverge(self, got: bytes, want: bytes) -> NoReturn:
        """Report the first byte where the stored bytes `got` and the expected
        bytes `want`, both read from the matched prefix on, differ (a file
        that ends early differs at its length), with each side's line that
        holds it."""
        offset = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
        )
        byte = self.at + offset
        self.handle.seek(0)
        head = self.handle.read(byte)  # the same on both sides
        line = head.count(b"\n") + 1
        start = head[head.rfind(b"\n") + 1 :]
        stored = self.handle.readline()
        expected = b"".join(want[offset:].partition(b"\n")[:2])
        raise _Divergence(
            f"replay divergence in {self.rel} at line {line}: byte {byte}\n"
            f"  stored:   {_shown_line(start, stored)}\n"
            f"  expected: {_shown_line(start, expected)}"
        )


def _shown_line(start: bytes, rest: bytes) -> str:
    """A line whose bytes before the divergence are `start` and from it on
    `rest`; no `rest` means the file ends there."""
    if not rest:
        return "(end of file)"
    return repr((start + rest).decode("utf-8", "backslashreplace"))


def cmd_replay(args: argparse.Namespace) -> int:
    run_dir = Path(args.run)
    pack, seed, rounds, config = _load_run_dir(run_dir)
    pieces = artifact_pieces(pack, seed, rounds, config)
    compared: set[str] = set()
    try:
        with ExitStack() as stack:
            log = None
            for rel, text in pieces:
                compared.add(rel)
                with _reading(rel):
                    if rel == TRACE_LOG:
                        log = log or stack.enter_context(closing(_StoredArtifact(run_dir, rel)))
                        log.compare(text)
                        continue
                    with closing(_StoredArtifact(run_dir, rel)) as stored:
                        stored.compare(text)
                        stored.finish()
            with _reading(TRACE_LOG):
                log.finish()  # every run has a round, so a log
    except _Divergence as divergence:
        print(divergence)
        return 1
    print(f"replay clean: {len(compared)} artifacts match")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skillmas",
        description="Deterministic coupled-adaptation engine on synthetic task worlds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a multi-round adaptation experiment")
    run.add_argument("--scenario", required=True, help="scenario file or preset:<name>")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--rounds", type=int, required=True)
    run.add_argument("--out", help="run directory (default $SKILLMAS_OUT/<name>-<seed>)")
    run.add_argument("--config", help="JSON file with threshold overrides")
    run.add_argument("--episodes", type=int, help="episodes per round override")
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(handler=cmd_run)

    ev = sub.add_parser("eval", help="evaluate a state snapshot, no adaptation")
    ev.add_argument("--scenario", required=True)
    ev.add_argument("--state", required=True, help="state snapshot file")
    ev.add_argument("--episodes", type=int, default=100)
    ev.add_argument("--seed", type=int, required=True)
    ev.add_argument("--config", help="JSON file with threshold overrides")
    ev.add_argument("--out", help="write the success table as JSON here")
    ev.set_defaults(handler=cmd_eval)

    tr = sub.add_parser("transplant", help="cross-transplant stress test on a run")
    tr.add_argument("--run", required=True, help="completed run directory")
    tr.add_argument("--episodes", type=int, default=60)
    tr.set_defaults(handler=cmd_transplant)

    rep = sub.add_parser("report", help="trajectory and task-family tables for a run")
    rep.add_argument("--run", required=True)
    rep.set_defaults(handler=cmd_report)

    re_ = sub.add_parser("replay", help="re-execute a run and diff against stored artifacts")
    re_.add_argument("--run", required=True)
    re_.set_defaults(handler=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, ScenarioError, StoreError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
