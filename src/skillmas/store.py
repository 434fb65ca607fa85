"""Persistence: scenario files, state snapshots, trace logs.

Scenario files are a line-oriented sectioned text format so parse errors can
point at the offending line.  Snapshots are a versioned record stream with
records sorted by id and no floats (a utility entry is its successes and
attempts), and `serialize_state` is the one definition of their format: a
snapshot is read only as the writer writes it.  The reader builds a state
from the records and refuses the first line that differs from the writer's
line for that state, or a count that `UtilityTable.check` refuses, at its
byte offset.  An executor's `owns=` is derived, the skills that name it as
owner, so the reader only compares it.  A trace log holds each round's
batch as it is held: one JSON line per entry of the round's shape table,
then one line of the episodes' entries in generation order, so each
outcome path is written once per round and each episode is one number.
Nothing in the engine reads a log back: `replay` compares its bytes, and
the counts `report` shows come from `trajectory.json`.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

from .config import EngineConfig, config_from_mapping
from .model import (
    Batch,
    BoundedTag,
    CauseLabel,
    Executor,
    Pair,
    PolicyCard,
    RoundState,
    Skill,
    SkillStatus,
    TaskType,
    TraceShape,
    UtilityTable,
    owned_by,
    validate_state,
)
from .world import LatentSkill, Scenario, check_range

SNAPSHOT_VERSION = 3
SNAPSHOT_HEADER = "skillmas-state"

# a lone "-" is how a snapshot writes an empty set, so it is no id
_TOKEN = re.compile(r"^(?!-$)[A-Za-z0-9_.:+-]+$")
# the suffix of every skill and executor id the engine mints in round R: `-r{R}`
_MINTED = re.compile(r"-r[0-9]+$")


class StoreError(ValueError):
    """A persistence operation failed; carries a byte offset when parsing."""

    def __init__(self, message: str, *, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ScenarioError(ValueError):
    """A scenario file is invalid; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ScenarioPack:
    """A parsed scenario file: world model, seed state, and thresholds."""

    scenario: Scenario
    seed_state: RoundState
    config: EngineConfig
    text: str


# ---------------------------------------------------------------------------
# scenario files


@contextmanager
def _at_line(line: int):
    """A ValueError raised while building one line's object (a StateError
    included) becomes a ScenarioError at that line."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc), line) from None


def _ids(line: int, *texts: str) -> None:
    """Every id ends up in snapshots, so each must be a snapshot token."""
    for text in texts:
        if not _TOKEN.fullmatch(text):
            raise ScenarioError(
                f"id {text!r} must be letters, digits and _.:+-, and not a lone '-'", line
            )


def _parse_pair(text: str, line: int) -> Pair:
    if text.count("/") != 1:
        raise ScenarioError(f"expected task/phase, got {text!r}", line)
    task, phase = text.split("/")
    if not task or not phase:
        raise ScenarioError(f"expected task/phase, got {text!r}", line)
    _ids(line, task, phase)
    return (task, phase)


def _parse_pairs(text: str, line: int, universe: frozenset[Pair]) -> frozenset[Pair]:
    """Comma-separated pairs, or "-" for none, each in the task space `universe`."""
    parts = () if text == "-" else [part for part in text.split(",") if part]
    pairs = frozenset(_parse_pair(part, line) for part in parts)
    unknown = pairs - universe
    if unknown:
        raise ScenarioError(f"pairs {sorted(unknown)} not in the task space", line)
    return pairs


def _number(text: str, what: str, line: int) -> float:
    """`text` as a finite float: a NaN or infinite weight, difficulty,
    effect or penalty would make every later probability meaningless."""
    try:
        value = float(text)
    except ValueError:
        raise ScenarioError(f"bad {what} {text!r}", line) from None
    if not math.isfinite(value):
        raise ScenarioError(f"{what} {text!r} is not a finite number", line)
    return value


def _split_kv(text: str, line: int) -> tuple[str, str]:
    if "=" not in text:
        raise ScenarioError(f"expected 'key = value', got {text!r}", line)
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


_SEED_OPT = re.compile(r"(\w[\w-]*)=(\S+)")
# a [penalties] key -> the `Scenario` field it sets
_PENALTY_FIELDS = {
    "interference": "interference_weight",
    "overload": "overload_weight",
    "routing-noise": "routing_noise",
    "cause-confidence": "cause_confidence",
}


def _parse_executor_line(
    body: str, line: int, universe: frozenset[Pair]
) -> tuple[frozenset[Pair], dict[str, object]]:
    """Parse '<boundary> [capacity=N] [manager]' into the boundary and the
    options the line gives, as `Executor` keywords."""
    parts = body.split()
    if not parts:
        raise ScenarioError("executor needs '<id> = <boundary> [capacity=N] [manager]'", line)
    boundary_text = parts[0]
    boundary = universe if boundary_text == "*" else _parse_pairs(boundary_text, line, universe)
    options: dict[str, object] = {}
    for part in parts[1:]:
        if part == "manager":
            key, value = "is_manager", True
        else:
            match = _SEED_OPT.fullmatch(part)
            if not match or match.group(1) != "capacity":
                raise ScenarioError(f"unknown executor option {part!r}", line)
            key, value = "capacity", int(match.group(2))
        if key in options:
            raise ScenarioError(f"repeated executor option {part.partition('=')[0]!r}", line)
        options[key] = value
    return frozenset(boundary), options


def _parse_skill_line(body: str, line: int, universe: frozenset[Pair]) -> dict[str, object]:
    fields: dict[str, object] = {
        "guards": frozenset(),
        "checks": frozenset(),
        "status": SkillStatus.SEEDED,
    }
    given: set[str] = set()
    for part in body.split():
        match = _SEED_OPT.fullmatch(part)
        if not match:
            raise ScenarioError(f"expected key=value, got {part!r}", line)
        key, value = match.group(1), match.group(2)
        if key in given:
            raise ScenarioError(f"repeated skill option {key!r}", line)
        given.add(key)
        if key == "owner":
            _ids(line, value)
            fields["owner"] = value
        elif key == "applies":
            fields["applicability"] = _parse_pairs(value, line, universe)
        elif key == "steps":
            fields["steps"] = tuple(t for t in value.split(",") if t)
            _ids(line, *fields["steps"])
        elif key == "guards":
            fields["guards"] = frozenset(t for t in value.split(",") if t and t != "-")
            _ids(line, *fields["guards"])
        elif key == "checks":
            fields["checks"] = frozenset(t for t in value.split(",") if t and t != "-")
            _ids(line, *fields["checks"])
        elif key == "status":
            try:
                fields["status"] = SkillStatus(value)
            except ValueError:
                raise ScenarioError(f"unknown skill status {value!r}", line) from None
        else:
            raise ScenarioError(f"unknown skill option {key!r}", line)
    for required in ("owner", "applicability", "steps"):
        if required not in fields:
            raise ScenarioError(f"skill line missing {required!r}", line)
    return fields


def parse_scenario(text: str, name: str = "scenario") -> ScenarioPack:
    """Parse a scenario document into (world, seed state, thresholds)."""
    sections = {
        "tasks": [],
        "difficulty": [],
        "latent": [],
        "penalties": [],
        "seed-state": [],
        "thresholds": [],
    }
    section: str | None = None
    headers: dict[str, int] = {}  # each section's first header line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in sections:
                raise ScenarioError(f"unknown section [{section}]", lineno)
            headers.setdefault(section, lineno)
            continue
        if section is None:
            raise ScenarioError("content before the first section header", lineno)
        sections[section].append((lineno, stripped))

    tasks: list[TaskType] = []
    weights: dict[str, float] = {}
    for lineno, entry in sections["tasks"]:
        key, value = _split_kv(entry, lineno)
        if "|" not in value:
            raise ScenarioError("task needs '<phases...> | <weight>'", lineno)
        phases_text, weight_text = value.rsplit("|", 1)
        phases = tuple(phases_text.split())
        if not phases:
            raise ScenarioError(f"task {key!r} has no phases", lineno)
        _ids(lineno, key, *phases)
        weight = _number(weight_text.strip(), "weight", lineno)
        if key in weights:
            raise ScenarioError(f"duplicate task {key!r}", lineno)
        with _at_line(lineno):
            check_range("task_weights", weight, key)
            tasks.append(TaskType(key, phases))
        weights[key] = weight
    if not tasks:
        raise ScenarioError("scenario defines no tasks", 1)
    universe = frozenset(pair for t in tasks for pair in t.pairs())

    difficulty: dict[Pair, float] = {}
    for lineno, entry in sections["difficulty"]:
        key, value = _split_kv(entry, lineno)
        pair = _parse_pair(key, lineno)
        if pair not in universe:
            raise ScenarioError(f"difficulty for unknown pair {key!r}", lineno)
        if pair in difficulty:
            raise ScenarioError(f"duplicate difficulty for {key!r}", lineno)
        difficulty[pair] = _number(value, "difficulty", lineno)

    latents: list[LatentSkill] = []
    latent_ids: set[str] = set()
    for lineno, entry in sections["latent"]:
        key, value = _split_kv(entry, lineno)
        if key in latent_ids:
            raise ScenarioError(f"duplicate latent {key!r}", lineno)
        _ids(lineno, key)
        if key.endswith(("-a", "-b")):  # a motif is `{L}-r{R}`, a split half `{S}-a-r{R}`
            message = f"latent id {key!r} ends in -a or -b, so a motif id could be a split half's"
            raise ScenarioError(message, lineno)
        latent_ids.add(key)
        parts = value.split()
        if len(parts) != 3:
            raise ScenarioError("latent needs '<task/phase> <effect> <cause>'", lineno)
        pair = _parse_pair(parts[0], lineno)
        if pair not in universe:
            raise ScenarioError(f"latent pair {parts[0]!r} not in the task space", lineno)
        effect = _number(parts[1], "effect", lineno)
        try:
            cause = CauseLabel(parts[2])
        except ValueError:
            raise ScenarioError(f"unknown cause {parts[2]!r}", lineno) from None
        with _at_line(lineno):
            latents.append(LatentSkill(key, pair, effect, cause))

    penalties: dict[str, float] = {}  # the values given; `Scenario` has the defaults
    for lineno, entry in sections["penalties"]:
        key, value = _split_kv(entry, lineno)
        field = _PENALTY_FIELDS.get(key)
        if field is None:
            raise ScenarioError(f"unknown penalty {key!r}", lineno)
        if field in penalties:
            raise ScenarioError(f"duplicate penalty {key!r}", lineno)
        penalties[field] = _number(value, "penalty value", lineno)
        with _at_line(lineno):
            check_range(field, penalties[field])

    with _at_line(1):  # the world's checks span sections
        scenario = Scenario(
            name=name,
            task_types=tuple(tasks),
            task_weights=weights,
            base_difficulty=difficulty,
            latent_catalog=tuple(latents),
            **penalties,
        )

    executors: dict[str, Executor] = {}
    library: dict[str, Skill] = {}
    skill_lines: dict[str, int] = {}
    cards: list[PolicyCard] = []
    entry_ids: set[tuple[str, str]] = set()
    manager: str | None = None
    for lineno, entry in sections["seed-state"]:
        kind, rest = (entry.split(None, 1) + [""])[:2]
        if kind not in ("executor", "skill", "card"):
            raise ScenarioError(f"unknown seed-state entry {kind!r}", lineno)
        ident, body = _split_kv(rest, lineno)
        _ids(lineno, ident)
        if (kind, ident) in entry_ids:
            raise ScenarioError(f"duplicate {kind} {ident!r}", lineno)
        entry_ids.add((kind, ident))
        if kind != "card" and _MINTED.search(ident):
            raise ScenarioError(
                f"seed {kind} id {ident!r} ends in -r<digits>, the suffix of engine-minted ids",
                lineno,
            )
        if kind == "executor":
            with _at_line(lineno):
                boundary, options = _parse_executor_line(body, lineno, universe)
                executors[ident] = Executor(
                    id=ident, boundary=boundary, **options  # type: ignore[arg-type]
                )
            if options.get("is_manager"):
                if manager is not None:
                    raise ScenarioError(f"second manager {ident!r}: {manager!r} is one", lineno)
                manager = ident
                missing = sorted(universe - boundary)
                if missing:
                    raise ScenarioError(f"manager boundary misses pairs {missing!r}", lineno)
        elif kind == "skill":
            fields = _parse_skill_line(body, lineno, universe)
            with _at_line(lineno):
                library[ident] = Skill(id=ident, **fields)  # type: ignore[arg-type]
            skill_lines[ident] = lineno
        else:
            parts = body.split()
            if len(parts) not in (3, 4):
                raise ScenarioError(
                    "card needs '<task> <cause> <tag> [template]'", lineno
                )
            _ids(lineno, parts[0], *parts[3:])
            if parts[0] not in scenario.task_weights:
                raise ScenarioError(f"card task {parts[0]!r} is not a task type", lineno)
            if parts[3:] and parts[3] not in latent_ids:
                message = f"card template {parts[3]!r} names no latent procedure"
                raise ScenarioError(message, lineno)
            with _at_line(lineno):
                cause = CauseLabel(parts[1])
                tag = BoundedTag(parts[2])
            cards.append(
                PolicyCard(
                    id=ident,
                    task_type=parts[0],
                    cause=cause,
                    recommended_tag=tag,
                    template_skill=parts[3] if len(parts) == 4 else None,
                )
            )

    for sid, skill in library.items():  # an executor may be declared after its skills
        if skill.owner not in executors:
            message = f"skill {sid!r} owned by unknown executor {skill.owner!r}"
            raise ScenarioError(message, skill_lines[sid])
    if manager is None:
        raise ScenarioError("seed state defines no manager", headers.get("seed-state", 1))
    pool = {
        sid: (0, 0) for sid, s in library.items() if s.status is SkillStatus.POOLED
    }
    seed_state = RoundState(
        round_index=0,
        library=library,
        executors=executors,
        q_skill=UtilityTable(),
        q_exec=UtilityTable(),
        pool=pool,
        policy_index=tuple(sorted(cards, key=lambda c: c.id)),
    )
    try:
        validate_state(seed_state, scenario.universe())
    except Exception as exc:
        raise ScenarioError(f"seed state invalid: {exc}", 1) from None

    config = EngineConfig()
    given_thresholds: set[str] = set()
    for lineno, entry in sections["thresholds"]:
        key, value = _split_kv(entry, lineno)
        name = key.replace("-", "_")
        if name in given_thresholds:
            raise ScenarioError(f"duplicate threshold {key!r}", lineno)
        given_thresholds.add(name)
        with _at_line(lineno):
            config = config_from_mapping({key: value}, base=config)

    return ScenarioPack(scenario=scenario, seed_state=seed_state, config=config, text=text)


# ---------------------------------------------------------------------------
# state snapshots


def _check_token(token: str) -> str:
    if not _TOKEN.fullmatch(token):
        raise StoreError(f"token {token!r} is not snapshot-safe")
    return token


def _join(values: Iterable[str]) -> str:
    items = sorted(_check_token(v) for v in values)
    return ",".join(items) if items else "-"


def _join_pairs(pairs: Iterable[Pair]) -> str:
    items = sorted(f"{_check_token(t)}/{_check_token(p)}" for t, p in pairs)
    return ",".join(items) if items else "-"


def _records(state: RoundState) -> Iterator[str]:
    """The snapshot of `state`, one record (a line without its end) at a
    time: the one definition of the format, read back by the reader too."""
    yield f"{SNAPSHOT_HEADER} v{SNAPSHOT_VERSION}"
    yield f"round {state.round_index}"
    for sid in sorted(state.library):
        s = state.library[sid]
        steps = ",".join(_check_token(t) for t in s.steps)
        yield (
            f"skill {_check_token(sid)} owner={_check_token(s.owner)} "
            f"status={s.status.value} applies={_join_pairs(s.applicability)} "
            f"steps={steps} guards={_join(s.guards)} checks={_join(s.checks)}"
        )
    owned = owned_by(state.library)
    for eid in sorted(state.executors):
        e = state.executors[eid]
        yield (
            f"executor {_check_token(eid)} manager={int(e.is_manager)} "
            f"capacity={e.capacity} boundary={_join_pairs(e.boundary)} "
            f"owns={_join(skill.id for skill in owned.get(eid, ()))}"
        )
    for kind, table in (("qskill", state.q_skill), ("qexec", state.q_exec)):
        for (key, task_id), (successes, attempts) in sorted(table.counts.items()):
            yield f"{kind} {_check_token(key)} {_check_token(task_id)} {successes} {attempts}"
    for sid in sorted(state.pool):
        uses, successes = state.pool[sid]
        yield f"pool {_check_token(sid)} {uses} {successes}"
    for card in sorted(state.policy_index, key=lambda c: c.id):
        template = _check_token(card.template_skill) if card.template_skill else "-"
        yield (
            f"card {_check_token(card.id)} {_check_token(card.task_type)} "
            f"{card.cause.value} {card.recommended_tag.value} {template}"
        )
    yield "end"


def serialize_state(state: RoundState) -> str:
    """Render a round state as a sorted, versioned record stream."""
    return "\n".join(_records(state)) + "\n"


def _split_set(text: str) -> frozenset[str]:
    return frozenset() if text == "-" else frozenset(text.split(","))


def _split_pairs(text: str) -> frozenset[Pair]:
    return frozenset(part.partition("/")[::2] for part in _split_set(text))


def deserialize_state(text: str) -> RoundState:
    """Read a snapshot only as `serialize_state` writes it.

    The records are parsed just far enough to build a state (the first of
    a repeated record wins), and then each line must equal the writer's
    line for that state.  Any error carries the byte offset of its line.
    """
    lines = []
    offset = 0
    for raw in text.splitlines(keepends=True):
        lines.append((offset, raw))
        offset += len(raw.encode("utf-8"))

    if not lines:
        raise StoreError("empty snapshot stream", offset=0)
    parts = lines[0][1].split()
    if len(parts) != 2 or parts[0] != SNAPSHOT_HEADER or not parts[1].startswith("v"):
        raise StoreError(f"not a state snapshot: {lines[0][1]!r}", offset=0)
    version = parts[1][1:]
    if version != str(SNAPSHOT_VERSION):
        raise StoreError(
            f"snapshot version mismatch: file v{version}, supported v{SNAPSHOT_VERSION}",
            offset=0,
        )

    rounds: list[int] = []
    library: dict[str, Skill] = {}
    executors: dict[str, Executor] = {}
    tables: dict[str, dict[tuple[str, str], tuple[int, int]]] = {"qskill": {}, "qexec": {}}
    pool: dict[str, tuple[int, int]] = {}
    cards: dict[str, PolicyCard] = {}
    for at, line in lines[1:]:
        kind, *rest = line.split() or [""]
        if kind == "end":
            break
        try:
            if kind == "round":
                rounds.append(int(rest[0]))
            elif kind == "skill":
                opts = dict(part.partition("=")[::2] for part in rest[1:])
                library.setdefault(rest[0], Skill(
                    id=rest[0],
                    applicability=_split_pairs(opts["applies"]),
                    steps=tuple(opts["steps"].split(",")),
                    guards=_split_set(opts["guards"]),
                    checks=_split_set(opts["checks"]),
                    status=SkillStatus(opts["status"]),
                    owner=opts["owner"],
                ))
            elif kind == "executor":
                opts = dict(part.partition("=")[::2] for part in rest[1:])
                executors.setdefault(rest[0], Executor(
                    id=rest[0],
                    boundary=_split_pairs(opts["boundary"]),
                    capacity=int(opts["capacity"]),
                    is_manager=bool(int(opts["manager"])),
                ))
            elif kind in tables:
                key, task_id, successes, attempts = rest
                entry = (int(successes), int(attempts))
                UtilityTable.check_counts(key, task_id, *entry)
                tables[kind].setdefault((key, task_id), entry)
            elif kind == "pool":
                sid, uses, successes = rest
                pool.setdefault(sid, (int(uses), int(successes)))
            elif kind == "card":
                ident, task_id, cause, tag, template = rest
                cards.setdefault(ident, PolicyCard(
                    id=ident,
                    task_type=task_id,
                    cause=CauseLabel(cause),
                    recommended_tag=BoundedTag(tag),
                    template_skill=None if template == "-" else template,
                ))
        except (KeyError, ValueError, IndexError) as exc:
            raise StoreError(f"malformed {kind} record: {exc}", offset=at) from None
    else:
        raise StoreError("truncated snapshot stream: no end marker", offset=offset)

    state = RoundState(
        round_index=rounds[0] if rounds else 0,  # a missing round differs at line 1
        library=library,
        executors=executors,
        q_skill=UtilityTable(tables["qskill"]),
        q_exec=UtilityTable(tables["qexec"]),
        pool=pool,
        policy_index=tuple(cards.values()),
    )
    written = _records(state)
    for at, line in lines:
        try:
            record = next(written, None)
        except StoreError as exc:  # a token the writer refuses
            raise StoreError(str(exc), offset=at) from None
        if record is None or line != record + "\n":
            expected = "nothing" if record is None else repr(record + "\n")
            raise StoreError(f"read {line!r} where the writer writes {expected}", offset=at)
    return state


# ---------------------------------------------------------------------------
# trace logs

# every payload is a freshly built tree, so no reference cycle can occur
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def trace_to_record(shape: TraceShape) -> dict[str, object]:
    obs = shape.latent_cause_observation
    return {
        "task": {"id": shape.task_type.id, "phases": list(shape.task_type.phases)},
        "outcome": shape.outcome,
        "progress": shape.progress,
        "cause": (
            {"label": obs.cause.value, "confident": obs.confident} if obs else None
        ),
        "slices": [
            {
                "executor": sl.executor,
                "phase": sl.phase,
                "selected": sorted(sl.selected),
                "invoked": sorted(sl.invoked),
                "pattern": sorted(sl.pattern_supported),
            }
            for sl in shape.slices
        ],
    }


def encode_trace_log(batch: Batch) -> str:
    """A batch as JSON lines, as it is held: per entry k of its shape table,
    the shape's `trace_to_record` plus `"round"` and `"shape": k`; then the
    line `{"index": [...], "round": ...}` that gives episode i's entry.
    That line is `_ENCODER`'s with an empty index, the episodes' entries
    joined into its brackets from a table of the entries' strings."""
    lines = [
        _ENCODER.encode({**trace_to_record(shape), "round": batch.round_index, "shape": k})
        for k, shape in enumerate(batch.shapes)
    ]
    head, _, tail = _ENCODER.encode({"index": [], "round": batch.round_index}).partition("[]")
    ids = list(map(str, range(len(batch.shapes))))
    lines.append(f"{head}[{','.join(map(ids.__getitem__, batch.index))}]{tail}")
    return "\n".join(lines) + "\n"
