"""Persistence: scenario files, state snapshots, trace logs.

Scenario files are a line-oriented sectioned text format so parse errors can
point at the offending line: the parser reads each entry line in one `try`,
so any check of that line refuses it at its line, and so does the one rule
for an entry repeated in its section.  Only the checks that span lines name
one by hand: a skill's unknown owner at the skill's line, a missing manager
at the `[seed-state]` header, and the world's own checks at line 1.

Snapshots are a versioned record stream with records sorted by id and no
floats (a utility entry is its successes and attempts), and
`serialize_state` is the one definition of their format: a snapshot is
read only as the writer writes it.  The reader builds a state from the
records and refuses the first line that differs from the writer's line for
that state, or a count that `UtilityTable.check` refuses, at its byte
offset.  An executor's `owns=` is derived, the skills that name it as
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
from .world import LatentSkill, Scenario, add_effect, check_range

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


def _ids(*texts: str) -> None:
    """Every id ends up in snapshots, so each must be a snapshot token."""
    for text in texts:
        if not _TOKEN.fullmatch(text):
            raise ValueError(f"id {text!r} must be letters, digits and _.:+-, and not a lone '-'")


def _parse_pair(text: str) -> Pair:
    task, _, phase = text.partition("/")
    if not task or not phase or "/" in phase:
        raise ValueError(f"expected task/phase, got {text!r}")
    _ids(task, phase)
    return (task, phase)


def _parse_pairs(text: str, universe: set[Pair]) -> frozenset[Pair]:
    """Comma-separated pairs, or "-" for none, each in the task space `universe`."""
    parts = () if text == "-" else [part for part in text.split(",") if part]
    pairs = frozenset(_parse_pair(part) for part in parts)
    unknown = pairs - universe
    if unknown:
        raise ValueError(f"pairs {sorted(unknown)} not in the task space")
    return pairs


def _number(text: str, what: str) -> float:
    """`text` as a finite float: a NaN or infinite weight, difficulty,
    effect or penalty would make every later probability meaningless."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{what} {text!r} is not a finite number")
    return value


def _split_kv(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise ValueError(f"expected 'key = value', got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def _seed_id(kind: str, ident: str) -> None:
    _ids(ident)
    if _MINTED.search(ident):
        message = f"seed {kind} id {ident!r} ends in -r<digits>, the suffix of engine-minted ids"
        raise ValueError(message)


_SEED_OPT = re.compile(r"(\w[\w-]*)=(\S+)")
# a [penalties] key -> the `Scenario` field it sets
_PENALTY_FIELDS = {
    "interference": "interference_weight",
    "overload": "overload_weight",
    "routing-noise": "routing_noise",
    "cause-confidence": "cause_confidence",
}
# the sections in the order they are read, each with the noun a repeated
# entry is refused by (`duplicate task 't1'`); a seed-state entry names its
# kind first, executor, skill or card
_NOUNS = {"tasks": "task", "difficulty": "difficulty for", "latent": "latent",
          "penalties": "penalty", "seed-state": None, "thresholds": "threshold"}


class _Reader:
    """What a scenario's entries build so far, with one method per kind of
    entry.  Each reads an entry's key and value and raises a plain
    ValueError at a bad one; `parse_scenario` names its line."""

    def __init__(self) -> None:
        self.tasks: list[TaskType] = []
        self.weights: dict[str, float] = {}
        self.total = 0.0  # the weights' running sum, as `cumulative_weights` adds them
        self.universe: set[Pair] = set()
        self.difficulty: dict[Pair, float] = {}
        self.logits: dict[Pair, float] = {}  # each difficulty plus its latents' effects
        self.latents: dict[str, LatentSkill] = {}
        self.penalties: dict[str, float] = {}  # the values given; `Scenario` has the defaults
        self.executors: dict[str, Executor] = {}
        self.manager: str | None = None
        self.library: dict[str, Skill] = {}
        self.cards: list[PolicyCard] = []
        self.config = EngineConfig()

    def task(self, key: str, value: str) -> None:
        phases_text, bar, weight_text = value.rpartition("|")
        phases = tuple(phases_text.split())
        if not bar:
            raise ValueError("task needs '<phases...> | <weight>'")
        if not phases:
            raise ValueError(f"task {key!r} has no phases")
        _ids(key, *phases)
        weight = _number(weight_text.strip(), "weight")
        check_range("task_weights", weight, key)
        task = TaskType(key, phases)
        self.total += weight
        check_range("cumulative_weights", self.total)
        self.tasks.append(task)
        self.weights[key] = weight
        self.universe.update(task.pairs())

    def difficulty_for(self, key: str, value: str) -> None:
        pair = _parse_pair(key)
        if pair not in self.universe:
            raise ValueError(f"difficulty for unknown pair {key!r}")
        self.difficulty[pair] = self.logits[pair] = _number(value, "difficulty")

    def latent(self, key: str, value: str) -> None:
        _ids(key)
        if key.endswith(("-a", "-b")):  # a motif is `{L}-r{R}`, a split half `{S}-a-r{R}`
            message = f"latent id {key!r} ends in -a or -b, so a motif id could be a split half's"
            raise ValueError(message)
        parts = value.split()
        if len(parts) != 3:
            raise ValueError("latent needs '<task/phase> <effect> <cause>'")
        pair = _parse_pair(parts[0])
        if pair not in self.universe:
            raise ValueError(f"latent pair {parts[0]!r} not in the task space")
        effect = _number(parts[1], "effect")
        try:
            cause = CauseLabel(parts[2])
        except ValueError:
            raise ValueError(f"unknown cause {parts[2]!r}") from None
        self.latents[key] = LatentSkill(key, pair, effect, cause)
        add_effect(self.logits, self.latents[key])

    def penalty(self, key: str, value: str) -> None:
        field = _PENALTY_FIELDS.get(key)
        if field is None:
            raise ValueError(f"unknown penalty {key!r}")
        self.penalties[field] = _number(value, "penalty value")
        check_range(field, self.penalties[field])

    def executor(self, ident: str, body: str) -> None:
        """'<boundary> [capacity=N] [manager]'."""
        _seed_id("executor", ident)
        parts = body.split()
        if not parts:
            raise ValueError("executor needs '<id> = <boundary> [capacity=N] [manager]'")
        universe = self.universe
        boundary = frozenset(universe) if parts[0] == "*" else _parse_pairs(parts[0], universe)
        options: dict[str, object] = {}
        for part in parts[1:]:
            if part == "manager":
                key, value = "is_manager", True
            else:
                match = _SEED_OPT.fullmatch(part)
                if not match or match.group(1) != "capacity":
                    raise ValueError(f"unknown executor option {part!r}")
                key, value = "capacity", int(match.group(2))
            if key in options:
                raise ValueError(f"repeated executor option {part.partition('=')[0]!r}")
            options[key] = value
        self.executors[ident] = Executor(ident, boundary, **options)  # type: ignore[arg-type]
        if options.get("is_manager"):
            if self.manager is not None:
                raise ValueError(f"second manager {ident!r}: {self.manager!r} is one")
            self.manager = ident
            missing = sorted(universe - boundary)
            if missing:
                raise ValueError(f"manager boundary misses pairs {missing!r}")

    def skill(self, ident: str, body: str) -> None:
        """'owner=E applies=PAIRS steps=S,.. [guards=..] [checks=..] [status=..]'."""
        _seed_id("skill", ident)
        fields: dict[str, object] = {
            "guards": frozenset(), "checks": frozenset(), "status": SkillStatus.SEEDED
        }
        given: set[str] = set()
        for part in body.split():
            match = _SEED_OPT.fullmatch(part)
            if not match:
                raise ValueError(f"expected key=value, got {part!r}")
            key, value = match.group(1), match.group(2)
            if key in given:
                raise ValueError(f"repeated skill option {key!r}")
            given.add(key)
            if key == "owner":
                _ids(value)
                fields["owner"] = value  # an executor that may be declared later
            elif key == "applies":
                fields["applicability"] = _parse_pairs(value, self.universe)
            elif key == "steps":
                fields["steps"] = tuple(t for t in value.split(",") if t)
                _ids(*fields["steps"])
            elif key in ("guards", "checks"):
                fields[key] = frozenset(t for t in value.split(",") if t and t != "-")
                _ids(*fields[key])
            elif key == "status":
                try:
                    fields["status"] = SkillStatus(value)
                except ValueError:
                    raise ValueError(f"unknown skill status {value!r}") from None
            else:
                raise ValueError(f"unknown skill option {key!r}")
        for required in ("owner", "applicability", "steps"):
            if required not in fields:
                raise ValueError(f"skill line missing {required!r}")
        self.library[ident] = Skill(id=ident, **fields)  # type: ignore[arg-type]

    def card(self, ident: str, body: str) -> None:
        """'<task> <cause> <tag> [template]'."""
        parts = body.split()
        if len(parts) not in (3, 4):
            raise ValueError("card needs '<task> <cause> <tag> [template]'")
        _ids(ident, parts[0], *parts[3:])
        if parts[0] not in self.weights:
            raise ValueError(f"card task {parts[0]!r} is not a task type")
        if parts[3:] and parts[3] not in self.latents:
            raise ValueError(f"card template {parts[3]!r} names no latent procedure")
        self.cards.append(
            PolicyCard(
                id=ident,
                task_type=parts[0],
                cause=CauseLabel(parts[1]),
                recommended_tag=BoundedTag(parts[2]),
                template_skill=parts[3] if len(parts) == 4 else None,
            )
        )

    def threshold(self, key: str, value: str) -> None:
        self.config = config_from_mapping({key: value}, base=self.config)


# an entry's noun -> the `_Reader` method that reads it
_READ = {noun: getattr(_Reader, noun.replace(" ", "_")) for noun in (
    "task", "difficulty for", "latent", "penalty", "executor", "skill", "card", "threshold")}


def parse_scenario(text: str, name: str = "scenario") -> ScenarioPack:
    """Parse a scenario document into (world, seed state, thresholds).

    The sections are read in `_NOUNS` order, whatever their order in the
    text, and each entry line in one `try`: any ValueError its reading
    raises (a StateError included) is refused at that line, and so is an
    entry whose noun and key an earlier line gave.  Only the checks that
    span lines name a line by hand.
    """
    entries: dict[str, list[tuple[int, str]]] = {section: [] for section in _NOUNS}
    section: str | None = None
    headers: dict[str, int] = {}  # each section's first header line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in entries:
                raise ScenarioError(f"unknown section [{section}]", lineno)
            headers.setdefault(section, lineno)
            continue
        if section is None:
            raise ScenarioError("content before the first section header", lineno)
        entries[section].append((lineno, stripped))

    reader = _Reader()
    lines: dict[tuple[str, str], int] = {}  # each entry's line, by its noun and key
    for section, noun in _NOUNS.items():
        for lineno, entry in entries[section]:
            try:
                kind = noun
                if kind is None:
                    kind, entry = (entry.split(None, 1) + [""])[:2]
                    if kind not in ("executor", "skill", "card"):
                        raise ValueError(f"unknown seed-state entry {kind!r}")
                key, value = _split_kv(entry)
                seen = (kind, key.replace("-", "_") if kind == "threshold" else key)
                if seen in lines:
                    raise ValueError(f"duplicate {kind} {key!r}")
                lines[seen] = lineno
                _READ[kind](reader, key, value)
            except ValueError as exc:
                raise ScenarioError(str(exc), lineno) from None

    library = reader.library
    for sid, skill in library.items():  # an executor may be declared after its skills
        if skill.owner not in reader.executors:
            message = f"skill {sid!r} owned by unknown executor {skill.owner!r}"
            raise ScenarioError(message, lines["skill", sid])
    if reader.manager is None:
        raise ScenarioError("seed state defines no manager", headers.get("seed-state", 1))
    try:  # the checks that span sections, at line 1
        scenario = Scenario(
            name=name,
            task_types=tuple(reader.tasks),
            task_weights=reader.weights,
            base_difficulty=reader.difficulty,
            latent_catalog=tuple(reader.latents.values()),
            **reader.penalties,
        )
        seed_state = RoundState(
            round_index=0,
            library=library,
            executors=reader.executors,
            q_skill=UtilityTable(),
            q_exec=UtilityTable(),
            pool={sid: (0, 0) for sid, s in library.items() if s.status is SkillStatus.POOLED},
            policy_index=tuple(sorted(reader.cards, key=lambda c: c.id)),
        )
        validate_state(seed_state, scenario.universe())
    except ValueError as exc:
        raise ScenarioError(str(exc), 1) from None
    return ScenarioPack(scenario=scenario, seed_state=seed_state, config=reader.config, text=text)


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
