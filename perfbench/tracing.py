"""Span tracing of the engine from outside.

For a traced operation, selected public functions are replaced, in the module
namespace their callers look them up in, by wrappers that record one span per
call: name, start, end, parent span, repetition and round.  Spans are kept in
memory as flat arrays and written out when the run ends.  Nothing here is
installed for an untraced operation, and `traced` restores every original
function when the operation returns or raises.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

Hook = Callable[[Counter, tuple, dict, Any], None]


def _count_scanned(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    state = args[1] if len(args) > 1 else kwargs["state"]
    counters["utility.select_skills.scanned"] += len(state.library)


def _count_credited(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    before = args[:2]
    for table_before, table_after in zip(before, result):
        counters["learn.credited"] += sum(c for _, c in table_after.entries.values()) - sum(
            c for _, c in table_before.entries.values()
        )


def _count_retained(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["retained"] += len(result)
    counters["retain.episodes"] += len(args[0])


def _count_proposals(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["proposals"] += len(result)


def _count_actions(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    for action in result.actions:
        counters[f"actions.{action.action}"] += 1


def _count_promotions(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["promotions"] += len(result[3])


def _count_non_keep(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["non_keep"] += result.action != "keep"


def _count_library(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    # run_round returns (next_state, report, traces); the last call of an
    # operation leaves the final library, so these are overwritten per round.
    state = result[0]
    counters["model.library_entries.last"] = len(state.library)
    counters["model.active_skills.last"] = state.active_skill_count()


def _count_snapshot_bytes(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["snapshot_bytes"] += len(result.encode("utf-8"))


def _count_records(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counters["read_trace_log.records"] += len(result)
    path = args[0] if args else kwargs["path"]
    counters["trace_log_bytes"] += Path(path).stat().st_size


def _count_log_bytes(counters: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    artifacts = result[0]
    counters["trace_log_bytes"] += len(artifacts.get("traces.jsonl", "").encode("utf-8"))


def _round_of(args: tuple, kwargs: dict) -> int:
    state = args[0] if args else kwargs["state"]
    return state.round_index


# (module path, attribute, span name, hook, sets the round id)
SPEC: tuple[tuple[str, str, str, Hook | None, bool], ...] = (
    ("skillmas", "run_experiment", "run_experiment", None, False),
    ("skillmas.cli", "run_experiment", "run_experiment", None, False),
    ("skillmas.cli", "run_artifacts", "cli.run_artifacts", _count_log_bytes, False),
    ("skillmas.cli", "_write_run_dir", "cli.write_run_dir", None, False),
    ("skillmas.cli", "serialize_state", "serialize_state", _count_snapshot_bytes, False),
    ("skillmas.cli", "trace_to_record", "trace_to_record", None, False),
    ("skillmas.cli", "read_trace_log", "read_trace_log", _count_records, False),
    ("skillmas.cli", "deserialize_state", "deserialize_state", None, False),
    ("skillmas.orchestrator", "run_round", "run_round", _count_library, True),
    ("skillmas.orchestrator", "exec_round", "exec_round", None, False),
    ("skillmas.orchestrator", "learn", "learn", _count_credited, False),
    ("skillmas.orchestrator", "update_pool_counters", "update_pool_counters", None, False),
    ("skillmas.orchestrator", "retain", "retain", _count_retained, False),
    ("skillmas.orchestrator", "collect_proposals", "collect_proposals", _count_proposals, False),
    ("skillmas.orchestrator", "propose", "propose", None, False),
    ("skillmas.orchestrator", "skill_evolve", "skill_evolve", _count_actions, False),
    ("skillmas.orchestrator", "apply_skill_delta", "apply_skill_delta", None, False),
    ("skillmas.orchestrator", "build_artifacts", "build_artifacts", None, False),
    ("skillmas.orchestrator", "decide_restructure", "decide_restructure", _count_non_keep, False),
    ("skillmas.orchestrator", "apply_restructure", "apply_restructure", None, False),
    ("skillmas.orchestrator", "promote_pool", "promote_pool", _count_promotions, False),
    ("skillmas.orchestrator", "validate_state", "model.validate_state", None, False),
    ("skillmas.world", "sample_episode", "sample_episode", None, False),
    ("skillmas.world", "ground_truth_success_prob", "ground_truth_success_prob", None, False),
    ("skillmas.world", "substream", "streams.substream", None, False),
    ("skillmas.world", "select_executor", "utility.select_executor", None, False),
    ("skillmas.world", "select_skills", "utility.select_skills", _count_scanned, False),
    ("skillmas.evolution", "cluster_key_map", "model.cluster_key_map", None, False),
    ("skillmas.evolution", "realized_catalog", "world.realized_catalog", None, False),
)

ROOT_SPAN = "op"


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.rep = array("i")
        self.round = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.library_entries: list[int] = []
        self.active_skills: list[int] = []
        self.roots: list[tuple[int, float]] = []  # (root span index, wall measured outside)
        self.missing: list[str] = []
        self._stack = [-1]
        self._round = -1
        self._rep = -1

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _wrap(
        self, fn: Callable, span_name: str, hook: Hook | None, sets_round: bool
    ) -> Callable:
        nid = self._intern(span_name)
        clock = time.perf_counter
        stack = self._stack

        def traced_call(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.rep.append(self._rep)
            prev_round = self._round
            if sets_round:
                self._round = _round_of(args, kwargs)
            self.round.append(self._round)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                self._round = prev_round
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        traced_call.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced_call

    @contextmanager
    def traced(self, rep: int) -> Iterator[None]:
        """Install every wrapper for one operation and restore them after."""
        installed: list[tuple[ModuleType, str, Any]] = []
        self._rep = rep
        try:
            for module_name, attr, span_name, hook, sets_round in SPEC:
                module = sys.modules[module_name]
                original = getattr(module, attr, None)
                if original is None:
                    if f"{module_name}.{attr}" not in self.missing:
                        self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(original, span_name, hook, sets_round))
                installed.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(installed):
                setattr(module, attr, original)
            stray = [
                f"{module.__name__}.{attr}"
                for module, attr, original in installed
                if getattr(module, attr) is not original
            ]
            if stray:
                raise RuntimeError(f"tracing wrappers left installed: {stray}")
            self._rep = -1

    def run_op(self, rep: int, op: Callable[[], Any]) -> tuple[Any, float]:
        """Run one operation under a root span; return (result, outside wall)."""
        with self.traced(rep):
            root = self._wrap(op, ROOT_SPAN, None, False)
            root_index = len(self.start)
            t0 = time.perf_counter()
            try:
                result = root()
            except BaseException:
                # a failed operation leaves no spans behind
                for column in (self.name, self.parent, self.rep, self.round, self.start, self.end):
                    del column[root_index:]
                self.counters.pop("model.library_entries.last", None)
                self.counters.pop("model.active_skills.last", None)
                raise
            wall = time.perf_counter() - t0
        self.roots.append((root_index, wall))
        self.library_entries.append(self.counters.pop("model.library_entries.last", 0))
        self.active_skills.append(self.counters.pop("model.active_skills.last", 0))
        return result, wall

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.start)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[idx] - self.start[idx]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.start))]

    def accounting_problems(self) -> list[str]:
        """Spans must nest inside their parents without overlapping siblings,
        and the self times of each operation's spans must add up to the
        operation's wall time measured outside the spans."""
        problems: list[str] = []
        selfs = self.self_times()
        bounds = [r for r, _ in self.roots] + [len(self.start)]
        for (root, wall), stop in zip(self.roots, bounds[1:]):
            last_child_end: dict[int, float] = {}
            for idx in range(root + 1, stop):
                p = self.parent[idx]
                if p < root or not (
                    self.start[p] <= self.start[idx] <= self.end[idx] <= self.end[p]
                ):
                    problems.append(f"span {idx} ({self.span_names[self.name[idx]]}) escapes its parent")
                    break
                if self.start[idx] < last_child_end.get(p, float("-inf")):
                    problems.append(f"span {idx} overlaps a sibling")
                    break
                last_child_end[p] = self.end[idx]
            total_self = sum(selfs[root:stop])
            if abs(total_self - wall) > 1e-3 * wall + 1e-3:
                problems.append(
                    f"operation at span {root}: self times sum to {total_self:.6f}s "
                    f"but the operation took {wall:.6f}s"
                )
        return problems

    def layer_metrics(self) -> dict[str, float]:
        """Per-operation averages of busy and self time, calls and counters."""
        ops = len(self.roots)
        if ops == 0:
            raise RuntimeError("no traced operation")
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        rounds: list[float] = []
        selfs = self.self_times()
        run_round = self._name_ids.get("run_round")
        for idx in range(len(self.start)):
            name = self.span_names[self.name[idx]]
            duration = self.end[idx] - self.start[idx]
            busy[name] += duration
            own[name] += selfs[idx]
            calls[name] += 1
            if self.name[idx] == run_round:
                rounds.append(duration)

        def per_op(value: float) -> float:
            return value / ops

        c = self.counters
        phases = calls["utility.select_executor"]
        propose_calls = calls["propose"]
        metrics = {
            "run_round.busy_s": per_op(busy["run_round"]),
            "run_round.self_s": per_op(own["run_round"]),
            "round_s_p50": statistics.median(rounds) if rounds else 0.0,
            "round_s_max": max(rounds) if rounds else 0.0,
            "collect_proposals.self_s": per_op(own["collect_proposals"]),
            "exec_round.busy_s": per_op(busy["exec_round"]),
            "exec_round.self_s": per_op(own["exec_round"]),
            "sample_episode.busy_s": per_op(busy["sample_episode"]),
            "ground_truth_success_prob.busy_s": per_op(busy["ground_truth_success_prob"]),
            "streams.substream.busy_s": per_op(busy["streams.substream"]),
            "utility.select_executor.busy_s": per_op(busy["utility.select_executor"]),
            "utility.select_skills.busy_s": per_op(busy["utility.select_skills"]),
            "utility.select_skills.scanned": per_op(c["utility.select_skills.scanned"]),
            "world.episodes": per_op(calls["sample_episode"]),
            "world.phases": per_op(phases),
            "world.us_per_phase": busy["exec_round"] / phases * 1e6 if phases else 0.0,
            "propose.busy_s": per_op(busy["propose"]),
            "propose.calls": per_op(propose_calls),
            "proposals": per_op(c["proposals"]),
            "proposal_yield": c["proposals"] / propose_calls if propose_calls else 0.0,
            "model.cluster_key_map.calls": per_op(calls["model.cluster_key_map"]),
            "model.cluster_key_map.busy_s": per_op(busy["model.cluster_key_map"]),
            "world.realized_catalog.calls": per_op(calls["world.realized_catalog"]),
            "world.realized_catalog.busy_s": per_op(busy["world.realized_catalog"]),
            "skill_evolve.busy_s": per_op(busy["skill_evolve"]),
            **{
                f"actions.{kind}": per_op(c[f"actions.{kind}"])
                for kind in ("create", "refine", "prune", "hold-in-pool", "no-op")
            },
            "update_pool_counters.busy_s": per_op(busy["update_pool_counters"]),
            "apply_skill_delta.busy_s": per_op(busy["apply_skill_delta"]),
            "promote_pool.busy_s": per_op(busy["promote_pool"]),
            "promotions": per_op(c["promotions"]),
            "model.library_entries": statistics.mean(self.library_entries),
            "model.active_skills": statistics.mean(self.active_skills),
            "model.validate_state.busy_s": per_op(busy["model.validate_state"]),
            "learn.busy_s": per_op(busy["learn"]),
            "learn.credited": per_op(c["learn.credited"]),
            "retain.busy_s": per_op(busy["retain"]),
            "retained": per_op(c["retained"]),
            "retain_ratio": c["retained"] / c["retain.episodes"] if c["retain.episodes"] else 0.0,
            "build_artifacts.busy_s": per_op(busy["build_artifacts"]),
            "decide_restructure.busy_s": per_op(busy["decide_restructure"]),
            "apply_restructure.busy_s": per_op(busy["apply_restructure"]),
            "non_keep": per_op(c["non_keep"]),
            "serialize_state.busy_s": per_op(busy["serialize_state"]),
            "snapshot_bytes": per_op(c["snapshot_bytes"]),
            "trace_to_record.busy_s": per_op(busy["trace_to_record"]),
            "trace_log_bytes": per_op(c["trace_log_bytes"]),
            "read_trace_log.busy_s": per_op(busy["read_trace_log"]),
            "read_trace_log.records": per_op(c["read_trace_log.records"]),
            "deserialize_state.busy_s": per_op(busy["deserialize_state"]),
            "cli.run_artifacts.self_s": per_op(own["cli.run_artifacts"]),
            "cli.write_s": per_op(own["cli.write_run_dir"]),
            "trace.op_s": per_op(busy[ROOT_SPAN]),
            "trace.unattributed_s": per_op(own[ROOT_SPAN]),
            "trace.spans": per_op(len(self.start)),
        }
        return metrics

    def write(self, path: Path) -> None:
        """Write every span as tab-separated text, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\trep\tround\n")
            for idx in range(len(self.start)):
                out.write(
                    f"{idx}\t{self.span_names[self.name[idx]]}\t"
                    f"{self.start[idx] - origin:.9f}\t{self.end[idx] - origin:.9f}\t"
                    f"{self.parent[idx]}\t{self.rep[idx]}\t{self.round[idx]}\n"
                )
