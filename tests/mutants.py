"""Apply each mutant below to a copy of the tree and run the test files
named for it; a mutant survives when they all pass.

The fast paths, `world.end_episodes` and `world.walk_episode`, and the
stream rules in `streams.py` test draws against thresholds and read words
at fixed positions (`end_episodes` by first words against integer
thresholds, `streams.word_cut` and `word_window`, and the task cuts and
their bucket table, `Scenario.task_buckets`), and a fault there changes
results only at a rare draw, or only costs a fallback.  The restructuring
predicates in `restructure.py` test recorded values against thresholds,
and a fault there changes a decision only when a value meets its threshold
exactly.  `replay` in `cli.py` reports the first byte where a stored file
and its expected bytes differ, its line and each side's line, and a fault
there shows only for damage at a file's or a line's end.  The route's one
pass in `utility.py` and the shared diagnoses in `retention.py` each stand
for a plainer rule that `tests/test_route_rules.py` states, and a fault
there shows only at an exact tie or for one cause.  `learn`'s one credit
loop in `utility.py` credits an executor once per entry with the union of
its slices' skills, and a fault there shows only for an executor holding
two slices of one episode; `retain`'s labels in `retention.py` test rule
(c) and a retrieval mismatch against thresholds and set sizes, and a fault
there shows only at a threshold or for a slice that used all it selected.
The trace log's index line in `store.py` is joined from a table of
strings, and a fault there shows only against `_ENCODER`'s line.  Skill
evolution in `evolution.py` picks a cluster, a target skill and a split
half by tie-breaks and preferences, drops a repair that changes nothing,
and dedups, holds heavy rewrites in the pool and prunes against
thresholds, and a fault there shows only at an exact tie, for a repair
already in place or at a threshold; so does the merge's attempt count in
`restructure.py`.
`propose` exits before the latent lookup when no library skill is
implicated, and the pool counters skip a shape whose slices used no skill,
and a fault there shows only for a failure with no library skill or a
pooled skill used by pattern alone.  The scenario parser in `store.py`
reads each entry line in one `try`, refuses a repeated entry by one rule,
and keeps two running sums, the task weights' total and each pair's
logit, and a fault there shows only as an input refused at the wrong
line.  Each entry is (file, old text, new
text, test files, kind): `kind` is "fault", which some named test must
catch, or "equivalent: " followed by the reason no test can.  Run from
the repository root:

    python tests/mutants.py

It exits 1 when a fault survives, or when an entry's old text does not
occur exactly once in its file (a refactor must update the list), else 0.
pytest does not collect this file, since its name does not start with
`test_`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WALK_TESTS = ("tests/test_episode_walk.py", "tests/test_stream_tape.py")
STREAM_TESTS = ("tests/test_streams.py", "tests/test_stream_tape.py", "tests/test_episode_walk.py")
RESTRUCTURE_TESTS = ("tests/test_restructure.py",)
REPLAY_TESTS = ("tests/test_replay_stream.py", "tests/test_cli.py")
RULE_TESTS = ("tests/test_route_rules.py",)
CODEC_TESTS = ("tests/test_trace_codec.py",)
EVOLUTION_TESTS = ("tests/test_evolution.py",)
UTILITY_TESTS = ("tests/test_utility.py",)
RETENTION_TESTS = ("tests/test_retention.py",)
PARSER_TESTS = ("tests/test_store.py",)
WORLD = "src/skillmas/world.py"
STREAMS = "src/skillmas/streams.py"
RESTRUCTURE = "src/skillmas/restructure.py"
CLI = "src/skillmas/cli.py"
UTILITY = "src/skillmas/utility.py"
RETENTION = "src/skillmas/retention.py"
STORE = "src/skillmas/store.py"
EVOLUTION = "src/skillmas/evolution.py"

MUTANTS: tuple[tuple[str, str, str, tuple[str, ...], str], ...] = (
    # end_episodes: the columns of a chunk's first blocks, read by their first words
    (WORLD, "for a in w[0::16]", "for a in w[1::16]", WALK_TESTS, "fault"),
    # the task draw: a first word's bucket, or at -1 the bisection of its draw's x
    (WORLD, "buckets[a >> 20]", "buckets[a >> 21]", WALK_TESTS, "fault"),
    (WORLD, "w[16 * k + 1] >> 6)", "w[16 * k + 3] >> 6)", WALK_TESTS, "fault"),
    (WORLD, "(w[16 * k] >> 5) << 26", "(w[16 * k] >> 5) << 27", WALK_TESTS, "fault"),
    (WORLD, "explore_below, greedy_from = word_window(word_cut(scenario.routing_noise))",
     "explore_below = greedy_from = word_window(word_cut(scenario.routing_noise))[0]",
     WALK_TESTS, "fault"),
    (WORLD, "observed = [0 if c < observe_lo else", "observed = [0 if c <= observe_lo else",
     WALK_TESTS, "fault"),
    (WORLD, "for r, s in zip(w[2::16], w[4::16])", "for r, s in zip(w[2::16], w[5::16])",
     WALK_TESTS, "fault"),
    (WORLD, "stop = min(first + CHUNK, episodes.stop)",
     "stop = min(first + CHUNK - 1, episodes.stop)", WALK_TESTS, "fault"),
    # end_episodes: each table's ending at its greedy first step
    (WORLD, "                    if s >= hi:", "                    if s > hi:", WALK_TESTS,
     "fault"),
    (WORLD, "else (4, None, 5)", "else (4, 4, 5)", WALK_TESTS, "fault"),
    (WORLD, "elif s < lo and single:", "elif s < lo:", WALK_TESTS, "fault"),
    (WORLD, "                if s is not None:", "                if s is not None and False:",
     WALK_TESTS, "fault"),
    # end_episodes: an exploring phase 0, its executor tried from word 4
    (WORLD, "explore_below, greedy_from = word_window(word_cut(scenario.routing_noise))",
     "explore_below = greedy_from = word_window(word_cut(scenario.routing_noise))[1]",
     WALK_TESTS, "fault"),
    (WORLD, "if w[k + 2] < explore_below:", "if w[k + 2] <= explore_below:", WALK_TESTS,
     "fault"),
    (WORLD, "(pair, route.eligible, 32 - n.bit_length(),",
     "(pair, route.eligible, 31 - n.bit_length(),", WALK_TESTS, "fault"),
    (WORLD, "if x < len(eligible):", "if x <= len(eligible):", WALK_TESTS, "fault"),
    (WORLD, "s, c = w[j + 1], w[j + 3]", "s, c = w[j], w[j + 3]", WALK_TESTS, "fault"),
    (WORLD, "s, c = w[j + 1], w[j + 3]", "s, c = w[j + 2], w[j + 3]", WALK_TESTS, "fault"),
    (WORLD, "s, c = w[j + 1], w[j + 3]", "s, c = w[j + 1], w[j + 2]", WALK_TESTS, "fault"),
    (WORLD, "seen = 0 if c < observe_lo else", "seen = 0 if c <= observe_lo else", WALK_TESTS,
     "fault"),
    # the last try at word k + 12: at k + 13 the cause is read from the next
    # episode's word 0; at k + 11 an episode the first words decide is
    # walked, which the walk spies see
    (WORLD, "for j in range(k + 4, k + 13):", "for j in range(k + 4, k + 14):", WALK_TESTS,
     "fault"),
    (WORLD, "for j in range(k + 4, k + 13):", "for j in range(k + 4, k + 12):",
     ("tests/test_stream_tape.py",), "fault"),
    # end_episodes: walked episodes
    (WORLD, "words = lists[i] = list(w[k : k + 16])", "words = lists[i] = list(w[k : k + 15])",
     WALK_TESTS, "fault"),
    (WORLD, "words = lists.get(i)", "words = None", WALK_TESTS, "fault"),
    (WORLD, "word_random(words, pos, blocks, i) < confidence",
     "word_random(words, pos, blocks, i) <= confidence", WALK_TESTS, "fault"),
    (WORLD, "completed = len(slices) - (end != 3)", "completed = len(slices) - (end == 5)",
     WALK_TESTS, "fault"),
    # walk_episode
    (WORLD, "        if word_random(words, pos, blocks, episode) < epsilon:",
     "        if word_random(words, pos, blocks, episode) <= epsilon:", WALK_TESTS, "fault"),
    (WORLD, "        if not u < slot.success_prob:", "        if not u <= slot.success_prob:",
     WALK_TESTS, "fault"),
    (WORLD, "            executor_id = route.greedy\n            pos += 2",
     "            executor_id = route.greedy\n            pos += 1", WALK_TESTS, "fault"),
    (WORLD, "    slices: tuple[ExecutorSlice, ...] = ()\n    pos = 2",
     "    slices: tuple[ExecutorSlice, ...] = ()\n    pos = 4", WALK_TESTS, "fault"),
    # end_episodes: a first word in a window, and the task cuts
    (WORLD, "elif s < lo and single:", "elif s <= lo and single:", WALK_TESTS, "fault"),
    (STREAMS, "bisect_left(range(2**53 + 1), True,", "bisect_left(range(1, 2**53 + 1), True,",
     STREAM_TESTS, "fault"),
    # the task buckets: a position fills the buckets its cuts' span covers
    # whole, and the rest hold -1
    (WORLD, "lo, hi = -(-e >> 41), f >> 41", "lo, hi = e >> 41, f >> 41", STREAM_TESTS,
     "fault"),
    (WORLD, "lo, hi = -(-e >> 41), f >> 41", "lo, hi = -(-e >> 41), (f >> 41) + 1",
     STREAM_TESTS, "fault"),
    (WORLD, "lo, hi = -(-e >> 41), f >> 41", "lo, hi = -(-e >> 40), f >> 40", STREAM_TESTS,
     "fault"),
    (WORLD, "buckets = [-1] * 4096", "buckets = [-2] * 4096", STREAM_TESTS, "fault"),
    # the stream rules
    (STREAMS, "    while pos + 2 > len(words):", "    if pos + 2 > len(words):", STREAM_TESTS,
     "equivalent: readers read in order, so a draw starts at most at the list's end and one "
     "more block always holds its two words"),
    (STREAMS, "    return ((words[pos] >> 5) * 67108864.0",
     "    return ((words[pos] >> 6) * 67108864.0", STREAM_TESTS, "fault"),
    (STREAMS, "    shift = 32 - n.bit_length()", "    shift = 31 - n.bit_length()",
     STREAM_TESTS, "fault"),
    (STREAMS, "        if value < n:", "        if value <= n:", STREAM_TESTS, "fault"),
    (STREAMS, "        if pos >= len(words):", "        if pos > len(words):", STREAM_TESTS,
     "fault"),
    (STREAMS, "for episode in range(first, first + count):",
     "for episode in range(first, first + count - 1):", STREAM_TESTS, "fault"),
    (STREAMS, 'if sys.byteorder == "big":', 'if sys.byteorder == "little":', STREAM_TESTS,
     "fault"),
    (STREAMS, "    return math.ceil(threshold", "    return math.floor(threshold", STREAM_TESTS,
     "fault"),
    (STREAMS, "    lo = (cut >> 26) << 5", "    lo = ((cut >> 26) << 5) + 1", STREAM_TESTS,
     "fault"),
    (STREAMS, "    lo = (cut >> 26) << 5", "    lo = ((cut >> 26) << 5) - 1", STREAM_TESTS,
     "fault"),
    # the trace log's index line, joined from the entries' strings
    (STORE, "ids = list(map(str, range(len(batch.shapes))))",
     "ids = list(map(str, range(1, len(batch.shapes) + 1)))", CODEC_TESTS, "fault"),
    # the restructuring predicates, each at its threshold
    (RESTRUCTURE, 'e["value"] < ev["weak_utility"]', 'e["value"] <= ev["weak_utility"]',
     RESTRUCTURE_TESTS, "fault"),
    (RESTRUCTURE, 'gap < ev["merge_gap"]', 'gap <= ev["merge_gap"]', RESTRUCTURE_TESTS,
     "fault"),
    (RESTRUCTURE, 'ev["utility"] < ev["weak_utility"]', 'ev["utility"] <= ev["weak_utility"]',
     RESTRUCTURE_TESTS, "fault"),
    (RESTRUCTURE, 'ev["count"] >= ev["min_count"]', 'ev["count"] > ev["min_count"]',
     RESTRUCTURE_TESTS, "fault"),
    # a merge's consolidation keeps the copy with the higher best utility
    (RESTRUCTURE, "best[sid] = max(value, best.get(sid, value))",
     "best[sid] = min(value, best.get(sid, value))", RESTRUCTURE_TESTS, "fault"),
    # replay's report: the first differing byte, its line and each side's line
    (CLI, "min(len(stored), len(expected))", "max(len(stored), len(expected))", REPLAY_TESTS,
     "fault"),
    (CLI, 'line = stored.count(b"\\n", 0, byte) + 1', 'line = stored.count(b"\\n", 0, byte)',
     REPLAY_TESTS, "fault"),
    (CLI, 'line = stored.count(b"\\n", 0, byte) + 1',
     'line = stored.count(b"\\n", 0, byte + 1) + 1', REPLAY_TESTS, "fault"),
    (CLI, "if byte >= len(data):", "if byte > len(data):", REPLAY_TESTS, "fault"),
    # replay's comparison: each piece at its offset, and each file's end
    (CLI, "if data[at:end] != piece or (rel != TRACE_LOG and len(data) != end):",
     "if data[at:end] != piece:", REPLAY_TESTS, "fault"),
    (CLI, "        if len(log) != matched[TRACE_LOG]:", "        if False:", REPLAY_TESTS,
     "fault"),
    (CLI, "_diverge(rel, data, data[:at] + piece)", "_diverge(rel, data, piece)", REPLAY_TESTS,
     "fault"),
    # the route's one pass: the highest value, the smallest id on ties
    (UTILITY, "if v > best or v == best and eid < greedy:",
     "if v >= best or v == best and eid < greedy:", RULE_TESTS, "fault"),
    (UTILITY, "if v > best or v == best and eid < greedy:",
     "if v > best or v == best and eid > greedy:", RULE_TESTS, "fault"),
    # one shared diagnosis per cause, its tag from TAG_BY_CAUSE
    (RETENTION, "{cause: Diagnosis(cause, tag) for cause, tag in TAG_BY_CAUSE.items()}",
     "{cause: Diagnosis(cause, BoundedTag.REORDER_STEP if cause is "
     "CauseLabel.MISSING_PRECONDITION else tag) for cause, tag in TAG_BY_CAUSE.items()}",
     RULE_TESTS, "fault"),
    # a merge needs min_count attempts of each executor, met at the threshold
    (RESTRUCTURE, "min(ea[1], eb[1]) >= config.min_count", "min(ea[1], eb[1]) > config.min_count",
     RESTRUCTURE_TESTS, "fault"),
    # skill evolution: a motif joins the first of its equally near clusters
    (EVOLUTION, "if sim > best_sim:", "if sim >= best_sim:", EVOLUTION_TESTS, "fault"),
    # a repair targets a skill covering the failing pair when there is one
    (EVOLUTION, "if pair in skill.applicability:", "if pair not in skill.applicability:",
     EVOLUTION_TESTS, "fault"),
    # a split gives the latent step to the half holding the failing pair, or
    # adds it to the one-pair skill it isolates
    (EVOLUTION, "pair in half", "pair not in half", EVOLUTION_TESTS, "fault"),
    (EVOLUTION, "    if latent is not None and latent.id not in steps:\n"
     "        steps = steps + (latent.id,)\n    return ()",
     "    if latent is not None and latent.id in steps:\n"
     "        steps = steps + (latent.id,)\n    return ()", EVOLUTION_TESTS, "fault"),
    # a repair that changes nothing proposes nothing
    (EVOLUTION, "return None if edited == skill else edited", "return edited", EVOLUTION_TESTS,
     "fault"),
    # dedup, the heavy-rewrite hold and prune, each at its threshold
    (EVOLUTION, "len(before ^ edit.tokens()) > len(before) / 2",
     "len(before ^ edit.tokens()) >= len(before) / 2", EVOLUTION_TESTS, "fault"),
    (EVOLUTION, "jaccard(tokens, index.tokens[sid]) >= threshold",
     "jaccard(tokens, index.tokens[sid]) > threshold", EVOLUTION_TESTS, "fault"),
    (EVOLUTION, "jaccard(tokens, motif_tokens(card.template_skill)) >= threshold",
     "jaccard(tokens, motif_tokens(card.template_skill)) > threshold", EVOLUTION_TESTS,
     "fault"),
    (EVOLUTION, "count < config.prune_min_count", "count <= config.prune_min_count",
     EVOLUTION_TESTS, "fault"),
    (EVOLUTION, "value >= config.prune_max_utility", "value > config.prune_max_utility",
     EVOLUTION_TESTS, "fault"),
    # the scenario parser: one repeated-entry rule, each refusal at its line
    (STORE, "if seen in lines:", "if seen in ():", PARSER_TESTS, "fault"),
    (STORE, "raise ScenarioError(str(exc), lineno) from None",
     "raise ScenarioError(str(exc), lineno + 1) from None", PARSER_TESTS, "fault"),
    # the running sums, each refused at the line where it overflows
    (STORE, '        check_range("cumulative_weights", self.total)\n', "        pass\n",
     PARSER_TESTS, "fault"),
    (STORE, "        add_effect(self.logits, self.latents[key])\n", "        pass\n",
     PARSER_TESTS, "fault"),
    # learn's one credit loop: each executor once per entry, with the union
    # of its slices' skills, and a failure's episodes as attempts only
    (UTILITY, "if j and any(earlier.executor == eid for earlier in slices[:j]):",
     "if False:", UTILITY_TESTS, "fault"),
    (UTILITY, "won = shape.outcome * seen", "won = seen", UTILITY_TESTS, "fault"),
    # retention's labels: a weak executor below low_estimate with an attempt,
    # and a retrieval mismatch by the sizes of a slice's selected and used skills
    (RETENTION, "and entry[1] >= 1", "and entry[1] > 1", RETENTION_TESTS, "fault"),
    (RETENTION, "ratio(*entry) < low_estimate", "ratio(*entry) <= low_estimate",
     RETENTION_TESTS, "fault"),
    (RETENTION, "len(sl.selected) > len(used_skills(sl))",
     "len(sl.selected) >= len(used_skills(sl))", RETENTION_TESTS, "fault"),
    # propose exits before the latent lookup when no library skill is implicated
    (EVOLUTION, "    if implicated is None:  # no library skill to repair, so no latent to look "
     "up\n        return None\n", "    if implicated is None:  # no library skill to repair, "
     "so no latent to look up\n        pass\n", EVOLUTION_TESTS, "fault"),
    # the pool counters skip only a shape whose slices used no skill
    (EVOLUTION, "for sl in shape.slices if sl.invoked or sl.pattern_supported]",
     "for sl in shape.slices if sl.invoked]", EVOLUTION_TESTS, "fault"),
)


def survives(tree: Path, tests: tuple[str, ...]) -> bool:
    """Whether every test in `tests` passes on `tree`.  No bytecode is
    written: a mutant of the same size as its source, written within the
    same second, would otherwise load the other's cached code."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=tree, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
    )
    return result.returncode == 0


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree / "pyproject.toml")
        for file, old, new, tests, kind in MUTANTS:
            path = tree / file
            text = path.read_text(encoding="utf-8")
            where = f"{file}: {old.strip().splitlines()[-1].strip()!r}"
            where += f" -> {new.strip().splitlines()[-1].strip()!r}"
            if text.count(old) != 1:
                failures += 1
                print(f"STALE     {where}: old text occurs {text.count(old)} times")
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                survived = survives(tree, tests)
            finally:
                path.write_text(text, encoding="utf-8")
            if kind == "fault" and survived:
                failures += 1
                print(f"SURVIVED  {where}")
            elif kind == "fault":
                print(f"killed    {where}")
            else:
                outcome = "survived" if survived else "killed"
                print(f"{outcome:<9} {where} ({kind})")
    print(f"{len(MUTANTS)} mutants, {failures} failing")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
