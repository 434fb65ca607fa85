"""The episode walk: draws decided in place, a fallback at a block's end,
and episodes that end at their table entry.

`world.end_episodes` is the one fast path, for adaptation and frozen
evaluation alike.  It derives the first blocks of `CHUNK` episodes at a
time, decides the task draw (words 0-1, from the bucket table or the task
cuts) and phase 0's draws from their first words once for all its tables,
an exploring phase 0's executor draw by `word_randrange`'s rule on the
words of block 0, and hands every episode
that goes on past phase 0, has a first word in its threshold's window, or
has every executor try in block 0 rejected, to `world.walk_episode`.  The
walk reads every draw by a call to `streams.word_random` or
`word_randrange`, which append the next block past the episode's list.  Each episode ends at the shape its last trie step
holds.  These tests pin the first-word decisions to the word rule at every
window's edges, and every draw to it at every position of a block where a
draw can start, on every run; they run the fallback on streams that cross
a block's end, run rounds on either side of a chunk's end, and count what
a round builds and derives.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import skillmas.world as world
from skillmas.config import EngineConfig
from skillmas.model import (
    CauseLabel,
    Executor,
    ExecutorSlice,
    TaskType,
    TraceShape,
    UtilityTable,
)
from skillmas.presets import load_preset
from skillmas.store import parse_scenario, trace_to_record
from skillmas.streams import episode_blocks, word_cut, word_random, word_window
from skillmas.world import (
    CHUNK,
    ExecutionTable,
    LatentSkill,
    PhaseSlot,
    Scenario,
    end_episodes,
    exec_round,
    exec_shared,
)

import reference
from conftest import NOISY, episode_shape, make_state
from reference import episodes_of, reference_blocks, reference_exec_round
from test_round_index import random_world
from test_stream_tape import counted_blocks, counted_walks, undecided, undecided_walks

TOP = 0xFFFFFFFF  # read in place as 1 - 2**-53, and rejected by every word_randrange(n)
WORD = st.integers(0, TOP)
# 32 words whose draws at every probe lie strictly inside (0, 1 - 2**-53)
SPREAD = [(0x9E3779B9 * (k + 1)) & TOP for k in range(32)]


def routing_words(length: int) -> list[int]:
    """The words of a routing draw that spends `length` words, for an
    exploration rate in (0, 1): greedy for two, else explore (a draw of 0),
    reject `length - 3` words and take executor index 0."""
    if length == 2:
        return [TOP, TOP]
    return [0, 0] + [TOP] * (length - 3) + [0]


# (draw, position of its first word): every place in the first block where
# the task draw, a routing draw or a success draw can start with both its
# words in the block; `later` draws after greedy phases only, in the first
# block and past it; and the `cause` draw after greedy phases, the last of
# which fails
PROBES = (
    [("task", 0), ("route", 2)]
    + [("route", p) for p in range(6, 15)]
    + [("success", p) for p in range(4, 15)]
    + [("later", p) for p in (8, 10, 12, 14, 16, 18, 20)]
    + [("cause", p) for p in (6, 10, 14, 18)]
)


def drawn(kind: str, p: int) -> str:
    """What a probe draws: a `later` draw at word p is phase (p - 2) // 4's
    routing draw when p - 2 is a multiple of 4, else its success draw."""
    if kind != "later":
        return kind
    return "route" if p % 4 == 2 else "success"


def probe_world(kind: str, p: int, words: list[int], threshold: float):
    """A world whose walk makes its `kind` draw at word `p` of `words` and
    compares it with `threshold`.  Every other success draw is certain, and
    the stream's first 32 words are `words`, with the steering words set."""
    words = list(words)
    weights = {"a": 1.0}
    epsilon = 0.5
    confidence = 0.9
    probability = {}
    phases = ("p0",)
    if kind == "task":
        weights = {"a": threshold, "b": 1.0 - threshold}  # exactly 1.0 for a threshold >= 0.5
        probability = {("b", "p0"): 0.0}  # b fails at phase 0, so it ends in place from any route
    elif kind == "later":  # certain phases first, each routed greedy
        phases = tuple(f"p{j}" for j in range((p - 2) // 4 + 1))
        for q in range(2, p, 4):
            words[q : q + 2] = routing_words(2)
        if drawn(kind, p) == "route":
            epsilon = threshold
            words[p + 2] = 1 << 30
        else:
            probability = {("a", phases[-1]): threshold}
    elif kind == "cause":  # certain phases first, each routed greedy, then one that fails
        phases = tuple(f"p{j}" for j in range((p - 2) // 4))
        for q in range(2, p - 2, 4):
            words[q : q + 2] = routing_words(2)
        probability = {("a", phases[-1]): 0.0}
        confidence = threshold
    elif kind == "route":
        epsilon = threshold
        if p > 2:  # a certain phase first
            phases = ("p0", "p1")
            words[2 : p - 2] = routing_words(p - 4)
        words[p + 2] = 1 << 30  # exploring draws executor index 1 of 2
    else:
        words[2:p] = routing_words(p - 2)
        probability = {("a", "p0"): threshold}
    tasks = (TaskType("a", phases), TaskType("b", ("p0",)))
    scenario = Scenario(
        name="probe",
        task_types=tasks[: len(weights)],
        task_weights=weights,
        base_difficulty={},
        routing_noise=epsilon,
        cause_confidence=confidence,
    )
    state = make_state(tasks=tasks[: len(weights)])

    def fill(table, pair, executor):
        slice_ = ExecutorSlice(executor.id, pair[1], frozenset(), frozenset(), frozenset())
        if drawn(kind, p) == "route" and pair == ("a", phases[-1]):
            # the probed phase fails exactly when it explores, so outcomes show the route
            return PhaseSlot(slice_, float(executor.id == table.route(pair).greedy), None)
        if kind == "cause" and pair == ("a", phases[-1]):
            return PhaseSlot(slice_, 0.0, (CauseLabel.WRONG_ACTION_ORDER, 1.0))
        return PhaseSlot(slice_, probability.get(pair, 1.0), None)

    def blocks(first, index, count=1):
        # every episode's stream is `words`, then zeros
        return (words[16 * index : 16 * index + 16] if index < 2 else [0] * 16) * count

    return scenario, state, EngineConfig(), fill, blocks


def run_probe(kind: str, p: int, words: list[int], threshold: float, walks: bool) -> None:
    """Run a probe's episode on two tables of one state, and check its shape
    against `word_random(words, p) < threshold`.  With `walks` false, the
    episode must end in place, with no walk."""
    below = word_random(list(words), p, None, 0) < threshold
    scenario, state, config, fill, blocks = probe_world(kind, p, words, threshold)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExecutionTable, "_fill", fill)
        # a second table of the same state reads the same shared draws
        table, twin = (ExecutionTable(state, scenario, config) for _ in range(2))
        if not walks:
            patch.setattr(world, "walk_episode", None)
        [k], [j] = end_episodes([table, twin], blocks, range(1))
    shape = table.shapes[k]
    assert trace_to_record(twin.shapes[j]) == trace_to_record(shape)
    greedy = [s.executor == table.route(("a", s.phase)).greedy for s in shape.slices]
    if kind == "later":  # every phase before the probed one routed greedy
        assert len(shape.slices) == (p - 2) // 4 + 1 and all(greedy[:-1])
    if kind == "cause":  # every phase routed greedy, and the last failed
        assert len(shape.slices) == (p - 2) // 4 and all(greedy) and shape.outcome == 0
        # below the observation probability observes the deficit confidently
        want = (CauseLabel.WRONG_ACTION_ORDER, True) if below else (CauseLabel.UNKNOWN, False)
        observed = shape.latent_cause_observation
        assert (observed.cause, observed.confident) == want
    elif kind == "task":  # below the first task's weight picks it
        assert shape.task_type.id == ("a" if below else "b")
    elif drawn(kind, p) == "route":  # below the exploration rate explores
        route = table.route(("a", shape.slices[-1].phase))
        want = route.eligible[1] if below else route.greedy
        assert route.eligible[1] != route.greedy and shape.slices[-1].executor == want
        assert shape.outcome == int(not below)
    else:  # below the success probability succeeds
        assert shape.outcome == int(below)
        assert greedy[-1] if kind == "later" else len(shape.slices) == 1


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
@pytest.mark.parametrize("probe", PROBES, ids=[f"{kind}{p}" for kind, p in PROBES])
@settings(max_examples=8, deadline=None)
@given(words=st.lists(WORD, min_size=32, max_size=32))
@example(words=SPREAD)
def test_in_place_reads_follow_word_random_at_every_position(probe, above, words):
    """A draw compares with a threshold as `word_random` of the same words
    does: at the value it is not below, one float above it is.  Every probe
    runs at and above its threshold on every run; only the words are drawn.
    A threshold this close to the draw almost always puts the first word in
    its window, so these episodes are walked;
    `test_first_words_decide_phase_0_in_place` probes the first words that
    decide."""
    words = list(words)
    kind, p = probe
    if kind == "task":
        words[0] |= 1 << 31  # a draw in [0.5, 1)
    u = word_random(list(words), p, None, 0)
    assume(0.0 < u < 1.0 - 2.0**-53)
    run_probe(kind, p, words, math.nextafter(u, 1.0) if above else u, walks=True)


# thresholds of every phase-0 draw: the task draw's needs one in [0.5, 1),
# where the second weight 1 - t is exact; the cause draw's one in (0, 1]
THRESHOLDS = {
    "task": [0.5, math.nextafter(0.5, 1.0), 0.6180339887498949, math.nextafter(1.0, 0.0)],
    "route": [0.0, 2.0**-53, 0.1, math.nextafter(0.5, 0.0), 0.5, 1.0],
    "success": [0.0, 2.0**-53, 0.3, 0.5, math.nextafter(0.5, 1.0), 1.0],
    "cause": [2.0**-53, 0.9, math.nextafter(0.5, 0.0), 1.0],
}


def edge_words(threshold: float):
    """(first, second) words at a threshold's window edges, lo - 1, lo,
    hi - 1 and hi, each with a second word of 0, of all ones, and of the
    low bits of T - 1 and of T."""
    cut = word_cut(threshold)
    lo, hi = word_window(cut)
    seconds = [0, TOP] + [(c & (2**26 - 1)) << 6 for c in (cut - 1, cut)]
    return [(a, b) for a in (lo - 1, lo, hi - 1, hi) if 0 <= a <= TOP for b in seconds]


@pytest.mark.parametrize("kind, p", [("task", 0), ("route", 2), ("success", 4), ("cause", 6)])
def test_first_words_decide_phase_0_in_place(kind, p):
    """A phase-0 draw whose first word is outside its threshold's window ends
    the episode in place, as `word_random` decides; one in the window is
    walked, and the second word decides.  An exploring episode here draws
    an executor at word 4 that fails for certain, so it ends in place too."""
    # a task draw runs before a greedy phase 0, and before an exploring one
    routes = (SPREAD[2], 0) if kind == "task" else (SPREAD[2],)
    for threshold in THRESHOLDS[kind]:
        lo, hi = word_window(word_cut(threshold))
        for (a, b), route in itertools.product(edge_words(threshold), routes):
            words = list(SPREAD)
            words[2] = route
            words[p : p + 2] = [a, b]
            run_probe(kind, p, words, threshold, walks=lo <= a < hi)


# single-phase tasks whose cuts 2**50 and 2**51 start buckets 512 and 1024,
# and whose other two fall strictly inside buckets 170 and 2218
TASK_WEIGHTS = [0.1, 0.2, 0.3, 0.7, 1.1]


def task_draw_cases(cuts: tuple[int, ...]) -> list[tuple[int, int]]:
    """(first, second) words of task draws around each cut below 2**53:
    first words at its window's edges and middle, each with a second word
    of 0, of all ones, and of the low bits of K - 1 and of K, and first
    words at the ends of the cut's bucket and next to it."""
    cases = []
    for cut in cuts:
        if cut == 2**53:
            continue
        lo, hi = word_window(cut)
        bucket = cut >> 41
        seconds = [0, TOP] + [(c & (2**26 - 1)) << 6 for c in (cut - 1, cut)]
        cases += [(a, b) for a in (lo - 1, lo, lo + 16, hi - 1, hi) for b in seconds]
        ends = (bucket << 20, (bucket + 1 << 20) - 1, (bucket << 20) - 1, bucket + 1 << 20)
        cases += [(a, b) for a in ends for b in (0, TOP)]
    return [(a, b) for a, b in cases if 0 <= a <= TOP]


def test_every_task_draw_is_decided_in_the_chunk(monkeypatch):
    """Every episode's task is decided from its chunk's columns, first words
    in a bucket a cut falls inside and in a cut's window included, as the
    reference's float draw picks it: on a task that fails at its greedy
    phase 0 with no deficit, no episode is walked.  The cases run in
    consecutive episodes, over a chunk's first and last episodes and into
    the next chunk."""
    tasks = tuple(TaskType(f"t{j}", ("p0",)) for j in range(len(TASK_WEIGHTS)))
    scenario = Scenario(
        name="task-draw",
        task_types=tasks,
        task_weights={t.id: w for t, w in zip(tasks, TASK_WEIGHTS)},
        base_difficulty={pair: -1000.0 for task in tasks for pair in task.pairs()},
        routing_noise=0.0,
    )
    state = make_state(tasks=tasks, round_index=1)
    config = EngineConfig()
    cases = task_draw_cases(scenario.task_cuts)
    windows = [word_window(cut) for cut in scenario.task_cuts]
    assert any(lo <= a < hi for a, _ in cases for lo, hi in windows)
    mixed = {cut >> 41 for cut in scenario.task_cuts if cut % 2**41}
    assert len(mixed) == 2 and any(a >> 20 in mixed for a, _ in cases)
    n = CHUNK + len(cases)

    def make(seed):
        def blocks(first, index, count=1):
            # the task draw's words, then a greedy route and a failing success draw
            return [
                w for i in range(first, first + count)
                for w in ([*cases[i % len(cases)], TOP, TOP, TOP] + [0] * 11 if index == 0
                          else [0] * 16)
            ]

        return blocks

    monkeypatch.setattr(world, "episode_blocks", make)
    monkeypatch.setattr(reference, "reference_blocks", make)
    want = reference_exec_round(state, scenario, n, 5, config, "r0001")
    walked = counted_walks(monkeypatch)
    batch = exec_round(state, scenario, n, 5, config)
    assert episodes_of(batch) == want
    assert walked == []
    assert len({e.task_type.id for e in want}) == len(tasks)


def explore_world(n: int, phases: tuple[str, ...]):
    """One task, `a` with `phases`, whose phase 0 has n eligible executors
    e0 (the manager, routed greedy) to e{n-1}, routing noise 0.5 and an
    unrealized latent there, so a failure at phase 0 has a deficit."""
    task = TaskType("a", phases)
    universe = frozenset(task.pairs())
    scenario = Scenario(
        name="explore",
        task_types=(task,),
        task_weights={"a": 1.0},
        base_difficulty={("a", "p0"): 0.3},
        latent_catalog=(LatentSkill("fix", ("a", "p0"), 1.0, CauseLabel.MISSING_PRECONDITION),),
        routing_noise=0.5,
        cause_confidence=0.9,
    )
    executors = [Executor(f"e{k}", universe, capacity=8, is_manager=k == 0) for k in range(n)]
    return scenario, make_state(executors=executors, tasks=(task,), round_index=1)


def explore_cases(n: int, single: bool, success: tuple, cause: tuple):
    """(name, block 0, walked) for an episode whose routing word 0 explores:
    `word_randrange(n)`'s tries from word 4, the success and cause first
    words one and three words after the one taken, each at its window's
    edges (`success` and `cause` are (lo, hi)), and whether it is walked."""
    shift = 32 - n.bit_length()
    last, over = (n - 1) << shift, n << shift  # the largest value taken, the least rejected
    lo, hi = success
    clo, chi = cause

    def block(tries, s, c, seconds=(0, 0)):
        words = list(SPREAD[:16])
        words[2] = 0
        words[4 : 4 + len(tries)] = tries
        j = 3 + len(tries)  # the word taken
        for k, word in ((j + 1, s), (j + 2, seconds[0]), (j + 3, c), (j + 4, seconds[1])):
            if k < 16:
                words[k] = word
        return words

    def walks(s, c):
        return lo <= s < hi or (s < lo and not single) or (s >= hi and clo <= c < chi)

    for s in (lo - 1, lo, hi - 1, hi):
        yield f"n-1 at word 4, success {s - lo:+}", block([last], s, 0), walks(s, 0)
        for second in (0, TOP):  # after a retried word
            case = block([over, last], s, 0, (second, 0))
            yield f"success {s - lo:+}/{second}", case, walks(s, 0)
    for c in (clo - 1, clo, chi - 1, chi):
        for second in (0, TOP):
            case = block([over, last], hi, c, (0, second))
            yield f"cause {c - clo:+}/{second}", case, walks(hi, c)
    for rejects in (1, 2, 8):
        for s, c in ((lo - 1, 0), (hi, 0), (hi, chi)):
            case = block([TOP] * rejects + [last - (n > 1)], s, c)
            yield f"{rejects} rejected, {s - lo:+} {c - clo:+}", case, walks(s, c)
    # words 4 to 12 rejected: the walk takes word 13, fails at words 14-15
    # and draws the cause from block 1
    yield "words 4-12 rejected", block([over] + [TOP] * 8 + [0], hi, 0), True


@pytest.mark.parametrize("single", [True, False], ids=["one-phase", "two-phase"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exploring_draws_are_decided_from_first_words(n, single):
    """An exploring phase 0 draws its executor by `word_randrange`'s rule on
    words 4 to 12 and its success and cause draws from the first words
    after it, as the reference draws them; the episode is walked exactly
    when a first word is in its window, every try in block 0 is rejected,
    or phase 0 succeeds on a task with more phases."""
    scenario, state = explore_world(n, ("p0",) if single else ("p0", "p1"))
    config = EngineConfig()
    table = ExecutionTable(state, scenario, config)
    success = word_window(word_cut(table.slot(("a", "p0"), "e0").success_prob))
    cause = word_window(word_cut(scenario.cause_confidence))
    cases = list(explore_cases(n, single, success, cause))
    # the routing word at its window's edges, an executor taken at word 4
    rlo, rhi = word_window(word_cut(scenario.routing_noise))
    for route in (rlo - 1, rlo, rhi - 1, rhi):
        for second in (0, TOP):
            words = list(cases[0][1])
            words[2:4] = [route, second]
            cases.append((f"route {route - rlo:+}/{second}", words, None))
    for name, words, walks in cases:
        assert walks in (None, undecided(table, words)), name  # the rule agrees with the case
        walks = undecided(table, words)
        fetched: list = []

        def make(seed):
            def blocks(first, index, count=1):
                fetched.append(index)
                return (words if index == 0 else SPREAD[16:] if index == 1 else [0] * 16) * count

            return blocks

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(world, "episode_blocks", make)
            patch.setattr(reference, "reference_blocks", make)
            want = reference_exec_round(state, scenario, 1, 5, config, "r0001")
            fetched.clear()
            walked = counted_walks(patch)
            if not walks:
                patch.setattr(world, "walk_episode", None)
            batch = exec_round(state, scenario, 1, 5, config)
        assert episodes_of(batch) == want, name
        assert len(walked) == walks, name
        if name == "words 4-12 rejected":
            assert fetched == [0, 1]


def boundary_blocks(rejects: int, fetched: list):
    """`episode_blocks` whose first block of every episode makes the first
    routing draw explore and `word_randrange` reject `rejects` words from
    word 4 on, then accept index 0 while still in the block.  The reads and
    the next success draw run past word 15.  The other words are
    `reference_blocks`'.  Each (episode, block) derived is appended to
    `fetched`, episode by episode over a call's count."""

    def make(seed):
        real = reference_blocks(seed)

        def block(episode, index):
            fetched.append((episode, index))
            words = real(episode, index)
            if index == 0:
                words[2:4] = [0, 0]
                words[4 : 4 + rejects] = [TOP] * rejects
                if 4 + rejects < 16:
                    words[4 + rejects] = 0
            return words

        def blocks(first, index, count=1):
            return [w for episode in range(first, first + count) for w in block(episode, index)]

        return blocks

    return make


@pytest.mark.parametrize("rejects", [10, 11, 12])
@pytest.mark.parametrize("world_seed", range(6))
def test_reads_past_the_first_block_match_the_reference(rejects, world_seed, monkeypatch):
    scenario, state, config = random_world(random.Random(world_seed))
    scenario = dataclasses.replace(scenario, routing_noise=0.8)
    state = dataclasses.replace(state, round_index=1)
    fetched: list = []
    make = boundary_blocks(rejects, fetched)
    # the engine and the per-episode reference read the same streams
    monkeypatch.setattr(world, "episode_blocks", make)
    monkeypatch.setattr(reference, "reference_blocks", make)
    n = 40
    batch = exec_round(state, scenario, n, 5, config)
    # every episode read into its second block
    assert {i for i, b in fetched if b == 1} == set(range(n))
    assert episodes_of(batch) == reference_exec_round(state, scenario, n, 5, config, "r0001")
    if world_seed == 0:  # a world whose walks go on past the block to later phases
        assert any(len(shape.slices) > 1 for shape in batch.shapes)

    states = [state, dataclasses.replace(state, q_exec=UtilityTable())]
    for frozen, shared in zip(states, exec_shared(states, scenario, n, 5, config)):
        assert episodes_of(shared) == reference_exec_round(frozen, scenario, n, 5, config, "r0001")


@pytest.mark.parametrize("noise", [None, 0.0, 1.0])
@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_chunked_rounds_match_the_reference_episode_by_episode(n, noise, monkeypatch):
    # a round's first blocks come CHUNK episodes at a time; every episode,
    # on either side of a chunk's end, is the one the reference draws alone
    pack = parse_scenario(NOISY, name="noisy")
    scenario = pack.scenario
    if noise is not None:
        scenario = dataclasses.replace(scenario, routing_noise=noise)
    state = dataclasses.replace(pack.seed_state, round_index=1)
    walked = counted_walks(monkeypatch)
    batch = exec_round(state, scenario, n, 5, pack.config)
    assert episodes_of(batch) == reference_exec_round(state, scenario, n, 5, pack.config, "r0001")
    walked = [(i, 0) for i, _ in walked]
    # exactly the episodes whose first words leave them undecided are walked
    assert walked == undecided_walks([state], scenario, pack.config, 5, n)
    assert 0 < len(walked) < n
    if noise == 0.0:  # every route is greedy: exactly the episodes past phase 0 are walked
        ends = [batch.shapes[j] for j in batch.index]
        assert walked == [(i, 0) for i, shape in enumerate(ends) if len(shape.slices) >= 2]


@pytest.mark.parametrize("name", ["mismatch", "noisy"])
def test_exec_round_builds_one_shape_per_entry_and_each_first_block_once(name, monkeypatch):
    pack = load_preset(name) if name == "mismatch" else parse_scenario(NOISY, name=name)
    built = []
    init = TraceShape.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TraceShape, "__init__", counting)
    fetched = counted_blocks(monkeypatch)
    batch = exec_round(pack.seed_state, pack.scenario, 400, 17, pack.config)
    assert len(built) == len(batch.shapes)
    assert [i for i, b in fetched if b == 0] == list(range(400))
    assert len(set(fetched)) == len(fetched)
    if name == "noisy":
        assert any(b > 0 for _, b in fetched)


def test_sample_episode_is_the_entry_exec_round_lists(monkeypatch):
    pack = parse_scenario(NOISY, name="noisy")
    tables = []

    class Recorded(ExecutionTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(world, "ExecutionTable", Recorded)
    batch = exec_round(pack.seed_state, pack.scenario, 300, 23, pack.config)
    [table] = tables
    blocks = episode_blocks(23)
    for i in range(300):
        assert episode_shape(table, blocks, i) is batch.shapes[batch.index[i]]
    assert len(table.shapes) == len(batch.shapes)

    # on one fresh table, episode by episode, the same entries in the same order
    fresh = ExecutionTable(pack.seed_state, pack.scenario, pack.config)
    got = [episode_shape(fresh, blocks, i) for i in range(300)]
    assert all(shape is fresh.shapes[k] for shape, k in zip(got, batch.index))
    assert [trace_to_record(s) for s in fresh.shapes] == [trace_to_record(s) for s in batch.shapes]
