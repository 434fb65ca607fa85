from __future__ import annotations

import ast
import math
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import skillmas
from skillmas.model import TaskType
from skillmas.numfmt import q12
from skillmas.presets import PRESETS, load_preset
from skillmas.streams import derive_seed, episode_blocks, word_cut, word_random, word_window
from skillmas.world import Scenario


def test_derived_seeds_are_stable():
    # frozen golden values: a change here breaks every stored run directory
    assert derive_seed(42, "round", 0) == 12853656514080773260
    assert derive_seed(42, "round", 1) == 16508499070446382160
    assert derive_seed(0, "episode", 0) == 956371825871241519


def test_label_paths_do_not_collide_on_concatenation():
    assert derive_seed("ab", "c") != derive_seed("a", "bc")
    assert derive_seed(1, 23) != derive_seed(12, 3)


def test_substreams_reproduce():
    a = [episode_blocks(7)(i, 0) for i in range(5)]
    b = [episode_blocks(7)(i, 0) for i in reversed(range(5))][::-1]
    assert a == b
    assert len({tuple(words) for words in a}) == 5


def test_q12_fixed_point_round_trip():
    for value in (0.0, 1.0, 0.5, 2 / 3, 1 / 7, 0.123456789012345, 1e-9):
        quantized = q12(value)
        assert float(repr(quantized)) == quantized
        assert q12(quantized) == quantized
        assert abs(quantized - value) <= max(1e-12, abs(value) * 5e-12)


def test_fmt_examples():
    # a quantized value is written (json, repr) as its 12-digit decimal
    assert repr(q12(0.5)) == "0.5"
    assert repr(q12(2 / 3)) == "0.666666666667"
    assert repr(q12(13 / 49)) == "0.265306122449"
    assert repr(q12(1.0)) == "1.0"


def test_no_engine_module_imports_random():
    # episode streams are hash blocks: no engine code reads a generator
    imported = set()
    for path in Path(skillmas.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [a.name for a in node.names]
                imported |= {(path.name, name.split(".")[0]) for name in names}
    assert imported and not {(f, m) for f, m in imported if m in ("random", "_random")}


def cut_thresholds():
    """Thresholds at the ends of [0, 1], at 0.5, at the presets' 0.1 and 0.9,
    each with its `nextafter` neighbours, or any float in [0, 1]."""
    fixed = [0.0, 2.0**-53, 0.5, 1.0, 0.1, 0.9]
    near = [math.nextafter(t, d) for t in fixed for d in (0.0, 1.0)]
    return st.sampled_from(sorted({t for t in fixed + near if 0.0 <= t <= 1.0})) | st.floats(0.0, 1.0)


@settings(max_examples=400, deadline=None)
@given(cut_thresholds(), st.sampled_from([-1, 0, 31, 32]), st.integers(0, 2**32 - 1))
def test_first_word_decides_a_threshold_outside_its_window(threshold, edge, second):
    """`word_random(words, pos) < t` holds exactly when the draw's 53-bit
    integer is below T = word_cut(t); a first word below the window is below
    t, one at or above its end is not, and one in it leaves the decision to
    the two words' integer.  First words sit at lo - 1, lo, hi - 1 and hi."""
    cut = word_cut(threshold)
    lo, hi = word_window(cut)
    first = lo + edge
    assume(0 <= first < 2**32)
    below = word_random([first, second], 0, None, 0) < threshold
    assert below == (((first >> 5) << 26 | second >> 6) < cut)
    if first < lo:
        assert below
    elif first >= hi:
        assert not below


def weighted_scenario(weights):
    tasks = tuple(TaskType(f"t{j}", ("p",)) for j in range(len(weights)))
    return Scenario(
        name="cuts",
        task_types=tasks,
        task_weights={t.id: w for t, w in zip(tasks, weights)},
        base_difficulty={},
    )


CUT_WEIGHTS = {
    "equal96": [1.0] * 96,
    "uneven": [0.5, 3.25, 1e-9, 7.0, 0.1, 2.0**-30, 11.0],
    "rounding": [0.1, 0.2, 0.3, 0.7, 1.1],  # cumulative 0.1 + 0.2 != 0.3, total rounds
    "close": [1.0, 2.0**-40, 2.0**-40, 1.0],  # cuts sharing one window
}


@pytest.mark.parametrize("name", CUT_WEIGHTS)
def test_task_cuts_bisect_as_the_weights_do(name):
    """At k = K_j - 1 and K_j, and at both ends, `bisect_right(task_cuts, k)`
    is the task position the draw `k * 2**-53` picks from the cumulative
    weights.  A first word at either end of a bucket whose `task_buckets`
    entry is not -1 picks that entry from the cumulative weights, whatever
    the second word."""
    scenario = weighted_scenario(CUT_WEIGHTS[name])
    cumulative = scenario.cumulative_weights
    total = cumulative[-1]
    cuts = scenario.task_cuts
    assert list(cuts) == sorted(cuts) and len(cuts) == len(cumulative)
    ks = {0, 2**53 - 1} | {k for cut in cuts for k in (cut - 1, cut) if 0 <= k < 2**53}
    for k in ks:
        assert bisect_right(cuts, k) == bisect_right(cumulative, k * 2.0**-53 * total)

    if name == "close":  # cuts in one window, so in one bucket
        assert len({cut >> 41 for cut in cuts}) < len(cuts)
    for b, position in enumerate(scenario.task_buckets):
        if position == -1:
            continue
        for first in (b * WORDS, (b + 1) * WORDS - 1):
            for second in (0, 2**32 - 1):
                u = word_random([first, second], 0, None, 0)
                assert position == bisect_right(cumulative, u * total), (b, first, second)


WORDS = 2**20  # the first words a `task_buckets` entry covers, by their top 12 bits
BUCKET = 2**41  # the draws x it covers, x >> 41 being the first word's top 12 bits
BUCKET_WEIGHTS = {
    **CUT_WEIGHTS,
    "subnormal": [2.0**-1074, 1.0, 3 * 2.0**-1074, 1e-300],
    "edge": [0.25, 0.75],  # the cut 2**51: bucket 1024's first draw
    "wide5000": [1.0 + k % 7 for k in range(5000)],  # more tasks than buckets
}


def check_buckets(scenario: Scenario) -> None:
    """Each of the 4096 `task_buckets` entries is -1 exactly when a cut
    falls strictly inside its bucket of draws x; any other entry is
    `bisect_right(task_cuts, x)` at the bucket's first and last x, and at
    each cut - 1, + 0 and + 1 in it."""
    cuts = scenario.task_cuts
    buckets = scenario.task_buckets
    assert len(buckets) == 4096
    inside = {x // BUCKET for x in cuts if x % BUCKET and x < 2**53}
    assert {b for b, t in enumerate(buckets) if t == -1} == inside
    xs = {x for b in range(4096) for x in (b * BUCKET, (b + 1) * BUCKET - 1)}
    xs |= {x + d for x in cuts for d in (-1, 0, 1) if 0 <= x + d < 2**53}
    for x in xs:
        if (t := buckets[x >> 41]) != -1:
            assert t == bisect_right(cuts, x), x


@pytest.mark.parametrize("name", [*PRESETS, *BUCKET_WEIGHTS])
def test_task_buckets_of_presets_and_named_weights(name):
    scenario = (
        load_preset(name).scenario if name in PRESETS else weighted_scenario(BUCKET_WEIGHTS[name])
    )
    if name == "edge":
        assert 1024 * BUCKET in scenario.task_cuts
    check_buckets(scenario)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(2.0**-1074, 1e300) | st.sampled_from([2.0**-1074, 1e-9, 0.25, 1.0]),
                min_size=1, max_size=40))
def test_task_buckets_of_any_weights(weights):
    check_buckets(weighted_scenario(weights))
