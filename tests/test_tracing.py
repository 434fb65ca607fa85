"""The benchmark's span tracer runs around the engine and changes nothing.

`perfbench/tracing.py` wraps engine functions by name, in the modules their
callers look them up in, and its hooks read some of their results:
`promote_pool`'s outcomes, `skill_evolve`'s actions, `learn`'s tables and
`run_round`'s next state.  A refactor that reshapes one of them breaks
`perfbench/run.py --trace 1`; here a library experiment and a `skillmas
run` each run traced and untraced and must give the same bytes.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import skillmas
import skillmas.cli  # the tracer wraps names in the loaded modules
from skillmas.cli import main
from skillmas.presets import load_preset
from skillmas.store import serialize_state

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def spans(traced) -> list[str]:
    return [traced.span_names[n] for n in traced.name]


def experiment() -> tuple[str, list[str]]:
    pack = load_preset("mismatch")
    config = pack.config.replace(episodes_per_round=60)
    # looked up on the package at call time, where the tracer installs its wrapper
    result = skillmas.run_experiment(pack.scenario, pack.seed_state, 7, 3, config)
    return result.report.to_json(), [serialize_state(s) for s in result.states]


def test_traced_experiment_matches_untraced():
    untraced = experiment()
    traced = tracer()
    with traced.traced(0):
        assert experiment() == untraced
    names = spans(traced)
    for hooked in ("run_round", "learn", "skill_evolve", "promote_pool"):
        assert names.count(hooked) == 3, hooked


def run_files(out: Path) -> dict[str, bytes]:
    argv = ["run", "--scenario", "preset:tiny", "--seed", "5", "--rounds", "2",
            "--out", str(out), "--quiet"]
    assert main(argv) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def test_traced_cli_run_matches_untraced(tmp_path):
    untraced = run_files(tmp_path / "untraced")
    traced = tracer()
    with traced.traced(0):
        assert run_files(tmp_path / "traced") == untraced
    names = spans(traced)
    assert names.count("run_round") == 2
    assert names.count("serialize_state") == 3  # the seed state and one per round
