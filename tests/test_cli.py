from __future__ import annotations

import gc
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from skillmas import orchestrator
from skillmas.cli import RUN_FORMAT, main
from skillmas.model import StateError
from skillmas.orchestrator import render_breakdown, render_trajectory
from skillmas.presets import PRESETS

from reference import log_rounds
from test_golden import dir_digest


@pytest.fixture
def run_dir(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "run",
            "--scenario", "preset:tiny",
            "--seed", "42",
            "--rounds", "3",
            "--out", str(out),
            "--quiet",
        ]
    )
    assert code == 0
    return out


# a world where the seed skill `sk` gets split; its latent `lq` is line 9
SPLIT_WORLD = """\
[tasks]
t = p p2 | 1.0
u = q | 1.0
[difficulty]
t/p = -1.0
t/p2 = 1.0
u/q = -0.5
[latent]
lq = u/q 2.0 missing-precondition
lx = t/p 2.0 wrong-action-order
[penalties]
interference = 1.1
overload = 0.0
routing-noise = 0.1
cause-confidence = 1.0
[seed-state]
executor manager = * capacity=10 manager
skill sk = owner=manager applies=t/p,t/p2 steps=x
skill sk2 = owner=manager applies=t/p steps=y
[thresholds]
episodes-per-round = 60
prune-min-count = 1000
"""


class TestRun:
    def test_artifacts_on_disk(self, run_dir):
        assert (run_dir / "trajectory.json").exists()
        assert (run_dir / "trajectory.txt").exists()
        assert (run_dir / "checkpoint.json").exists()
        assert (run_dir / "traces.jsonl").exists()
        assert (run_dir / "scenario.scn").exists()
        snapshots = sorted(p.name for p in (run_dir / "snapshots").iterdir())
        assert snapshots == [f"state_r{i:03d}.txt" for i in range(4)]
        trajectory = json.loads((run_dir / "trajectory.json").read_text())
        assert len(trajectory["rounds"]) == 3
        checkpoint = json.loads((run_dir / "checkpoint.json").read_text())
        assert checkpoint["snapshot"].startswith("snapshots/state_r")

    def test_scenario_file_and_config_override(self, tmp_path):
        scn = tmp_path / "world.scn"
        scn.write_text(PRESETS["tiny"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"episodes-per-round": 6}))
        out = tmp_path / "run"
        code = main(
            ["run", "--scenario", str(scn), "--seed", "1", "--rounds", "1",
             "--out", str(out), "--config", str(cfg), "--quiet"]
        )
        assert code == 0
        trajectory = json.loads((out / "trajectory.json").read_text())
        assert trajectory["rounds"][0]["episodes"] == 6

    def test_bad_scenario_is_usage_error(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text("[tasks]\nt1 = p1 | banana\n")
        code = main(["run", "--scenario", str(scn), "--seed", "1", "--rounds", "1",
                     "--out", str(tmp_path / "x"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_unknown_preset_is_usage_error(self, tmp_path, capsys):
        code = main(["run", "--scenario", "preset:nope", "--seed", "1",
                     "--rounds", "1", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_zero_rounds_is_usage_error(self, tmp_path, capsys):
        code = main(["run", "--scenario", "preset:tiny", "--seed", "1",
                     "--rounds", "0", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--rounds" in capsys.readouterr().err

    def test_threshold_error_names_exact_line(self, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text(
            "[tasks]\nt1 = p1 | 1.0\n"
            "[seed-state]\nexecutor m = * manager\n"
            "[thresholds]\ntop-k = 3\nwibble = 1\n"
        )
        code = main(["run", "--scenario", str(scn), "--seed", "1", "--rounds", "1",
                     "--out", str(tmp_path / "x"), "--quiet"])
        assert code == 2
        assert "line 7" in capsys.readouterr().err

    def test_repeated_threshold_names_file_and_line(self, tmp_path, capsys):
        scn = tmp_path / "twice.scn"
        scn.write_text(
            "[tasks]\nt1 = p1 | 1.0\n"
            "[seed-state]\nexecutor m = * manager\n"
            "[thresholds]\ntop-k = 3\nepisodes-per-round = 5\ntop-k = 2\n"
        )
        code = main(["run", "--scenario", str(scn), "--seed", "1", "--rounds", "1",
                     "--out", str(tmp_path / "x"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scn}: line 8: duplicate threshold 'top-k'")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "line, replacement, detail",
        [
            # with latent `sk-a`, seed 1 splits `sk` in round 1 into `sk-a-r1`,
            # the id of that latent's motif
            (9, "sk-a = u/q 2.0 missing-precondition", "latent id 'sk-a' ends in -a or -b"),
            (18, "skill sk = owner=ghost applies=t/p,t/p2 steps=x",
             "skill 'sk' owned by unknown executor 'ghost'"),
        ],
        ids=["latent-split", "skill-owner"],
    )
    def test_seed_refusal_names_file_line_and_id(
        self, tmp_path, capsys, line, replacement, detail
    ):
        scn = tmp_path / "d.scn"
        scn.write_text(SPLIT_WORLD)
        assert main(["run", "--scenario", str(scn), "--seed", "1", "--rounds", "1",
                     "--out", str(tmp_path / "ok"), "--quiet"]) == 0
        text = SPLIT_WORLD.splitlines()
        text[line - 1] = replacement
        scn.write_text("\n".join(text) + "\n")
        code = main(["run", "--scenario", str(scn), "--seed", "1", "--rounds", "4",
                     "--out", str(tmp_path / "x"), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {scn}: line {line}: {detail}")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("episodes_per_round", 0),
            ("top_k", -1),
            ("default_capacity", 0),
            ("cluster_threshold", 0),
            ("promote_min_uses", 0),
            ("pool_prune_min_uses", -1),
        ],
    )
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, key, value):
        # a scenario's [thresholds] line and a --config override alike
        scn = tmp_path / "bad.scn"
        scn.write_text(
            "[tasks]\nt1 = p1 | 1.0\n"
            "[seed-state]\nexecutor m = * manager\n"
            f"[thresholds]\nrepeat-multiplicity = 2\n{key.replace('_', '-')} = {value}\n"
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = main(["run", "--scenario", str(scn), "--seed", "1", "--rounds", "1",
                     "--out", str(tmp_path / "x"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 7" in err and key in err
        code = main(["run", "--scenario", "preset:tiny", "--seed", "1", "--rounds", "1",
                     "--config", str(cfg), "--out", str(tmp_path / "y"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {key} must be")

    @pytest.mark.parametrize(
        "content, detail",
        [
            (b"[1, 2]", "expected a JSON object"),
            (b'"x"', "expected a JSON object"),
            (b'{"top_k": "\xff"}', "invalid JSON"),
            (b'{"top_k": 3', "invalid JSON"),
            (None, "file does not exist"),
            # literals Python's JSON reader accepts
            (b'{"low_estimate": NaN}', "low_estimate expects a finite number, not nan"),
            (b'{"merge_gap": -Infinity}', "merge_gap expects a finite number, not -inf"),
        ],
        ids=["list", "string", "non-utf8", "truncated", "missing", "nan", "infinity"],
    )
    def test_config_file_not_an_object_is_usage_error(self, tmp_path, capsys, content, detail):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_bytes(content)
        code = main(["run", "--scenario", "preset:tiny", "--seed", "1", "--rounds", "1",
                     "--config", str(cfg), "--out", str(tmp_path / "x"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ") and detail in err
        assert not (tmp_path / "x").exists()

    def test_out_naming_an_existing_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        code = main(["run", "--scenario", "preset:tiny", "--seed", "1", "--rounds", "1",
                     "--out", str(out), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: cannot create the run directory")
        assert out.read_text() == "not a directory\n"

    def test_non_utf8_scenario_file_is_usage_error(self, tmp_path, capsys):
        scn = tmp_path / "latin.scn"
        scn.write_bytes(PRESETS["tiny"].encode("utf-8") + b"# caf\xe9\n")
        code = main(["run", "--scenario", str(scn), "--seed", "1", "--rounds", "1",
                     "--out", str(tmp_path / "x"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scn}: invalid scenario: not UTF-8")
        assert not (tmp_path / "x").exists()

    def test_scenario_directory_is_usage_error(self, tmp_path, capsys):
        scn = tmp_path / "world.scn"
        scn.mkdir()
        code = main(["run", "--scenario", str(scn), "--seed", "1", "--rounds", "1",
                     "--out", str(tmp_path / "x"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scn}: cannot read")
        assert not (tmp_path / "x").exists()

    def test_default_out_respects_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SKILLMAS_OUT", str(tmp_path / "env-runs"))
        code = main(["run", "--scenario", "preset:tiny", "--seed", "3",
                     "--rounds", "1"])
        assert code == 0
        assert (tmp_path / "env-runs" / "tiny-3" / "trajectory.json").exists()

    @staticmethod
    def tiny_run(seed, rounds, out):
        return main(["run", "--scenario", "preset:tiny", "--seed", str(seed),
                     "--rounds", str(rounds), "--out", str(out), "--quiet"])

    def interrupted_run(self, tmp_path, monkeypatch):
        """A 4-round seed-42 tiny run into a used directory that fails after
        its second round, and a clean 2-round run of the same seed."""
        run = self.tiny_run
        out, clean = tmp_path / "run", tmp_path / "clean"
        assert run(5, 4, out) == 0  # a complete run of another seed
        assert run(42, 2, clean) == 0
        validate = orchestrator.validate_state

        def fail_round_2(state, universe):
            if state.round_index == 3:
                raise StateError("round 2 fails")
            validate(state, universe)

        monkeypatch.setattr(orchestrator, "validate_state", fail_round_2)
        assert run(42, 4, out) == 2
        monkeypatch.undo()
        return out, clean

    def test_interrupted_run_leaves_its_completed_rounds(self, tmp_path, monkeypatch, capsys):
        out, clean = self.interrupted_run(tmp_path, monkeypatch)
        for name in ("trajectory.json", "trajectory.txt", "checkpoint.json"):
            assert not (out / name).exists()
        for rel in ("snapshots/state_r000.txt", "snapshots/state_r001.txt",
                    "snapshots/state_r002.txt", "traces.jsonl"):
            assert (out / rel).read_bytes() == (clean / rel).read_bytes(), rel
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 2
        assert "trajectory.json" in capsys.readouterr().err
        # replay stops where the log ends: at round 3's first line
        full = tmp_path / "full"
        assert self.tiny_run(42, 4, full) == 0
        stored = (clean / "traces.jsonl").read_bytes()
        lines = stored.count(b"\n")
        expected = (full / "traces.jsonl").read_bytes().splitlines(keepends=True)[lines]
        capsys.readouterr()
        assert main(["replay", "--run", str(out)]) == 1
        assert capsys.readouterr().out == (
            f"replay divergence in traces.jsonl at line {lines + 1}: byte {len(stored)}\n"
            f"  stored:   (end of file)\n"
            f"  expected: {expected.decode()!r}\n"
        )

    def test_replay_stops_at_the_round_where_the_log_ends(self, tmp_path, monkeypatch, capsys):
        out, _ = self.interrupted_run(tmp_path, monkeypatch)
        calls = []
        run_round = orchestrator.run_round

        def counted(*args, **kwargs):
            calls.append(args[0].round_index)
            return run_round(*args, **kwargs)

        monkeypatch.setattr(orchestrator, "run_round", counted)
        capsys.readouterr()
        assert main(["replay", "--run", str(out)]) == 1
        assert capsys.readouterr().out.startswith("replay divergence in traces.jsonl")
        assert len(calls) == 3  # rounds 1 and 2 match; round 3 finds the log's end

    def test_rerun_keeps_nothing_of_the_earlier_run(self, tmp_path):
        run = self.tiny_run
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        assert run(3, 4, out) == 0
        assert main(["transplant", "--run", str(out), "--episodes", "20"]) == 0
        assert (out / "transplant.json").exists()
        assert run(5, 2, out) == 0
        assert run(5, 2, fresh) == 0
        assert dir_digest(out) == dir_digest(fresh)

    def test_peak_memory_holds_one_round(self, tmp_path):
        def peak(rounds, out):
            argv = ["run", "--scenario", "preset:mismatch", "--seed", "3", "--rounds",
                    str(rounds), "--episodes", "200", "--out", str(tmp_path / out), "--quiet"]
            # each run starts from an empty collector generation and empty
            # free lists: objects a free list hands out are not traced, and
            # where the collector runs sets how much garbage the peak holds,
            # which moved the 2-round peak between about 63k and 69k
            gc.collect()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # first-call set-up, such as the preset's parse, is not a round's; nor
        # are new entries of the process-wide `model.ratio` memo.  The 2-round
        # run is a prefix of the 8-round one, so after this warm-up both
        # measured runs start from the same full memo, alone or in the suite.
        peak(8, "warm-up")
        # the trajectory and the library still grow with the rounds: 1.43x here
        assert peak(8, "r8") < 1.6 * peak(2, "r2")


class TestReplay:
    def test_untouched_run_replays_clean(self, run_dir, capsys):
        assert main(["replay", "--run", str(run_dir)]) == 0
        assert "replay clean" in capsys.readouterr().out

    def test_corrupted_utility_record_detected(self, run_dir, capsys):
        snapshot = run_dir / "snapshots" / "state_r002.txt"
        lines = snapshot.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith(("qskill", "qexec")):
                parts = line.split()
                parts[3] = "0.123456789"
                lines[i] = " ".join(parts)
                break
        else:
            pytest.fail("no utility record to corrupt")
        snapshot.write_text("\n".join(lines) + "\n")
        assert main(["replay", "--run", str(run_dir)]) == 1
        out = capsys.readouterr().out
        assert "state_r002.txt" in out
        assert "0.123456789" in out

    def test_missing_artifact_detected(self, run_dir, capsys):
        (run_dir / "trajectory.txt").unlink()
        assert main(["replay", "--run", str(run_dir)]) == 1
        assert "missing" in capsys.readouterr().out

    def test_non_utf8_artifact_is_a_divergence(self, run_dir, capsys):
        table = run_dir / "trajectory.txt"
        data = table.read_bytes()
        with table.open("ab") as handle:
            handle.write(b"\xff")
        line = data.count(b"\n") + 1
        assert main(["replay", "--run", str(run_dir)]) == 1
        assert capsys.readouterr().out == (
            f"replay divergence in trajectory.txt at line {line}: byte {len(data)}\n"
            f"  stored:   '\\\\xff'\n"
            f"  expected: (end of file)\n"
        )

    def test_unreadable_artifact_is_a_divergence(self, run_dir, capsys):
        log = run_dir / "traces.jsonl"
        log.unlink()
        log.mkdir()
        assert main(["replay", "--run", str(run_dir)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("replay divergence in traces.jsonl: cannot read")

    def test_line_ends_are_compared_byte_for_byte(self, run_dir, capsys):
        table = run_dir / "trajectory.txt"
        table.write_bytes(table.read_bytes().replace(b"\n", b"\r\n"))
        assert main(["replay", "--run", str(run_dir)]) == 1
        assert capsys.readouterr().out.startswith("replay divergence in trajectory.txt")

    def test_first_divergence_is_in_the_earliest_round(self, run_dir, capsys):
        with (run_dir / "snapshots" / "state_r003.txt").open("a") as handle:
            handle.write("junk\n")
        log = run_dir / "traces.jsonl"
        first, rest = log.read_text().split("\n", 1)
        assert '"round":0,"shape":0,' in first  # round 0's first table entry
        log.write_text(first.replace('"shape":0,', '"shape":9,', 1) + "\n" + rest)
        assert main(["replay", "--run", str(run_dir)]) == 1
        assert capsys.readouterr().out.startswith("replay divergence in traces.jsonl at line 1:")

    def test_a_damaged_snapshot_stops_the_replay_at_its_round(self, tmp_path, monkeypatch,
                                                              capsys):
        out = tmp_path / "run"
        assert main(["run", "--scenario", "preset:tiny", "--seed", "42", "--rounds", "4",
                     "--out", str(out), "--quiet"]) == 0
        with (out / "snapshots" / "state_r001.txt").open("a") as handle:
            handle.write("junk\n")
        calls = []
        run_round = orchestrator.run_round

        def counted(*args, **kwargs):
            calls.append(args[0].round_index)
            return run_round(*args, **kwargs)

        monkeypatch.setattr(orchestrator, "run_round", counted)
        capsys.readouterr()
        assert main(["replay", "--run", str(out)]) == 1
        assert capsys.readouterr().out.startswith(
            "replay divergence in snapshots/state_r001.txt at line "
        )
        assert calls == [0]  # round 1's snapshot is compared before round 2 runs

    def test_clean_replay_reads_each_stored_file_once(self, run_dir, monkeypatch, capsys):
        opened = Counter()
        open_ = Path.open

        def counted(self, *args, **kwargs):
            opened[self.relative_to(run_dir).as_posix()] += 1
            return open_(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", counted)  # `read_bytes` and `read_text` open through it
        assert main(["replay", "--run", str(run_dir)]) == 0
        monkeypatch.undo()
        snapshots = [f"snapshots/state_r00{r}.txt" for r in range(4)]
        assert opened == Counter(
            ["run.json", "scenario.scn", "traces.jsonl", "trajectory.json", "trajectory.txt",
             "checkpoint.json", *snapshots]
        )
        assert capsys.readouterr().out == "replay clean: 8 artifacts match\n"

    def test_byte_identical_across_runs(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["run", "--scenario", "preset:tiny", "--seed", "7", "--rounds", "2",
                  "--out", str(out), "--quiet"])
            outs.append(out)
        for rel in ("trajectory.json", "traces.jsonl", "snapshots/state_r002.txt"):
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


class TestEvalTransplantReport:
    def test_eval_snapshot(self, run_dir, tmp_path, capsys):
        snapshot = run_dir / "snapshots" / "state_r003.txt"
        out = tmp_path / "eval.json"
        code = main(
            ["eval", "--scenario", "preset:tiny", "--state", str(snapshot),
             "--episodes", "40", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["episodes"] == 40
        assert "fetch" in payload["per_family"]
        assert "total:" in capsys.readouterr().out

    def test_transplant_on_run_dir(self, run_dir, capsys):
        code = main(["transplant", "--run", str(run_dir), "--episodes", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Full" in out and "Seed" in out
        table = json.loads((run_dir / "transplant.json").read_text())
        assert [r["variant"] for r in table["rows"]] == [
            "Full",
            "Final-library/seed-MAS",
            "Specialized-MAS/seed-skills",
            "Seed",
        ]

    def test_report_tables(self, run_dir, capsys):
        assert main(["report", "--run", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Skills" in out
        assert "Task family" in out

    def test_report_without_run_dir_is_usage_error(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path)]) == 2

    def test_report_begins_with_the_trajectory_table(self, tmp_path, capsys):
        # rounds 2 and 3 of this run add executors, which both renderings
        # must label the same way
        out = tmp_path / "run"
        assert main(["run", "--scenario", "preset:mismatch", "--seed", "7",
                     "--rounds", "4", "--episodes", "200", "--out", str(out),
                     "--quiet"]) == 0
        table = (out / "trajectory.txt").read_text(encoding="utf-8")
        assert "+ executor" in table
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        assert capsys.readouterr().out.startswith(table)


def _reference_report(run_dir) -> str:
    """`report` as a tally of the trace log: per round, each table entry's
    record counted as often as the round's index line names it; the
    checkpoint round's counts against round 0's."""
    trajectory = json.loads((run_dir / "trajectory.json").read_text(encoding="utf-8"))
    by_round: dict[int, dict[str, tuple[int, int]]] = {}
    log = (run_dir / "traces.jsonl").read_text(encoding="utf-8")
    for round_index, table, index in log_rounds(log):
        counts = by_round.setdefault(round_index, {})
        for k, n in Counter(index).items():
            s, a = counts.get(table[k]["task"]["id"], (0, 0))
            counts[table[k]["task"]["id"]] = (s + table[k]["outcome"] * n, a + n)
    best = by_round[trajectory["checkpoint"]["round"]]
    return render_trajectory(trajectory) + "\n" + render_breakdown(best, baseline=by_round[0])


class TestReportFromTrajectory:
    """`report` builds its tables from trajectory.json alone."""

    @pytest.mark.parametrize("seed", [5, 12])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_matches_a_tally_of_the_trace_log(self, tmp_path, capsys, preset, seed):
        out = tmp_path / "run"
        assert main(["run", "--scenario", f"preset:{preset}", "--seed", str(seed),
                     "--rounds", "4", "--episodes", "200", "--out", str(out),
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        assert capsys.readouterr().out == _reference_report(out)

    def test_does_not_read_the_trace_log(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["run", "--scenario", "preset:mismatch", "--seed", "7", "--rounds", "4",
                     "--episodes", "200", "--out", str(out), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        before = capsys.readouterr().out
        (out / "traces.jsonl").unlink()
        assert main(["report", "--run", str(out)]) == 0
        assert capsys.readouterr().out == before
        # the log is replay's to verify
        assert main(["replay", "--run", str(out)]) == 1
        assert "traces.jsonl" in capsys.readouterr().out


def _rewrite_json(path, edit):
    payload = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(edit(payload)), encoding="utf-8")


class TestRunDirValidation:
    """Malformed run-directory files are usage errors that name the file."""

    def assert_usage_error(self, argv, path, capsys, *fragments):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        for fragment in fragments:
            assert fragment in err

    def test_unknown_config_key_in_manifest(self, run_dir, capsys):
        manifest = run_dir / "run.json"
        _rewrite_json(manifest, lambda m: {**m, "config": {**m["config"], "wibble": 1}})
        self.assert_usage_error(["replay", "--run", str(run_dir)], manifest, capsys,
                                "wibble")

    def test_empty_manifest(self, run_dir, capsys):
        manifest = run_dir / "run.json"
        manifest.write_text("{}", encoding="utf-8")
        self.assert_usage_error(["transplant", "--run", str(run_dir)], manifest,
                                capsys, "'scenario'")

    def test_empty_checkpoint(self, run_dir, capsys):
        checkpoint = run_dir / "checkpoint.json"
        checkpoint.write_text("{}", encoding="utf-8")
        self.assert_usage_error(["transplant", "--run", str(run_dir)], checkpoint,
                                capsys, "'snapshot'")

    def test_checkpoint_may_not_name_a_snapshot_outside_the_run(self, run_dir, capsys):
        # a valid state, but not the one the run wrote for its checkpoint round
        outside = run_dir.parent / "outside_state.txt"
        outside.write_text(
            (run_dir / "snapshots" / "state_r000.txt").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        checkpoint = run_dir / "checkpoint.json"
        _rewrite_json(checkpoint, _set("snapshot", "../outside_state.txt"))
        self.assert_usage_error(["transplant", "--run", str(run_dir)], checkpoint,
                                capsys, "'snapshot'", "snapshots/state_r", "../outside_state.txt")
        assert not (run_dir / "transplant.json").exists()

    @pytest.mark.parametrize("round_index", [-1, 4])
    def test_checkpoint_round_outside_the_run(self, run_dir, capsys, round_index):
        checkpoint = run_dir / "checkpoint.json"
        _rewrite_json(checkpoint, lambda c: {
            **c, "round": round_index, "snapshot": f"snapshots/state_r{round_index:03d}.txt",
        })
        self.assert_usage_error(["transplant", "--run", str(run_dir)], checkpoint,
                                capsys, "'round'", "[0, 3]")

    def test_checkpoint_must_agree_with_the_trajectory(self, run_dir, capsys):
        # a consistent round and snapshot, but not the run's checkpoint round
        trajectory = run_dir / "trajectory.json"
        best = json.loads(trajectory.read_text(encoding="utf-8"))["checkpoint"]["round"]
        other = 0 if best else 1
        checkpoint = run_dir / "checkpoint.json"
        _rewrite_json(checkpoint, lambda c: {
            **c, "round": other, "snapshot": f"snapshots/state_r{other:03d}.txt",
        })
        self.assert_usage_error(["transplant", "--run", str(run_dir)], checkpoint,
                                capsys, f"'round' {other}", str(trajectory),
                                f"'checkpoint.round' {best}")
        assert not (run_dir / "transplant.json").exists()

    @pytest.mark.parametrize("command", ["transplant", "replay"])
    def test_manifest_may_not_name_a_scenario_outside_the_run(self, run_dir, capsys, command):
        other = run_dir.parent / "other.scn"
        other.write_text((run_dir / "scenario.scn").read_text(encoding="utf-8"), encoding="utf-8")
        manifest = run_dir / "run.json"
        _rewrite_json(manifest, _set("scenario", "../other.scn"))
        self.assert_usage_error([command, "--run", str(run_dir)], manifest,
                                capsys, "'scenario'", "'scenario.scn'", "../other.scn")

    def test_truncated_trajectory(self, run_dir, capsys):
        trajectory = run_dir / "trajectory.json"
        text = trajectory.read_text(encoding="utf-8")
        trajectory.write_text(text[: len(text) // 2], encoding="utf-8")
        self.assert_usage_error(["report", "--run", str(run_dir)], trajectory,
                                capsys, "invalid JSON")


def _set(*path):
    """An edit that sets the value at `path` (keys and indexes) to `path[-1]`."""
    *keys, last, value = path

    def edit(payload):
        target = payload
        for key in keys:
            target = target[key]
        target[last] = value
        return payload

    return edit


def _drop(*path):
    """An edit that deletes the key at `path`."""
    *keys, last = path

    def edit(payload):
        target = payload
        for key in keys:
            target = target[key]
        del target[last]
        return payload

    return edit


def _first_family(edit_entry):
    def edit(payload):
        per_family = payload["rounds"][0]["per_family"]
        edit_entry(per_family[sorted(per_family)[0]])
        return payload

    return edit


# (file, command, edit, fragments the error must hold): one case per key
BAD_VALUES = {
    "run.seed": ("run.json", "replay", _set("seed", "42"), ["'seed'", "an integer"]),
    "run.seed-bool": ("run.json", "replay", _set("seed", True), ["'seed'", "boolean"]),
    "run.rounds": ("run.json", "replay", _set("rounds", "3"), ["'rounds'", "an integer"]),
    "run.rounds-zero": ("run.json", "replay", _set("rounds", 0), ["'rounds'", "at least 1"]),
    "run.scenario": ("run.json", "transplant", _set("scenario", 1), ["'scenario'", "a string"]),
    "run.scenario_name": ("run.json", "replay", _set("scenario_name", ["x"]),
                          ["'scenario_name'", "a string"]),
    "run.config": ("run.json", "replay", _set("config", []), ["'config'", "an object"]),
    "run.config-value": ("run.json", "replay", _set("config", "top_k", [3]),
                         ["top_k", "an integer"]),
    "run.config-episodes": ("run.json", "replay", _set("config", "episodes_per_round", 0),
                            ["episodes_per_round", "at least 1"]),
    "run.config-top_k": ("run.json", "replay", _set("config", "top_k", -1),
                         ["top_k", "at least 1"]),
    "run.config-capacity": ("run.json", "replay", _set("config", "default_capacity", 0),
                            ["default_capacity", "at least 1"]),
    "run.config-promote": ("run.json", "replay", _set("config", "promote_min_uses", 0),
                           ["promote_min_uses", "at least 1"]),
    "run.config-pool-prune": ("run.json", "transplant",
                              _set("config", "pool_prune_min_uses", 0),
                              ["pool_prune_min_uses", "at least 1"]),
    "run.config-cluster": ("run.json", "replay", _set("config", "cluster_threshold", 0),
                           ["cluster_threshold", "in (0, 1]"]),
    # written as the JSON literal NaN, which Python's reader accepts
    "run.config-nan": ("run.json", "replay", _set("config", "merge_gap", float("nan")),
                       ["merge_gap", "a finite number, not nan"]),
    # a stored config holds every field: a missing one is not filled from the defaults
    "run.config-top_k-absent": ("run.json", "transplant", _drop("config", "top_k"),
                                ["missing key 'config.top_k'"]),
    "run.config-merge_gap-absent": ("run.json", "replay", _drop("config", "merge_gap"),
                                    ["missing key 'config.merge_gap'"]),
    "run.config-both-spellings": ("run.json", "replay", _set("config", "top-k", 1),
                                  ["duplicate threshold 'top_k' and 'top-k'"]),
    "checkpoint.snapshot": ("checkpoint.json", "transplant", _set("snapshot", 3),
                            ["'snapshot'", "a string"]),
    "trajectory.scenario": ("trajectory.json", "report", _set("scenario", None),
                            ["'scenario'", "a string"]),
    "trajectory.seed": ("trajectory.json", "report", _set("seed", 4.0),
                        ["'seed'", "an integer"]),
    "trajectory.checkpoint": ("trajectory.json", "report", _set("checkpoint", [1]),
                              ["'checkpoint'", "an object, not a list"]),
    "trajectory.checkpoint.round": ("trajectory.json", "report",
                                    _set("checkpoint", "round", "1"),
                                    ["'checkpoint.round'", "an integer"]),
    "trajectory.checkpoint.round-absent": ("trajectory.json", "report",
                                           _set("checkpoint", "round", 7),
                                           ["'checkpoint.round' 7", "not one of the rounds"]),
    "trajectory.rounds": ("trajectory.json", "report", _set("rounds", {}),
                          ["'rounds'", "a list"]),
    "trajectory.rounds[i]": ("trajectory.json", "report", _set("rounds", 1, 5),
                             ["'rounds[1]'", "an object"]),
    "trajectory.rounds[i].round": ("trajectory.json", "report", _set("rounds", 1, "round", 0.5),
                                   ["'rounds[1].round'", "an integer"]),
    "trajectory.rounds[i].round-repeated": ("trajectory.json", "report",
                                            _set("rounds", 2, "round", 1),
                                            ["'rounds[2].round' 1", "twice"]),
    "trajectory.rounds[i].episodes": ("trajectory.json", "report",
                                      _set("rounds", 0, "episodes", "40"),
                                      ["'rounds[0].episodes'", "an integer"]),
    "trajectory.rounds[i].successes": ("trajectory.json", "report",
                                       _set("rounds", 0, "successes", None),
                                       ["'rounds[0].successes'", "an integer"]),
    "trajectory.rounds[i].successes>episodes": ("trajectory.json", "report",
                                                _set("rounds", 1, "successes", 5000),
                                                ["'rounds[1].successes'",
                                                 "0 <= successes <= episodes", "5000/"]),
    "trajectory.rounds[i].episodes<0": ("trajectory.json", "report",
                                        _set("rounds", 1, "episodes", -3),
                                        ["'rounds[1].successes'",
                                         "0 <= successes <= episodes", "/-3"]),
    "trajectory.rounds[i].active_skills": ("trajectory.json", "report",
                                           _set("rounds", 0, "active_skills", False),
                                           ["'rounds[0].active_skills'", "boolean"]),
    "trajectory.rounds[i].active_executors": ("trajectory.json", "report",
                                              _set("rounds", 0, "active_executors", [2]),
                                              ["'rounds[0].active_executors'", "an integer"]),
    "trajectory.rounds[i].restructure": ("trajectory.json", "report",
                                         _set("rounds", 0, "restructure", "keep"),
                                         ["'rounds[0].restructure'", "an object"]),
    "trajectory.rounds[i].restructure.action": ("trajectory.json", "report",
                                                _set("rounds", 0, "restructure", "action", 1),
                                                ["'rounds[0].restructure.action'", "a string"]),
    "trajectory.rounds[i].restructure.subjects": ("trajectory.json", "report",
                                                  _set("rounds", 0, "restructure",
                                                       "subjects", [1]),
                                                  ["'rounds[0].restructure.subjects'",
                                                   "list of strings"]),
    "trajectory.rounds[i].per_family": ("trajectory.json", "report",
                                        _set("rounds", 0, "per_family", []),
                                        ["'rounds[0].per_family'", "an object"]),
    "trajectory.rounds[i].per_family[id]": ("trajectory.json", "report",
                                            _set("rounds", 0, "per_family", {"x": 3}),
                                            ["'rounds[0].per_family[\"x\"]'", "an object"]),
    "trajectory.per_family.successes": ("trajectory.json", "report",
                                        _first_family(lambda e: e.update(successes="1")),
                                        ["'rounds[0].per_family[", "].successes'",
                                         "an integer"]),
    "trajectory.per_family.attempts": ("trajectory.json", "report",
                                       _first_family(lambda e: e.pop("attempts")),
                                       ["missing key 'rounds[0].per_family[", "].attempts'"]),
    "trajectory.per_family.successes>attempts": ("trajectory.json", "report",
                                                 _first_family(lambda e: e.update(
                                                     successes=e["attempts"] + 1)),
                                                 ["'rounds[0].per_family[",
                                                  "0 <= successes <= attempts"]),
    "trajectory.per_family.successes<0": ("trajectory.json", "report",
                                          _first_family(lambda e: e.update(successes=-1)),
                                          ["'rounds[0].per_family[",
                                           "0 <= successes <= attempts"]),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_run_dir_value_is_usage_error(run_dir, capsys, case):
    name, command, edit, fragments = BAD_VALUES[case]
    path = run_dir / name
    _rewrite_json(path, edit)
    assert main([command, "--run", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    for fragment in fragments:
        assert fragment in err


class TestRetiredThreshold:
    # gap_threshold left in format 2; routing_noise, a second home for the
    # scenario's routing-noise, in format 6
    def test_manifest_naming_it_is_refused(self, run_dir, capsys):
        path = run_dir / "run.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        for key in ("gap_threshold", "routing_noise"):
            config = {**manifest["config"], key: 0.2}
            path.write_text(json.dumps({**manifest, "config": config}), encoding="utf-8")
            for command in (["replay"], ["transplant", "--episodes", "12"]):
                assert main([command[0], "--run", str(run_dir), *command[1:]]) == 2
                err = capsys.readouterr().err
                assert err.startswith(f"error: {path}: ")
                assert f"unknown threshold '{key}'" in err

    def test_config_override_naming_it_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for key in ("gap_threshold", "routing_noise"):
            cfg.write_text(json.dumps({key: 0.2}), encoding="utf-8")
            code = main(["run", "--scenario", "preset:tiny", "--seed", "1", "--rounds", "1",
                         "--out", str(tmp_path / "x"), "--config", str(cfg), "--quiet"])
            assert code == 2
            err = capsys.readouterr().err
            assert str(cfg) in err and f"unknown threshold '{key}'" in err

    def test_scenario_threshold_naming_it_is_rejected(self, tmp_path, capsys):
        scn = tmp_path / "retired.scn"
        for key in ("gap-threshold", "routing-noise"):
            scn.write_text(
                "[tasks]\nt1 = p1 | 1.0\n[seed-state]\nexecutor m = * manager\n"
                f"[thresholds]\n{key} = 0.2\n",
                encoding="utf-8",
            )
            code = main(["run", "--scenario", str(scn), "--seed", "1", "--rounds", "1",
                         "--out", str(tmp_path / "x"), "--quiet"])
            assert code == 2
            err = capsys.readouterr().err
            assert "line 6" in err and f"unknown threshold '{key}'" in err


class TestRunFormat:
    """`run.json` carries format 6 and `trajectory.json` format 2; a file of
    any other format, or of none, is a usage error that names the file and
    the format it found.  A format-5 config held `routing_noise` and its
    modify predicate judged the pre-delta executors (format 4 kept pruned
    skills in its snapshots, format 3 wrote a line per episode, format 2
    utility entries as floats, format 1 drew other episode streams), so an
    older directory replays to other bytes."""

    def test_new_directories_carry_the_current_formats(self, run_dir):
        assert json.loads((run_dir / "run.json").read_text())["format"] == RUN_FORMAT == 6
        assert json.loads((run_dir / "trajectory.json").read_text())["format"] == 2

    @pytest.mark.parametrize(
        "found, shown", [(1, "format 1,"), (2, "format 2,"), ("2", 'format "2",'),
                         (2.0, "format 2.0,"), (3, "format 3,"), ("3", 'format "3",'),
                         (3.0, "format 3.0,"), ("4", 'format "4",'), (4.0, "format 4.0,"),
                         (4, "format 4,"), (5, "format 5,"), (None, "format missing,")]
    )
    @pytest.mark.parametrize("command", ["replay", "transplant"])
    def test_other_formats_are_refused(self, run_dir, capsys, command, found, shown):
        path = run_dir / "run.json"
        if found is None:
            _rewrite_json(path, lambda m: {k: v for k, v in m.items() if k != "format"})
        else:
            _rewrite_json(path, lambda m: {**m, "format": found})
        assert main([command, "--run", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: run directory format ")
        assert shown in err and "not 6" in err

    @pytest.mark.parametrize(
        "found, shown", [(1, "format 1,"), ("2", 'format "2",'), (2.0, "format 2.0,"),
                         (None, "format missing,")]
    )
    @pytest.mark.parametrize("command", ["report", "transplant"])
    def test_other_trajectory_formats_are_refused(self, run_dir, capsys, command, found, shown):
        # a format-1 trajectory listed retained episode ids, not table entries
        path = run_dir / "trajectory.json"
        if found is None:
            _rewrite_json(path, lambda t: {k: v for k, v in t.items() if k != "format"})
        else:
            _rewrite_json(path, lambda t: {**t, "format": found})
        assert main([command, "--run", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: trajectory format ")
        assert shown in err and "not 2" in err


def _non_utf8(path):
    path.write_bytes(b"\xff\xfe" + path.read_bytes())


def _directory(path):
    path.unlink()
    path.mkdir()


def _checkpoint_snapshot(run_dir):
    return run_dir / json.loads((run_dir / "checkpoint.json").read_text())["snapshot"]


# (file to break, how, argv, how the error names the file, what it says)
UNREADABLE = {
    "transplant-snapshot-non-utf8": (
        _checkpoint_snapshot, _non_utf8, lambda run, path: ["transplant", "--run", run],
        "snapshot {}: ", "not UTF-8"),
    "transplant-snapshot-directory": (
        _checkpoint_snapshot, _directory, lambda run, path: ["transplant", "--run", run],
        "snapshot {}: ", "Is a directory"),
    "transplant-checkpoint-directory": (
        lambda run_dir: run_dir / "checkpoint.json", _directory,
        lambda run, path: ["transplant", "--run", run], "{}: ", "Is a directory"),
    "report-trajectory-directory": (
        lambda run_dir: run_dir / "trajectory.json", _directory,
        lambda run, path: ["report", "--run", run], "{}: ", "Is a directory"),
    "replay-scenario-non-utf8": (
        lambda run_dir: run_dir / "scenario.scn", _non_utf8,
        lambda run, path: ["replay", "--run", run], "{}: ", "not UTF-8"),
    "eval-state-directory": (
        _checkpoint_snapshot, _directory,
        lambda run, path: ["eval", "--scenario", "preset:tiny", "--state", path, "--seed", "1"],
        "snapshot {}: ", "Is a directory"),
    "run-config-directory": (
        lambda run_dir: run_dir / "cfg.json", lambda path: path.mkdir(),
        lambda run, path: ["run", "--scenario", "preset:tiny", "--seed", "1", "--rounds",
                           "1", "--config", path, "--out", run + "-x", "--quiet"],
        "{}: ", "Is a directory"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_is_usage_error_naming_the_file(run_dir, capsys, case):
    locate, damage, argv, named, detail = UNREADABLE[case]
    path = locate(run_dir)
    damage(path)
    assert main(argv(str(run_dir), str(path))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + named.format(path))
    assert detail in err


def _eval_argv(run_dir, out):
    snapshot = run_dir / "snapshots" / "state_r003.txt"
    return ["eval", "--scenario", "preset:tiny", "--state", str(snapshot),
            "--episodes", "5", "--seed", "1", "--out", str(out)]


def _eval_out_directory(run_dir):
    out = run_dir.parent / "eval-out"
    out.mkdir()
    return out, _eval_argv(run_dir, out)


def _eval_out_under_a_file(run_dir):
    plain = run_dir.parent / "plain"
    plain.write_text("a file\n")
    out = plain / "x.json"
    return out, _eval_argv(run_dir, out)


def _transplant_json_directory(run_dir):
    out = run_dir / "transplant.json"
    out.mkdir()
    return out, ["transplant", "--run", str(run_dir), "--episodes", "5"]


def _run_over_a_directory(rel):
    """Re-run into the `run_dir` fixture's directory with `rel` a directory."""
    def spoil(run_dir):
        out = run_dir / rel
        _directory(out)
        return out, ["run", "--scenario", "preset:tiny", "--seed", "42", "--rounds", "3",
                     "--out", str(run_dir), "--quiet"]
    return spoil


@pytest.mark.parametrize(
    "spoil",
    [_eval_out_directory, _eval_out_under_a_file, _transplant_json_directory,
     _run_over_a_directory("traces.jsonl"), _run_over_a_directory("snapshots/state_r001.txt"),
     _run_over_a_directory("trajectory.json")],
    ids=["eval-out-directory", "eval-out-under-a-file", "transplant-json-directory",
         "run-log-directory", "run-snapshot-directory", "run-trajectory-directory"],
)
def test_unwritable_output_is_usage_error_naming_the_path(run_dir, capsys, spoil):
    out, argv = spoil(run_dir)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: cannot write: ")
