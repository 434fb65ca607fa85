"""The skillmas benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the engine is imported from the
checkout's `src/`.  A run times the workload's set-up in fresh interpreters,
then repeats the workload's operation for at least S seconds, then checks
the outputs (report hashes across repetitions, restructuring evidence,
`skillmas replay`).  Every timed interval is rescaled to nominal machine
speed (see calibration.py).  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced repetitions of the same engine
seed and reports per-layer metrics and the tracing overhead.  The last line
of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

MAX_FAILED_OPS = 3  # stop the timed loop early once the program is clearly broken
MIN_TRACE_PAIRS = 2


def log(message: str) -> None:
    print(f"perfbench: {message}", flush=True)


class Run:
    """Counts operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: FAILED {what}: {problem}", file=sys.stderr, flush=True)
        return not problems

    def guarded(self, what: str, fn):
        """Call fn(); an exception counts as a failed operation."""
        try:
            return fn()
        except Exception:
            traceback.print_exc()
            self.record(what, ["raised"])
            return None


def time_setups(workload, run: Run, clock) -> float:
    """Median set-up time at nominal machine speed over fresh interpreters;
    leaves their directories."""
    times = []
    for k in range(workload.setup_runs):
        out = workload.work / f"setup-{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), "--workload", workload.name,
             "--seed", str(workload.seed), "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        problems = [] if proc.returncode == 0 else [
            f"exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        ]
        wall = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"] if not problems else 0.0
        setup_s = clock.normalize(wall)
        if run.record(f"set-up {k}", problems):
            times.append(setup_s)
    if not times:
        raise SystemExit("perfbench: every set-up failed")
    return statistics.median(times)


def throughput(samples: list[tuple[int, float, int]]) -> float:
    """Episodes per second over the engine seeds run: each seed's time is the
    median over its repetitions, and the seeds' times and episodes add up."""
    walls: dict[int, list[float]] = {}
    episodes: dict[int, int] = {}
    for seed, wall, eps in samples:
        walls.setdefault(seed, []).append(wall)
        episodes[seed] = eps
    return sum(episodes.values()) / sum(statistics.median(w) for w in walls.values())


class Checker:
    """Per-repetition output checks: the same engine seed must give the same
    output digest, and every restructuring decision must hold on its evidence."""

    def __init__(self) -> None:
        self.digests: dict[int, str] = {}
        self.reports: dict[int, str] = {}

    def problems(self, engine_seed: int, result) -> list[str]:
        from workloads import evidence_problems

        first = self.digests.setdefault(engine_seed, result.digest)
        if first != result.digest:
            return [f"engine seed {engine_seed}: output differs from its first repetition"]
        if engine_seed in self.reports:
            return []
        self.reports[engine_seed] = result.report_json
        return evidence_problems(result.report_json)


def timed_op(workload, engine_seed: int, rep: int, clock):
    """One untraced operation; returns its result and its wall time at
    nominal machine speed."""
    op = workload.operation(engine_seed, rep)
    c0 = time.process_time()
    t0 = time.perf_counter()
    raw = op()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    result = workload.result(engine_seed, rep, raw)
    del raw  # the reference reading must not add to the operation's peak memory
    nominal = clock.normalize(wall)
    log(f"repetition {rep}: engine seed {engine_seed}, {result.episodes} episodes "
        f"in {wall:.4f} s wall, {cpu:.4f} s CPU, {nominal:.4f} s at nominal speed")
    return result, nominal


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(
    workload, seconds: float, run: Run, checker: Checker, clock
) -> tuple[list[tuple[int, float, int]], float]:
    """Timed repetitions; returns (seed, wall, episodes) samples and the peak
    resident memory after the first `min_reps` repetitions, a fixed amount of
    work, since allocator growth over later repetitions depends on speed."""
    samples = []
    peak = 0.0
    t_start = time.perf_counter()
    rep = 0
    while (rep < workload.min_reps or time.perf_counter() - t_start < seconds) and (
        run.failed < MAX_FAILED_OPS
    ):
        seed = workload.engine_seed(rep)
        outcome = run.guarded(f"repetition {rep}", lambda: timed_op(workload, seed, rep, clock))
        if outcome is not None:
            result, wall = outcome
            if run.record(f"repetition {rep}", checker.problems(seed, result)):
                samples.append((seed, wall, result.episodes))
        rep += 1
        if rep == workload.min_reps:
            peak = peak_rss_mib()
    return samples, peak or peak_rss_mib()


def measure_traced(workload, seconds: float, run: Run, checker: Checker, tracer, clock):
    """Pairs of untraced and traced repetitions on the same engine seed."""
    untraced, traced = [], []
    t_start = time.perf_counter()
    pair = 0
    while (pair < MIN_TRACE_PAIRS or time.perf_counter() - t_start < seconds) and (
        run.failed < MAX_FAILED_OPS
    ):
        seed = workload.engine_seed(pair)
        outcome = run.guarded(
            f"untraced repetition {pair}", lambda: timed_op(workload, seed, 2 * pair, clock)
        )
        if outcome is not None:
            result, wall = outcome
            if run.record(f"untraced repetition {pair}", checker.problems(seed, result)):
                untraced.append((seed, wall, result.episodes))
        outcome = run.guarded(
            f"traced repetition {pair}",
            lambda: tracer.run_op(pair, workload.operation(seed, 2 * pair + 1)),
        )
        if outcome is not None:
            raw, wall = outcome
            wall = clock.normalize(wall)
            result = run.guarded(
                f"traced repetition {pair}", lambda: workload.result(seed, 2 * pair + 1, raw)
            )
            if result is not None and run.record(
                f"traced repetition {pair}", checker.problems(seed, result)
            ):
                traced.append((seed, wall, result.episodes))
        pair += 1
    return untraced, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="skillmas benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skillmas" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {SRC / 'skillmas'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import skillmas

    if Path(skillmas.__file__).resolve().parent != (SRC / "skillmas").resolve():
        print(f"perfbench: imported skillmas from {skillmas.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return bench(workloads.WORKLOADS[args.workload](work, args.seed), args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def bench(workload, args) -> int:
    from calibration import Calibrated
    from tracing import Tracer
    from workloads import checkpoint_counts, sha256_text

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = Run()
    checker = Checker()
    log(f"{workload.name} seed {args.seed}: {workload.why}")
    clock = Calibrated()
    setup_s = time_setups(workload, run, clock)
    prepared = run.guarded(
        "prepare",
        lambda: workload.prepare(
            [workload.work / f"setup-{k}" for k in range(workload.setup_runs)]
        ),
    )
    if prepared is None:
        return 1
    run.record("prepare", prepared)
    panel = [workload.engine_seed(j) for j in range(workload.panel)]

    if args.trace:
        tracer = Tracer()
        untraced, traced = measure_traced(
            workload, args.seconds, run, checker, tracer, clock
        )
        if not untraced or not traced:
            print("perfbench: no repetition succeeded", file=sys.stderr)
            return 1
        run.record("span accounting", tracer.accounting_problems())
        if tracer.missing:
            log(f"not traced (absent from the engine): {', '.join(tracer.missing)}")
        plain, with_spans = throughput(untraced), throughput(traced)
        values = tracer.layer_metrics()
        values["trace.untraced_episodes_per_s"] = plain
        values["trace.traced_episodes_per_s"] = with_spans
        values["trace.overhead_frac"] = 1.0 - with_spans / plain
        values["machine.slowdown"] = statistics.median(clock.readings)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        tracer.write(spans_path)
        log(f"{len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}")
        reported = spec["per_layer"]
    else:
        samples, peak_rss = measure(workload, args.seconds, run, checker, clock)
        if not samples:
            print("perfbench: no repetition succeeded", file=sys.stderr)
            return 1
        counts = [checkpoint_counts(checker.reports[s]) for s in panel if s in checker.reports]
        values = {
            "episodes_per_s": throughput(samples),
            "checkpoint_success_rate": sum(s for s, _ in counts) / sum(e for _, e in counts),
            "peak_rss_mib": peak_rss,
            "setup_s": setup_s,
        }
        reported = spec["end_to_end"]
        log(f"{len(samples)} timed repetitions over engine seeds "
            f"{sorted({s for s, _, _ in samples})}")

    log(f"machine slowdown against nominal: median {statistics.median(clock.readings):.3f}, "
        f"range {min(clock.readings):.3f}-{max(clock.readings):.3f}")
    for seed in sorted(checker.reports):
        log(f"engine seed {seed}: trajectory report sha256 "
            f"{sha256_text(checker.reports[seed])}")
    if all(s in checker.reports for s in panel):
        log("panel report sha256 (concatenated trajectory reports) "
            + sha256_text("".join(checker.reports[s] for s in panel)))
    for what, problems in run.guarded("verify", lambda: workload.verify(checker.digests)) or []:
        run.record(what, problems)
    log(f"failed_frac {run.failed / run.attempted} ({run.failed}/{run.attempted} operations)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}
    for name, entry in metrics.items():
        log(f"{name} = {entry['value']} {entry['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
