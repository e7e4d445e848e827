"""Benchmark for capfuse: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload homophone-train --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The program is imported from ``src/``
next to this directory; nothing else is read. With ``--trace 0`` the run
sets the workload up several times (``setup_s`` is the median), then
repeats whole rounds while the next round is expected to end within
``--seconds``, checks the outputs and prints the end-to-end metrics. With
``--trace 1`` it runs one set-up plus round untraced and then one traced,
and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1  # fixed, and never more than nproc
SETUP_REPEATS = 4
WORKLOAD_NAMES = ("homophone-train", "homophone-correct", "vocab20k-long")

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Import capfuse from this checkout's src/, or return None."""
    package = ROOT / "src" / "capfuse"
    if not (package / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import capfuse
    except ImportError:
        return None
    if Path(capfuse.__file__).resolve().parent != package.resolve():
        return None
    return capfuse


def _stamp(args, numpy) -> None:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_files = sorted((ROOT / "src" / "capfuse").glob("*.py"))
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src_files)
    print(f"stamp: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"numpy {numpy.__version__}, blas {blas.get('name')} {blas.get('version')}, "
          f"blas threads {BLAS_THREADS}")
    print(f"stamp: workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")
    print(f"stamp: src/capfuse {len(src_files)} files, {src_lines} lines "
          f"(reference figure, not a metric)")


def _percentile_with_tail(samples, numpy):
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    pct = max(0, int(100 * (1 - 10 / n))) if n > 10 else 50
    return pct, float(numpy.percentile(samples, pct))


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setups(workload, work: Path, seed: int, count: int, setup_s: list):
    """Set the workload up ``count`` times, each from a collected heap as in
    a fresh process; returns the last set-up."""
    for _ in range(count):
        target = work / f"setup-{len(setup_s)}"
        gc.collect()
        started = time.perf_counter()
        setup = workload.make(target, seed)
        setup_s.append(time.perf_counter() - started)
    return setup


def run_plain(args, workload, work: Path, numpy, workloads, measure):
    # half the set-ups before the rounds and half after, so that their
    # median samples the same stretch of machine time as the rounds
    setup_s = []
    setup = _timed_setups(workload, work, args.seed, SETUP_REPEATS // 2, setup_s)
    durations, digests = [], []
    started = time.perf_counter()
    while True:
        round_dir = work / f"round-{len(durations)}"
        begun = time.perf_counter()
        out = workloads.run_round(setup, measure, round_dir)
        durations.append(time.perf_counter() - begun)
        digests.append(out.digest)
        if len(durations) > 1:
            shutil.rmtree(work / f"round-{len(durations) - 2}")
        elapsed = time.perf_counter() - started
        if elapsed + statistics.mean(durations) > args.seconds:
            break
    print(f"rounds: {len(durations)}, seconds " + " ".join(f"{d:.2f}" for d in durations))
    _timed_setups(workload, work, args.seed, SETUP_REPEATS - SETUP_REPEATS // 2, setup_s)
    print(f"setup: {len(setup_s)} set-ups, seconds " + " ".join(f"{s:.3f}" for s in setup_s))

    passed = workloads.check_round(workload, setup, out, args.seed)
    workloads.checks.require(len(set(digests)) == 1, "rounds_identical",
                             f"{len(set(digests))} distinct outputs over "
                             f"{len(digests)} rounds")
    passed.append(f"{len(digests)} rounds gave bit-identical outputs")

    # the tail is taken per round, where the step count is fixed, and its
    # median over rounds reported
    tails = [_percentile_with_tail([1000.0 * s for s in steps], numpy)
             for steps in measure.step_s]
    step_ms = [1000.0 * s for steps in measure.step_s for s in steps]
    print(f"train steps: {len(measure.step_s[0])} per round; train_step_tail_ms is "
          f"p{tails[0][0]} of each round's steps")
    values = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_step_ms": (float(numpy.median(step_ms)), "ms"),
        "train_step_tail_ms": (statistics.median(t for _, t in tails), "ms"),
        "train_tokens_per_s": (measure.tokens / measure.train_s, "tokens/s"),
        "correct_greedy_sents_per_s": (measure.correct[1][0] / measure.correct[1][1],
                                       "sentences/s"),
        "correct_beam4_sents_per_s": (measure.correct[4][0] / measure.correct[4][1],
                                      "sentences/s"),
        "evaluate_sents_per_s": (measure.eval_n / measure.eval_s, "sentences/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return passed, values, measure.attempted, measure.failed


def run_traced(args, workload, work: Path, numpy, workloads, measure):
    import tracing

    walls, digests = [], []
    tracer = tracing.Tracer()
    for index, traced in enumerate((False, True)):
        target = work / f"pass-{index}"
        if traced:
            tracer.install()
        try:
            started = time.perf_counter()
            setup = workload.make(target / "setup", args.seed)
            tracer.stage_models = {id(s.model): s.name for s in setup.stages.values()}
            out = workloads.run_round(setup, measure, target / "round")
            walls.append(time.perf_counter() - started)
        finally:
            if traced:
                tracer.uninstall()
        digests.append(out.digest)
    print("passes (untraced, traced): seconds " + " ".join(f"{w:.2f}" for w in walls))

    passed = workloads.check_round(workload, setup, out, args.seed)
    workloads.checks.require(len(set(digests)) == 1, "tracing_changes_nothing",
                             "traced and untraced rounds gave different outputs")
    passed.append("traced and untraced passes gave bit-identical outputs")
    if tracer.absent:
        print("trace: entry points no longer in the program, reading 0: "
              + ", ".join(tracer.absent))
    missing = tracer.self_check()
    workloads.checks.require(not missing, "trace_self_check",
                             "wrapped entry points recorded nothing: " + ", ".join(missing))
    passed.append(f"trace self-check: every wrapped entry point recorded work "
                  f"({len(tracer.spans)} spans)")

    values = dict(tracer.layer_metrics())
    values["trace.overhead_ms"] = (1000.0 * (walls[1] - walls[0]), "ms")
    values["trace.overhead_pct"] = (100.0 * (walls[1] - walls[0]) / walls[0], "%")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(span_file, {"workload": args.workload, "seed": args.seed})
    print(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
    return passed, values, measure.attempted, measure.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if _import_program() is None:
        return _fail(f"cannot import capfuse from {ROOT / 'src'}")
    import numpy
    import workloads  # imports capfuse modules, after the BLAS settings

    _stamp(args, numpy)
    workload = workloads.WORKLOADS[args.workload]
    print(f"workload: {workload.name}: {workload.why}")
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    measure = workloads.Measure()
    workloads.install_step_clock(measure)
    try:
        runner = run_traced if args.trace else run_plain
        passed, values, attempted, failed = runner(args, workload, work, numpy,
                                                   workloads, measure)
    except workloads.checks.CheckError as exc:
        print(f"CHECK FAILED {exc}")
        print(json.dumps({"correct": False, "attempted": max(measure.attempted, 1),
                          "failed": measure.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in passed:
        print(f"check passed: {line}")
    print(f"operations: attempted {attempted}, failed {failed}")
    for name, (value, unit) in values.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
