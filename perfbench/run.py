#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the eccbounds command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-er12 --seed 1 --seconds 30 --trace 0

One client calls ``eccbounds.cli.main(argv)`` back to back (a closed loop)
for ``--seconds`` seconds, taking operations in order from the workload's
pool. A few operations are then repeated untimed, and every output is checked
by an independent oracle. With ``--trace 0`` the run reports the end-to-end
metrics, with times scaled to the reference host's speed (see
``calibration.py``); the raw wall-clock figures are printed alongside. With
``--trace 1`` each operation runs once untraced and once traced, and the run
reports per-layer metrics and the tracing overhead. Metric names and units
come from ``BENCHMARK.json``. The last line of standard output is the JSON
result.
"""

from __future__ import annotations

import environment

environment.pin_blas_threads()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import INTERVAL_S, Calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: setup_s is the median of this many fresh-process set-ups.
SETUP_REPEATS = 7
#: op_tail_s is this percentile; the workloads are sized so that a 30 s run
#: on 2 CPUs leaves at least TAIL_BEYOND samples above it.
TAIL_PERCENTILE = 90
TAIL_BEYOND = 10
#: Operations re-run untimed after the loop; their output must not change.
REPEATS = 3

#: Runs in a fresh interpreter: import the package, make one tiny call, and
#: print the elapsed time, the exit code and where the package came from.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import eccbounds.cli
rc = eccbounds.cli.main(sys.argv[1:])
print(time.perf_counter() - start, rc, eccbounds.__file__)
"""


@dataclass
class Record:
    """One attempted operation: pool index, duration, exit code or error, output digest."""

    index: int
    start: float
    seconds: float
    rc: int | None
    error: str | None
    digest: str | None


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workdir: Path) -> tuple[float, float]:
    """Median time to import eccbounds and finish one tiny CLI call, in fresh processes.

    Returns the raw median and the host-speed factor measured between the probes.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [
        sys.executable, "-c", SETUP_PROBE,
        "verify", "--family", "path", "--n", "3", "--trials", "1", "--out", str(workdir / "setup.json"),
    ]
    times = []
    calibration = Calibration()
    for _ in range(SETUP_REPEATS):
        calibration.sample()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds, rc, origin = proc.stdout.split()
        if rc != "0" or not Path(origin).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up probe failed: exit {rc}, package from {origin}")
        times.append(float(seconds))
    return statistics.median(times), calibration.factor()


class Runner:
    """Runs operations through ``cli.main`` and keeps each distinct output once."""

    def __init__(self, cli, ops, workdir: Path):
        self.cli = cli
        self.ops = ops
        self.out = workdir / "out.txt"
        self.outputs: dict[str, str] = {}

    def run(self, index: int) -> Record:
        op = self.ops[index]
        self.out.unlink(missing_ok=True)
        argv = [*op.argv, "--out", str(self.out)]
        start = time.perf_counter()
        try:
            rc = self.cli.main(argv)  # looked up per call, so a traced main is used
        except Exception as exc:  # a crashing operation is a failure, not the end of the run
            return Record(index, start, time.perf_counter() - start, None, repr(exc), None)
        seconds = time.perf_counter() - start
        digest = None
        if rc == 0 and self.out.is_file():
            text = self.out.read_text(encoding="utf-8")
            digest = hashlib.sha256(text.encode()).hexdigest()
            self.outputs.setdefault(digest, text)
        return Record(index, start, seconds, rc, None, digest)


def count_failures(runner: Runner, records: list[Record]) -> int:
    """Check every record; the same command must always give the same, correct output."""
    first: dict[int, str | None] = {}
    verdicts: dict[tuple[int, str], list[str]] = {}
    failed = 0
    for rec in records:
        if rec.error is not None:
            problems = [f"raised {rec.error}"]
        elif rec.rc != 0 or rec.digest is None:
            problems = [f"exit {rec.rc}, output {'present' if rec.digest else 'missing'}"]
        else:
            problems = []
            if first.setdefault(rec.index, rec.digest) != rec.digest:
                problems.append("output differs from an earlier run of the same command")
            key = (rec.index, rec.digest)
            if key not in verdicts:
                try:
                    verdicts[key] = runner.ops[rec.index].check(runner.outputs[rec.digest])
                except Exception as exc:  # an unreadable output is a failed check
                    verdicts[key] = [f"oracle could not read the output: {exc!r}"]
            problems += verdicts[key]
        if problems:
            failed += 1
            if failed <= 5:
                argv = " ".join(runner.ops[rec.index].argv)
                print(f"FAILED {argv}: {'; '.join(problems)}", file=sys.stderr)
    return failed


def end_to_end(runner: Runner, seconds: float) -> tuple[list[Record], dict[str, float]]:
    import numpy as np

    runner.run(0)  # warm-up: caches and lazy initialisation, not timed
    calibration = Calibration()
    calibration.sample()
    records = []
    since_sample = 0.0
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        records.append(runner.run(len(records) % len(runner.ops)))
        since_sample += records[-1].seconds
        if since_sample >= INTERVAL_S:
            calibration.sample()
            since_sample = 0.0
    calibration.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = np.array([rec.seconds for rec in records])
    latency = raw * np.array([calibration.factor(at=rec.start) for rec in records])
    completed = sum(rec.error is None and rec.rc == 0 for rec in records)
    tail = float(np.percentile(latency, TAIL_PERCENTILE))
    beyond = int((latency > tail).sum())
    print(f"op_tail_s is p{TAIL_PERCENTILE} of {latency.size} operations, {beyond} beyond it")
    if beyond < TAIL_BEYOND:
        print(f"warning: fewer than {TAIL_BEYOND} samples beyond p{TAIL_PERCENTILE}", file=sys.stderr)
    print(
        f"raw wall clock: ops_per_s = {completed / raw.sum():.6g} 1/s, "
        f"op_p50_s = {np.median(raw):.6g} s, "
        f"op_tail_s = {np.percentile(raw, TAIL_PERCENTILE):.6g} s; "
        f"mean host-speed factor {latency.sum() / raw.sum():.4f}"
    )
    metrics = {
        "ops_per_s": completed / float(latency.sum()),
        "op_p50_s": float(np.median(latency)),
        "op_tail_s": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    return records, metrics


def per_layer(runner: Runner, seconds: float) -> tuple[list[Record], dict[str, float]]:
    import layers

    runner.run(0)
    tracer = layers.Tracer()
    records = []
    untraced = traced = 0.0
    deadline = time.perf_counter() + seconds
    while not records or time.perf_counter() < deadline:
        index = len(records) // 2 % len(runner.ops)
        rec = runner.run(index)
        untraced += rec.seconds
        records.append(rec)
        with tracer:
            rec = runner.run(index)
        tracer.end_op()
        traced += rec.seconds
        records.append(rec)
    metrics = tracer.metrics()
    metrics["trace.op_s"] = traced / tracer.ops
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    top = sorted(tracer.totals.items(), key=lambda item: -item[1].self_s)[:5]
    print("largest self times: " + ", ".join(f"{name} {t.self_s / traced:.1%}" for name, t in top))
    return records, metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "eccbounds" / "__init__.py").is_file():
        print(f"error: no eccbounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eccbounds.cli

    import workloads

    if not Path(eccbounds.__file__).resolve().is_relative_to(SRC):
        print(f"error: eccbounds imported from {eccbounds.__file__}, not {SRC}", file=sys.stderr)
        return 2
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in why or args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(why)}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    print("env " + json.dumps(environment.describe(ROOT), sort_keys=True))
    print(f"workload {args.workload} (seed {args.seed}): {why[args.workload]}")
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(eccbounds.cli, workloads.build(args.workload, args.seed, workdir), workdir)
        records, metrics = (per_layer if args.trace else end_to_end)(runner, args.seconds)
        records += [runner.run(index % len(runner.ops)) for index in range(REPEATS)]
        if not args.trace:
            setup_raw, factor = measure_setup(workdir)
            print(f"raw wall clock: setup_s = {setup_raw:.6g} s; host-speed factor {factor:.4f}")
            metrics["setup_s"] = setup_raw * factor
        failed = count_failures(runner, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {declared[name]}")
    print(f"fail_frac = {failed / len(records):.6g} ({failed} of {len(records)} operations)")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
