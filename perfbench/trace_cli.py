#!/usr/bin/env python3
"""Trace one eccbounds CLI invocation and print call counts per layer boundary.

Usage (from the repository root):

    python3 perfbench/trace_cli.py verify --family erdos_renyi --n 12 --p 0.3 --trials 100 --seed 42

The command's own report is discarded; the table gives, per boundary, the
calls, the byte-identical distinct inputs (where counted) and the self time.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

import environment

environment.pin_blas_threads()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import eccbounds.cli  # noqa: E402

import layers  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = layers.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = eccbounds.cli.main(argv)
        wall = time.perf_counter() - start
    tracer.end_op()
    print(f"exit {rc}, traced wall {wall:.3f} s")
    print(f"{'boundary':34} {'calls':>7} {'distinct':>8} {'self_s':>9}")
    for name, totals in tracer.totals.items():
        distinct = str(totals.distinct) if name in layers.DISTINCT else ""
        print(f"{name:34} {totals.calls:7d} {distinct:>8} {totals.self_s:9.4f}")
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
