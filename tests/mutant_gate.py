"""Mutant gate: each hand-written mutant of the package must fail its named tests.

Run from anywhere with ``python tests/mutant_gate.py``. For each mutant it
checks that the old text occurs exactly once in its file, applies the mutant
to a fresh copy of ``src/``, runs the named tests against that copy, and
requires them to fail. The named tests must first pass on an unmutated copy.
It prints one line per mutant, appends the killed count to
``$GITHUB_STEP_SUMMARY`` when that is set, and exits 1 if any mutant
survives or cannot be applied. The file name keeps pytest from collecting it.

A surviving mutant is a gap in the tests: the cure is a new test, never a
weaker mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/eccbounds
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids relative to the repository root


BOUNDS = ("tests/test_bounds.py",)
CHAIN = ("tests/test_certify.py::TestCheckChain",)
POWER = ("tests/test_metrics.py::TestBoundedSearch", "tests/test_kernels.py::TestBoundedBfs")

MUTANTS = (
    Mutant("gamma 4/n", "bounds.py",
           "return (ell - 2 + 4.0 / n) * (n * n) / 4.0", "return (ell - 2 + 3.0 / n) * (n * n) / 4.0", BOUNDS),
    Mutant("gamma n^2/4", "bounds.py",
           "return (ell - 2 + 4.0 / n) * (n * n) / 4.0", "return (ell - 2 + 4.0 / n) * (n * n) / 3.0", BOUNDS),
    Mutant("g2 ell factor", "bounds.py",
           "return s_ell / (1 + ell * (e_power - m))", "return s_ell / (1 + (e_power - m))", BOUNDS),
    Mutant("lu denominator", "bounds.py",
           "return n / (1 + d * e_complement)", "return n / (1 + e_complement)", BOUNDS),
    Mutant("mohar denominator", "bounds.py",
           "return 4.0 / (d * n)", "return 4.0 / (d * n + 1)", BOUNDS),
    Mutant("g1_diam denominator", "bounds.py",
           "return 4.0 / ((d - 2 + 4.0 / n) * n)", "return 4.0 / ((d - 1 + 4.0 / n) * n)", BOUNDS),
    Mutant("scalar tolerance 1e-3", "bounds.py",
           "TIGHTNESS_REL_TOL = 1e-9", "TIGHTNESS_REL_TOL = 1e-3", ("tests/test_cli.py::TestToleranceCut",)),
    Mutant("PSD tolerance 1e-4", "spectral.py",
           "PSD_REL_TOL = 1e-8", "PSD_REL_TOL = 1e-4", ("tests/test_spectral.py", "tests/test_certify.py")),
    Mutant("chain link 1 absolute 1e-3", "certify.py",
           "lambda2_power / gamma_val - tolerance(lambda2_g)", "lambda2_power / gamma_val - 1e-3", CHAIN),
    Mutant("chain link 3 always holds", "certify.py",
           "link3 = s1_power == s_ell", "link3 = True", CHAIN),
    Mutant("_from_pairs keeps duplicate keys", "graphs.py",
           "np.not_equal(keys[1:], keys[:-1], out=first[1:])", "first[1:] = True", ("tests/test_graphs.py",)),
    Mutant("power_pairs one level late", "_kernels.py",
           "if level == ell:", "if level == ell + 1:", POWER),
    Mutant("power_pairs mask drops bit 63", "_kernels.py",
           "np.left_shift(~np.uint64(1),", "np.left_shift(np.uint64(0x7FFFFFFFFFFFFFFE),", POWER),
)


def copy_source(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def run_tests(src: Path, tests: tuple[str, ...], workdir: Path) -> int:
    """pytest's exit code for ``tests`` with the package imported from ``src``.

    It runs in ``workdir`` so that hypothesis keeps no example database in the checkout.
    """
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    argv += ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT)]
    argv += [str(ROOT / test) for test in tests]
    done = subprocess.run(argv, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode


def main() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="mutant-gate-") as tmp:
        workdir = Path(tmp)
        clean = copy_source(workdir / "clean")
        named = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
        code = run_tests(clean, named, workdir)
        if code != 0:
            print(f"error: the named tests fail on the unmutated source (pytest exit {code})")
            return 1
        for k, mutant in enumerate(MUTANTS):
            path = ROOT / "src" / "eccbounds" / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                failures.append(mutant.name)
                print(f"NOT APPLIED  {mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
                continue
            src = copy_source(workdir / f"mutant-{k}")
            (src / "eccbounds" / mutant.file).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            code = run_tests(src, mutant.tests, workdir)
            shutil.rmtree(src.parent)
            if code == 1:
                print(f"killed       {mutant.name}")
            else:
                failures.append(mutant.name)
                verdict = "SURVIVED" if code == 0 else f"ERROR {code}"
                print(f"{verdict:<12} {mutant.name}: {' '.join(mutant.tests)}")
    killed = len(MUTANTS) - len(failures)
    line = f"mutant gate: {killed} of {len(MUTANTS)} mutants killed"
    print(line)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(f"{line}\n")
            fh.writelines(f"- not killed: {name}\n" for name in failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
