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
PAIRING = ("tests/test_cli.py::test_golden_report", "tests/test_stacked.py::TestCampaignGroups::test_memo_equals_a_fresh_solve")
#: every check then solves alone; the report does not change, only the call counts can show it
SOLVES = ("tests/test_call_counts.py::TestKernelCallCounts",)
PROOF = ("tests/test_psd_proof.py",)
FALLBACK = (
    "tests/test_certify.py::TestCertifyG2::test_path3_ell2_is_tight",
    "tests/test_certify.py::TestCertifyG2::test_ell_one_gives_zero_matrix",
    "tests/test_stacked.py::test_only_laplacians_reach_the_stacked_solve",
)
READER = ("tests/test_graphs.py::TestEdgeListAgainstReference",)
STACK = ("tests/test_metrics.py::TestDistanceStack",)
BATCH = ("tests/test_analysis.py::TestBatch", "tests/test_stacked.py::test_batched_searches_change_no_stack_or_report")
BLOCKS = ("tests/test_cli.py::TestPower::test_blocks_write_the_whole_array_text",)
WRITER = (
    "tests/test_graphs.py::TestEdgeListAgainstReference::test_serialize_at_every_width_boundary",
    "tests/test_graphs.py::TestEdgeListAgainstReference::test_serialize_several_blocks_one_empty",
)
ER_BATCH = ("tests/test_graphs.py::TestBatchDraws",)
#: the sorted eccentricities of a stack (``metrics.eccentricities``) and s_ell read from them
EVERY_GRAPH = ("tests/test_analysis.py::TestEveryGraphUpToSixNodes",)
ECC_SORT = ("tests/test_metrics.py::TestEccentricityProfiles", "tests/test_analysis.py::TestBatch", *EVERY_GRAPH)
S_ELL = ("tests/test_metrics.py::TestCountSEll", *EVERY_GRAPH)
#: the solve chunk's masks, Laplacians and counts of G^ell (``bounds._settle``)
BROADCAST = ("tests/test_analysis.py::TestPrepare",)
COUNTS = (*BROADCAST, *EVERY_GRAPH)
#: lambda2 exactly n for a complete G^ell only: the eigensolve counts and the memo's values show it
CLOSED_FORM = ("tests/test_call_counts.py::TestKernelCallCounts", "tests/test_stacked.py::TestGraphAnalysisSolve")
GOLDEN = ("tests/test_cli.py::test_golden_report",)
#: the per-analysis planner of ``solve_stacked`` against the per-item rule, and an analysis listed twice
PLANNER = (
    "tests/test_stacked.py::TestPlanner",
    "tests/test_stacked.py::TestSolveStacked::test_an_analysis_listed_again_is_planned_once",
)
#: a drawn Erdos-Renyi batch searched from the packed CSR of its draw
DRAWN = ("tests/test_metrics.py::TestDrawnSearch",)
#: ``power_adjacency``'s clip of ell to the distance type
CLIP = ("tests/test_metrics.py::TestNarrowDistances",)
#: ``_read_bytes`` without its two-numbers-a-line test
TWO_A_LINE = """\
    if line_of.size % 2 or (line_of[::2] != line_of[1::2]).any() or (line_of[2::2] == line_of[1:-1:2]).any():
        return None
"""
#: ``_read_bytes`` without its lone "\r" check
LONE_CR = """\
        if text.count("\\r") != text.count("\\r\\n"):
            return None  # a lone "\\r" ends a line
"""
#: the eigensolver's Rayleigh step (``_kernels.jacobi_sweeps``) and the stopping rule that guards it
JACOBI = ("tests/test_kernels.py::TestJacobiKernels", "tests/test_spectral.py::TestLapackSeededStart")
#: two of eigh's columns turned by 1e-9: every other basis in the tests passes a rule loosened to 1e-6
RULE = ("tests/test_kernels.py::TestJacobiKernels::test_rotated_basis_raises_naming_its_member",)
#: eigh's basis reversed: its diagonal comes out descending, so the eigenvectors must follow the sort
SORT = ("tests/test_kernels.py::TestJacobiKernels::test_sort_permutes_the_vectors",)

#: ``_levels`` returning before it yields its last level: it first looks one level ahead
LEVELS_STOP = "        new &= ~rows\n        if not new.any():\n            return\n"
LEVELS_STOP_EARLY = LEVELS_STOP + """\
        ahead = reach.copy()
        ahead[:n] |= new
        if not (np.bitwise_or.reduceat(ahead.take(nbrs, axis=0), seg[:-1], axis=0) & ~ahead[:n]).any():
            return
"""

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
    Mutant("_levels stops one level early", "_kernels.py", LEVELS_STOP, LEVELS_STOP_EARLY, ("tests/test_kernels.py",)),
    Mutant("stacked results paired with the wrong (analysis, ell)", "bounds.py",
           "zip(part, values)", "zip(part[::-1], values)", PAIRING),
    Mutant("an unproved certificate skips its eigensolve", "bounds.py",
           "if won else is_psd(m)", "if won else CertificateResult(0.0, 0.0, PSD)", FALLBACK),
    Mutant("a campaign batch skips its solve_stacked call", "cli.py",
           "        solve_stacked(batch)\n", "", SOLVES),
    Mutant("Cholesky proof without its shift", "spectral.py",
           "diagonal -= shift[:, None]", "diagonal -= 0.0 * shift[:, None]", PROOF),
    Mutant("g1's integer coefficient off by one", "bounds.py",
           "(ell - 2) * self.n * self.n + 4 * self.n, 4", "(ell - 2) * self.n * self.n + 4 * self.n + 1, 4", PROOF),
    Mutant("a failed Cholesky proves its member", "spectral.py",
           "return np.zeros(1, dtype=bool)", "return np.ones(1, dtype=bool)", PROOF),
    Mutant("the byte pass accepts 19 digits", "graphs.py", "_MAX_DIGITS = 18", "_MAX_DIGITS = 19", READER),
    Mutant("the byte pass drops the two-numbers-a-line test", "graphs.py", TWO_A_LINE, "", READER),
    Mutant("the byte pass drops the lone \\r check", "graphs.py", LONE_CR, "", READER),
    Mutant("the comment pattern cuts a '#' after a number", "graphs.py",
           'rb"\\n[ \\t]*#[^\\n]*"', 'rb"#[^\\n]*"', READER),
    Mutant("the writer's table drops the widest numbers' top digit", "graphs.py",
           "np.unravel_index(np.arange(n),", "np.unravel_index(np.arange(n) % 10 ** (width - 1),", WRITER),
    Mutant("the writer's separators swapped", "graphs.py",
           'table[0, :, width] = ord(" ")\n    table[1, :, width] = ord("\\n")',
           'table[0, :, width] = ord("\\n")\n    table[1, :, width] = ord(" ")', WRITER),
    Mutant("the writer keeps a leading zero", "graphs.py",
           "for k in range(1, width):", "for k in range(1, width - 1):", WRITER),
    Mutant("a power block drops its last row", "_kernels.py",
           "_row_pairs(row_bytes[a:b], a)", "_row_pairs(row_bytes[a:b - 1], a)", BLOCKS),
    Mutant("packed reach leaks across member blocks", "metrics.py",
           "np.arange(len(graphs)) * n, sizes)", "np.arange(len(graphs)) * (n - 1), sizes)", STACK),
    Mutant("batch analyses handed a neighbour's distance block", "bounds.py",
           "zip(graphs, dist, sorted_eccentricities(dist))",
           "zip(graphs, np.roll(dist, 1, axis=0), sorted_eccentricities(dist))", BATCH),
    Mutant("the ER batch draws its doubles pair-major", "graphs.py",
           "rng.random((count, len(upper)))", "rng.random((len(upper), count)).T", ER_BATCH),
    Mutant("the eccentricity sort runs along axis 0, mixing a stack's members", "metrics.py",
           "ecc.sort(axis=-1)", "ecc.sort(axis=0)", ECC_SORT),
    Mutant("count_s_ell bisects left, dropping the nodes of eccentricity exactly ell", "metrics.py",
           "from bisect import bisect_right", "from bisect import bisect_left as bisect_right", S_ELL),
    Mutant("count_s_ell counts a disconnected graph's UNREACHABLE nodes", "metrics.py",
           "return 0 if eccs[-1] == UNREACHABLE else bisect_right(eccs, ell)", "return bisect_right(eccs, ell)",
           S_ELL),
    Mutant("the power mask takes distance < ell", "metrics.py", "adj = dist <= np.array(", "adj = dist < np.array(",
           BROADCAST),
    Mutant("a chunk member gets a neighbour's distance matrix", "bounds.py",
           "np.array([a.dist for a, _ in keys])", "np.roll(np.array([a.dist for a, _ in keys]), 1, axis=0)",
           BROADCAST),
    Mutant("a proof pairs L(G) with another member's L(G^ell)", "bounds.py",
           "[row[a, ell] for a, (_, ell) in part]", "[row[a, ell] for a, (_, ell) in part[::-1]]", PROOF),
    Mutant("a proof reads the L(G^ell) row of the neighbouring key", "bounds.py",
           "[row[a, ell] for a, (_, ell) in part]", "[row[a, ell] - 1 for a, (_, ell) in part]", PROOF),
    Mutant("the counts of G^ell are read from the L(G) row", "bounds.py",
           "a._counts[ell] = counts[row[a, ell]]", "a._counts[ell] = counts[row[a, 1]]", COUNTS),
    Mutant("e(G^ell) without the halving", "bounds.py",
           "edges = (degrees.sum(axis=1) // 2).tolist()", "edges = degrees.sum(axis=1).tolist()", COUNTS),
    Mutant("lambda2 in closed form at ell = 1 too", "bounds.py",
           "ell >= 2 and a.connected and a.diameter", "ell >= 1 and a.connected and a.diameter", GOLDEN),
    Mutant("completeness read from G rather than G^ell", "bounds.py",
           "a.connected and a.diameter <= ell:", "a.connected and a.diameter <= 1:", CLOSED_FORM),
    Mutant("power_adjacency clips ell to one below its type's largest value", "metrics.py",
           "top = (1 << 8 * dist.itemsize - 1) - 1", "top = (1 << 8 * dist.itemsize - 1) - 2", CLIP),
    Mutant("Jacobi stopping rule 1e-6", "_kernels.py",
           "OFF_DIAG_REL_TOL = 1e-12", "OFF_DIAG_REL_TOL = 1e-6", RULE),
    Mutant("Jacobi guard passes a NaN norm", "_kernels.py",
           "np.flatnonzero(~(norms <= off_tol))", "np.flatnonzero(norms > off_tol)", JACOBI),
    Mutant("Jacobi's sort permutes the eigenvalues but not the eigenvectors", "_kernels.py",
           "        vectors = vectors.transpose(0, 2, 1)[pick].transpose(0, 2, 1)  # the columns, picked as rows\n", "",
           SORT),
    Mutant("the drawn packing drops the member offset", "graphs.py",
           "at[1:])], indptr, cols)", "at[1:])], indptr, nodes)", DRAWN),
    Mutant("an analysis listed again re-plans the items waiting in the open chunk", "bounds.py",
           "        if a in planned:", "        if False:", PLANNER),
    Mutant("an analysis that straddles the budget joins a fresh chunk whole", "bounds.py",
           "        if len(keys) + len(reads - keys) > budget:\n            runs",
           "        if len(reads) > budget:\n            runs", PLANNER),
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
