"""Command-line front end for bound analysis and verification campaigns.

Subcommands:

* ``analyze``    -- evaluate every bound on one edge-list file.
* ``verify``     -- randomized campaign: bounds, certificates, and the
                    spectral chain on generated graphs; violations exit 1.
* ``tightness``  -- sweep a deterministic family and rank bound/lambda2
                    ratios to show where each bound is sharp.
* ``power``      -- write the ell-th power of a graph as an edge list.

``verify`` draws its trials a batch of graphs at a time (``generate_batch``),
finds their distances and eccentricities in one BFS and one pass per batch
(``GraphAnalysis.batch``), and settles their certificates, spectra and power
counts in one ``bounds.solve_stacked`` call per batch, each of whose chunks
builds its masks in one broadcast that serves the proofs, the eigensolve and
the counts of G^ell; none of these changes a byte of its report. Its
worst-slack graph is serialized once, by ``summary_json``.

Exit codes: 0 success, 1 verification violation, 2 usage or input error.
Reports are deterministic: the same command line and seed produce byte
identical output. Every report value goes through one pair of formatters,
``_csv_cell`` and ``_json_value``: reals are printed with 12 significant
digits, and fields that do not apply (diameter-based bounds on disconnected
graphs) are empty in CSV and null in JSON. The argument parser is built once,
at import; each ``_cmd_*`` returns its report text (``power``: a writer that
writes G^ell a block at a time) and exit code, and ``main`` writes it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import partial
from typing import Callable, TextIO

import numpy as np

from .bounds import (
    BOUND_NAMES, MAX_ELL, BoundReport, GraphAnalysis, evaluate_all, solve_stacked, stack_members, tolerance,
)
from .certify import certify_g1_matrix, certify_g2_matrix, check_chain
from .graphs import (
    FAMILIES, check_node_count, generate, generate_batch, load_edge_list, serialize_edge_list, serialize_edges,
)
# unused here, but perfbench/test_perfbench.py asserts this all_pairs_distances import site
from .metrics import all_pairs_distances, power_blocks  # noqa: F401
from .spectral import PSD

#: Families usable with the tightness sweep (deterministic, connected).
TIGHTNESS_FAMILIES = ("path", "cycle", "star", "complete")

#: Column order for analyze reports; diameter is None when disconnected, and
#: the slack columns mirror the bound columns.
CSV_COLUMNS = (
    *("n", "m", "ell", "s1", "s2", "s_ell", "diameter", "e_power", "e_complement", "lambda2"),
    *(f"bound_{name}" for name in BOUND_NAMES),
    *(f"slack_{name}" for name in BOUND_NAMES),
)


def _csv_cell(x: object) -> str:
    """One CSV field: None is empty, a real has 12 significant digits."""
    if x is None:
        return ""
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _json_value(x: object) -> object:
    """One JSON value: a real is rounded to 12 significant digits."""
    return float(f"{x:.12g}") if isinstance(x, float) else x


def _report_row(report: BoundReport) -> dict[str, object]:
    """The analyze report's values keyed by column, in CSV_COLUMNS order."""
    per_bound = {"bound": report.bounds, "slack": report.slacks}
    row: dict[str, object] = {}
    for column in CSV_COLUMNS:
        kind, _, name = column.partition("_")
        row[column] = per_bound[kind][name] if kind in per_bound else getattr(report, column)
    return row


def report_csv(report: BoundReport) -> str:
    """One header line plus one data row in the pinned column order."""
    cells = map(_csv_cell, _report_row(report).values())
    return ",".join(CSV_COLUMNS) + "\n" + ",".join(cells) + "\n"


def report_json(report: BoundReport) -> str:
    """JSON object with the same fields as the CSV plus the tight-bound list."""
    obj = {column: _json_value(value) for column, value in _report_row(report).items()}
    obj["tight"] = [name for name in BOUND_NAMES if report.tight.get(name, False)]
    return json.dumps(obj, indent=2) + "\n"


def _check_ell_policy(policy: int | str) -> None:
    if isinstance(policy, str):
        if policy != "all":
            raise ValueError(f"ell policy must be 'all' or an integer, got {policy!r}")
    elif policy < 2:
        raise ValueError(f"fixed ell must be >= 2, got {policy}")
    elif policy > MAX_ELL:
        raise ValueError(f"fixed ell must be <= {MAX_ELL:.0e}, got {policy}")


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one verification campaign.

    ``ell_policy`` is either the string "all" (every ell from 2 to the
    diameter, at least ell=2) or a fixed integer >= 2.
    """

    family: str
    n: int
    p: float | None = None
    trials: int = 100
    seed: int = 0
    ell_policy: int | str = "all"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.n < 2:
            raise ValueError(f"campaign needs n >= 2, got {self.n}")
        check_node_count(self.n)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _check_ell_policy(self.ell_policy)


@dataclass
class _BoundStats:
    """Streaming slack statistics for one bound across a campaign."""

    count: int = 0
    tight_count: int = 0
    min_slack: float | None = None
    slack_sum: float = 0.0

    def add(self, slack: float, tight: bool) -> None:
        self.count += 1
        self.tight_count += int(tight)
        self.slack_sum += slack
        if self.min_slack is None or slack < self.min_slack:
            self.min_slack = slack

    def as_dict(self) -> dict[str, object]:
        mean = self.slack_sum / self.count if self.count else None
        return {
            "checks": self.count,
            "tight_count": self.tight_count,
            "min_slack": _json_value(self.min_slack),
            "mean_slack": _json_value(mean),
        }


@dataclass
class CampaignSummary:
    """Outcome of a verification campaign; violations must be empty."""

    config: CampaignConfig
    connected_trials: int = 0
    disconnected_trials: int = 0
    checks: int = 0
    violations: list[dict[str, object]] = field(default_factory=list)
    bound_stats: dict[str, _BoundStats] = field(
        default_factory=lambda: {name: _BoundStats() for name in BOUND_NAMES}
    )
    #: the loosest connected check so far; its "graph" is the Graph, serialized only by ``summary_json``
    worst_slack: dict[str, object] | None = None


def _policy_ells(policy: int | str, diameter: int) -> list[int]:
    """The ells to check; a disconnected graph (diameter UNREACHABLE) gets ell=2."""
    if policy == "all":
        return list(range(2, max(2, diameter) + 1))
    return [int(policy)]


def run_campaign(config: CampaignConfig) -> CampaignSummary:
    """Generate graphs and verify every bound, certificate, and chain link.

    Disconnected graphs are not skipped outright: the degenerate claims
    (zero eccentricity counts, zero bounds, an eigensolver lambda2 of 0) are still checked;
    only the connectivity-dependent certificates and chain are omitted. Each
    graph gets one ``GraphAnalysis``, shared by every check on it. Trials are
    taken in order a batch at a time, at most ``stack_members(n) // n`` (at
    least 1) to a batch, and the batch is the campaign's only cut. Each batch
    is drawn by one ``generate_batch`` call on the campaign's Generator (one
    draw for an Erdos-Renyi batch); ``GraphAnalysis.batch`` searches its
    distances in one BFS and reads its eccentricities in one pass; one
    ``solve_stacked`` call builds each (graph, ell) mask of the batch once, in
    one broadcast per chunk, fills the counts of G^ell from it, proves the
    batch's certificates and eigensolves its Laplacians but L(K_n); the
    checks then run trial by trial, and the batch is dropped.
    A trial reads at most n Laplacians, L(G) and one per ell (at most
    max(1, n - 2) ells), so a batch's Laplacians fit one stack
    (``bounds.stack_members``). Each member is bitwise the graph, analysis
    and results a trial-at-a-time route would make, so the cut changes no
    byte of the report.
    """
    summary = CampaignSummary(config=config)
    rng = np.random.default_rng(config.seed)
    per_batch = max(1, stack_members(config.n) // config.n)
    for first in range(0, config.trials, per_batch):
        count = min(per_batch, config.trials - first)
        graphs = generate_batch(config.family, config.n, count, p=config.p, seed=rng)
        batch = [(a, _policy_ells(config.ell_policy, a.diameter)) for a in GraphAnalysis.batch(graphs)]
        solve_stacked(batch)
        for trial, (analysis, ells) in enumerate(batch, first):
            _check_trial(summary, trial, analysis, ells)
    return summary


def _check_trial(summary: CampaignSummary, trial: int, analysis: GraphAnalysis, ells: list[int]) -> None:
    """Record one solved trial's checks, violations and slack statistics in ``summary``."""
    g = analysis.graph

    def flag(kind: str, detail: str, ell: int | None) -> None:
        summary.violations.append(
            dict(trial=trial, ell=ell, kind=kind, detail=detail, graph=serialize_edge_list(g))
        )

    if analysis.connected:
        summary.connected_trials += 1
    else:
        summary.disconnected_trials += 1

    for ell in ells:
        report = evaluate_all(analysis, ell)
        summary.checks += 1
        lam, bounds, tight = report.lambda2, report.bounds, report.tight
        tol = tolerance(lam)

        for name, slack in report.slacks.items():  # in BOUND_NAMES order
            if slack is None:
                continue
            if slack < -tol:
                flag("bound_violation", f"bound_{name}={bounds[name]!r} exceeds lambda2={lam!r}", ell)
            if analysis.connected:
                summary.bound_stats[name].add(slack, tight[name])
                worst = summary.worst_slack
                if worst is None or slack > worst["slack"]:  # type: ignore[operator]
                    summary.worst_slack = {
                        "bound": name,
                        "slack": slack,
                        "trial": trial,
                        "ell": ell,
                        "lambda2": lam,
                        "graph": g,  # serialized by summary_json
                    }

        if analysis.connected:
            for name, certify in (("g1", certify_g1_matrix), ("g2", certify_g2_matrix)):
                cert = certify(analysis, ell)
                if cert.verdict != PSD:
                    flag(
                        f"certificate_{name}_not_psd",
                        f"min eigenvalue {cert.min_eigenvalue!r} below -{cert.tolerance!r}",
                        ell,
                    )
            chain = check_chain(analysis, ell)
            if not chain.all_hold:
                flag("chain_violation", f"links_hold={chain.links_hold}", ell)
        else:
            if report.s_ell != 0:
                flag("disconnected_s_ell_nonzero", f"s_ell={report.s_ell}", ell)
            for name in ("s1", "s2_over_n", "g1", "g2"):
                if report.bounds[name] != 0.0:
                    flag(
                        "disconnected_bound_nonzero",
                        f"bound_{name}={report.bounds[name]!r}",
                        ell,
                    )
            if abs(analysis.lambda2) > tolerance(0.0):
                flag("disconnected_lambda2_nonzero", f"lambda2={analysis.lambda2!r}", ell)


def summary_json(summary: CampaignSummary) -> str:
    """Deterministic JSON rendering of a campaign summary; the worst slack's graph is serialized here."""
    worst = summary.worst_slack
    if worst is not None:
        worst = dict(worst, graph=serialize_edge_list(worst["graph"]))  # type: ignore[arg-type]
    obj = {
        "config": {  # the fields as they are: asdict would deep-copy them
            "ell" if f.name == "ell_policy" else f.name: getattr(summary.config, f.name)
            for f in fields(summary.config)
        },
        "trials": summary.config.trials,
        "connected_trials": summary.connected_trials,
        "disconnected_trials": summary.disconnected_trials,
        "checks": summary.checks,
        "violations": len(summary.violations),
        "violation_details": summary.violations,
        "bounds": {name: summary.bound_stats[name].as_dict() for name in BOUND_NAMES},
        "worst_slack": None if worst is None else {k: _json_value(v) for k, v in worst.items()},
    }
    return json.dumps(obj, indent=2) + "\n"


@dataclass(frozen=True)
class TightnessRecord:
    """Ratio of one bound to lambda2 on one member of a deterministic family."""

    family: str
    n: int
    ell: int
    bound: str
    value: float
    lambda2: float
    ratio: float


def run_tightness(family: str, n_max: int, ell_policy: int | str = "all") -> list[TightnessRecord]:
    """Rank every bound/lambda2 ratio across a family, sharpest first.

    Members are swept for n from 3 to n_max. Ratios are compared as printed
    (12 significant digits), and ties are broken by (n, ell, bound order), so
    the listing does not depend on last-bit eigensolver noise.
    """
    if family not in TIGHTNESS_FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {TIGHTNESS_FAMILIES}")
    if n_max < 3:
        raise ValueError(f"n_max must be >= 3, got {n_max}")
    check_node_count(n_max)
    _check_ell_policy(ell_policy)

    records: list[TightnessRecord] = []
    for n in range(3, n_max + 1):
        analysis = GraphAnalysis(generate(family, n))
        for ell in _policy_ells(ell_policy, analysis.diameter):
            report = evaluate_all(analysis, ell)
            for name in BOUND_NAMES:
                value = report.bounds[name]
                lam = report.lambda2
                records.append(TightnessRecord(family, n, ell, name, value, lam, value / lam))
    order = {name: i for i, name in enumerate(BOUND_NAMES)}
    records.sort(key=lambda r: (-_json_value(r.ratio), r.n, r.ell, order[r.bound]))
    return records


def tightness_csv(records: list[TightnessRecord]) -> str:
    lines = [",".join(f.name for f in fields(TightnessRecord))]
    lines += (",".join(map(_csv_cell, astuple(r))) for r in records)
    return "\n".join(lines) + "\n"


def tightness_json(records: list[TightnessRecord]) -> str:
    objs = [{key: _json_value(value) for key, value in asdict(r).items()} for r in records]
    return json.dumps(objs, indent=2) + "\n"


def _emit(report: str | Callable[[TextIO], None], out: str | None) -> None:
    """Write a report's text, or have its writer write it, to the file ``out`` or to stdout.

    The process's stdout gets the bytes ``out`` would, through a buffered file
    over its descriptor, closed here: so a reader gone mid-write raises here,
    even under ``python -u`` (whose stdout drops the rest of a short write).
    A stdout replaced in-process is written and flushed.
    """
    write = report if callable(report) else lambda fh: fh.write(report)
    if out is None and sys.stdout is not sys.__stdout__:
        write(sys.stdout)
        sys.stdout.flush()
        return
    target = sys.stdout.fileno() if out is None else out
    with open(target, "w", encoding="utf-8", newline="", closefd=out is not None) as fh:
        write(fh)


def _parse_ell_policy(raw: str) -> int | str:
    if raw.lower() == "all":
        return "all"
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"--ell must be an integer or 'all', got {raw!r}") from None


def _cmd_analyze(args: argparse.Namespace) -> tuple[str, int]:
    report = evaluate_all(load_edge_list(args.path), args.ell)
    return (report_json(report) if args.format == "json" else report_csv(report)), 0


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    config = CampaignConfig(
        family=args.family,
        n=args.n,
        p=args.p,
        trials=args.trials,
        seed=args.seed,
        ell_policy=_parse_ell_policy(args.ell),
    )
    summary = run_campaign(config)
    return summary_json(summary), 1 if summary.violations else 0


def _cmd_tightness(args: argparse.Namespace) -> tuple[str, int]:
    records = run_tightness(args.family, args.n_max, _parse_ell_policy(args.ell))
    text = tightness_json(records) if args.format == "json" else tightness_csv(records)
    return text, 1 if any(r.value - r.lambda2 > tolerance(r.lambda2) for r in records) else 0


def _cmd_power(args: argparse.Namespace) -> tuple[Callable[[TextIO], None], int]:
    """G^ell's writer: the checks and the search run here, each block is written as it is read."""
    g = load_edge_list(args.path)
    return partial(serialize_edges, g.n, power_blocks(g, args.ell)), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eccbounds",
        description="Eccentricity-based lower bounds on graph algebraic connectivity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="evaluate all bounds on one edge-list file")
    analyze.add_argument("path", help="edge-list file")
    analyze.add_argument("--ell", type=int, required=True, help="power exponent (>= 2)")
    analyze.add_argument("--format", choices=("csv", "json"), default="csv")
    analyze.add_argument("--out", default=None, help="output file (default stdout)")
    analyze.set_defaults(func=_cmd_analyze)

    verify = sub.add_parser("verify", help="randomized verification campaign")
    verify.add_argument("--family", choices=FAMILIES, required=True)
    verify.add_argument("--n", type=int, required=True, help="node count per trial")
    verify.add_argument("--p", type=float, default=None, help="edge probability (erdos_renyi)")
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--ell", default="all", help="fixed integer >= 2, or 'all' (default)")
    verify.add_argument("--out", default=None, help="output file (default stdout)")
    verify.set_defaults(func=_cmd_verify)

    tight = sub.add_parser("tightness", help="rank bound/lambda2 ratios over a family")
    tight.add_argument("--family", choices=TIGHTNESS_FAMILIES, required=True)
    tight.add_argument("--n-max", type=int, required=True, help="largest member size (>= 3)")
    tight.add_argument("--ell", default="all", help="fixed integer >= 2, or 'all' (default)")
    tight.add_argument("--format", choices=("csv", "json"), default="csv")
    tight.add_argument("--out", default=None, help="output file (default stdout)")
    tight.set_defaults(func=_cmd_tightness)

    power = sub.add_parser("power", help="write the ell-th power graph as an edge list")
    power.add_argument("path", help="edge-list file")
    power.add_argument("--ell", type=int, required=True, help="power exponent (>= 1)")
    power.add_argument("--out", default=None, help="output file (default stdout)")
    power.set_defaults(func=_cmd_power)

    return parser


#: Built once per process; ``main`` only parses with it.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, code = args.func(args)
        _emit(report, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
