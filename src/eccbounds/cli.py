"""Command-line front end for bound analysis and verification campaigns.

Subcommands:

* ``analyze``    -- evaluate every bound on one edge-list file.
* ``verify``     -- randomized campaign: bounds, certificates, and the
                    spectral chain on generated graphs; violations exit 1.
* ``tightness``  -- sweep a deterministic family and rank bound/lambda2
                    ratios to show where each bound is sharp.
* ``power``      -- write the ell-th power of a graph as an edge list.

Exit codes: 0 success, 1 verification violation, 2 usage or input error.
Reports are deterministic: the same command line and seed produce byte
identical output. Reals are printed with 12 significant digits; fields that
do not apply (diameter-based bounds on disconnected graphs) are empty in CSV
and null in JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .bounds import BOUND_NAMES, TIGHTNESS_REL_TOL, BoundReport, evaluate_all
from .certify import certify_g1_matrix, certify_g2_matrix, check_chain
from .graphs import FAMILIES, generate, load_edge_list, serialize_edge_list
from .metrics import UNREACHABLE, all_pairs_distances, eccentricity_profile, power_graph
from .spectral import PSD

#: Families usable with the tightness sweep (deterministic, connected).
TIGHTNESS_FAMILIES = ("path", "cycle", "star", "complete")

#: Ratio bound/lambda2 may exceed 1 only by this much (floating-point slack).
RATIO_TOL = 1e-9

#: Integer columns of analyze reports; diameter is None when disconnected.
_INT_COLUMNS = ("n", "m", "ell", "s1", "s2", "s_ell", "diameter", "e_power", "e_complement")
#: Real columns of analyze reports; slack columns mirror the bound columns.
_REAL_COLUMNS = (
    "lambda2",
    *(f"bound_{name}" for name in BOUND_NAMES),
    *(f"slack_{name}" for name in BOUND_NAMES),
)
#: Column order for analyze reports.
CSV_COLUMNS = _INT_COLUMNS + _REAL_COLUMNS


def _fmt_real(x: float | None) -> str:
    """Render a real with 12 significant digits; None becomes the empty field."""
    return "" if x is None else f"{x:.12g}"


def _json_real(x: float | None) -> float | None:
    """Round a real to 12 significant digits for stable JSON output."""
    return None if x is None else float(f"{x:.12g}")


def _report_row(report: BoundReport) -> dict[str, object]:
    """The analyze report's values keyed by column, in CSV_COLUMNS order."""
    row: dict[str, object] = {}
    for column in CSV_COLUMNS:
        kind, _, name = column.partition("_")
        if kind == "bound":
            row[column] = report.bounds[name]
        elif kind == "slack":
            row[column] = report.slacks[name]
        else:
            row[column] = getattr(report, column)
    return row


def report_csv(report: BoundReport) -> str:
    """One header line plus one data row in the pinned column order."""
    fields = [
        _fmt_real(value) if column in _REAL_COLUMNS else "" if value is None else str(value)
        for column, value in _report_row(report).items()
    ]
    return ",".join(CSV_COLUMNS) + "\n" + ",".join(fields) + "\n"


def report_json(report: BoundReport) -> str:
    """JSON object with the same fields as the CSV plus the tight-bound list."""
    obj = {
        column: _json_real(value) if column in _REAL_COLUMNS else value  # type: ignore[arg-type]
        for column, value in _report_row(report).items()
    }
    obj["tight"] = [name for name in BOUND_NAMES if report.tight.get(name, False)]
    return json.dumps(obj, indent=2) + "\n"


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one verification campaign.

    ``ell_policy`` is either the string "all" (every ell from 2 to the
    diameter, at least ell=2) or a fixed integer >= 2. The tolerance fields
    override the defaults used for bound soundness and PSD certificates.
    """

    family: str
    n: int
    p: float | None = None
    trials: int = 100
    seed: int = 0
    ell_policy: int | str = "all"
    bound_rel_tol: float = TIGHTNESS_REL_TOL
    psd_tol: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.n < 2:
            raise ValueError(f"campaign needs n >= 2, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if isinstance(self.ell_policy, str):
            if self.ell_policy != "all":
                raise ValueError(f"ell policy must be 'all' or an integer, got {self.ell_policy!r}")
        elif self.ell_policy < 2:
            raise ValueError(f"fixed ell must be >= 2, got {self.ell_policy}")
        if self.bound_rel_tol < 0:
            raise ValueError("bound_rel_tol must be >= 0")


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
            "min_slack": _json_real(self.min_slack),
            "mean_slack": _json_real(mean),
        }


@dataclass
class CampaignSummary:
    """Outcome of a verification campaign; violations must be empty."""

    config: CampaignConfig
    trials: int = 0
    connected_trials: int = 0
    disconnected_trials: int = 0
    checks: int = 0
    violations: list[dict[str, object]] = field(default_factory=list)
    bound_stats: dict[str, _BoundStats] = field(
        default_factory=lambda: {name: _BoundStats() for name in BOUND_NAMES}
    )
    worst_slack: dict[str, object] | None = None

    @property
    def violation_count(self) -> int:
        return len(self.violations)


def _policy_ells(policy: int | str, diameter: int) -> list[int]:
    if policy == "all":
        return list(range(2, max(2, diameter) + 1))
    return [int(policy)]


def run_campaign(config: CampaignConfig) -> CampaignSummary:
    """Generate graphs and verify every bound, certificate, and chain link.

    Disconnected graphs are not skipped outright: the degenerate claims
    (zero eccentricity counts, zero bounds, lambda2 = 0) are still checked;
    only the connectivity-dependent certificates and chain are omitted.
    """
    summary = CampaignSummary(config=config)
    rng = np.random.default_rng(config.seed)

    for trial in range(config.trials):
        g = generate(config.family, config.n, p=config.p, seed=rng)
        profile = eccentricity_profile(all_pairs_distances(g))
        connected = profile.diameter != UNREACHABLE

        def flag(kind: str, detail: str, ell: int | None) -> None:
            summary.violations.append(
                {
                    "trial": trial,
                    "ell": ell,
                    "kind": kind,
                    "detail": detail,
                    "graph": serialize_edge_list(g),
                }
            )

        if connected:
            summary.connected_trials += 1
            ells = _policy_ells(config.ell_policy, profile.diameter)
        else:
            summary.disconnected_trials += 1
            ells = _policy_ells(config.ell_policy, 2)

        for ell in ells:
            report = evaluate_all(g, ell)
            summary.checks += 1
            tol = config.bound_rel_tol * max(1.0, report.lambda2)

            for name in BOUND_NAMES:
                slack = report.slacks[name]
                if slack is None:
                    continue
                if slack < -tol:
                    flag(
                        "bound_violation",
                        f"bound_{name}={report.bounds[name]!r} exceeds "
                        f"lambda2={report.lambda2!r}",
                        ell,
                    )
                if connected:
                    summary.bound_stats[name].add(slack, report.tight[name])
                    worst = summary.worst_slack
                    if worst is None or slack > worst["slack"]:  # type: ignore[operator]
                        summary.worst_slack = {
                            "bound": name,
                            "slack": slack,
                            "trial": trial,
                            "ell": ell,
                            "lambda2": report.lambda2,
                            "graph": serialize_edge_list(g),
                        }

            if connected:
                cert1 = certify_g1_matrix(g, ell, config.psd_tol)
                if cert1.verdict != PSD:
                    flag(
                        "certificate_g1_not_psd",
                        f"min eigenvalue {cert1.min_eigenvalue!r} "
                        f"below -{cert1.tolerance!r}",
                        ell,
                    )
                cert2 = certify_g2_matrix(g, ell, config.psd_tol)
                if cert2.verdict != PSD:
                    flag(
                        "certificate_g2_not_psd",
                        f"min eigenvalue {cert2.min_eigenvalue!r} "
                        f"below -{cert2.tolerance!r}",
                        ell,
                    )
                chain = check_chain(g, ell)
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
                if abs(report.lambda2) > config.bound_rel_tol:
                    flag(
                        "disconnected_lambda2_nonzero",
                        f"lambda2={report.lambda2!r}",
                        ell,
                    )

        summary.trials += 1
    return summary


def summary_json(summary: CampaignSummary) -> str:
    """Deterministic JSON rendering of a campaign summary."""
    config = summary.config
    worst = summary.worst_slack
    if worst is not None:
        worst = dict(worst)
        worst["slack"] = _json_real(worst["slack"])  # type: ignore[arg-type]
        worst["lambda2"] = _json_real(worst["lambda2"])  # type: ignore[arg-type]
    obj = {
        "config": {
            "family": config.family,
            "n": config.n,
            "p": config.p,
            "trials": config.trials,
            "seed": config.seed,
            "ell": config.ell_policy,
        },
        "trials": summary.trials,
        "connected_trials": summary.connected_trials,
        "disconnected_trials": summary.disconnected_trials,
        "checks": summary.checks,
        "violations": summary.violation_count,
        "violation_details": summary.violations,
        "bounds": {name: summary.bound_stats[name].as_dict() for name in BOUND_NAMES},
        "worst_slack": worst,
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
    if isinstance(ell_policy, str) and ell_policy != "all":
        raise ValueError(f"ell policy must be 'all' or an integer, got {ell_policy!r}")
    if isinstance(ell_policy, int) and ell_policy < 2:
        raise ValueError(f"fixed ell must be >= 2, got {ell_policy}")

    records: list[TightnessRecord] = []
    for n in range(3, n_max + 1):
        g = generate(family, n)
        profile = eccentricity_profile(all_pairs_distances(g))
        for ell in _policy_ells(ell_policy, profile.diameter):
            report = evaluate_all(g, ell)
            for name in BOUND_NAMES:
                value = report.bounds[name]
                if value is None:
                    continue
                records.append(
                    TightnessRecord(
                        family=family,
                        n=n,
                        ell=ell,
                        bound=name,
                        value=value,
                        lambda2=report.lambda2,
                        ratio=value / report.lambda2,
                    )
                )
    order = {name: i for i, name in enumerate(BOUND_NAMES)}
    records.sort(key=lambda r: (-_json_real(r.ratio), r.n, r.ell, order[r.bound]))
    return records


def tightness_csv(records: list[TightnessRecord]) -> str:
    lines = ["family,n,ell,bound,value,lambda2,ratio"]
    for r in records:
        lines.append(
            f"{r.family},{r.n},{r.ell},{r.bound},"
            f"{_fmt_real(r.value)},{_fmt_real(r.lambda2)},{_fmt_real(r.ratio)}"
        )
    return "\n".join(lines) + "\n"


def tightness_json(records: list[TightnessRecord]) -> str:
    objs = [
        {
            "family": r.family,
            "n": r.n,
            "ell": r.ell,
            "bound": r.bound,
            "value": _json_real(r.value),
            "lambda2": _json_real(r.lambda2),
            "ratio": _json_real(r.ratio),
        }
        for r in records
    ]
    return json.dumps(objs, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_ell_policy(raw: str) -> int | str:
    if raw.lower() == "all":
        return "all"
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"--ell must be an integer or 'all', got {raw!r}") from None


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = load_edge_list(args.path)
    report = evaluate_all(g, args.ell)
    text = report_json(report) if args.format == "json" else report_csv(report)
    _emit(text, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = CampaignConfig(
        family=args.family,
        n=args.n,
        p=args.p,
        trials=args.trials,
        seed=args.seed,
        ell_policy=_parse_ell_policy(args.ell),
    )
    summary = run_campaign(config)
    _emit(summary_json(summary), args.out)
    return 1 if summary.violation_count else 0


def _cmd_tightness(args: argparse.Namespace) -> int:
    records = run_tightness(args.family, args.n_max, _parse_ell_policy(args.ell))
    text = tightness_json(records) if args.format == "json" else tightness_csv(records)
    _emit(text, args.out)
    return 1 if any(r.ratio > 1.0 + RATIO_TOL for r in records) else 0


def _cmd_power(args: argparse.Namespace) -> int:
    g = load_edge_list(args.path)
    if args.ell < 1:
        raise ValueError(f"ell must be >= 1, got {args.ell}")
    power = power_graph(g, all_pairs_distances(g), args.ell)
    _emit(serialize_edge_list(power), args.out)
    return 0


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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
