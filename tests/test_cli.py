"""CLI subcommands: analyze, verify, tightness, power."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from eccbounds import _kernels as kernels
from eccbounds import cli, graphs
from eccbounds.bounds import BOUND_NAMES, GraphAnalysis, evaluate_all
from eccbounds.graphs import (
    Graph,
    complete_graph,
    erdos_renyi,
    generate,
    load_edge_list,
    parse_edge_list,
    path_graph,
    random_tree,
    serialize_edge_list,
)
from eccbounds.metrics import all_pairs_distances, power_graph
from eccbounds.spectral import NOT_PSD, CertificateResult

P4_TEXT = "n 4\n0 1\n1 2\n2 3\n"
K4_TEXT = "n 4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
DISCONNECTED_TEXT = "n 4\n0 1\n2 3\n"


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(P4_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT, encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_csv_row_matches_pipeline(self, p4_file, capsys):
        assert cli.main(["analyze", p4_file, "--ell", "3"]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        assert header == ",".join(cli.CSV_COLUMNS)
        fields = dict(zip(header.split(","), row.split(",")))
        r = evaluate_all(path_graph(4), 3)
        assert fields["n"] == "4" and fields["m"] == "3" and fields["ell"] == "3"
        assert fields["diameter"] == "3"
        assert fields["lambda2"] == f"{r.lambda2:.12g}"
        assert fields["bound_g1"] == "0.5"
        assert fields["bound_mohar"] == f"{1.0 / 3.0:.12g}"
        assert fields["slack_s1"] == f"{r.lambda2:.12g}"

    def test_json_reports_tight_bounds(self, k4_file, capsys):
        assert cli.main(["analyze", k4_file, "--ell", "2", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["n"] == 4 and obj["lambda2"] == pytest.approx(4.0, abs=1e-9)
        assert "s1" in obj["tight"]
        assert obj["bound_s1"] == 4.0

    def test_json_keys_follow_csv_columns(self, p4_file, capsys):
        assert cli.main(["analyze", p4_file, "--ell", "3", "--format", "json"]) == 0
        keys = list(json.loads(capsys.readouterr().out))
        assert keys[-1] == "tight"
        assert tuple(keys[:-1]) == cli.CSV_COLUMNS

    def test_disconnected_fields_empty_and_null(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        path.write_text(DISCONNECTED_TEXT, encoding="utf-8")
        assert cli.main(["analyze", str(path), "--ell", "2"]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["diameter"] == ""
        assert fields["bound_mohar"] == "" and fields["slack_lu"] == ""
        assert fields["bound_g1"] == "0"

        assert cli.main(["analyze", str(path), "--ell", "2", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["diameter"] is None and obj["bound_lu"] is None

    @pytest.mark.parametrize(
        "text",
        ["n 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n", "n 5\n0 1\n1 2\n2 3\n"],
        ids=["two-triangles", "path-and-isolated-node"],
    )
    def test_disconnected_lambda2_prints_exactly_zero(self, text, tmp_path, capsys):
        # lambda2 of a disconnected graph is 0, not the eigensolver's roundoff
        path = tmp_path / "d.txt"
        path.write_text(text, encoding="utf-8")
        count_bounds = ("s1", "s2_over_n", "g1", "g2")
        assert cli.main(["analyze", str(path), "--ell", "2"]) == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["lambda2"] == "0"
        assert [fields[f"slack_{name}"] for name in count_bounds] == ["0"] * 4

        assert cli.main(["analyze", str(path), "--ell", "2", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert '"lambda2": 0.0,' in out
        obj = json.loads(out)
        assert [obj[f"slack_{name}"] for name in count_bounds] == [0.0] * 4

    def test_out_file_matches_stdout(self, p4_file, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert cli.main(["analyze", p4_file, "--ell", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert cli.main(["analyze", p4_file, "--ell", "3"]) == 0
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("n 2\n0 0\n", encoding="utf-8")
        assert cli.main(["analyze", str(path), "--ell", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert cli.main(["analyze", "/nonexistent/g.txt", "--ell", "2"]) == 2

    def test_single_node_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("n 1\n", encoding="utf-8")
        assert cli.main(["analyze", str(path), "--ell", "2"]) == 2

    def test_ell_below_two_exits_2(self, p4_file, capsys):
        assert cli.main(["analyze", p4_file, "--ell", "1"]) == 2


class TestVerify:
    def test_clean_campaign_exits_0(self, capsys):
        rc = cli.main(
            ["verify", "--family", "erdos_renyi", "--n", "9", "--p", "0.4", "--trials", "15", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        obj = json.loads(out)
        assert obj["violations"] == 0
        assert obj["trials"] == 15
        assert obj["connected_trials"] + obj["disconnected_trials"] == 15
        assert set(obj["bounds"]) == set(cli.BOUND_NAMES)
        assert obj["worst_slack"] is None or "graph" in obj["worst_slack"]

    def test_tree_campaign(self, capsys):
        rc = cli.main(["verify", "--family", "random_tree", "--n", "8", "--trials", "10", "--seed", "1"])
        obj = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert obj["disconnected_trials"] == 0

    def test_fixed_ell_policy(self, capsys):
        rc = cli.main(
            ["verify", "--family", "random_tree", "--n", "8", "--trials", "5", "--seed", "1", "--ell", "3"]
        )
        obj = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert obj["checks"] == 5

    def test_deterministic_output(self, capsys):
        args = ["verify", "--family", "erdos_renyi", "--n", "8", "--p", "0.3", "--trials", "10", "--seed", "42"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_zero_trials_exits_2(self, capsys):
        rc = cli.main(["verify", "--family", "random_tree", "--n", "8", "--trials", "0"])
        assert rc == 2

    def test_missing_p_for_erdos_renyi_exits_2(self, capsys):
        rc = cli.main(["verify", "--family", "erdos_renyi", "--n", "8", "--trials", "2"])
        assert rc == 2

    def test_unknown_family_exits_2(self, capsys):
        assert cli.main(["verify", "--family", "petersen", "--n", "8", "--trials", "2"]) == 2

    def test_bad_ell_exits_2(self, capsys):
        rc = cli.main(["verify", "--family", "random_tree", "--n", "8", "--trials", "2", "--ell", "x"])
        assert rc == 2
        rc = cli.main(["verify", "--family", "random_tree", "--n", "8", "--trials", "2", "--ell", "1"])
        assert rc == 2

    def test_config_has_no_tolerance_fields(self):
        names = [f.name for f in dataclasses.fields(cli.CampaignConfig)]
        assert names == ["family", "n", "p", "trials", "seed", "ell_policy"]

    @pytest.mark.parametrize(
        "policy, message",
        [("x", "ell policy must be 'all' or an integer, got 'x'"), (1, "fixed ell must be >= 2, got 1")],
    )
    def test_campaign_and_tightness_reject_ell_alike(self, policy, message):
        with pytest.raises(ValueError) as campaign:
            cli.CampaignConfig(family="path", n=5, ell_policy=policy)
        with pytest.raises(ValueError) as tightness:
            cli.run_tightness("path", 5, policy)
        assert str(campaign.value) == str(tightness.value) == message

    @pytest.mark.parametrize(
        "family, n, message",
        [
            ("petersen", 5, r"^unknown family 'petersen'; choose from \('path', 'cycle', "),
            ("path", 1, r"^campaign needs n >= 2, got 1$"),
        ],
    )
    def test_campaign_rejects_family_and_size(self, family, n, message):
        with pytest.raises(ValueError, match=message):
            cli.CampaignConfig(family=family, n=n)

    def test_tightness_rejects_a_random_family(self):
        # argparse's choices stop this at the command line; the library call checks it itself
        message = r"^unknown family 'erdos_renyi'; choose from \('path', 'cycle', 'star', 'complete'\)$"
        with pytest.raises(ValueError, match=message):
            cli.run_tightness("erdos_renyi", 5)


class TestCampaignViolations:
    """Every check of ``run_campaign`` is made to fail; each must be flagged."""

    CONFIG = cli.CampaignConfig(family="erdos_renyi", n=6, p=0.35, trials=6, seed=4)
    ARGS = ["verify", "--family", "erdos_renyi", "--n", "6", "--p", "0.35", "--trials", "6", "--seed", "4"]

    @pytest.fixture
    def failing_checks(self, monkeypatch):
        real_evaluate_all, real_check_chain = cli.evaluate_all, cli.check_chain
        real_lambda2 = GraphAnalysis.lambda2

        def evaluate_all_wrong(analysis, ell):
            report = real_evaluate_all(analysis, ell)
            if analysis.connected:
                bounds = dict(report.bounds, mohar=report.lambda2 + 1.0)
                slacks = dict(report.slacks, mohar=-1.0)
                return dataclasses.replace(report, bounds=bounds, slacks=slacks)
            bounds = dict(report.bounds, g1=0.25)
            return dataclasses.replace(report, s_ell=1, bounds=bounds)

        def certificate_not_psd(analysis, ell):
            return CertificateResult(min_eigenvalue=-1.0, tolerance=1e-8, verdict=NOT_PSD)

        def chain_broken(analysis, ell):
            chain = real_check_chain(analysis, ell)
            return dataclasses.replace(chain, links_hold=(True, False, True))

        monkeypatch.setattr(cli, "evaluate_all", evaluate_all_wrong)
        # the eigensolver's lambda2 of a disconnected graph, which the report prints as 0
        disconnected_lambda2 = property(lambda a: real_lambda2.fget(a) if a.connected else 0.5)
        monkeypatch.setattr(GraphAnalysis, "lambda2", disconnected_lambda2)
        monkeypatch.setattr(cli, "certify_g1_matrix", certificate_not_psd)
        monkeypatch.setattr(cli, "certify_g2_matrix", certificate_not_psd)
        monkeypatch.setattr(cli, "check_chain", chain_broken)

    def expected(self) -> tuple[list[tuple[int, int, str, str | None]], list[str]]:
        """(trial, ell, kind, detail) per violation, and each trial's edge list.

        The graphs are regenerated, and connectivity and diameters come from
        the Floyd-Warshall oracle.
        """
        config = self.CONFIG
        rng = np.random.default_rng(config.seed)
        rows, graphs = [], []
        for trial in range(config.trials):
            g = generate(config.family, config.n, p=config.p, seed=rng)
            graphs.append(serialize_edge_list(g))
            fw = oracles.floyd_warshall(g.adjacency_matrix())
            if not np.isfinite(fw).all():
                rows += [
                    (trial, 2, "disconnected_s_ell_nonzero", "s_ell=1"),
                    (trial, 2, "disconnected_bound_nonzero", "bound_g1=0.25"),
                    (trial, 2, "disconnected_lambda2_nonzero", "lambda2=0.5"),
                ]
                continue
            for ell in range(2, max(2, int(fw.max())) + 1):
                rows += [
                    (trial, ell, "bound_violation", None),
                    (trial, ell, "certificate_g1_not_psd", "min eigenvalue -1.0 below -1e-08"),
                    (trial, ell, "certificate_g2_not_psd", "min eigenvalue -1.0 below -1e-08"),
                    (trial, ell, "chain_violation", "links_hold=(True, False, True)"),
                ]
        return rows, graphs

    def test_every_kind_flagged_with_trial_ell_and_graph(self, failing_checks):
        rows, graphs = self.expected()
        kinds = {kind for _, _, kind, _ in rows}
        assert {"bound_violation", "disconnected_lambda2_nonzero"} <= kinds

        violations = cli.run_campaign(self.CONFIG).violations
        assert [(v["trial"], v["ell"], v["kind"]) for v in violations] == [r[:3] for r in rows]
        for v, (_, _, kind, detail) in zip(violations, rows):
            assert v["graph"] == graphs[v["trial"]]
            if kind == "bound_violation":
                assert v["detail"].startswith("bound_mohar=") and "exceeds lambda2=" in v["detail"]
            else:
                assert v["detail"] == detail

    def test_verify_exits_1(self, failing_checks, capsys):
        assert cli.main(self.ARGS) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["violations"] == len(obj["violation_details"]) == len(self.expected()[0])


class TestToleranceCut:
    """Each scalar verdict of the CLI sits on the one cut 1e-9 * max(1, x)."""

    def campaign_kinds(self, monkeypatch, slack_factor=None, disconnected_lambda2=None):
        """Violation kinds of TestCampaignViolations.CONFIG with one value moved onto the cut.

        Connected reports get slack_mohar = slack_factor * 1e-9 * max(1, lambda2);
        disconnected analyses get the eigensolver lambda2 = disconnected_lambda2.
        """
        real_evaluate_all, real_lambda2 = cli.evaluate_all, GraphAnalysis.lambda2

        def evaluate_all_moved(analysis, ell):
            report = real_evaluate_all(analysis, ell)
            if analysis.connected and slack_factor is not None:
                slack = slack_factor * 1e-9 * max(1.0, report.lambda2)
                return dataclasses.replace(report, slacks=dict(report.slacks, mohar=slack))
            return report

        def lambda2_moved(analysis):
            if not analysis.connected and disconnected_lambda2 is not None:
                return disconnected_lambda2
            return real_lambda2.fget(analysis)

        monkeypatch.setattr(cli, "evaluate_all", evaluate_all_moved)
        monkeypatch.setattr(GraphAnalysis, "lambda2", property(lambda2_moved))
        return {v["kind"] for v in cli.run_campaign(TestCampaignViolations.CONFIG).violations}

    @pytest.mark.parametrize("factor, flagged", [(-0.5, False), (-2.0, True)])
    def test_bound_violation(self, monkeypatch, factor, flagged):
        kinds = self.campaign_kinds(monkeypatch, slack_factor=factor)
        assert kinds == ({"bound_violation"} if flagged else set())

    @pytest.mark.parametrize(
        "lam, flagged", [(5e-10, False), (-5e-10, False), (2e-9, True), (-2e-9, True)]
    )
    def test_disconnected_lambda2(self, monkeypatch, lam, flagged):
        kinds = self.campaign_kinds(monkeypatch, disconnected_lambda2=lam)
        assert kinds == ({"disconnected_lambda2_nonzero"} if flagged else set())

    @pytest.mark.parametrize("excess, code", [(5e-10, 0), (2e-9, 1)])
    def test_tightness_exit_code_below_lambda2_one(self, monkeypatch, capsys, excess, code):
        # at lambda2 = 0.05 the cut is the absolute 1e-9; a ratio cut of 1 + 1e-9
        # would flag an excess of 5e-10, below the eigensolver's roundoff on L
        lam = 0.05
        record = cli.TightnessRecord("path", 40, 2, "g1", lam + excess, lam, (lam + excess) / lam)
        monkeypatch.setattr(cli, "run_tightness", lambda family, n_max, ell_policy: [record])
        assert cli.main(["tightness", "--family", "path", "--n-max", "40"]) == code


#: sha256 of stdout for fixed command lines; reports must not move. The first
#: two verify and tightness entries were recorded before computation was shared
#: through GraphAnalysis (OPENBLAS_NUM_THREADS=1), the 100-trial campaign and the
#: star and complete sweeps before every scalar verdict went through
#: ``bounds.tolerance`` (same digests at 1 and 2 BLAS threads).
GOLDEN_REPORTS = [
    (
        "verify --family erdos_renyi --n 12 --p 0.3 --trials 100 --seed 42",
        "a106dbece9c2e2835ec8e6ad1dbb7bb8673261cc9b4729451ebf461c31769544",
    ),
    (
        "verify --family erdos_renyi --n 10 --p 0.4 --trials 25 --seed 7",
        "804e38307d3afebfbe2a56f53f5546614fd427af20b369c6acd54455d0ec2017",
    ),
    (
        "verify --family random_tree --n 9 --trials 20 --seed 3",
        "f1566cea7cffbac591929e30fc92c845a7ae76e9d51803aca212b558f7ed33b3",
    ),
    (
        "tightness --family path --n-max 12 --format json",
        "85315a410d9e1d3bf71da1816fe9a6ad22bbaafa37a4f2c0de805dd62cddfaad",
    ),
    (
        "tightness --family cycle --n-max 10",
        "1883922870ba1ceaaca376cc8073d17c64124e7607dbe0eaebba0959d7658b93",
    ),
    (
        "tightness --family star --n-max 12",
        "d0c002f1c41e7b2d744423e3fea04e012d75b40592a20743f5f3fab0251a56f2",
    ),
    (
        "tightness --family complete --n-max 10 --format json",
        "13cd9f64017b1fd0c1c718b36dfbdc6e4bd403ad412bb29e53837ffca5dc2fb5",
    ),
]


@pytest.mark.parametrize("command, digest", GOLDEN_REPORTS)
def test_golden_report(command, digest, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


#: sha256 of stdout for analyze and power on files the test writes: ``{er20}``
#: is ``erdos_renyi(20, 0.3, seed=0)`` (connected, diameter 4), ``{split}`` is
#: two disjoint edges, whose lambda2 prints as an exact 0 and whose diameter
#: columns print empty (CSV) and null (JSON). ``{tree480}`` is
#: ``random_tree(480, seed=0)`` (int8 distances) and ``{p200}`` the path on 200
#: nodes, whose search to 130 levels needs int16. Same digests at 1 and 2 BLAS threads.
GOLDEN_FILE_REPORTS = [
    (
        "analyze {er20} --ell 2",
        "fe5d37d20b47a91356989b969dac6fb3dbdbe050f8a0fdf7af8a78b9697fe86a",
    ),
    (
        "analyze {er20} --ell 3 --format json",
        "6b9cf4d4c056ea4c902d9d4c7ae712e172e769925d7bc476b31a1e6b5cbb445a",
    ),
    (
        "analyze {split} --ell 2",
        "f0d491db5cfdad278cef276ec0805366d5f7893c69cbb71b650402b736bdca28",
    ),
    (
        "analyze {split} --ell 2 --format json",
        "b003c2010c9d4401ac8eac880ea6aac34b5d84e46aec156f1ae7893504e710fc",
    ),
    (
        "power {er20} --ell 2",
        "ce2f370030f9fd3f6e00fc41aa77cb2497cc3c1f905b65d9b0fec4e2ce15a10e",
    ),
    (
        "power {tree480} --ell 3",
        "524639b0bcd1d280d89e6e8ff683262a0987f5653e22c4bef0960c0381f6d249",
    ),
    (
        "power {p200} --ell 130",
        "d78e6f61ef07fcc0f6a1a4258cd427b07aaeba242df2b0839a330e233ffb1415",
    ),
]


@pytest.mark.parametrize("command, digest", GOLDEN_FILE_REPORTS)
def test_golden_file_report(command, digest, tmp_path, capsys):
    files = {
        "er20": serialize_edge_list(generate("erdos_renyi", 20, p=0.3, seed=0)),
        "split": DISCONNECTED_TEXT,
        "tree480": serialize_edge_list(generate("random_tree", 480, seed=0)),
        "p200": serialize_edge_list(generate("path", 200)),
    }
    for name, text in files.items():
        (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
    assert cli.main(command.format(**{name: tmp_path / f"{name}.txt" for name in files}).split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestTightness:
    def test_complete_family_s1_always_tight(self, capsys):
        assert cli.main(["tightness", "--family", "complete", "--n-max", "8"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "family,n,ell,bound,value,lambda2,ratio"
        rows = [line.split(",") for line in lines[1:]]
        s1_rows = [r for r in rows if r[3] == "s1"]
        assert len(s1_rows) == 6  # n = 3..8, one ell each (diameter 1)
        assert all(r[6] == "1" for r in s1_rows)

    def test_path_family_contains_tight_g2_witness(self, capsys):
        assert cli.main(["tightness", "--family", "path", "--n-max", "6", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert any(
            r["n"] == 3 and r["ell"] == 2 and r["bound"] == "g2" and r["ratio"] == 1.0 for r in records
        )
        ratios = [r["ratio"] for r in records]
        assert ratios == sorted(ratios, reverse=True)
        assert all(r <= 1.0 + 1e-9 for r in ratios)

    def test_star_family_s1_tight(self, capsys):
        assert cli.main(["tightness", "--family", "star", "--n-max", "8", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        for n in range(3, 9):
            assert any(r["n"] == n and r["bound"] == "s1" and r["ratio"] == 1.0 for r in records)

    @pytest.mark.parametrize("family", ["star", "complete"])
    def test_equal_printed_ratios_in_documented_order(self, family, capsys):
        assert cli.main(["tightness", "--family", family, "--n-max", "8"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        rank = {name: i for i, name in enumerate(BOUND_NAMES)}
        keys = [(-float(r[6]), int(r[1]), int(r[2]), rank[r[3]]) for r in rows]
        assert keys == sorted(keys)

    def test_fixed_ell(self, capsys):
        assert cli.main(["tightness", "--family", "cycle", "--n-max", "7", "--ell", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        assert all(line.split(",")[2] == "2" for line in lines)

    def test_small_n_max_exits_2(self, capsys):
        assert cli.main(["tightness", "--family", "path", "--n-max", "2"]) == 2

    def test_unknown_family_exits_2(self, capsys):
        assert cli.main(["tightness", "--family", "erdos_renyi", "--n-max", "6"]) == 2


class TestPower:
    def test_round_trip(self, p4_file, tmp_path):
        out = tmp_path / "p4_power.txt"
        assert cli.main(["power", p4_file, "--ell", "2", "--out", str(out)]) == 0
        reparsed = load_edge_list(str(out))
        g = path_graph(4)
        assert reparsed == power_graph(all_pairs_distances(g), 2)
        assert reparsed.m == 5

    def test_ell_one_identity(self, p4_file, capsys):
        assert cli.main(["power", p4_file, "--ell", "1"]) == 0
        assert parse_edge_list(capsys.readouterr().out) == path_graph(4)

    def test_ell_beyond_diameter_gives_complete(self, p4_file, capsys):
        assert cli.main(["power", p4_file, "--ell", "9"]) == 0
        assert parse_edge_list(capsys.readouterr().out) == complete_graph(4)

    def test_ell_zero_exits_2(self, p4_file, capsys):
        assert cli.main(["power", p4_file, "--ell", "0"]) == 2

    @pytest.fixture
    def searches(self, monkeypatch):
        """Records every search the kernels start: the ell of ``power_pairs``, None for a full one."""
        calls = []
        power_pairs, bfs_all_pairs = kernels.power_pairs, kernels.bfs_all_pairs

        def bounded(indptr, indices, n, ell):
            calls.append(ell)
            return power_pairs(indptr, indices, n, ell)

        def full(*args):
            calls.append(None)
            return bfs_all_pairs(*args)

        monkeypatch.setattr(kernels, "power_pairs", bounded)
        monkeypatch.setattr(kernels, "bfs_all_pairs", full)
        return calls

    def test_search_bounded_at_ell(self, tmp_path, searches, capsys):
        g = random_tree(40, seed=3)
        path = tmp_path / "tree.txt"
        path.write_text(serialize_edge_list(g))
        assert cli.main(["power", str(path), "--ell", "3"]) == 0
        assert searches == [3]
        assert capsys.readouterr().out == serialize_edge_list(power_graph(all_pairs_distances(g), 3))

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    def test_output_is_the_power_graphs_edge_list(self, n, tmp_path, capsys):
        g = erdos_renyi(n, 3.0 / n, seed=n)
        path = tmp_path / "g.txt"
        path.write_text(serialize_edge_list(g), encoding="utf-8")
        d = all_pairs_distances(g)
        for ell in range(1, int(d.max()) + 2):
            assert cli.main(["power", str(path), "--ell", str(ell)]) == 0
            assert capsys.readouterr().out == serialize_edge_list(power_graph(d, ell))

    def test_ell_zero_exits_before_any_search(self, p4_file, searches, capsys):
        assert cli.main(["power", p4_file, "--ell", "0"]) == 2
        assert searches == []
        assert "ell must be >= 1" in capsys.readouterr().err

    def test_huge_ell_prints_the_complete_graph(self, tmp_path, capsys):
        # int8 distances compared with an ell far outside their range
        path = tmp_path / "g10.txt"
        path.write_text(serialize_edge_list(random_tree(10, seed=1)), encoding="utf-8")
        for ell in ("127", "128", "1000", str(10**20)):
            assert cli.main(["power", str(path), "--ell", ell]) == 0
            assert capsys.readouterr().out == serialize_edge_list(complete_graph(10))


class TestSizeGuard:
    """Above MAX_NODES every command exits 2 before allocating an n x n array."""

    MESSAGE = "error: n=1000000 exceeds the limit of 5000 nodes for dense n x n computations\n"

    @pytest.fixture
    def no_dense_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense work started above MAX_NODES")

        monkeypatch.setattr(kernels, "bfs_all_pairs", refuse)
        monkeypatch.setattr(kernels, "power_pairs", refuse)
        monkeypatch.setattr(cli, "generate", refuse)

    @pytest.mark.parametrize("argv", [["power", "--ell", "2"], ["analyze", "--ell", "2"]])
    def test_large_file_exits_2_before_the_bfs(self, argv, tmp_path, no_dense_work, capsys):
        path = tmp_path / "big.txt"
        path.write_text("n 1000000\n0 1\n", encoding="utf-8")
        assert cli.main([argv[0], str(path), *argv[1:]]) == 2
        assert capsys.readouterr() == ("", self.MESSAGE)

    @pytest.mark.parametrize("count", [10**7, 10**9])
    @pytest.mark.parametrize("command", ["power", "analyze"])
    def test_header_count_refused_before_parsing_edges(self, command, count, tmp_path, monkeypatch, capsys):
        # the count alone would size the parser's O(n) arrays: 8 GB at 10**9
        def refuse(*args, **kwargs):
            raise AssertionError("graph built above MAX_NODES")

        monkeypatch.setattr(Graph, "_from_pairs", classmethod(refuse))
        monkeypatch.setattr(Graph, "from_edges", classmethod(refuse))
        path = tmp_path / "big.txt"
        path.write_text(f"n {count}\n0 1\n", encoding="utf-8")
        assert cli.main([command, str(path), "--ell", "2"]) == 2
        message = f"error: n={count} exceeds the limit of 5000 nodes for dense n x n computations\n"
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--family", "erdos_renyi", "--n", "1000000", "--p", "0.1"],
            ["verify", "--family", "path", "--n", "1000000"],
            ["tightness", "--family", "complete", "--n-max", "1000000"],
        ],
    )
    def test_large_generated_graphs_exit_2_before_generating(self, argv, no_dense_work, capsys):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", self.MESSAGE)

    def test_limit_is_inclusive(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(graphs, "MAX_NODES", 6)
        for n, code in ((6, 0), (7, 2)):
            path = tmp_path / f"p{n}.txt"
            path.write_text(serialize_edge_list(path_graph(n)), encoding="utf-8")
            assert cli.main(["power", str(path), "--ell", "2"]) == code
            assert cli.main(["analyze", str(path), "--ell", "2"]) == code
            assert cli.main(["verify", "--family", "path", "--n", str(n), "--trials", "1"]) == code
            assert cli.main(["tightness", "--family", "path", "--n-max", str(n)]) == code
            err = capsys.readouterr().err
            assert err == ("" if code == 0 else 4 * f"error: n={n} exceeds the limit of 6 nodes for dense n x n computations\n")


class TestEntryPoints:
    def test_no_subcommand_exits_2(self, capsys):
        assert cli.main([]) == 2

    def test_parser_built_once_at_import(self, p4_file, monkeypatch, capsys):
        def no_rebuild():
            raise AssertionError("main rebuilt the parser")

        monkeypatch.setattr(cli, "build_parser", no_rebuild)
        assert cli.main(["analyze", p4_file, "--ell", "2"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "{p4}", "--ell", "2"], ["verify", "--family", "path", "--n", "4", "--trials", "1"]],
    )
    def test_out_in_missing_directory_exits_2(self, argv, p4_file, tmp_path, capsys):
        out = tmp_path / "missing" / "report.txt"
        assert cli.main([a.format(p4=p4_file) for a in argv] + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_help_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_entry_raises_system_exit(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.argv", ["eccbounds", "--help"])
        with pytest.raises(SystemExit):
            cli.entry()


class TestModuleExecution:
    @staticmethod
    def run_module(module, *argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=path)
        return subprocess.run(
            [sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True, timeout=60
        )

    @pytest.mark.parametrize("module", ["eccbounds", "eccbounds.cli"])
    def test_analyze_prints_csv(self, module, p4_file):
        res = self.run_module(module, "analyze", p4_file, "--ell", "2")
        assert res.returncode == 0, res.stderr
        assert res.stdout.split("\n")[0] == ",".join(cli.CSV_COLUMNS)
        assert res.stdout == cli.report_csv(evaluate_all(path_graph(4), 2))

    @pytest.mark.parametrize("module", ["eccbounds", "eccbounds.cli"])
    def test_missing_file_exits_2(self, module, tmp_path):
        res = self.run_module(module, "analyze", str(tmp_path / "missing.txt"), "--ell", "2")
        assert res.returncode == 2
        assert "error:" in res.stderr and res.stdout == ""
