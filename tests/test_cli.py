"""CLI subcommands: analyze, verify, tightness, power."""

import json
import os
import subprocess
import sys

import pytest

from eccbounds import cli
from eccbounds.bounds import BOUND_NAMES, evaluate_all
from eccbounds.graphs import complete_graph, load_edge_list, parse_edge_list, path_graph
from eccbounds.metrics import all_pairs_distances, power_graph

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
        assert reparsed == power_graph(g, all_pairs_distances(g), 2)
        assert reparsed.m == 5

    def test_ell_one_identity(self, p4_file, capsys):
        assert cli.main(["power", p4_file, "--ell", "1"]) == 0
        assert parse_edge_list(capsys.readouterr().out) == path_graph(4)

    def test_ell_beyond_diameter_gives_complete(self, p4_file, capsys):
        assert cli.main(["power", p4_file, "--ell", "9"]) == 0
        assert parse_edge_list(capsys.readouterr().out) == complete_graph(4)

    def test_ell_zero_exits_2(self, p4_file, capsys):
        assert cli.main(["power", p4_file, "--ell", "0"]) == 2


class TestEntryPoints:
    def test_no_subcommand_exits_2(self, capsys):
        assert cli.main([]) == 2

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
