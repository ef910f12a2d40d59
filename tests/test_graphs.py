"""Graph construction, parsing, serializing and generation."""

import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from eccbounds import graphs
from eccbounds.graphs import (
    FAMILIES,
    Graph,
    ParseError,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    erdos_renyi_batch,
    generate,
    generate_batch,
    load_edge_list,
    parse_edge_list,
    path_graph,
    random_tree,
    serialize_edge_list,
    star_graph,
)


def assert_csr(g: Graph, edges) -> None:
    """g's arrays are the one CSR of its node count and ``edges``."""
    assert (g.indptr.tolist(), g.indices.tolist()) == oracles.csr(g.n, edges)


@st.composite
def small_graphs(draw, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    else:
        edges = []
    return Graph.from_edges(n, edges)


class TestParse:
    def test_path_on_three_nodes(self):
        g = parse_edge_list("n 3\n0 1\n1 2")
        assert g.n == 3 and g.m == 2
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_duplicate_edge_collapses(self):
        g = parse_edge_list("n 2\n0 1\n1 0")
        assert g.n == 2 and g.m == 1

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("n 2\n0 0")

    def test_header_count_above_max_nodes_refused(self, monkeypatch):
        with pytest.raises(ValueError, match=r"^n=5001 exceeds the limit of 5000 nodes for dense n x n computations$"):
            parse_edge_list("n 5001\n")
        text = "n 10\n0 1\n0 99\n"  # the bad edge line is never read
        monkeypatch.setattr(graphs, "MAX_NODES", 9)  # read at call time
        with pytest.raises(ValueError, match=r"^n=10 exceeds the limit of 9 nodes for dense n x n computations$"):
            parse_edge_list(text)
        monkeypatch.setattr(graphs, "MAX_NODES", 10)
        with pytest.raises(ParseError, match="line 3"):
            parse_edge_list(text)

    def test_comments_and_blank_lines_ignored(self):
        g = parse_edge_list("# leading comment\nn 3\n\n# middle\n0 1\n")
        assert g.n == 3 and g.m == 1

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_edge_list("0 1")

    def test_malformed_edge_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("n 3\n0")
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("n 3\n0 1 2")

    def test_non_integer_endpoint(self):
        with pytest.raises(ParseError, match="line 2: non-integer endpoint"):
            parse_edge_list("n 3\n0 x")

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_edge_list("n 2\n0 5")

    @pytest.mark.parametrize("endpoint", ["1_0", "+3", "\u0664", "1\u0660", "\uff13"])
    def test_endpoint_only_ascii_digits(self, endpoint):
        # int() alone reads these as 10, 3, 4, 10 and 3
        for line in (f"{endpoint} 2", f"2 {endpoint}"):
            with pytest.raises(ParseError, match=rf"^line 3: non-integer endpoint in '{re.escape(line)}'$"):
                parse_edge_list(f"n 20\n0 1\n{line}\n")

    @pytest.mark.parametrize("count", ["\u0664", "1_0", "+3"])
    def test_node_count_only_ascii_digits(self, count):
        with pytest.raises(ParseError, match=rf"^line 2: node count is not an integer: '{re.escape(count)}'$"):
            parse_edge_list(f"# header next\nn {count}\n0 1\n")

    def test_leading_minus_still_reads_as_a_number(self):
        with pytest.raises(ParseError, match=r"^line 2: endpoint out of range \[0, 3\) in '-1 2'$"):
            parse_edge_list("n 3\n-1 2\n")
        with pytest.raises(ParseError, match=r"^line 1: node count must be >= 1, got -1$"):
            parse_edge_list("n -1\n")
        with pytest.raises(ParseError, match=r"^line 2: non-integer endpoint in '--1 2'$"):
            parse_edge_list("n 3\n--1 2\n")

    def test_leading_zeros_and_non_ascii_comments_accepted(self):
        g = parse_edge_list("# \u0664 nodes, 1_0 + more\nn 04\n00 03\n")
        assert g.n == 4 and list(g.edges()) == [(0, 3)]

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_edge_list("")

    def test_bad_node_count(self):
        with pytest.raises(ParseError):
            parse_edge_list("n x")
        with pytest.raises(ParseError):
            parse_edge_list("n 0")

    @given(small_graphs())
    @settings(max_examples=50)
    def test_serialize_parse_round_trip(self, g: Graph):
        assert parse_edge_list(serialize_edge_list(g)) == g

    def test_serialize_single_node_without_edges(self):
        assert serialize_edge_list(Graph.from_edges(1, [])) == "n 1\n"

    def test_serialize_with_isolated_nodes(self):
        g = Graph.from_edges(7, [(5, 2), (1, 2), (2, 4)])
        assert serialize_edge_list(g) == "n 7\n1 2\n2 4\n2 5\n"

    def test_serialize_fixed_erdos_renyi(self):
        expected = (
            "n 9\n0 2\n0 3\n0 6\n0 7\n0 8\n1 3\n1 6\n1 8\n2 7\n2 8\n"
            "3 5\n3 7\n3 8\n4 6\n4 7\n4 8\n5 7\n6 7\n"
        )
        assert serialize_edge_list(erdos_renyi(9, 0.35, seed=2024)) == expected

    def test_load_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 3\n0 1\n1 2\n", encoding="utf-8")
        assert load_edge_list(str(path)) == path_graph(3)

    @pytest.mark.parametrize("ends", ["\r\n", "\r", "mixed"], ids=["crlf", "cr", "mixed"])
    def test_load_edge_list_reads_any_line_end_as_the_lf_file(self, tmp_path, monkeypatch, ends):
        # text mode's universal newlines turn "\r\n" and a lone "\r" into "\n" before the parser sees them
        lines = ["# a path", "n 4", "0 1", "  # between edges", "1 2", "\t#", "2 3"]
        lf = tmp_path / "lf.txt"
        lf.write_bytes(("\n".join(lines) + "\n").encode())
        if ends == "mixed":
            text = "".join(line + ("\r\n", "\r", "\n")[i % 3] for i, line in enumerate(lines))
        else:
            text = ends.join(lines) + ends
        other = tmp_path / "other.txt"
        other.write_bytes(text.encode())
        parse, seen = graphs.parse_edge_list, []
        monkeypatch.setattr(graphs, "parse_edge_list", lambda t: seen.append(t) or parse(t))
        assert load_edge_list(str(other)) == load_edge_list(str(lf)) == path_graph(4)
        assert seen[0] == seen[1] and "\r" not in seen[0]


#: Line breaks ``str.splitlines`` honours, and whitespace ``str.split`` honours
BREAKS = ["\n"] * 6 + ["\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", "\u2028"]
SPACES = [" "] * 6 + ["\t", "  ", "\u00a0", "\u2003", "\x1f"]
#: Tokens the format rejects or that read oddly: signs, separators, other digits,
#: numbers past int64 (zero-padded ones are still in range), words
ODD_NUMBERS = [
    "+3", "1_0", "\u0664", "\uff13", "-1", "-0", "--1", "3.0", "x", "0x1",
    "9" * 19, "1" + "0" * 19, "-" + "9" * 20, "0" * 20 + "1", "0" * 30,
]


@st.composite
def edge_list_texts(draw) -> str:
    """Edge-list text, mostly well formed, with the odd lines the format must judge."""
    n = draw(st.integers(1, 12))
    odd = draw(st.sampled_from([0.0, 0.0, 0.03, 0.3]))

    def chance(p: float) -> bool:
        return draw(st.floats(0.0, 1.0)) < p

    def number(k: int) -> str:
        if chance(odd):
            return draw(st.sampled_from(ODD_NUMBERS + [str(n)] * 5 + [str(n + 1)]))
        return "0" * draw(st.sampled_from([0, 0, 0, 1, 3])) + str(k)

    def endpoints() -> tuple[str, str]:
        u = draw(st.integers(0, n - 1))
        v = (u + draw(st.integers(1, n - 1))) % n if n > 1 else u
        return number(u), number(v)

    def line() -> str:
        kind = draw(st.sampled_from(["edge"] * 8 + ["comment", "blank", "loop", "three", "one"]))
        sep = draw(st.sampled_from(SPACES))
        pad = draw(st.sampled_from(["", "", "", " ", "\t", "\u00a0"]))
        if kind == "comment":
            return pad + "#" + draw(st.sampled_from(["", " note", " \u0664 nodes, 1_0 + more", " \u00e9t\u00e9"]))
        if kind == "blank":
            return draw(st.sampled_from(["", " ", "\t", "\u2003"]))
        if kind == "loop" and chance(odd * 2):
            k = draw(st.integers(0, n - 1))
            return f"{pad}{k}{sep}{k}"
        if kind in ("three", "one") and chance(odd * 2):
            return pad + sep.join([*endpoints(), number(0)][: 3 if kind == "three" else 1])
        u, v = endpoints()
        return f"{pad}{u}{sep}{v}{pad}"

    header = [f"n {'0' * draw(st.sampled_from([0, 0, 1])) + str(n)}"]
    if chance(odd):
        header = draw(st.sampled_from([[], ["n +3"], ["n \u0664"], ["n 1_0"], ["n -1"], ["n 0"], ["n 3 4"], ["m 3"]]))
    lines = [line() for _ in range(draw(st.integers(0, 3)))] if chance(0.3) else []
    lines = [ln for ln in lines if not ln.strip() or ln.strip().startswith("#")]  # before the header
    lines += header + [line() for _ in range(draw(st.integers(0, 14)))]
    breaks = [draw(st.sampled_from(BREAKS)) for _ in lines]
    return "".join(ln + br for ln, br in zip(lines, breaks))[: None if chance(0.8) else -1]


def parse_outcome(text: str):
    """The package parser's graph as (n, edge set), or its error as (line number, message)."""
    try:
        g = parse_edge_list(text)
    except ParseError as exc:
        return "error", exc.line_no, str(exc)
    except ValueError as exc:  # the header count is above MAX_NODES
        return "refused", str(exc)
    edges = set(g.edges())
    assert_csr(g, edges)
    return "graph", g.n, edges


def reference_outcome(text: str):
    try:
        n, edges = oracles.parse_edge_list(text, limit=graphs.MAX_NODES)
    except oracles.EdgeListError as exc:
        return "error", exc.line_no, str(exc)
    except ValueError as exc:
        return "refused", str(exc)
    return "graph", n, edges


class TestEdgeListAgainstReference:
    """The bulk parser and the table serializer against the line-at-a-time originals."""

    @given(edge_list_texts())
    @settings(max_examples=300, deadline=None)
    @example("n 3\r\n0 1\r1\u00a02\x0c# \u0664\n\n")
    @example("n 1\n")
    @example("n 3\n0 1 2\n")
    @example("0 1\n")
    @example("# only a comment")
    @example("n 5\n0 " + "0" * 25 + "4\n")
    @example("n 5\n0 " + "9" * 19 + "\n")
    @example("n 5\n0 " + "1" * 5000 + "\n")
    @example("n 5\n1\x1f2\n3\u20034\n")
    @example("n 3\n0 1\n1 3\n")
    @example("n 3\n3 0\n")
    @example("n 5001\n0 1\n1 x\n")
    @example("n 5\n" + "0" * 17 + "3 " + "9" * 18 + "\n")
    @example("n 5\n" + "0" * 17 + "3\t" + "0" * 18 + "4\n")
    @example("n 5\n" + "0" * 26 + " 2\n" + "0" * 17 + "1 3\n")
    @example("n 4\n0 1 2\n3\n")
    @example("n 3\n0\r1\n")
    @example("n 3\r\n# a\x850 1\r\n")
    @example("# a\u2028n 3\n0 1\n")
    @example("n 3\n0 1 # note\n")
    @example("n 3\n-0 1\n1\u00a02\n")
    @example("n 5\n" + "0" * 18 + "3 1\n" + "9" * 19 + " 2\n")
    @example("\t# \u00e9t\u00e9\n\nn 3\t\n \t\n0 1\n\t \n1 2")
    @example("n 9\n0 1\x0b1 2\x1c2 3\x1d3 4\x1e4 5\n")
    @example("n 30\n+3 1\n1_0 2\n\u0664 3\n")
    @example("n 3\n\n")
    def test_parse_matches_reference(self, text):
        assert parse_outcome(text) == reference_outcome(text)

    @pytest.mark.parametrize(
        "text, bulk",
        [
            ("n 3\r\n0 1\r\n1 2\r\n", True),
            *((f"n 3\n0 1{br}1 2\n", False) for br in ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")),
            *((f"n 3\n# note{br}0 1\n", False) for br in ("\r", "\x0c", "\x85", "\u2028", "\u2029")),
            ("n 3\n0\r1\n", False),
            *((f"n 30\n{token} 2\n", False) for token in ("0\u00a01", "+3", "1_0", "\u0664", "-0")),
            ("n 5\n" + "0" * 17 + "3 " + "9" * 17 + "1\n", False),  # 18 digits, out of range
            ("n 5\n" + "0" * 17 + "3 " + "1" * 18 + "\n", False),
            ("n 5\n" + "0" * 17 + "3 " + "0" * 17 + "1\n", True),  # 18 digits, zero-padded
            ("n 5\n" + "0" * 18 + "3 1\n", False),  # 19 digits, zero-padded
            ("n 5\n0 " + "9" * 19 + "\n", False),
            ("n 3\n0 1 # note\n", False),
            ("n 3\n0 1\n#1 2\n  # 2 0 \u00e9\n", True),
            ("# \u00e9t\u00e9 \u0664\nn 3\n0 1\n", True),
            ("# n 9\nn 3\t\n0 1\n", True),
            ("n 3\n0 1\n1 2", True),
            ("n 3\n \t\n0 1\n\t \n\n", True),
            ("n 3\n", True),
            ("n 3\n\n# none\n", True),
            ("n 4\n0 1 2\n3\n", False),
            ("n 4\n0\n1 2 3\n", False),
            ("n 3\n0 1\n2 2\n", False),
            ("n 3\n0 1\n\ud800\n", False),
            ("n 3\r\n\t# \u00e9t\u00e9\r\n0 1\r\n", True),
            ("n 3\r\r\n0 1\r\n", False),  # "\r\r\n" is a lone "\r" and then a "\r\n"
            ("n 3\n0 1\n# end", True),
        ],
    )
    def test_bulk_pass_or_line_reader(self, text, bulk, monkeypatch):
        # same outcome as the reference, and the bulk pass decides exactly the plain files
        read_lines, calls = graphs._read_lines, []
        monkeypatch.setattr(graphs, "_read_lines", lambda t: calls.append(t) or read_lines(t))
        assert parse_outcome(text) == reference_outcome(text)
        assert calls == ([] if bulk else [text])

    @given(st.text(alphabet="n 0123456789-+_#x\n\r\t\u00a0\u0664\x0c", max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_parse_matches_reference_on_any_text(self, text):
        assert parse_outcome(text) == reference_outcome(text)

    @pytest.mark.parametrize("form", ["canonical", "tabs", "blank-and-comment-lines", "crlf"])
    def test_bulk_path_reads_well_formed_files(self, monkeypatch, form):
        # the line-at-a-time reader is only for files the bulk checks refuse
        g = Graph.from_edges(200, list(erdos_renyi(200, 0.06, seed=17).edges())[:1000])
        assert g.m == 1000
        text = serialize_edge_list(g)
        if form == "tabs":
            text = text.replace(" ", "\t")
        elif form == "blank-and-comment-lines":
            text = "# edges\n\n" + text.replace("\n", "\n\n  # note\n")
        elif form == "crlf":
            text = text.replace("\n", "\r\n")

        def refuse(*args):
            raise AssertionError("line-at-a-time reader called")

        monkeypatch.setattr(graphs, "_edge", refuse)
        assert parse_edge_list(text) == g

    def test_error_names_the_first_bad_line(self):
        # every line after the first bad one is bad too, in another way
        text = "n 4\n0 1\n1 2\n2 9\n3 3\n0 +1\n1 2 3\n"
        assert parse_outcome(text) == ("error", 4, "line 4: endpoint out of range [0, 4) in '2 9'")
        assert parse_outcome(text) == reference_outcome(text)

    @given(st.integers(1, 60), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    @example(1, 0.5, 0)
    @example(5, 0.0, 0)
    def test_serialize_matches_reference(self, n, p, seed):
        # sparse draws leave isolated nodes, p = 0 leaves no edge
        iu, ju = np.triu_indices(n, k=1)
        keep = np.random.default_rng(seed).random(iu.size) < p
        edges = set(zip(iu[keep].tolist(), ju[keep].tolist()))
        g = Graph.from_edges(n, edges)
        assert serialize_edge_list(g) == oracles.serialize_edge_list(n, edges)
        assert reference_outcome(serialize_edge_list(g)) == ("graph", n, edges)

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, graphs.MAX_NODES, graphs.MAX_NODES + 1])
    def test_serialize_at_every_width_boundary(self, n):
        # the serializer does not cap n: a library Graph may be larger than MAX_NODES.
        # The path writes every node but the last as u and every node but 0 as v
        edges = {(i, i + 1) for i in range(n - 1)}
        edges |= {(0, v) for v in range(2, n, 7)} | {(u, n - 1) for u in range(1, n - 2, 11)}
        assert serialize_edge_list(Graph.from_edges(n, edges)) == oracles.serialize_edge_list(n, edges)

    @pytest.mark.parametrize("n", [10, 1001, graphs.MAX_NODES])
    def test_serialize_a_graph_without_edges(self, n):
        assert serialize_edge_list(Graph.from_edges(n, [])) == oracles.serialize_edge_list(n, set()) == f"n {n}\n"

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int16, np.uint16])
    def test_serialize_several_blocks_one_empty(self, dtype):
        # blocks of any integer type, an empty one among them, write what one block writes
        n = 1001
        edges = {(u, v) for u, v in erdos_renyi(n, 0.004, seed=3).edges()} | {(0, n - 1), (n - 2, n - 1)}
        us, vs = np.array(sorted(edges), dtype=dtype).T
        cuts = [0, 1, 700, 700, us.size - 1, us.size]  # the third block is empty
        out = io.StringIO()
        graphs.serialize_edges(n, [(us[a:b], vs[a:b]) for a, b in zip(cuts[:-1], cuts[1:])], out)
        assert out.getvalue() == oracles.serialize_edge_list(n, edges)


class TestConstruction:
    def test_from_edges_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Graph.from_edges(0, [])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    @pytest.mark.parametrize("edge", [(0, 1.9), (0, "1"), (1.0, 2), (0, np.float64(2.0))])
    def test_from_edges_rejects_non_integer_endpoints(self, edge):
        # neither truncated nor parsed: the error names the whole edge
        with pytest.raises(ValueError, match="non-integer endpoint in edge") as info:
            Graph.from_edges(3, [(0, 2), edge])
        assert repr(edge) in str(info.value)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_from_edges_accepts_numpy_integers(self, dtype):
        g = Graph.from_edges(3, [(dtype(0), dtype(1)), (dtype(2), dtype(1))])
        assert g == Graph.from_edges(3, [(0, 1), (1, 2)])

    def test_sparse_graph_on_a_million_nodes(self):
        # entry keys row * n + column reach 10**12, past int32
        n = 10**6
        g = Graph.from_edges(n, [(n - 1, 0), (5, n - 2), (n - 2, 5), (n - 1, n - 2)])
        assert_csr(g, [(0, n - 1), (5, n - 2), (n - 2, n - 1)])
        assert list(g.edges()) == [(0, n - 1), (5, n - 2), (n - 2, n - 1)]
        # the edge-list reader refuses the header count before building anything
        with pytest.raises(ValueError, match=r"^n=1000000 exceeds the limit of 5000 nodes"):
            parse_edge_list(f"n {n}\n{n - 1} 0\n5 {n - 2}\n{n - 1} {n - 2}\n")

    def test_node_count_beyond_int64_keys_rejected(self):
        # (n - 1) * n + (n - 1) must fit int64; refused before allocating anything
        with pytest.raises(ValueError, match=r"^node count must be <= 3037000499, got 3037000500$"):
            Graph.from_edges(3_037_000_500, [])

    def test_from_edges_deduplicates_and_symmetrizes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert g.indptr.tolist() == [0, 1, 2, 2] and g.indices.tolist() == [1, 0]

    def test_csr_arrays_with_isolated_nodes(self):
        g = Graph.from_edges(7, [(5, 2), (1, 2), (2, 4)])
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
        assert g.indptr.tolist() == [0, 0, 1, 4, 4, 5, 6, 6]
        assert g.indices.tolist() == [2, 1, 4, 5, 2, 2]

    def test_csr_arrays_without_edges(self):
        g = Graph.from_edges(4, [])
        assert g.m == 0 and g.indptr.tolist() == [0, 0, 0, 0, 0]
        assert g.indices.shape == (0,) and g.indices.dtype == np.int64

    def test_adjacency_round_trip(self):
        g = erdos_renyi(9, 0.5, seed=3)
        assert Graph.from_adjacency(g.adjacency_matrix()) == g

    def test_from_adjacency_rejects_asymmetric_and_loops(self):
        with pytest.raises(ValueError):
            Graph.from_adjacency(np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValueError):
            Graph.from_adjacency(np.array([[1, 0], [0, 0]]))
        with pytest.raises(ValueError):
            Graph.from_adjacency(np.zeros((2, 3)))

    def test_from_adjacency_requires_exact_symmetry(self):
        # symmetric in pattern but not in value: each nonzero must equal its mirror
        nan = float("nan")
        for adj in (np.array([[0, 2], [1, 0]]), np.array([[0.0, nan, 0.0], [nan, 0.0, 1.0], [0.0, 1.0, 0.0]])):
            with pytest.raises(ValueError, match="^adjacency matrix is not symmetric$"):
                Graph.from_adjacency(adj)
        rng = np.random.default_rng(600)
        upper = np.triu(rng.random((600, 600)) < 0.01, k=1)
        g = Graph.from_adjacency(upper | upper.T)
        assert_csr(g, zip(*np.nonzero(upper)))

    @given(st.integers(min_value=1, max_value=40), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_from_adjacency_matches_from_edges(self, n, p, rnd):
        # sparse draws leave isolated nodes, dense ones almost none
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < p]
        adj = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            adj[i, j] = adj[j, i] = True
        g = Graph.from_adjacency(adj)
        assert_csr(g, edges)
        assert g == Graph.from_edges(n, edges)
        assert g.indices.dtype == np.int64 and g.indptr.dtype == np.int64

    def test_equality_and_hash(self):
        g = path_graph(4)
        same = Graph.from_edges(4, [(3, 2), (1, 0), (1, 2), (0, 1)])
        assert g == same and hash(g) == hash(same) and len({g, same}) == 1
        assert g.__eq__("n 4") is NotImplemented
        assert g != "n 4"

    def test_from_adjacency_rejects_empty(self):
        # the same rule as from_edges: an n = 0 graph would reach the BFS kernel
        with pytest.raises(ValueError, match=r"^node count must be >= 1, got 0$"):
            Graph.from_adjacency(np.zeros((0, 0), dtype=bool))
        with pytest.raises(ValueError, match="node count must be >= 1, got 0"):
            Graph.from_edges(0, [])

    def test_neighbors_sorted_and_read_only(self):
        g = Graph.from_edges(4, [(2, 0), (3, 0), (0, 1)])
        assert g.indices[g.indptr[0] : g.indptr[1]].tolist() == [1, 2, 3]
        for array in (g.indptr, g.indices):
            with pytest.raises(ValueError):
                array[0] = 9

    def test_edges_iterates_lexicographically(self):
        g = Graph.from_edges(4, [(3, 2), (1, 0), (2, 0)])
        assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]

    @given(small_graphs())
    @settings(max_examples=50)
    def test_invariants_hold(self, g: Graph):
        # a CSR equal to the one CSR of its own edges u < v is sorted, symmetric and loop-free
        assert_csr(g, set(g.edges()))
        assert g.degrees().sum() == 2 * g.m


class TestGenerators:
    def test_path(self):
        g = path_graph(4)
        assert (g.n, g.m) == (4, 3) and list(g.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_cycle(self):
        g = cycle_graph(5)
        assert (g.n, g.m) == (5, 5) and (0, 4) in g.edges()
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete(self):
        g = complete_graph(4)
        assert (g.n, g.m) == (4, 6)
        assert g.degrees().tolist() == [3, 3, 3, 3]

    def test_star(self):
        g = star_graph(4)
        assert (g.n, g.m) == (4, 3)
        assert g.degrees().tolist() == [3, 1, 1, 1]

    @pytest.mark.parametrize("make", [path_graph, complete_graph, star_graph])
    def test_deterministic_families_leave_n_below_one_to_from_edges(self, make):
        with pytest.raises(ValueError, match=r"^node count must be >= 1, got 0$"):
            make(0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_random_families_reject_n_below_one(self, n):
        with pytest.raises(ValueError, match=rf"^erdos_renyi needs n >= 1, got {n}$"):
            erdos_renyi(n, 0.5, seed=0)
        with pytest.raises(ValueError, match=rf"^random_tree needs n >= 1, got {n}$"):
            random_tree(n, seed=0)

    def test_erdos_renyi_deterministic_per_seed(self):
        a = erdos_renyi(12, 0.3, seed=42)
        b = erdos_renyi(12, 0.3, seed=42)
        assert a == b
        assert erdos_renyi(12, 0.3, seed=43) != a

    def test_erdos_renyi_extreme_probabilities(self):
        assert erdos_renyi(6, 0.0, seed=1).m == 0
        assert erdos_renyi(6, 1.0, seed=1) == complete_graph(6)

    def test_erdos_renyi_rejects_bad_p(self):
        with pytest.raises(ValueError):
            erdos_renyi(5, -0.1, seed=0)
        with pytest.raises(ValueError):
            erdos_renyi(5, 1.5, seed=0)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_random_tree_is_a_tree(self, n, seed):
        g = random_tree(n, seed=seed)
        assert_csr(g, oracles.prufer_tree_edges(n, seed))
        assert g.m == n - 1
        assert oracles.connected(g.adjacency_matrix())

    def test_random_tree_deterministic_per_seed(self):
        assert random_tree(10, seed=7) == random_tree(10, seed=7)

    def test_random_tree_matches_pointer_walk_decode(self):
        for n in range(1, 81):
            for seed in range(100):
                assert set(random_tree(n, seed=seed).edges()) == oracles.prufer_tree_edges(n, seed)
        for seed in range(3):
            assert set(random_tree(2000, seed=seed).edges()) == oracles.prufer_tree_edges(2000, seed)
        # a campaign passes its Generator: the same draws, n = 1 and 2 drawing none
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        for n in (2, 5, 1, 30, 2, 7):
            assert set(random_tree(n, seed=a).edges()) == oracles.prufer_tree_edges(n, b)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12, 33, 64, 65])
    def test_each_generator_equals_its_from_edges_build(self, n):
        # the generators hand arrays to the CSR builder; from_edges checks Python pairs one by one
        built = {
            path_graph: [(i, i + 1) for i in range(n - 1)],
            complete_graph: [(i, j) for i in range(n) for j in range(i + 1, n)],
            star_graph: [(0, i) for i in range(1, n)],
        }
        if n >= 3:
            built[cycle_graph] = [(i, (i + 1) % n) for i in range(n)]
        for make, edges in built.items():
            g = make(n)
            assert_csr(g, edges)
            assert g == Graph.from_edges(n, edges), make.__name__
        for seed, p in enumerate((0.0, 0.1, 0.3, 0.5, 1.0)):
            iu, ju = np.triu_indices(n, k=1)
            keep = np.random.default_rng(seed).random(iu.size) < p
            assert erdos_renyi(n, p, seed=seed) == Graph.from_edges(n, zip(iu[keep].tolist(), ju[keep].tolist()))
            assert random_tree(n, seed=seed) == Graph.from_edges(n, oracles.prufer_tree_edges(n, seed))

    def test_large_complete_graph(self):
        g = complete_graph(2000)
        assert (g.n, g.m) == (2000, 1_999_000)
        assert (g.degrees() == 1999).all()

    def test_generate_dispatch(self):
        assert generate("path", 4) == path_graph(4)
        assert generate("complete", 4) == complete_graph(4)
        assert generate("erdos_renyi", 8, p=0.5, seed=1) == erdos_renyi(8, 0.5, seed=1)
        assert generate("random_tree", 8, seed=1) == random_tree(8, seed=1)

    def test_generate_rejects_unknown_family_and_missing_p(self):
        with pytest.raises(ValueError):
            generate("petersen", 10)
        with pytest.raises(ValueError):
            generate("erdos_renyi", 8)

    def test_families_constant_covers_dispatch(self):
        for family in FAMILIES:
            kwargs = {"p": 0.5} if family == "erdos_renyi" else {}
            g = generate(family, 5, seed=0, **kwargs)
            assert_csr(g, set(g.edges()))



def assert_same_csr(g: Graph, h: Graph) -> None:
    """g and h have the same node count and bitwise the same CSR arrays, dtypes included."""
    assert g.n == h.n
    for a, b in ((g.indptr, h.indptr), (g.indices, h.indices)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert not a.flags.writeable


class TestBatchDraws:
    """``erdos_renyi_batch`` and ``generate_batch``: one Generator, each member its lone draw."""

    @pytest.mark.parametrize("n", [1, 2, 12, 65])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("count", [1, 2, 75])
    def test_erdos_renyi_batch_is_count_lone_draws(self, n, p, count):
        batched, lone = np.random.default_rng(n * 1000 + count), np.random.default_rng(n * 1000 + count)
        batch = erdos_renyi_batch(n, p, count, batched)
        assert len(batch) == count
        for g in batch:
            assert_same_csr(g, erdos_renyi(n, p, lone))
        assert batched.bit_generator.state == lone.bit_generator.state
        assert batched.random() == lone.random()

    def test_members_are_the_draws_in_order(self):
        # independent of the package: member b keeps pair k when the b-th row's k-th double is below p
        n, p, count = 9, 0.4, 6
        iu, ju = np.triu_indices(n, k=1)
        doubles = np.random.default_rng(5).random((count, iu.size))
        for g, row in zip(erdos_renyi_batch(n, p, count, seed=5), doubles):
            keep = row < p
            assert g == Graph.from_edges(n, zip(iu[keep].tolist(), ju[keep].tolist()))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_generate_batch_is_count_lone_generates(self, family):
        p = 0.3 if family == "erdos_renyi" else None
        batched, lone = np.random.default_rng(3), np.random.default_rng(3)
        batch = generate_batch(family, 7, 4, p=p, seed=batched)
        assert len(batch) == 4
        for g in batch:
            assert_same_csr(g, generate(family, 7, p=p, seed=lone))
        assert batched.bit_generator.state == lone.bit_generator.state

    @pytest.mark.parametrize("p, message", [
        (None, "erdos_renyi requires an edge probability p"),
        (-0.1, "edge probability must be in [0, 1], got -0.1"),
        (1.5, "edge probability must be in [0, 1], got 1.5"),
        (float("nan"), "edge probability must be in [0, 1], got nan"),
    ])
    def test_bad_p_is_refused_before_any_draw(self, p, message):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError) as err:
            generate_batch("erdos_renyi", 8, 3, p=p, seed=rng)
        assert str(err.value) == message
        assert rng.bit_generator.state == state
