import json
import random

import pytest

from extpart import Graph, InputError, Partition, complete_multipartite, decompose
from extpart.cli import main
from extpart.io import (
    format_dot,
    format_partition_text,
    format_tree,
    graph_to_document,
    parse_graph_text,
    parse_partition_text,
    serialize_graph_document,
)
from bruteforce import fig1_bottom, p4, random_graph

P4_TEXT = "p 4 3\ne 0 1\ne 1 2\ne 2 3\n"
BOTTOM_JSON = json.dumps(
    {
        "format": "adjacency-json",
        "n": 4,
        "edges": [[0, 1], [1, 2], [2, 3], [0, 2]],
        "names": ["a", "b", "c", "d"],
    }
)


def test_edge_list_roundtrip():
    doc = parse_graph_text(P4_TEXT)
    assert doc.to_graph() == p4()
    assert serialize_graph_document(doc) == P4_TEXT


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 2"):
        parse_graph_text("p 3 1\ne 0 5\n")
    with pytest.raises(InputError, match="line 2: endpoint out of range"):
        parse_graph_text("p 3 1\ne 0 -1\n")
    with pytest.raises(InputError, match="line 1"):
        parse_graph_text("x nonsense\n")
    with pytest.raises(InputError, match="header"):
        parse_graph_text("e 0 1\n")


def test_json_document():
    doc = parse_graph_text(BOTTOM_JSON)
    assert doc.to_graph() == fig1_bottom()
    assert doc.names == ("a", "b", "c", "d")
    again = parse_graph_text(serialize_graph_document(doc))
    assert again == doc


def test_json_validation():
    with pytest.raises(InputError):
        parse_graph_text('{"n": 2}')
    with pytest.raises(InputError):
        parse_graph_text('{"n": 2, "edges": [[0, 0]]}')
    with pytest.raises(InputError, match="names"):
        parse_graph_text('{"n": 2, "edges": [], "names": ["a"]}')
    with pytest.raises(InputError, match="line"):
        parse_graph_text("{broken json")


def test_partition_text_roundtrip():
    part = Partition(2, (1, 2, 2, 1))
    text = format_partition_text(part)
    assert parse_partition_text(text, 4) == part
    with pytest.raises(InputError, match="misses"):
        parse_partition_text("0 1\n", 2)
    with pytest.raises(InputError, match="twice"):
        parse_partition_text("0 1\n0 2\n1 1\n", 2)
    with pytest.raises(InputError, match="line 1: vertex -1 out of range"):
        parse_partition_text("-1 1\n", 2)
    with pytest.raises(InputError, match="line 1: colors start at 1, got -2"):
        parse_partition_text("0 -2\n", 2)


def test_format_tree():
    g, _ = complete_multipartite([2, 1])
    assert format_tree(decompose(g).root) == "join(union(leaf 0,leaf 1),leaf 2)"
    assert format_tree(decompose(p4()).root) == "prime(leaf 0,leaf 1,leaf 2,leaf 3)"


def test_format_dot():
    g = p4()
    dot = format_dot(g, Partition(2, (1, 1, 2, 2)), names=list("abcd"))
    assert "0 -- 1;" in dot
    assert 'label="a"' in dot


def test_cli_test_command(tmp_path, capsys):
    f = tmp_path / "p4.txt"
    f.write_text(P4_TEXT)
    assert main(["test", str(f)]) == 0
    out = capsys.readouterr().out
    assert "1-extendable: yes" in out
    assert "alpha: 2" in out
    assert "method: mw" in out


def test_cli_test_negative_names_starved(tmp_path, capsys):
    f = tmp_path / "bottom.json"
    f.write_text(BOTTOM_JSON)
    assert main(["test", str(f)]) == 1
    out = capsys.readouterr().out
    assert "1-extendable: no" in out
    assert "starved: c" in out


def test_cli_test_method_flags(tmp_path, capsys):
    f = tmp_path / "p4.txt"
    f.write_text(P4_TEXT)
    assert main(["test", str(f), "--method", "oracle"]) == 0
    # cograph method on a prime graph is an input error
    assert main(["test", str(f), "--method", "cograph"]) == 2


def test_cli_test_malformed_input(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("p 2 1\ne 0 7\n")
    assert main(["test", str(f)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_chi_emit_and_verify(tmp_path, capsys):
    f = tmp_path / "fig2.txt"
    cert = tmp_path / "cert.txt"
    g, _ = complete_multipartite([2, 3, 4, 7, 9])
    f.write_text(serialize_graph_document(graph_to_document(g)))
    assert main(["chi", str(f), "--emit-partition", str(cert)]) == 0
    assert "chi_1ext: 3" in capsys.readouterr().out
    assert main(["verify", str(f), str(cert)]) == 0
    assert "yes" in capsys.readouterr().out


def test_cli_chi_max_k(tmp_path, capsys):
    f = tmp_path / "fig2.txt"
    g, _ = complete_multipartite([2, 3, 4, 7, 9])
    f.write_text(serialize_graph_document(graph_to_document(g)))
    assert main(["chi", str(f), "--max-k", "2"]) == 1
    assert "chi_1ext > 2" in capsys.readouterr().out


def test_cli_chi_dot_export(tmp_path):
    f = tmp_path / "p4.txt"
    dot = tmp_path / "out.dot"
    f.write_text(P4_TEXT)
    assert main(["chi", str(f), "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("graph G {")


def test_cli_verify_rejects_bad_certificates(tmp_path, capsys):
    f = tmp_path / "bottom.json"
    f.write_text(BOTTOM_JSON)
    single = tmp_path / "single.txt"
    single.write_text("0 1\n1 1\n2 1\n3 1\n")
    assert main(["verify", str(f), str(single)]) == 1
    missing = tmp_path / "missing.txt"
    missing.write_text("0 1\n1 1\n2 1\n")
    assert main(["verify", str(f), str(missing)]) == 2


def test_cli_pv(tmp_path, capsys):
    f = tmp_path / "p4.txt"
    f.write_text(P4_TEXT)
    assert main(["pv", str(f), "--theta", "1"]) == 0
    out = capsys.readouterr().out
    assert "2/3" in out  # limit column renders exact rationals
    assert main(["pv", str(f), "--theta", "0"]) == 2


def test_cli_pv_theta_rational_and_float(tmp_path, capsys):
    f = tmp_path / "k1.txt"
    f.write_text("p 1 0\n")
    assert main(["pv", str(f), "--theta", "1"]) == 0
    assert "1/2" in capsys.readouterr().out
    assert main(["pv", str(f), "--theta", "3/2", "--float"]) == 0
    assert "0.6" in capsys.readouterr().out


@pytest.mark.parametrize(
    "theta, flags",
    [
        ("7" * 501, []),  # exact values of more digits than Python prints
        ("1e5000", []),  # theta itself has 5001 digits
        ("1e5000", ["--float"]),  # theta overflows a float
    ],
    ids=["501-digits", "1e5000", "1e5000-float"],
)
def test_cli_pv_unprintable_values_print_nothing(tmp_path, capsys, theta, flags):
    f = tmp_path / "g25.txt"
    g = random_graph(random.Random(36), 25, 0.3)
    f.write_text(serialize_graph_document(graph_to_document(g)))
    assert main(["pv", str(f), "--theta", theta, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert theta in captured.err


@pytest.mark.parametrize("theta", ["1_0", "\uff11", "1\u0660"])
def test_cli_pv_rejects_loose_theta(tmp_path, capsys, theta):
    # Fraction() reads these as 10, 1 and 10
    f = tmp_path / "p4.txt"
    f.write_text(P4_TEXT)
    assert main(["pv", str(f), "--theta", theta]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad theta" in captured.err


@pytest.mark.parametrize(
    "theta, value", [("50", "50"), ("3/2", "3/2"), ("0.5", "1/2"), ("1e3", "1000")]
)
def test_cli_pv_accepts_ascii_theta(tmp_path, capsys, theta, value):
    f = tmp_path / "p4.txt"
    f.write_text(P4_TEXT)
    assert main(["pv", str(f), "--theta", theta]) == 0
    assert capsys.readouterr().out.startswith(f"theta: {value}\n")


def test_cli_pv_cap(tmp_path, capsys):
    f = tmp_path / "big.txt"
    f.write_text("p 26 0\n")
    assert main(["pv", str(f)]) == 3


def test_cli_gen_roundtrip(capsys):
    assert main(["gen", "multipartite-extremal", "--k", "3"]) == 0
    text = capsys.readouterr().out
    doc = parse_graph_text(text)
    assert doc.n == 15
    assert serialize_graph_document(doc) == text


def test_cli_gen_json_parts(capsys):
    assert main(["gen", "multipartite", "--sizes", "2,3,4,7,9", "--json"]) == 0
    doc = parse_graph_text(capsys.readouterr().out)
    assert doc.parts == (2, 3, 4, 7, 9)
    assert doc.n == 25


def test_cli_gen_interval_and_hardness(tmp_path, capsys):
    assert main(["gen", "interval-extremal", "--k", "1"]) == 0
    assert parse_graph_text(capsys.readouterr().out).n == 1
    base = tmp_path / "p4.txt"
    base.write_text(P4_TEXT)
    assert main(["gen", "hardness", "--input", str(base), "--k", "2"]) == 0
    assert parse_graph_text(capsys.readouterr().out).n == 13


def test_cli_decompose(tmp_path, capsys):
    f = tmp_path / "p4.txt"
    f.write_text(P4_TEXT)
    assert main(["decompose", str(f)]) == 0
    out = capsys.readouterr().out
    assert "prime(leaf 0,leaf 1,leaf 2,leaf 3)" in out
    assert "mw=4" in out
    k1 = tmp_path / "k1.txt"
    k1.write_text("p 1 0\n")
    assert main(["decompose", str(k1)]) == 0
    out = capsys.readouterr().out
    assert "leaf 0" in out and "mw=1" in out


@pytest.mark.parametrize(
    "doc, field",
    [
        ('{"n": 2, "edges": [["a", 1]]}', "edges[0][0]"),
        ('{"n": 1, "edges": [], "parts": ["x"]}', "parts[0]"),
        ('{"n": 2, "edges": 5}', "edges"),
        ('{"n": 2, "edges": [[0.5, 1]]}', "edges[0][0]"),
        ('{"n": true, "edges": []}', "n"),
    ],
    ids=["str-endpoint", "str-part", "edges-not-list", "float-endpoint", "bool-n"],
)
def test_cli_rejects_loose_json_documents(tmp_path, capsys, doc, field):
    f = tmp_path / "bad.json"
    f.write_text(doc)
    assert main(["test", str(f)]) == 2
    assert f"`{field}`" in capsys.readouterr().err


LOOSE_INTEGERS = {"plus": "+1", "underscore": "1_0", "fullwidth": "\uff11"}


@pytest.mark.parametrize("token", LOOSE_INTEGERS.values(), ids=list(LOOSE_INTEGERS))
@pytest.mark.parametrize("where", ["p-line", "e-line", "partition-line"])
def test_cli_rejects_loose_integers(tmp_path, capsys, token, where):
    # int() reads these tokens as 1, 10 and 1, each a valid value below
    graph = tmp_path / "g.txt"
    argv = ["decompose", str(graph)]
    if where == "p-line":
        graph.write_text(f"p {token} 0\n")
        line = 1
    elif where == "e-line":
        graph.write_text(f"p 11 1\ne 0 {token}\n")
        line = 2
    else:
        graph.write_text("p 2 0\n")
        cert = tmp_path / "cert.txt"
        cert.write_text(f"0 1\n1 {token}\n")
        argv = ["verify", str(graph), str(cert)]
        line = 2
    assert main(argv) == 2
    assert f"line {line}:" in capsys.readouterr().err


def test_cli_decompose_deep_threshold_cograph(tmp_path, capsys):
    # alternating arrivals: vertex v is isolated (v even) or dominating
    # (v odd) with respect to 0..v-1, so the cotree has depth n - 1
    n = 400
    edges = [(u, v) for v in range(1, n, 2) for u in range(v)]
    f = tmp_path / "threshold.txt"
    f.write_text(serialize_graph_document(graph_to_document(Graph(n, edges))))
    assert main(["decompose", str(f)]) == 0
    expected = "leaf 0"
    for v in range(1, n):
        expected = f"{'join' if v % 2 else 'union'}({expected},leaf {v})"
    assert capsys.readouterr().out.splitlines()[0] == expected


def test_cli_genset(capsys):
    assert main(["genset", "--targets", "2 3 4 7 9", "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "generators: 2 3 4" in out
    assert "target 7 = 3 + 4" in out
    assert "target 9 = 2 + 3 + 4" in out
    assert main(["genset", "--targets", "2 3 4 7 9", "-k", "2"]) == 1
    assert "infeasible" in capsys.readouterr().out


def test_cli_genset_binary_fallback(capsys):
    assert main(["genset", "--targets", "2 3 4 7 9", "-k", "5"]) == 0
    out = capsys.readouterr().out
    assert "binary" in out
    assert "generators: 1 2 4 8 16" in out


def test_cli_genset_instance_file(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("targets: 2 3 4 7 9\nk: 3\n")
    assert main(["genset", "--instance", str(inst)]) == 0
    assert "generators: 2 3 4" in capsys.readouterr().out


def test_cli_missing_file():
    assert main(["test", "/nonexistent/path.txt"]) == 2


def test_cli_end_to_end_generator_families(tmp_path, capsys):
    # every certificate emitted by chi is accepted by verify
    cases = (
        ["gen", "multipartite-extremal", "--k", "3"],
        ["gen", "interval-extremal", "--k", "4"],
        ["gen", "multipartite", "--sizes", "2,3,4,7,9"],
    )
    for argv in cases:
        assert main(argv) == 0
        text = capsys.readouterr().out
        f = tmp_path / "g.txt"
        cert = tmp_path / "cert.txt"
        f.write_text(text)
        assert main(["chi", str(f), "--emit-partition", str(cert)]) == 0
        capsys.readouterr()
        assert main(["verify", str(f), str(cert)]) == 0
        capsys.readouterr()
