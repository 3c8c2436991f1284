import io
import itertools
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import extpart
import extpart.io
from extpart import Graph, InputError, Partition, complete_multipartite, decompose
from extpart.cli import build_parser, main
from extpart.io import (
    format_dot,
    format_partition_text,
    format_tree,
    graph_to_document,
    parse_graph_text,
    parse_partition_text,
    serialize_graph_document,
)
from bruteforce import fig1_bottom, p4, random_graph, ref_parse_edge_list

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
    assert doc.graph == p4()
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
    assert doc.graph == fig1_bottom()
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
    # a quote or backslash in a name is escaped inside the DOT string
    dot = format_dot(g, names=["a\"b", "c\\", "d", "e"])
    assert '0 [label="a\\"b" ' in dot
    assert '1 [label="c\\\\" ' in dot


PARSER_ERRORS = {
    "duplicate-header": ("p 2 0\np 2 0\n", "line 2: duplicate header"),
    "header-shape": ("p 2\n", "line 1: header must be `p n m`"),
    "header-numbers": ("p x 0\n", "line 1: bad header numbers"),
    "edge-before-header": ("c x\ne 0 1\n", "line 2: edge before `p` header"),
    "edge-shape": ("p 2 1\ne 0\n", "line 2: edge must be `e u v`"),
    "edge-endpoints": ("p 2 1\ne 0 x\n", "line 2: bad edge endpoints"),
    "endpoint-above": ("p 2 1\ne 0 2\n", "line 2: endpoint out of range 0..1"),
    "endpoint-negative": ("p 3 1\ne 0 -1\n", "line 2: endpoint out of range 0..2"),
    "self-loop": ("p 2 1\ne 1 1\n", "line 2: self-loop at 1"),
    "unrecognized": ("x nonsense\n", "line 1: unrecognized line 'x nonsense'"),
    "missing-header": ("c only\n", "missing `p n m` header line"),
    "count-with-duplicates": (
        "p 3 3\ne 0 1\ne 1 0\ne 1 2\n",
        "header declares 3 edges, found 2 distinct",
    ),
    "negative-n": ("p -1 0\n", "vertex count must be non-negative, got -1"),
    "json-syntax": (
        "{broken json",
        "line 1, column 2: invalid JSON "
        "(Expecting property name enclosed in double quotes)",
    ),
    "json-format": (
        '{"format": "x", "n": 1, "edges": []}',
        "unsupported format tag 'x'",
    ),
    "json-fields": ('{"n": 2}', "JSON graph document needs `n` and `edges`"),
    "json-n-type": ('{"n": true, "edges": []}', "`n` must be an integer, got true"),
    "json-n-negative": ('{"n": -1, "edges": []}', "`n` must be non-negative, got -1"),
    "json-edges-type": ('{"n": 2, "edges": 5}', "`edges` must be a list, got 5"),
    "json-pair-shape": (
        '{"n": 2, "edges": [[0]]}',
        "`edges[0]` must be a list of 2, got [0]",
    ),
    "json-endpoint-type": (
        '{"n": 2, "edges": [[0, "a"]]}',
        '`edges[0][1]` must be an integer, got "a"',
    ),
    "json-endpoint-range": (
        '{"n": 2, "edges": [[0, 2]]}',
        "`edges[0]`: bad edge (0, 2) for n=2",
    ),
    "json-self-loop": (
        '{"n": 2, "edges": [[1, 1]]}',
        "`edges[0]`: bad edge (1, 1) for n=2",
    ),
    "json-bool-endpoint": (
        '{"n": 2, "edges": [[0, 1], [true, 0]]}',
        "`edges[1][0]` must be an integer, got true",
    ),
    "json-first-bad-edge": (
        '{"n": 3, "edges": [[0, 1], [2, 2], [0, "x"], [5]]}',
        "`edges[1]`: bad edge (2, 2) for n=3",
    ),
    "json-names-type": (
        '{"n": 2, "edges": [], "names": "ab"}',
        '`names` must be a list, got "ab"',
    ),
    "json-name-type": (
        '{"n": 2, "edges": [], "names": ["a", 1]}',
        "`names[1]` must be a string, got 1",
    ),
    "json-names-bijection": (
        '{"n": 2, "edges": [], "names": ["a", "a"]}',
        "names must biject with vertices",
    ),
    "json-parts-type": (
        '{"n": 2, "edges": [], "parts": 2}',
        "`parts` must be a list, got 2",
    ),
    "json-part-type": (
        '{"n": 2, "edges": [], "parts": [1.5]}',
        "`parts[0]` must be an integer, got 1.5",
    ),
    "json-parts-sum": (
        '{"n": 2, "edges": [], "parts": [1, 2]}',
        "parts must be positive and sum to n",
    ),
    "json-long-excerpt": (
        '{"n": 2, "edges": [[0, "' + "x" * 60 + '"]]}',
        '`edges[0][1]` must be an integer, got "' + "x" * 36 + "...",
    ),
    "json-nested-too-deeply": (
        '{"n": 1, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}",
        "invalid JSON (nested too deeply)",
    ),
}


@pytest.mark.parametrize(
    "text, message", PARSER_ERRORS.values(), ids=list(PARSER_ERRORS)
)
def test_cli_parser_errors_are_pinned(tmp_path, capsys, text, message):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    assert main(["test", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


DIGITS = sys.get_int_max_str_digits()
LONG = "9" * (DIGITS + 1)
# an integer of more digits than int() reads, at each entry point that reads
# integers: (argv, file name -> text, message); argv names files in `{dir}`
LONG_INTEGERS = {
    "header": (
        ["test", "{dir}/g.txt"],
        {"g.txt": f"p {LONG} 0\n"},
        f"line 1: bad header numbers (over {DIGITS} digits)",
    ),
    "edge-line": (
        ["test", "{dir}/g.txt"],
        {"g.txt": f"p 2 1\ne 0 {LONG}\n"},
        f"line 2: bad edge endpoints (over {DIGITS} digits)",
    ),
    "json": (
        ["test", "{dir}/g.json"],
        {"g.json": f'{{"n": 2, "edges": [[0, {LONG}]]}}'},
        f"invalid JSON (a number of over {DIGITS} digits)",
    ),
    "certificate": (
        ["verify", "{dir}/g.txt", "{dir}/cert.txt"],
        {"g.txt": "p 2 0\n", "cert.txt": f"0 1\n1 {LONG}\n"},
        f"line 2: bad numbers (over {DIGITS} digits)",
    ),
    "instance": (
        ["genset", "--instance", "{dir}/inst.txt"],
        {"inst.txt": f"targets: 3 {LONG}\nk: 2\n"},
        f"line 1: bad target list (over {DIGITS} digits)",
    ),
    "targets": (
        ["genset", "--targets", f"3 {LONG}", "-k", "2"],
        {},
        f"bad size list '3 {LONG}' (over {DIGITS} digits)",
    ),
    "sizes": (
        ["gen", "multipartite", "--sizes", f"2,{LONG}"],
        {},
        f"bad size list '2,{LONG}' (over {DIGITS} digits)",
    ),
}


@pytest.mark.parametrize(
    "argv, files, message", LONG_INTEGERS.values(), ids=list(LONG_INTEGERS)
)
def test_cli_long_integers_are_input_errors(tmp_path, capsys, argv, files, message):
    # int() refuses them with ValueError; exit 1 would read as a negative answer
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main([arg.replace("{dir}", str(tmp_path)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# line breaks that str.splitlines() honours besides "\n"
OTHER_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029")


def _endpoint(rng: random.Random, x: int) -> str:
    """x in decimal, or in a form that only the line-by-line reader takes
    (or refuses): a leading zero, a sign, too many digits, loose digits."""
    if rng.random() < 0.5:
        return str(x)
    return rng.choice(
        [f"0{x}", f"+{x}", f"-{x}", "9" * rng.randint(18, 30), f"{x}_0", "\uff11"]
    )


def _edge_document(rng: random.Random) -> tuple[str, bool]:
    """A seeded edge-list document, and whether it is canonical and valid:
    (un)sorted, duplicate and reversed edges, m = 0, n up to 300, and now and
    then comments, blank lines, tabs, other line breaks, odd numbers and one
    or two bad lines of different kinds."""
    n = rng.choice([0, 1, 2, rng.randint(3, 30), rng.randint(100, 300)])
    p = rng.choice([0.0, 0.1, 0.5, 0.9] if n <= 30 else [0.0, 0.005, 0.03])
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    m = len(edges)
    if edges and rng.random() < 0.3:
        edges += rng.choices(edges, k=rng.randint(1, 5))
    if rng.random() < 0.5:
        rng.shuffle(edges)
        edges = [(v, u) if rng.random() < 0.3 else (u, v) for u, v in edges]
    lines = [f"p {n} {m}"] + [f"e {u} {v}" for u, v in edges]
    mutations = rng.choice([0, 0, 1, 2, 3])
    for _ in range(mutations):
        kind = rng.randrange(7)
        at = rng.randint(1, len(lines))
        if kind == 0:
            lines[0] = f"p {n} {m + rng.choice([-1, 1])}"
        elif kind == 1:
            lines.insert(at, rng.choice(["c a comment", "", "   ", "\t"]))
        elif kind == 2 and len(lines) > 1:
            i = rng.randrange(1, len(lines))
            lines[i] = rng.choice([" ", "\t", "  "]).join(lines[i].split(" "))
            lines[i] = rng.choice(["", " ", "\t"]) + lines[i] + rng.choice(["", " "])
        elif kind == 3 and len(lines) > 1:
            i = rng.randrange(1, len(lines))
            if re.fullmatch("e [0-9]+ [0-9]+", lines[i]):
                u, v = map(int, lines[i].split()[1:])
                lines[i] = f"e {_endpoint(rng, u)} {_endpoint(rng, v)}"
        elif kind == 4:
            bad = [f"e {n // 2} {n // 2}", f"e 0 {n + rng.randint(0, 3)}", "e -1 0"]
            bad += ["x junk", "e 1", "e 1 2 3", "e a b", f"p {n} {m}", "p 1"]
            lines.insert(at, rng.choice(bad))
        elif kind == 5:
            lines.insert(at, lines.pop(0))  # edges before the header
        else:
            lines[-1] += rng.choice(["", "\n"])  # a blank last line
    breaks = ["\n"] * len(lines)
    if rng.random() < 0.2:
        breaks[rng.randrange(len(breaks))] = rng.choice(OTHER_BREAKS)
    if rng.random() < 0.1:
        breaks[-1] = ""
    text = "".join(line + end for line, end in zip(lines, breaks))
    return text, mutations == 0 and set(breaks) == {"\n"}


class _CountingPattern:
    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def fullmatch(self, text):
        self.calls += 1
        return self.pattern.fullmatch(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return f"InputError: {exc}"


def test_edge_list_parser_matches_the_line_by_line_reference(monkeypatch):
    line_reader = _CountingPattern(extpart.io._EDGE_LINE)
    monkeypatch.setattr(extpart.io, "_EDGE_LINE", line_reader)
    rng = random.Random(1909)
    read_in_bulk = errors = 0
    for _ in range(1000):
        text, canonical = _edge_document(rng)
        line_reader.calls = 0
        got = _outcome(lambda t: parse_graph_text(t).graph, text)
        assert got == _outcome(ref_parse_edge_list, text), text
        if canonical:
            # a canonical document never reaches the line-by-line reader
            assert line_reader.calls == 0, text
            read_in_bulk += 1
        errors += isinstance(got, str)
    assert read_in_bulk >= 250 and errors >= 250


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
    assert main(["chi", str(f), "--max-k", "0"]) == 1
    assert "chi_1ext > 0" in capsys.readouterr().out
    assert main(["chi", str(f), "--max-k", "-1"]) == 2
    assert "chi_1ext" not in capsys.readouterr().out


def test_cli_chi_dot_export(tmp_path):
    f = tmp_path / "p4.txt"
    dot = tmp_path / "out.dot"
    f.write_text(P4_TEXT)
    assert main(["chi", str(f), "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("graph G {")


@pytest.mark.parametrize("flag", ["--emit-partition", "--dot"])
def test_cli_chi_failed_write_is_an_input_error(tmp_path, capsys, flag):
    f = tmp_path / "p4.txt"
    f.write_text(P4_TEXT)
    out = tmp_path / "missing" / "out"
    assert main(["chi", str(f), flag, str(out)]) == 2
    captured = capsys.readouterr()
    # the answer is not printed when its files cannot be written
    assert captured.out == ""
    assert f"cannot write {out}: " in captured.err


def test_cli_verify_rejects_bad_certificates(tmp_path, capsys):
    f = tmp_path / "bottom.json"
    f.write_text(BOTTOM_JSON)
    single = tmp_path / "single.txt"
    single.write_text("0 1\n1 1\n2 1\n3 1\n")
    assert main(["verify", str(f), str(single)]) == 1
    missing = tmp_path / "missing.txt"
    missing.write_text("0 1\n1 1\n2 1\n")
    assert main(["verify", str(f), str(missing)]) == 2


def test_cli_verify_huge_colour_numbers(tmp_path, capsys):
    # the cost follows the vertices, not the largest colour number
    f = tmp_path / "bottom.json"
    f.write_text(BOTTOM_JSON)
    huge = 10**12
    proper = tmp_path / "proper.txt"
    proper.write_text(f"0 1\n1 {huge}\n2 1\n3 3\n")
    assert main(["verify", str(f), str(proper)]) == 0
    assert "yes" in capsys.readouterr().out
    single = tmp_path / "single.txt"
    single.write_text("".join(f"{v} {huge}\n" for v in range(4)))
    assert main(["verify", str(f), str(single)]) == 1
    assert "no" in capsys.readouterr().out


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
    # a float prints a tiny theta as 0; the digit limit still admits this one
    assert main(["pv", str(f), "--theta", "1e-4000", "--float"]) == 0
    assert capsys.readouterr().out.startswith("theta: 0\n")


@pytest.mark.parametrize(
    "theta, flags",
    [
        ("7" * 501, []),  # exact values of more digits than Python prints
        ("1e5000", []),  # theta itself has 5001 digits
        ("1e5000", ["--float"]),  # theta overflows a float
        ("1e100000", []),  # refused before Fraction() reads it
        ("1e10000000", []),
        ("1e-20000", ["--float"]),  # prints as 0, but the exact work is unbounded
    ],
    ids=[
        "501-digits",
        "1e5000",
        "1e5000-float",
        "1e100000",
        "1e10000000",
        "1e-20000-float",
    ],
)
def test_cli_pv_unprintable_values_print_nothing(tmp_path, capsys, theta, flags):
    f = tmp_path / "g25.txt"
    g = random_graph(random.Random(36), 25, 0.3)
    f.write_text(serialize_graph_document(graph_to_document(g)))
    assert main(["pv", str(f), "--theta", theta, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert theta in captured.err


def test_cli_pv_unprintable_negative_theta(tmp_path, capsys):
    # the "theta must be positive" message cannot print this theta either
    f = tmp_path / "p4.txt"
    f.write_text(P4_TEXT)
    assert main(["pv", str(f), "--theta=-1e4300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'-1e4300' a value is too large to print" in captured.err


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


def _limit_address_space():
    # 1 GiB: the first huge list fails at once, whatever overcommit allows
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (2**30, hard))


@pytest.mark.parametrize(
    "argv, document",
    [
        (["test"], "p 100000000000 0\n"),
        (["chi"], '{"n": 100000000000, "edges": []}'),
        (["gen", "multipartite", "--sizes", "100000000000"], ""),
    ],
    ids=["edge-list-test", "json-chi", "gen-multipartite"],
)
def test_cli_out_of_memory_exits_3(argv, document):
    # exit 1 would read as a negative answer
    env = {**os.environ, "PYTHONPATH": str(Path(extpart.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "extpart.cli", *argv],
        input=document,
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "resource budget exceeded: out of memory\n"


def test_cli_gen_roundtrip(capsys):
    assert main(["gen", "multipartite-extremal", "--k", "3"]) == 0
    text = capsys.readouterr().out
    doc = parse_graph_text(text)
    assert doc.graph.n == 15
    assert serialize_graph_document(doc) == text


def test_cli_gen_json_parts(capsys):
    assert main(["gen", "multipartite", "--sizes", "2,3,4,7,9", "--json"]) == 0
    doc = parse_graph_text(capsys.readouterr().out)
    assert doc.parts == (2, 3, 4, 7, 9)
    assert doc.graph.n == 25


def test_cli_gen_interval_and_hardness(tmp_path, capsys):
    assert main(["gen", "interval-extremal", "--k", "1"]) == 0
    assert parse_graph_text(capsys.readouterr().out).graph.n == 1
    base = tmp_path / "p4.txt"
    base.write_text(P4_TEXT)
    assert main(["gen", "hardness", "--input", str(base), "--k", "2"]) == 0
    assert parse_graph_text(capsys.readouterr().out).graph.n == 13


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
@pytest.mark.parametrize(
    "where",
    ["p-line", "e-line", "partition-line", "targets", "instance-line", "sizes", "k-option"],
)
def test_cli_rejects_loose_integers(tmp_path, capsys, token, where):
    # int() reads these tokens as 1, 10 and 1, each a valid value below
    graph = tmp_path / "g.txt"
    argv = ["decompose", str(graph)]
    expect = "line 2:"
    if where == "p-line":
        graph.write_text(f"p {token} 0\n")
        expect = "line 1:"
    elif where == "e-line":
        graph.write_text(f"p 11 1\ne 0 {token}\n")
    elif where == "partition-line":
        graph.write_text("p 2 0\n")
        cert = tmp_path / "cert.txt"
        cert.write_text(f"0 1\n1 {token}\n")
        argv = ["verify", str(graph), str(cert)]
    elif where == "targets":
        argv = ["genset", "--targets", f"3 {token}", "-k", "2"]
        expect = "bad size list"
    elif where == "instance-line":
        instance = tmp_path / "inst.txt"
        instance.write_text(f"targets: 3\nk: {token}\n")
        argv = ["genset", "--instance", str(instance)]
    elif where == "sizes":
        argv = ["gen", "multipartite", "--sizes", f"2,{token}"]
        expect = "bad size list"
    else:
        argv = ["genset", "--targets", "3", "-k", token]
        expect = "invalid integer value"
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses an option value this way
        code = exc.code
    assert code == 2
    assert expect in capsys.readouterr().err


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


# call sequences whose later calls must not see the earlier calls' options;
# argv names files in `{dir}`
REPEATED_CALLS = {
    "chi-max-k-then-none": (
        ["chi", "{dir}/g.json", "--max-k", "1"],
        ["chi", "{dir}/g.json"],
    ),
    "pv-float-then-exact": (["pv", "{dir}/g.json", "--float"], ["pv", "{dir}/g.json"]),
    "genset-targets-then-instance": (
        ["genset", "--targets", "2 3 4 7 9", "-k", "3"],
        ["genset", "--instance", "{dir}/inst.txt"],
    ),
    "usage-error-then-valid": (
        ["chi", "{dir}/g.json", "--max-k", "x"],
        ["chi", "{dir}/g.json"],
    ),
    "help": (["--help"], ["chi", "--help"], ["--help"], ["genset", "--help"]),
}


def _outcome_of_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse ends usage errors and --help this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("calls", REPEATED_CALLS.values(), ids=list(REPEATED_CALLS))
def test_cli_repeated_calls_match_calls_made_alone(tmp_path, capsys, calls):
    (tmp_path / "g.json").write_text(BOTTOM_JSON)
    (tmp_path / "inst.txt").write_text("targets: 2 3 4 7 9\nk: 2\n")
    calls = [[arg.replace("{dir}", str(tmp_path)) for arg in argv] for argv in calls]
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(_outcome_of_main(argv, capsys))
    build_parser.cache_clear()
    in_turn = [_outcome_of_main(argv, capsys) for argv in calls]
    assert in_turn == alone
    assert build_parser.cache_info().misses == 1  # one parser served them all
    for argv, (code, out, err) in zip(calls, in_turn):
        if argv[-1] == "x":
            assert (code, out) == (2, "")
            assert err.startswith("usage: extpart chi ")
            assert err.endswith("error: argument --max-k: invalid integer value: 'x'\n")
        elif "--help" in argv:
            assert (code, err) == (0, "")
            assert out.startswith("usage: extpart ")
        else:
            assert code in (0, 1) and out and not err


def test_cli_missing_file():
    assert main(["test", "/nonexistent/path.txt"]) == 2


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_cli_undecodable_input_is_an_input_error(tmp_path, capsys, monkeypatch, source):
    data = b"p 2 1\ne 0 1\n\xff\n"
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    arg = str(path)
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as stdin:
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", stdin)
            arg = "-"
        assert main(["test", arg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot read {arg}: 'utf-8' codec can't decode byte 0xff "
        "in position 12: invalid start byte\n"
    )


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
