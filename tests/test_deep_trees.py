"""Trees as deep as the graph is large: every walk over a decomposition
tree must run without the interpreter's recursion limit.

The alternating threshold cograph adds vertex v isolated (v even) or
dominating (v odd) with respect to 0..v-1, so its cotree is a chain of
n - 1 alternating join and union nodes, well past the default limit of
1,000 frames.
"""

import pytest

from extpart import (
    Graph,
    alpha,
    chi_1ext,
    decompose,
    is_1ext_cograph,
    is_1ext_mw,
    log_partition_cograph,
    module_alpha,
    reconstruct,
    verify_partition,
)
from extpart.cli import main
from extpart.io import graph_to_document, parse_partition_text, serialize_graph_document

N = 1200


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    g = Graph(N, [(u, v) for v in range(1, N, 2) for u in range(v)])
    f = tmp_path_factory.mktemp("deep") / "threshold.txt"
    f.write_text(serialize_graph_document(graph_to_document(g)))
    return g, decompose(g), f


def test_decompose_is_a_chain(deep):
    g, t, _ = deep
    node = t.root
    for v in range(N - 1, 0, -1):
        assert node.kind == ("join" if v % 2 else "union")
        inner, leaf = node.children
        assert leaf.vertex == v and inner.module == tuple(range(v))
        node = inner
    assert node.vertex == 0
    assert reconstruct(t) == g


def test_alpha_and_1ext_tests(deep):
    g, t, _ = deep
    # the even vertices are independent, and no odd vertex joins them
    assert module_alpha(g, t.root) == N // 2
    for report in (is_1ext_cograph(t), is_1ext_mw(g, t)):
        assert (report.is_1ext, report.alpha) == (False, N // 2)


def test_chi_and_log_partition(deep):
    g, t, _ = deep
    k, part = chi_1ext(g)
    assert k == 2
    assert verify_partition(g, part)
    part = log_partition_cograph(t)
    assert part.k <= alpha(g).bit_length()
    assert verify_partition(g, part)


def test_cli(deep, tmp_path, capsys):
    g, _, f = deep
    cert = tmp_path / "cert.txt"
    assert main(["chi", str(f), "--emit-partition", str(cert)]) == 0
    assert capsys.readouterr().out == "chi_1ext: 2\n"
    assert verify_partition(g, parse_partition_text(cert.read_text(), N))
    for method in ("cograph", "mw"):
        assert main(["test", str(f), "--method", method]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[:3] == ["1-extendable: no", f"alpha: {N // 2}", f"method: {method}"]
    assert main(["decompose", str(f)]) == 0
    tree = "leaf 0"
    for v in range(1, N):
        tree = f"{'join' if v % 2 else 'union'}({tree},leaf {v})"
    assert capsys.readouterr().out.splitlines() == [tree, "mw=2"]
