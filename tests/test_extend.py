import itertools
import random

import pytest

from extpart import (
    Graph,
    InputError,
    alpha,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    decompose,
    gen_interval_extremal,
    induced_subgraph,
    is_1ext_cograph,
    is_1ext_mw,
    is_1ext_oracle,
    is_1ext_oracle_report,
    mis_stats,
    substitute,
)
from bruteforce import bf_is_1ext, fig1_bottom, p4, random_cograph, random_graph


def test_cograph_rule_balanced_multipartite():
    for width, length in ((1, 3), (2, 2), (3, 4)):
        g, _ = complete_multipartite([width] * length)
        report = is_1ext_cograph(decompose(g))
        assert report.is_1ext
        assert report.alpha == width


def test_cograph_rule_unbalanced_multipartite():
    g, _ = complete_multipartite([2, 3])
    report = is_1ext_cograph(decompose(g))
    assert not report.is_1ext
    assert report.alpha == 3


def test_cograph_interval_family_not_1ext():
    g = gen_interval_extremal(3)
    report = is_1ext_cograph(decompose(g))
    assert not report.is_1ext
    assert report.is_1ext == is_1ext_oracle(g)


def test_cograph_rejects_prime_tree():
    with pytest.raises(InputError, match="is_1ext_mw"):
        is_1ext_cograph(decompose(p4()))


def test_mw_examples():
    assert is_1ext_mw(p4(), decompose(p4())).is_1ext
    bottom = fig1_bottom()
    assert not is_1ext_mw(bottom, decompose(bottom)).is_1ext
    c5, _ = substitute(cycle_graph(5), [complete_graph(1)] * 5)
    assert c5 == cycle_graph(5)
    assert is_1ext_mw(c5, decompose(c5)).is_1ext


def test_mw_rejects_a_tree_of_another_graph():
    with pytest.raises(InputError, match="does not belong"):
        is_1ext_mw(p4(), decompose(complete_graph(3)))
    # an equal graph built separately is accepted
    assert is_1ext_mw(p4(), decompose(p4())).is_1ext


def test_mw_agrees_with_oracle_exhaustive_n5():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits & (1 << i)])
            report = is_1ext_mw(g, decompose(g))
            assert report.is_1ext == bf_is_1ext(g)
            assert report.alpha == alpha(g)


def test_mw_agrees_with_oracle_random():
    rng = random.Random(51)
    for n in (7, 8):
        for _ in range(300):
            g = random_graph(rng, n, rng.random())
            report = is_1ext_mw(g, decompose(g))
            assert report.is_1ext == is_1ext_oracle(g)
            assert report.alpha == alpha(g)


def test_cograph_agrees_with_oracle_random_cotrees():
    rng = random.Random(52)
    for _ in range(80):
        g = random_cograph(rng, rng.randint(1, 12))
        report = is_1ext_cograph(decompose(g))
        assert report.is_1ext == is_1ext_oracle(g)
        assert report.alpha == alpha(g)


def test_module_heredity():
    # when the whole graph is 1-extendable, every strong module induces a
    # 1-extendable subgraph
    rng = random.Random(53)
    found = 0
    while found < 15:
        g = random_graph(rng, rng.randint(2, 8), rng.random())
        t = decompose(g)
        if not is_1ext_mw(g, t).is_1ext:
            continue
        found += 1
        for node in t.nodes():
            sub, _ = induced_subgraph(g, node.module)
            assert is_1ext_oracle(sub)


def test_oracle_report_witness():
    report = is_1ext_oracle_report(fig1_bottom())
    assert not report.is_1ext
    assert report.witness_failure == 2
    assert mis_stats(fig1_bottom()).per_vertex_mis_count[2] == 0
    good = is_1ext_oracle_report(p4())
    assert good.is_1ext and good.witness_failure is None


def _relabelled_union(rng, parts):
    """The disjoint union of `parts` under a seeded relabelling, so that
    the components' vertices interleave."""
    edges, offset = [], 0
    for h in parts:
        edges += [(u + offset, v + offset) for u, v in h.edges]
        offset += h.n
    perm = list(range(offset))
    rng.shuffle(perm)
    return Graph(offset, [(perm[u], perm[v]) for u, v in edges])


def test_oracle_report_on_interleaved_components():
    # alpha adds up over the components, and the witness is the lowest
    # vertex in no maximum independent set of the whole graph
    rng = random.Random(57)
    for _ in range(60):
        parts = [random_graph(rng, rng.randint(1, 5), rng.random()) for _ in range(3)]
        g = _relabelled_union(rng, parts)
        report = is_1ext_oracle_report(g)
        counts = mis_stats(g).per_vertex_mis_count
        starved = [v for v in range(g.n) if counts[v] == 0]
        assert report.alpha == alpha(g) == sum(map(alpha, parts))
        assert report.is_1ext == (not starved) == bf_is_1ext(g)
        assert report.witness_failure == (starved[0] if starved else None)

