import itertools
import random

import pytest

from extpart import (
    Graph,
    ResourceLimitError,
    WeightedGraph,
    alpha,
    complete_graph,
    complete_sum,
    cycle_graph,
    decompose,
    disjoint_union,
    empty_graph,
    enumerate_max_independent_sets,
    gen_multipartite_extremal,
    is_1ext_oracle,
    maximum_independent_set,
    mis_covered_vertices,
    mis_stats,
    path_graph,
    weighted_alpha,
    weighted_is_1ext,
    weighted_profile,
)
from extpart.cli import main
from extpart.independent_sets import _cover
from extpart.io import graph_to_document, serialize_graph_document
from bruteforce import (
    bf_alpha,
    bf_is_1ext,
    bf_mis_list,
    bf_weighted_profile,
    fig1_bottom,
    p4,
    random_graph,
)


def test_alpha_examples():
    assert alpha(complete_graph(3)) == 1
    assert alpha(p4()) == 2
    assert alpha(gen_multipartite_extremal(3)) == 8
    assert alpha(Graph(0)) == 0


def test_alpha_matches_bruteforce():
    rng = random.Random(21)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        assert alpha(g) == bf_alpha(g)


def test_mis_stats_p4():
    s = mis_stats(p4())
    assert s.alpha == 2
    assert s.total_mis_count == 3
    assert s.per_vertex_mis_count == (2, 1, 1, 2)


def test_mis_stats_fig1_bottom():
    s = mis_stats(fig1_bottom())
    assert s.alpha == 2
    assert s.total_mis_count == 2
    assert s.per_vertex_mis_count == (1, 1, 0, 2)


def test_mis_stats_edgeless():
    for n in (0, 1, 5):
        s = mis_stats(empty_graph(n))
        assert s.alpha == n
        assert s.total_mis_count == 1
        assert s.per_vertex_mis_count == (1,) * n


def test_mis_stats_counting_identity():
    rng = random.Random(22)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        s = mis_stats(g)
        assert sum(s.per_vertex_mis_count) == s.alpha * s.total_mis_count
        assert all(0 <= c <= s.total_mis_count for c in s.per_vertex_mis_count)


def test_mis_stats_and_enumeration_match_bruteforce():
    rng = random.Random(28)
    graphs = [Graph(0)]
    graphs += [random_graph(rng, rng.randint(1, 10), rng.random()) for _ in range(60)]
    for g in graphs:
        sets = bf_mis_list(g)
        s = mis_stats(g)
        assert s.alpha == len(sets[0])
        assert s.total_mis_count == len(sets)
        assert s.per_vertex_mis_count == tuple(
            sum(v in m for m in sets) for v in range(g.n)
        )
        assert list(enumerate_max_independent_sets(g)) == sets


def test_mis_stats_at_the_default_cap():
    # the edgeless graph has the largest counts: C(40, 20) of the 2^40
    # independent sets have 20 vertices
    s = mis_stats(empty_graph(40))
    assert (s.alpha, s.total_mis_count) == (40, 1)
    assert s.per_vertex_mis_count == (1,) * 40
    s = mis_stats(complete_graph(40))
    assert (s.alpha, s.total_mis_count) == (1, 40)
    assert s.per_vertex_mis_count == (1,) * 40
    # 20 disjoint edges: one endpoint of each, 2^20 sets, 2^19 through each
    s = mis_stats(Graph(40, [(2 * i, 2 * i + 1) for i in range(20)]))
    assert (s.alpha, s.total_mis_count) == (20, 2**20)
    assert s.per_vertex_mis_count == (2**19,) * 40


def test_empty_graph_counts_and_enumeration():
    s = mis_stats(Graph(0))
    assert (s.alpha, s.total_mis_count, s.per_vertex_mis_count) == (0, 1, ())
    assert list(enumerate_max_independent_sets(Graph(0))) == [()]


def test_mis_stats_cap():
    with pytest.raises(ResourceLimitError, match="cap=40"):
        mis_stats(empty_graph(41))
    mis_stats(empty_graph(41), cap=50)  # raised cap allows it


def test_enumeration_examples():
    assert list(enumerate_max_independent_sets(p4())) == [(0, 2), (0, 3), (1, 3)]
    assert list(enumerate_max_independent_sets(complete_graph(3))) == [(0,), (1,), (2,)]
    assert list(enumerate_max_independent_sets(cycle_graph(4))) == [(0, 2), (1, 3)]


def test_enumeration_matches_bruteforce():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        got = list(enumerate_max_independent_sets(g))
        assert got == bf_mis_list(g)
        assert len(set(got)) == len(got)
        assert max(len(s) for s in got) == alpha(g)


def test_enumeration_largest_set_matches_alpha_up_to_n15():
    rng = random.Random(27)
    for _ in range(15):
        g = random_graph(rng, rng.randint(9, 15), rng.random())
        sizes = {len(s) for s in enumerate_max_independent_sets(g)}
        assert sizes == {alpha(g)}


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_max_independent_sets(empty_graph(41))


def test_is_1ext_oracle_examples():
    assert is_1ext_oracle(p4())
    assert not is_1ext_oracle(fig1_bottom())
    for n in (1, 2, 5):
        assert is_1ext_oracle(complete_graph(n))
    assert is_1ext_oracle(Graph(0))


def test_is_1ext_agrees_with_mis_counts():
    # two independent definitions: every vertex in an MIS vs positive counts
    rng = random.Random(24)
    graphs = [random_graph(rng, rng.randint(1, 8), rng.random()) for _ in range(40)]
    pairs = list(itertools.combinations(range(4), 2))
    graphs += [
        Graph(4, [pairs[i] for i in range(6) if bits & (1 << i)])
        for bits in range(64)
    ]
    for g in graphs:
        s = mis_stats(g)
        assert is_1ext_oracle(g) == all(c >= 1 for c in s.per_vertex_mis_count)
        assert is_1ext_oracle(g) == bf_is_1ext(g)


def test_1ext_with_universal_vertex_is_clique():
    # a 1-extendable graph with a universal vertex is a clique; every
    # graph on <= 7 vertices having a universal vertex arises (up to
    # labels) as base + apex with base on <= 6 vertices
    for base_n in range(7):
        pairs = list(itertools.combinations(range(base_n), 2))
        for bits in range(1 << len(pairs)):
            base = Graph(
                base_n, [pairs[i] for i in range(len(pairs)) if bits & (1 << i)]
            )
            g = complete_sum(base, complete_graph(1))
            if is_1ext_oracle(g):
                assert g.m == g.n * (g.n - 1) // 2


def test_mis_covered_vertices():
    assert mis_covered_vertices(fig1_bottom()) == (0, 1, 3)
    assert mis_covered_vertices(p4()) == (0, 1, 2, 3)


def test_maximum_independent_set_is_lex_smallest():
    assert maximum_independent_set(p4()) == (0, 2)
    rng = random.Random(25)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        assert maximum_independent_set(g) == bf_mis_list(g)[0]


def test_weighted_single_vertex():
    h = WeightedGraph(complete_graph(1), (5,))
    assert weighted_alpha(h) == 5
    assert weighted_is_1ext(h)


def test_weighted_k2():
    k2 = complete_graph(2)
    assert weighted_alpha(WeightedGraph(k2, (3, 3))) == 3
    assert weighted_is_1ext(WeightedGraph(k2, (3, 3)))
    assert weighted_alpha(WeightedGraph(k2, (3, 2))) == 3
    assert not weighted_is_1ext(WeightedGraph(k2, (3, 2)))


def test_weighted_p3():
    h = WeightedGraph(path_graph(3), (1, 5, 1))
    weight, covered = weighted_profile(h)
    assert weight == 5
    assert covered == (1,)
    assert not weighted_is_1ext(h)


def test_weighted_matches_exhaustive():
    rng = random.Random(26)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        weights = tuple(rng.randint(1, 6) for _ in range(g.n))
        h = WeightedGraph(g, weights)
        best, cover = bf_weighted_profile(g, weights)
        assert weighted_alpha(h) == best
        assert weighted_profile(h) == (best, cover)
        assert weighted_is_1ext(h) == (len(cover) == g.n)


def test_cover_on_a_submask_with_zero_weights_outside():
    # the call a prime node of the tuple DP makes: the whole representative
    # graph's neighbour masks, a submask of contributing children, and
    # weight 0 on the rest
    rng = random.Random(28)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        sub = rng.getrandbits(g.n)
        idx = [v for v in range(g.n) if sub >> v & 1]
        weights = [rng.randint(1, 6) if sub >> v & 1 else 0 for v in range(g.n)]
        edges = [
            (i, j)
            for i, j in itertools.combinations(range(len(idx)), 2)
            if g.has_edge(idx[i], idx[j])
        ]
        best, cover = bf_weighted_profile(
            Graph(len(idx), edges), tuple(weights[v] for v in idx)
        )
        got, covered = _cover(sub, g.neighbor_masks(), weights)
        assert got == best
        assert covered == sum(1 << idx[i] for i in cover)
        got, covered = _cover(sub, g.neighbor_masks(), weights, until_miss=True)
        assert got == best
        assert (covered == sub) == (len(cover) == len(idx))


def test_weighted_above_25_vertices_is_exact():
    # a disjoint union weighs the sum of its parts, and a vertex is in a
    # maximum-weight set of the union iff it is in one of its own part
    rng = random.Random(29)
    for _ in range(3):
        union, weights, best, cover = Graph(0), (), 0, ()
        while union.n <= 30:
            part = random_graph(rng, rng.randint(4, 8), rng.random())
            part_weights = tuple(rng.randint(1, 5) for _ in range(part.n))
            part_best, part_cover = bf_weighted_profile(part, part_weights)
            cover += tuple(union.n + v for v in part_cover)
            best += part_best
            union = disjoint_union(union, part)
            weights += part_weights
        h = WeightedGraph(union, weights)
        assert weighted_profile(h) == (best, cover)
        assert weighted_alpha(h) == best
        assert weighted_is_1ext(h) == (len(cover) == union.n)


def test_cli_test_answers_prime_g30(tmp_path, capsys):
    # a prime graph on 30 vertices: the modular-decomposition test must
    # answer on its 30-vertex representative graph as the oracle does
    g = random_graph(random.Random(30), 30, 0.3)
    root = decompose(g).root
    assert root.kind == "prime" and len(root.children) == 30
    f = tmp_path / "g30.txt"
    f.write_text(serialize_graph_document(graph_to_document(g)))
    assert main(["test", str(f)]) == (0 if is_1ext_oracle(g) else 1)
    out = capsys.readouterr().out
    assert f"alpha: {alpha(g)}" in out
    assert "method: mw" in out


def test_deep_searches_need_no_recursion(tmp_path, capsys):
    # each include step of the search removes one edge, so it runs about
    # 1,200 branching levels deep, past the default recursion limit
    matching = Graph(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
    assert alpha(matching) == 1200
    # b_i = i matched to a_i = 1200 + i, a hub 2400 adjacent to every b_i
    # and a pendant 2401 on the hub: the first search takes the hub and
    # the a_i, and the search for b_0 covers all b_i and the pendant
    # 1,200 levels deep, so the cover needs no further search
    edges = [(i, 1200 + i) for i in range(1200)] + [(i, 2400) for i in range(1200)]
    hub = Graph(2402, edges + [(2400, 2401)])
    assert is_1ext_oracle(hub)
    f = tmp_path / "hub.txt"
    f.write_text(serialize_graph_document(graph_to_document(hub)))
    assert main(["test", str(f), "--method", "oracle"]) == 0
    out = capsys.readouterr().out
    assert out == "1-extendable: yes\nalpha: 1201\nmethod: oracle\n"
