import itertools
import random

import pytest

from extpart import (
    Graph,
    InputError,
    complete_graph,
    complete_multipartite,
    complete_sum,
    cycle_graph,
    disjoint_union,
    empty_graph,
    gen_hardness_gadget,
    gen_interval_extremal,
    gen_multipartite_extremal,
    induced_subgraph,
    path_graph,
    substitute,
    verify_module,
)
from extpart.graphs import _components, _positions, edge_masks
from bruteforce import bf_alpha, bf_chi_1ext, fig1_bottom, p4, random_graph, ref_components


def test_graph_rejects_bad_input():
    with pytest.raises(InputError):
        Graph(-1)
    with pytest.raises(InputError):
        Graph(3, [(0, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])


def test_edge_masks_name_the_first_bad_edge():
    assert edge_masks(3, [(0, 1), [2, 1], (1, 0)]) == ([2, 5, 2], -1)
    assert edge_masks(0, []) == ([], -1)
    for bad in [(0, 0), (0, 3), (-1, 0), (True, 0), (0, 1.0), "ab", (0,), (0, 1, 2), 5]:
        assert edge_masks(3, [(0, 1), bad, (1, 1), (0, 5)])[1] == 1, bad
    with pytest.raises(InputError, match="self-loop at vertex 1"):
        Graph(3, iter([(0, 1), (1, 1), (0, 3)]))
    with pytest.raises(InputError, match=r"edge \(0, 3\) out of range for n=3"):
        Graph(3, iter([(0, 1), (0, 3), (1, 1)]))


def _seeded_edge_lists(seed):
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(0, 12)
        p = rng.random()
        pairs = itertools.combinations(range(n), 2)
        yield rng, n, [e for e in pairs if rng.random() < p]


def test_graph_canonical_storage():
    g = Graph(4, [(2, 1), (1, 2), (0, 3)])
    assert g.edges == ((0, 3), (1, 2))
    assert g.adj == ((3,), (2,), (1,), (0,))
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 1)
    assert g.degree(0) == 1


def test_graph_views_match_an_edge_list_reference():
    for rng, n, edges in _seeded_edge_lists(61):
        g = Graph(n, edges)
        adj = [sorted({v for e in edges if u in e for v in e} - {u}) for u in range(n)]
        assert g.edges == g.edges == tuple(edges)
        assert g.adj == tuple(map(tuple, adj))
        assert g.m == len(edges)
        assert [g.degree(v) for v in range(n)] == list(map(len, adj))
        for u, v in itertools.product(range(n), repeat=2):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
        shuffled = rng.sample(edges, len(edges))
        duplicated = edges + rng.sample(edges, len(edges) // 2)
        for variant in (shuffled, [(v, u) for u, v in edges], duplicated):
            h = Graph(n, variant)
            assert h == g and hash(h) == hash(g)
            assert h.edges == g.edges


def test_induced_subgraph_matches_an_edge_scan():
    for rng, n, edges in _seeded_edge_lists(62):
        g = Graph(n, edges)
        vertices = [rng.randrange(n) for _ in range(n)] if n else []
        chosen = sorted(set(vertices))
        index = {old: new for new, old in enumerate(chosen)}
        sub, idx = induced_subgraph(g, vertices)
        assert idx == index and sub.n == len(chosen)
        assert sub.edges == tuple(
            (index[u], index[v]) for u, v in edges if u in index and v in index
        )


def test_components_match_the_callback_search_reference():
    # a mask of at most 40 vertices is always read from its binary string,
    # so sparse graphs of 150-300 vertices and their sparse sub-masks
    # reach the bit-by-bit reading as well
    rng = random.Random(63)
    for i in range(220):
        small = i < 200
        n = rng.randint(1, 40) if small else rng.randint(150, 300)
        edges = random_graph(rng, n, rng.uniform(0.05, 0.95) if small else 2 / n).edges
        shape = rng.choice(("dominating", "isolated", "plain"))
        special = rng.randrange(n)
        if shape == "dominating":
            edges += tuple((special, v) for v in range(n) if v != special)
        elif shape == "isolated":
            edges = tuple(e for e in edges if special not in e)
        g = Graph(n, edges)
        nbr = g.neighbor_masks()
        full = (1 << n) - 1
        masks = [full, 1 << special, 1 << rng.randrange(n), full & ~(1 << special)]
        masks += [rng.getrandbits(n) for _ in range(4)]
        masks += [sum(1 << v for v in rng.sample(range(n), min(n, rng.randint(1, 4))))]
        for mask in masks:
            assert list(_positions(mask)) == [v for v in range(n) if mask >> v & 1]
            assert _components(mask, nbr) == ref_components(mask, nbr.__getitem__)
            co = ref_components(mask, lambda v: mask & ~nbr[v] & ~(1 << v))
            assert _components(mask, nbr, complement=True) == co


def test_induced_subgraph_nonadjacent_pair():
    sub, idx = induced_subgraph(p4(), [0, 2])
    assert sub.n == 2 and sub.m == 0
    assert idx == {0: 0, 2: 1}


def test_induced_subgraph_identity():
    g = fig1_bottom()
    sub, _ = induced_subgraph(g, range(4))
    assert sub == g


def test_induced_subgraph_fig1_triangle():
    sub, _ = induced_subgraph(fig1_bottom(), [0, 1, 2])
    assert sub == complete_graph(3)


def test_induced_subgraph_out_of_range():
    with pytest.raises(InputError):
        induced_subgraph(p4(), [0, 4])


def test_disjoint_union_small():
    g = disjoint_union(complete_graph(1), complete_graph(1))
    assert (g.n, g.m) == (2, 0)
    g = disjoint_union(complete_graph(2), complete_graph(3))
    assert (g.n, g.m) == (5, 4)


def test_complete_sum_small():
    assert complete_sum(complete_graph(1), complete_graph(1)) == complete_graph(2)
    c4 = complete_sum(empty_graph(2), empty_graph(2))
    assert c4.edges == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert bf_alpha(c4) == 2


def test_union_and_sum_alpha_identities():
    rng = random.Random(101)
    for _ in range(25):
        g1 = random_graph(rng, rng.randint(1, 5), rng.random())
        g2 = random_graph(rng, rng.randint(1, 5), rng.random())
        off = g1.n
        union = list(g1.edges) + [(u + off, v + off) for u, v in g2.edges]
        cross = [(u, v + off) for u in range(g1.n) for v in range(g2.n)]
        assert disjoint_union(g1, g2).edges == tuple(sorted(union))
        assert complete_sum(g1, g2).edges == tuple(sorted(union + cross))
        assert bf_alpha(disjoint_union(g1, g2)) == bf_alpha(g1) + bf_alpha(g2)
        assert bf_alpha(complete_sum(g1, g2)) == max(bf_alpha(g1), bf_alpha(g2))


def test_substitute_special_cases():
    g1, g2 = path_graph(3), cycle_graph(3)
    assert substitute(empty_graph(2), [g1, g2])[0] == disjoint_union(g1, g2)
    assert substitute(complete_graph(2), [g1, g2])[0] == complete_sum(g1, g2)


def test_substitute_singletons_is_identity():
    rng = random.Random(5)
    for _ in range(10):
        h = random_graph(rng, rng.randint(1, 6), rng.random())
        g, parts = substitute(h, [complete_graph(1)] * h.n)
        assert g == h
        assert parts == [(v,) for v in range(h.n)]


def test_substitute_arity_mismatch():
    with pytest.raises(InputError):
        substitute(path_graph(3), [complete_graph(1)] * 2)


def test_substitute_parts_are_modules():
    rng = random.Random(6)
    for trial in range(10):
        h = random_graph(rng, 4 if trial == 0 else rng.randint(1, 5), 0.5)
        parts = [random_graph(rng, rng.randint(1, 3), 0.5) for _ in range(h.n)]
        g, bounds = substitute(h, parts)
        for b in bounds:
            assert verify_module(g, b)
        edges = [(b[u], b[v]) for b, p in zip(bounds, parts) for u, v in p.edges]
        edges += [(u, v) for i, j in h.edges for u in bounds[i] for v in bounds[j]]
        assert g.edges == tuple(sorted(edges))


def test_complete_multipartite_basic():
    g, parts = complete_multipartite([1, 1, 1])
    assert g == complete_graph(3)
    g, parts = complete_multipartite([2, 3])
    assert g.n == 5 and g.m == 6
    assert parts == [(0, 1), (2, 3, 4)]
    for b in parts:
        assert verify_module(g, b)
    assert bf_alpha(g) == 3
    with pytest.raises(InputError):
        complete_multipartite([2, 0])


def test_complete_multipartite_fig2_instance():
    g, _ = complete_multipartite([2, 3, 4, 7, 9])
    assert g.n == 25
    # alpha equals the largest part
    widest = set(range(16, 25))
    assert all(not g.has_edge(u, v) for u, v in itertools.combinations(widest, 2))


def test_gen_multipartite_extremal():
    assert gen_multipartite_extremal(0) == complete_graph(1)
    g = gen_multipartite_extremal(2)
    assert g.n == 7
    for k in range(5):
        assert gen_multipartite_extremal(k).n == (1 << (k + 1)) - 1
    assert bf_alpha(gen_multipartite_extremal(3)) == 8
    with pytest.raises(InputError):
        gen_multipartite_extremal(-1)


def test_gen_interval_extremal_structure():
    assert gen_interval_extremal(1) == complete_graph(1)
    g2 = gen_interval_extremal(2)
    assert (g2.n, g2.m) == (3, 2)
    assert g2.degree(0) == 2  # apex is universal
    for k in range(1, 6):
        assert gen_interval_extremal(k).n == (1 << k) - 1
    with pytest.raises(InputError):
        gen_interval_extremal(0)


def test_gen_interval_extremal_alpha():
    # independence number doubles per level: alpha(G_k) = 2^(k-1)
    for k in range(1, 5):
        assert bf_alpha(gen_interval_extremal(k)) == 1 << (k - 1)


def test_gen_hardness_gadget():
    star = gen_hardness_gadget(complete_graph(1), 2)
    assert (star.n, star.m) == (4, 3)
    assert star.degree(0) == 3
    rng = random.Random(8)
    for _ in range(5):
        g = random_graph(rng, rng.randint(1, 4), 0.5)
        k = rng.choice([2, 3])
        gadget = gen_hardness_gadget(g, k)
        assert gadget.n == (k + 1) * g.n + 1
    with pytest.raises(InputError):
        gen_hardness_gadget(complete_graph(2), 1)


def test_hardness_gadget_equivalence_small():
    # brute force on both sides of the reduction for tiny graphs
    for n in range(1, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits & (1 << i)])
            gadget = gen_hardness_gadget(g, 2)
            assert (bf_chi_1ext(gadget) <= 2) == (bf_chi_1ext(g) <= 1)
