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
    empty_graph,
    gen_interval_extremal,
    is_cograph,
    modular_width,
    module_alpha,
    reconstruct,
    substitute,
    verify_module,
    weighted_alpha,
    weighted_representative,
)
from extpart.graphs import induced_subgraph
from extpart.io import format_tree
from extpart.moddecomp import _restrict, post_order
from bruteforce import (
    bf_modules,
    p4,
    random_cograph,
    random_graph,
    ref_decompose,
    ref_format_tree,
)


def test_post_order_matches_recursive_reference():
    def reference(node, out):
        for child in node[1]:
            reference(child, out)
        out.append(node[0])
        return out

    rng = random.Random(27)
    for _ in range(20):
        nodes = [(0, [])]
        for label in range(1, rng.randint(1, 40)):
            child = (label, [])
            rng.choice(nodes)[1].append(child)
            nodes.append(child)
        got = [label for label, _ in post_order(nodes[0], lambda node: node[1])]
        assert got == reference(nodes[0], [])


def _shape(node, label):
    """A tree as nested (kind, module, children) tuples, each vertex v
    written as label(v)."""
    children = tuple(_shape(c, label) for c in node.children)
    return node.kind, tuple(map(label, node.module)), children


def test_restricted_cotree_is_the_cotree_of_the_induced_subgraph():
    rng = random.Random(97)
    for _ in range(60):
        g = random_cograph(rng, rng.randint(2, 14))
        label = rng.sample(range(g.n), g.n)  # so that modules interleave
        g = Graph(g.n, [(label[u], label[v]) for u, v in g.edges])
        keep = [v for v in range(g.n) if rng.random() < 0.6]
        root = _restrict(decompose(g).root, sum(1 << v for v in keep))
        if not keep:
            assert root is None
            continue
        sub = decompose(induced_subgraph(g, keep)[0]).root
        assert _shape(root, lambda v: v) == _shape(sub, keep.__getitem__)


def test_decompose_single_vertex():
    t = decompose(complete_graph(1))
    assert t.root.is_leaf and t.root.vertex == 0
    assert modular_width(t) == 1
    assert is_cograph(t)


def test_decompose_empty_graph_rejected():
    with pytest.raises(InputError):
        decompose(Graph(0))


def test_decompose_p4_is_prime():
    t = decompose(p4())
    assert t.root.kind == "prime"
    assert all(c.is_leaf for c in t.root.children)
    assert t.root.rep == p4()
    assert modular_width(t) == 4
    assert not is_cograph(t)


def test_decompose_multipartite_23():
    g, _ = complete_multipartite([2, 3])
    t = decompose(g)
    assert t.root.kind == "join"
    kinds = [c.kind for c in t.root.children]
    assert kinds == ["union", "union"]
    assert [c.module for c in t.root.children] == [(0, 1), (2, 3, 4)]
    assert reconstruct(t) == g


def test_c5_is_prime_of_width_5():
    t = decompose(cycle_graph(5))
    assert t.root.kind == "prime"
    assert modular_width(t) == 5
    # no nontrivial module: the brute-force enumerator only finds
    # singletons and the full vertex set
    mods = bf_modules(cycle_graph(5))
    assert all(len(m) in (1, 5) for m in mods)


def test_interval_family_is_cograph():
    for k in range(1, 6):
        assert is_cograph(decompose(gen_interval_extremal(k)))


def test_reconstruction_random():
    rng = random.Random(41)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        t = decompose(g)
        assert reconstruct(t) == g


def test_all_tree_modules_are_modules():
    rng = random.Random(42)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        t = decompose(g)
        for node in t.nodes():
            assert verify_module(g, node.module)
            assert node.module == tuple(sorted(node.module))


def _prime_bases(rng):
    """P4, C5 and seeded random graphs of 5-7 vertices with no
    non-trivial module."""
    bases = [p4(), cycle_graph(5)]
    while len(bases) < 6:
        h = random_graph(rng, rng.randint(5, 7), 0.5)
        if all(len(m) in (1, h.n) for m in bf_modules(h)):
            bases.append(h)
    return bases


def _substituted(rng, bases, leaves):
    """A relabelled substitution into one of the prime bases, each part
    another base or a random cograph of at most `leaves` vertices, and
    the parts' vertex sets ordered by minimum vertex: the maximal strong
    modules."""
    h = rng.choice(bases)
    parts = [
        rng.choice(bases) if rng.random() < 0.5 else random_cograph(rng, rng.randint(1, leaves))
        for _ in range(h.n)
    ]
    g, boundaries = substitute(h, parts)
    perm = rng.sample(range(g.n), g.n)
    modules = sorted(tuple(sorted(perm[v] for v in b)) for b in boundaries)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]), modules


def test_prime_root_children_are_the_substituted_parts():
    # beyond the exhaustive enumerator's reach: the parts substituted into
    # a prime graph are the maximal strong modules, whatever the labels
    rng = random.Random(48)
    bases = _prime_bases(rng)
    for _ in range(60):
        g, modules = _substituted(rng, bases, 8)
        t = decompose(g)
        assert t.root.kind == "prime"
        assert [c.module for c in t.root.children] == modules
        assert reconstruct(t) == g


def _relabelled(rng, g):
    label = rng.sample(range(g.n), g.n)
    return Graph(g.n, [(label[u], label[v]) for u, v in g.edges])


def test_decompose_matches_the_top_down_reference():
    rng = random.Random(49)
    graphs = [_relabelled(rng, random_cograph(rng, rng.randint(1, 40))) for _ in range(40)]
    for _ in range(20):
        n = rng.randint(1, 60)
        edges = [(u, v) for v in range(n) if rng.random() < 0.5 for u in range(v)]
        graphs.append(_relabelled(rng, Graph(n, edges)))  # a threshold cograph
    bases = _prime_bases(rng)
    graphs += [_substituted(rng, bases, 8)[0] for _ in range(20)]
    for g in graphs:
        root, ref = decompose(g).root, ref_decompose(g)
        assert format_tree(root) == ref_format_tree(ref)
        assert _shape(root, lambda v: v) == ref
        for node in root.bottom_up():
            if node.kind == "prime":
                reps = [c.module[0] for c in node.children]
                pairs = itertools.combinations(range(len(reps)), 2)
                assert node.rep.edges == tuple(
                    (i, j) for i, j in pairs if g.has_edge(reps[i], reps[j])
                )


def test_child_modules_are_strong():
    # strong modules cross no other module: check against the exhaustive
    # module enumerator on small graphs
    rng = random.Random(43)
    graphs = [random_graph(rng, rng.randint(2, 8), rng.random()) for _ in range(25)]
    pairs5 = list(itertools.combinations(range(5), 2))
    graphs += [
        Graph(5, [pairs5[i] for i in range(10) if bits & (1 << i)])
        for bits in range(0, 1 << 10, 13)
    ]
    substituted = []
    while len(substituted) < 8:
        g, _ = _substituted(rng, [p4(), cycle_graph(5)], 2)
        if g.n <= 9:
            substituted.append(g)
    for g in graphs + substituted:
        mods = bf_modules(g)
        t = decompose(g)
        for node in t.nodes():
            own = set(node.module)
            for other in mods:
                inter = own & set(other)
                assert inter in (set(), own, set(other)), (g.edges, node.module, other)


def test_union_join_children_are_flattened():
    rng = random.Random(44)
    for _ in range(40):
        g = random_cograph(rng, rng.randint(1, 10))
        t = decompose(g)
        for node in t.nodes():
            if node.kind in ("union", "join"):
                assert len(node.children) >= 2
                assert all(c.kind != node.kind for c in node.children)
        assert modular_width(t) <= 2


def test_prime_nodes_have_at_least_four_children():
    rng = random.Random(45)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        for node in decompose(g).nodes():
            if node.kind == "prime":
                assert len(node.children) >= 4


def test_verify_module_cases():
    g = p4()
    assert verify_module(g, (1,))
    assert verify_module(g, (0, 1, 2, 3))
    assert not verify_module(g, (0, 1))
    with pytest.raises(InputError):
        verify_module(g, (9,))


def test_weighted_representative_join():
    g, _ = complete_multipartite([2, 3])
    t = decompose(g)
    h = weighted_representative(g, t.root)
    assert h.base == complete_graph(2)
    assert h.weights == (2, 3)


def test_weighted_representative_p4_root():
    g = p4()
    t = decompose(g)
    h = weighted_representative(g, t.root)
    assert h.base == p4()
    assert h.weights == (1, 1, 1, 1)


def test_weighted_representative_substituted_parts():
    rng = random.Random(46)
    parts = [random_graph(rng, rng.randint(1, 3), 0.5) for _ in range(4)]
    g, _ = substitute(p4(), parts)
    t = decompose(g)
    h = weighted_representative(g, t.root)
    assert h.weights == tuple(alpha(p) for p in parts)


def test_weighted_representative_leaf_rejected():
    t = decompose(complete_graph(1))
    with pytest.raises(InputError):
        weighted_representative(t.graph, t.root)


def test_weighted_alpha_of_representative_matches_alpha():
    rng = random.Random(47)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 10), rng.random())
        t = decompose(g)
        assert weighted_alpha(weighted_representative(g, t.root)) == alpha(g)
        assert module_alpha(g, t.root) == alpha(g)


def test_union_representative_is_edgeless():
    g = Graph(4, [(0, 1), (2, 3)])
    t = decompose(g)
    assert t.root.kind == "union"
    h = weighted_representative(g, t.root)
    assert h.base == empty_graph(2)
    assert h.weights == (1, 1)
