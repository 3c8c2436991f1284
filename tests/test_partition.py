import functools
import itertools
import math
import random

import pytest

from extpart import (
    Graph,
    InputError,
    Partition,
    ResourceLimitError,
    alpha,
    chi_1ext,
    complete_graph,
    complete_multipartite,
    complete_sum,
    cycle_graph,
    decompose,
    disjoint_union,
    empty_graph,
    feasible_tuples_mw,
    gen_hardness_gadget,
    gen_interval_extremal,
    gen_multipartite_extremal,
    greedy_sqrt_partition,
    is_1ext_oracle,
    log_partition_cograph,
    maximum_independent_set,
    peel_partition,
    split_integers,
    substitute,
    tuple_join,
    tuple_sum,
    verify_partition,
)
from extpart.partition import (
    DEFAULT_PRODUCT_BUDGET,
    FeasibleTupleSet,
    _join_witness,
    _least_join_packed,
    _packing,
    _packing_for,
    _sum_witness,
    _TupleDP,
)
from bruteforce import (
    bf_chi_1ext,
    bf_chromatic,
    bf_feasible_tuples,
    fig1_bottom,
    p4,
    random_cograph,
    random_graph,
    ref_chi_cotree,
    ref_prime_set,
    ref_root_set,
    ref_tuple_join,
    ref_tuple_sum,
)


def fts(k, *tuples):
    return FeasibleTupleSet(k, {t: None for t in tuples})


def test_tuple_sum_examples():
    assert tuple_sum(fts(2, (1, 0)), fts(2, (0, 1))).tuples == ((1, 1),)
    s = fts(2, (1, 0), (0, 1))
    assert tuple_sum(s, s).tuples == ((0, 2), (1, 1), (2, 0))
    zero = fts(2, (0, 0))
    assert tuple_sum(s, zero).tuples == s.tuples


def test_tuple_join_examples():
    assert tuple_join(fts(2, (2, 0)), fts(2, (2, 1))).tuples == ((2, 1),)
    assert tuple_join(fts(2, (1, 0)), fts(2, (2, 0))).tuples == ()
    s = fts(2, (1, 0), (2, 2))
    assert tuple_join(s, fts(2, (0, 0))).tuples == s.tuples


def test_tuple_arity_mismatch():
    with pytest.raises(InputError):
        tuple_sum(fts(2, (1, 0)), fts(3, (1, 0, 0)))
    with pytest.raises(InputError):
        tuple_join(fts(2, (1, 0)), fts(3, (1, 0, 0)))


@pytest.mark.parametrize(
    "bad", [(1, 0, 0), (1,), (1, -1), (1, 0.5), (True, 0), (1, "2"), "ab"], ids=repr
)
def test_feasible_tuple_set_rejects_bad_tuples(bad):
    with pytest.raises(InputError):
        FeasibleTupleSet(2, {(0, 1): None, bad: None})


def test_feasible_tuple_set_rejects_bad_class_count():
    for k in (0, True, 2.0):
        with pytest.raises(InputError):
            FeasibleTupleSet(k, {})


def test_feasible_tuple_set_is_a_plain_value():
    tuples = [(2, 0), (0, 1), (2, 0), (1, 1)]
    expected = ((0, 1), (1, 1), (2, 0))
    for given in (tuples, set(tuples), (t for t in tuples), dict.fromkeys(tuples)):
        s = FeasibleTupleSet(2, given)
        assert s.tuples == tuple(s) == expected
        assert (len(s), bool(s)) == (3, True)
        assert all(t in s for t in expected) and (0, 2) not in s
    empty = FeasibleTupleSet(2, [])
    assert (empty.tuples, len(empty), bool(empty)) == ((), 0, False)
    assert (0, 0) not in empty
    # every entry is checked before duplicates collapse, and True == 1
    with pytest.raises(InputError):
        FeasibleTupleSet(2, [(1, 0), (True, 0)])


def test_fold_refuses_wrong_length_instead_of_truncating():
    with pytest.raises(InputError):
        tuple_sum(fts(2, (1, 0, 0)), fts(2, (0, 1)))


def _random_tuple_set(rng, k, size, values):
    return {
        tuple(rng.choice(values) if rng.random() < 0.6 else 0 for _ in range(k))
        for _ in range(size)
    }


def _assert_fold_matches_reference(left, right):
    for op, ref, recover in (
        (tuple_sum, ref_tuple_sum, _sum_witness),
        (tuple_join, ref_tuple_join, _join_witness),
    ):
        expected = ref(left.tuples, right.tuples)
        got = op(left, right)
        assert got.tuples == tuple(sorted(expected))
        for tup in got.tuples:
            assert recover(left, right, tup) == expected[tup]


# tops on both sides of each field width (8, 16, 32, 64 bits)
FIELD_TOPS = [1, 3, 127, 128, 1000, 40_000, 2**40]


def _random_set_pairs(top):
    """Seeded pairs of tuple sets for k = 1..5 with coordinates up to top;
    values come from a small pool so that joins find agreeing coordinates."""
    rng = random.Random(70 + top)
    for k in range(1, 6):
        for _ in range(12):
            values = rng.sample(range(1, top + 1), min(top, 3)) + [top]
            s1 = _random_tuple_set(rng, k, rng.randint(0, 12), values)
            s2 = _random_tuple_set(rng, k, rng.randint(0, 12), values)
            yield fts(k, *s1), fts(k, *s2)


@pytest.mark.parametrize("top", FIELD_TOPS)
def test_fold_kernels_match_all_pairs_reference(top):
    for left, right in _random_set_pairs(top):
        _assert_fold_matches_reference(left, right)


@pytest.mark.parametrize("top", FIELD_TOPS)
def test_least_join_is_the_least_tuple_of_the_join(top):
    empty = 0
    for left, right in _random_set_pairs(top):
        packing = _packing_for(left.k, top)
        # permutation-closed operands, as in the DP: the canonical tuples
        # of one walked against the other in full, least canonical join
        closed = [
            fts(left.k, *{p for t in s for p in itertools.permutations(t)})
            for s in (left, right)
        ]
        full = tuple_join(*closed)
        empty += not full
        expected = [packing.canonical(a) for a in packing.pack(full.tuples[:1])]
        for walked, indexed in (closed, closed[::-1]):
            canon = sorted({packing.canonical(a) for a in packing.pack(walked)})
            least = _least_join_packed(packing, canon, packing.pack(indexed))
            assert least == (expected or [None])[0]
    assert 0 < empty < 60  # both kinds of join occur


@pytest.mark.parametrize("nbytes", [1, 2, 4, 8])
def test_permutations_are_the_distinct_orders(nbytes):
    # coordinates up to the largest that leaves the field's top bit clear
    top = (1 << 8 * nbytes - 1) - 1
    rng = random.Random(nbytes)
    values = [0, 1, 2, top, rng.randint(3, top)]
    for k in range(1, 9):
        packing = _packing(k, nbytes)
        tuples = [tuple(range(k)), (0,) * k, (top,) * k]
        tuples += [tuple(rng.choice(values) for _ in range(k)) for _ in range(4)]
        for t in tuples:
            got = packing.permutations(packing.pack([t])[0])
            assert isinstance(got, tuple)
            assert sorted(got) == sorted(packing.pack(set(itertools.permutations(t))))
        # shared by every DP of the process, so bounded
        assert packing.canonical.cache_info().maxsize
        assert packing.permutations.cache_info().maxsize


def test_fold_kernels_edge_cases():
    zero = fts(3, (0, 0, 0))
    single = fts(3, (0, 5, 1000))
    mixed = fts(3, (0, 0, 0), (2, 0, 1000), (0, 5, 0), (7, 5, 1000))
    for s1 in (fts(3), zero, single, mixed):
        for s2 in (fts(3), zero, single, mixed):
            _assert_fold_matches_reference(s1, s2)
    assert tuple_join(zero, mixed).tuples == mixed.tuples
    assert tuple_sum(zero, single).tuples == single.tuples
    assert not tuple_sum(fts(3), mixed)


def test_fold_packs_up_to_64_bit_fields():
    big = 2**62
    assert tuple_sum(fts(1, (big,)), fts(1, (big,))).tuples == ((2 * big,),)
    with pytest.raises(InputError, match="too large"):
        tuple_sum(fts(1, (2 * big,)), fts(1, (0,)))


def test_cograph_leaf_tuples():
    g = complete_graph(1)
    assert feasible_tuples_mw(g, decompose(g), 2).tuples == ((0, 1), (1, 0))


def test_cograph_multipartite_23():
    g, _ = complete_multipartite([2, 3])
    t = decompose(g)
    assert not feasible_tuples_mw(g, t, 1)
    s = feasible_tuples_mw(g, t, 2)
    assert s and (2, 1) in s


def test_cograph_extremal_family_tuples():
    g = gen_multipartite_extremal(2)
    t = decompose(g)
    assert not feasible_tuples_mw(g, t, 2)
    assert feasible_tuples_mw(g, t, 3)


def test_mw_tuples_examples():
    g = p4()
    assert feasible_tuples_mw(g, decompose(g), 1).tuples == ((2,),)
    c5 = cycle_graph(5)
    assert feasible_tuples_mw(c5, decompose(c5), 1).tuples == ((2,),)
    bottom = fig1_bottom()
    assert not feasible_tuples_mw(bottom, decompose(bottom), 1)
    assert feasible_tuples_mw(bottom, decompose(bottom), 2)
    assert chi_1ext(bottom)[0] == 2


def test_mw_tuples_match_bruteforce():
    rng = random.Random(61)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        t = decompose(g)
        for k in (1, 2, 3):
            assert set(feasible_tuples_mw(g, t, k).tuples) == bf_feasible_tuples(g, k)


def test_tuples_monotone_in_k():
    rng = random.Random(62)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6), rng.random())
        t = decompose(g)
        for k in (1, 2):
            cur = set(feasible_tuples_mw(g, t, k).tuples)
            nxt = set(feasible_tuples_mw(g, t, k + 1).tuples)
            assert {tup + (0,) for tup in cur} <= nxt


def test_chi_colorings_match_all_pairs_reference():
    graphs = [
        gen_multipartite_extremal(3),
        gen_interval_extremal(4),
        complete_multipartite([2, 3, 4, 7, 9])[0],
    ]
    rng = random.Random(71)
    graphs += [random_cograph(rng, rng.randint(8, 16)) for _ in range(12)]
    for g in graphs:
        k, part = chi_1ext(g)
        assert (k, part.color) == ref_chi_cotree(decompose(g).root, g.n)


def test_cograph_root_sets_match_all_pairs_reference_and_are_permutation_closed():
    # the DP may store one tuple per colour permutation, but the root set
    # it returns is the full one, and the full one is closed under
    # permuting colours
    rng = random.Random(131)
    graphs = [random_cograph(rng, rng.randint(8, 16)) for _ in range(12)]
    graphs += [
        gen(j)
        for gen in (gen_multipartite_extremal, gen_interval_extremal)
        for j in range(1, 5)
    ]
    nonempty = 0
    for g in graphs:
        t = decompose(g)
        for k in range(1, 5):
            got = feasible_tuples_mw(g, t, k).tuples
            assert got == tuple(sorted(ref_root_set(t.root, k)))
            closed = set(got)
            assert all(set(itertools.permutations(tup)) <= closed for tup in got)
            nonempty += bool(got)
    assert nonempty > 40
    # more colours, where a tuple has up to k! distinct orders
    for g in [random_cograph(rng, 7) for _ in range(4)]:
        t = decompose(g)
        for k in (6, 7):
            got = feasible_tuples_mw(g, t, k).tuples
            assert got and got == tuple(sorted(ref_root_set(t.root, k)))


# chi_1ext(gen_interval_extremal(5)), vertex by vertex
PINNED_INTERVAL_5 = "2345545534554552345545534554551"


def test_chi_coloring_of_the_fifth_interval_extremal_graph_is_pinned():
    g = gen_interval_extremal(5)
    k, part = chi_1ext(g)
    assert (k, "".join(map(str, part.color))) == (5, PINNED_INTERVAL_5)
    assert verify_partition(g, part)


def _random_prime_graph(rng, n, p):
    """A seeded G(n, p), drawn again until its only modules are the single
    vertices and the whole vertex set."""
    while True:
        g = random_graph(rng, n, p)
        root = decompose(g).root
        if root.kind == "prime" and len(root.children) == n:
            return g


def test_chi_colorings_on_prime_graphs_are_pinned():
    # colourings rebuilt through the prime nodes' combinations: a change in
    # the weight or the 1-extendability a prime node finds for a colour
    # moves them
    rng = random.Random(81)
    graphs = [_random_prime_graph(rng, n, 0.3) for n in (9, 10, 11, 12)]
    for n in (4, 5, 6):
        base = _random_prime_graph(rng, n, 0.5)
        parts = [random_cograph(rng, rng.randint(1, 4)) for _ in range(n)]
        graphs.append(substitute(base, parts)[0])
    mp2, iv2, iv3 = (
        gen_multipartite_extremal(2),
        gen_interval_extremal(2),
        gen_interval_extremal(3),
    )
    k1, k2 = complete_graph(1), complete_graph(2)
    e2, e3 = empty_graph(2), empty_graph(3)
    for base, parts in [
        (p4(), [mp2, k1, iv3, e3]),
        (p4(), [mp2, mp2, k1, e2]),
        (cycle_graph(5), [mp2, k2, e2, iv2, k1]),
        (cycle_graph(5), [iv3, k1, mp2, k1, e3]),
    ]:
        graphs.append(substitute(base, parts)[0])
    pinned = [
        (2, "222222221"),
        (2, "2222221221"),
        (2, "22222222221"),
        (2, "122222212212"),
        (2, "12212211122222"),
        (2, "222222222221"),
        (2, "2222221222222222122"),
        (3, "233332122332331332"),
        (3, "23333212333321332"),
        (3, "233332122323322"),
        (3, "2332331223333212332"),
    ]
    for g, (k, colors) in zip(graphs, pinned, strict=True):
        assert decompose(g).root.kind == "prime"
        got_k, part = chi_1ext(g)
        assert (got_k, "".join(map(str, part.color))) == (k, colors)
        assert verify_partition(g, part)


def _full_set_chi(g, max_k):
    """chi_1ext spelled out through the full root sets that
    feasible_tuples_mw returns: the least k whose set is non-empty, with
    the rebuild of that set's least tuple."""
    t = decompose(g)
    for k in range(1, max_k + 1):
        dp = _TupleDP(t, k, DEFAULT_PRODUCT_BUDGET)
        dp.run()
        root_set = dp.full(t.root)
        if root_set:
            return k, dp.rebuild(root_set[0])
    return None


def test_chi_is_the_least_tuple_of_the_full_root_set():
    # chi_1ext needs one root tuple; whatever it computes, it must name
    # the least tuple of the full set and rebuild it the same way
    rng = random.Random(91)
    graphs = [_random_prime_graph(rng, n, 0.3) for n in range(9, 15) for _ in range(2)]
    for _ in range(18):
        n = rng.randint(4, 6)
        base = _random_prime_graph(rng, n, 0.5)
        parts = [random_cograph(rng, rng.randint(1, 4)) for _ in range(n)]
        graphs.append(substitute(base, parts)[0])
    chis = []
    for g in graphs:
        assert decompose(g).root.kind == "prime"
        got = chi_1ext(g)
        assert got == _full_set_chi(g, got[0])
        chis.append(got[0])
    assert chis.count(3) == 3 and chis.count(2) == 27
    g = graphs[chis.index(3)]
    assert chi_1ext(g, max_k=2) is None
    assert _full_set_chi(g, 2) is None


def _threshold_cograph(bits):
    """Vertex v is adjacent to every earlier vertex when bits[v] is 1, to
    none when it is 0: a cotree that alternates union and join."""
    return Graph(len(bits), [(u, v) for v, b in enumerate(bits) if b for u in range(v)])


def test_chi_on_cographs_is_the_least_tuple_of_the_full_root_set():
    # union and join roots of 2-5 children, deep alternations, and prime
    # nodes below a union root: chi_1ext may build less than the full
    # sets, but must name the same least tuple and rebuild it the same way
    rng = random.Random(93)
    graphs = []
    for op, kind in ((disjoint_union, "union"), (complete_sum, "join")):
        for width in range(2, 6):
            for _ in range(4):
                parts = [random_cograph(rng, rng.randint(2, 12)) for _ in range(width)]
                g = functools.reduce(op, parts)
                assert decompose(g).root.kind == kind
                graphs.append(g)
    graphs += [_threshold_cograph([v % 2 for v in range(n)]) for n in (9, 12, 17, 24)]
    graphs += [
        _threshold_cograph([rng.randint(0, 1) for _ in range(n)])
        for n in (10, 14, 18, 22)
    ]
    prime6, prime7 = _random_prime_graph(rng, 6, 0.5), _random_prime_graph(rng, 7, 0.5)
    graphs.append(disjoint_union(prime7, random_cograph(rng, 5)))
    graphs.append(disjoint_union(prime6, disjoint_union(prime7, empty_graph(2))))
    graphs.append(disjoint_union(random_cograph(rng, 4), complete_sum(prime6, empty_graph(3))))
    for g in graphs:
        got = chi_1ext(g)
        assert got == _full_set_chi(g, got[0])
        assert verify_partition(g, got[1])


@pytest.mark.parametrize("budget", [0, 1, 50])
def test_product_budget(budget):
    g = _random_prime_graph(random.Random(1016), 16, 0.3)
    with pytest.raises(
        ResourceLimitError, match=rf" 16 children exceeds budget {budget}$"
    ):
        chi_1ext(g, product_budget=budget)
    # the full set is refused before any combination is checked
    with pytest.raises(
        ResourceLimitError,
        match=rf"^prime-node tuple product {2**16} exceeds budget {budget}$",
    ):
        feasible_tuples_mw(g, decompose(g), 2, product_budget=budget)


def test_fold_budget():
    # k = 1 runs no search, so a 1-extendable graph meets no budget
    assert chi_1ext(cycle_graph(5), product_budget=0) == (1, Partition(1, (1,) * 5))
    # a fold refuses the product of its operands' sizes before it starts
    g = gen_interval_extremal(3)
    with pytest.raises(
        ResourceLimitError, match=r"^union fold of 3 x 10 tuples exceeds budget 29$"
    ):
        chi_1ext(g, product_budget=29)
    assert chi_1ext(g, product_budget=30)[0] == 3
    g, _ = complete_multipartite([2, 3, 4])
    with pytest.raises(
        ResourceLimitError, match=r"^join fold of 2 x 10 tuples exceeds budget 10$"
    ):
        chi_1ext(g, product_budget=10)
    with pytest.raises(
        ResourceLimitError, match=r"^union fold of 2 x 3 tuples exceeds budget 3$"
    ):
        feasible_tuples_mw(g, decompose(g), 3, product_budget=3)


def test_chi_answers_a_prime_root_whose_product_exceeds_the_budget():
    g = _random_prime_graph(random.Random(1024), 24, 0.3)
    assert 2**24 > DEFAULT_PRODUCT_BUDGET
    with pytest.raises(ResourceLimitError):
        feasible_tuples_mw(g, decompose(g), 2)
    k, part = chi_1ext(g)
    assert k == 2
    assert verify_partition(g, part)
    # a budget of the full product answers whatever the full set answers
    g = _random_prime_graph(random.Random(1014), 14, 0.3)
    assert chi_1ext(g, product_budget=2**14) == _full_set_chi(g, 2)


def _prime_node_graphs():
    """Seeded graphs with prime nodes at the root and below it, each with
    the largest k to check: 3, or 2 where 3**12 combinations would take
    seconds."""
    rng = random.Random(1101)
    graphs = [(_random_prime_graph(rng, n, 0.3), 3) for n in (9, 10, 11)]
    graphs.append((_random_prime_graph(rng, 12, 0.3), 2))
    for n in (4, 5, 6):
        base = _random_prime_graph(rng, n, 0.5)
        parts = [random_cograph(rng, rng.randint(1, 4)) for _ in range(n)]
        graphs.append((substitute(base, parts)[0], 3))
    # a prime node below a join root, below a union root, and below a prime
    prime7, prime6 = _random_prime_graph(rng, 7, 0.5), _random_prime_graph(rng, 6, 0.5)
    graphs.append((complete_sum(prime7, random_cograph(rng, 5)), 3))
    graphs.append((disjoint_union(random_cograph(rng, 4), prime6), 3))
    base = _random_prime_graph(rng, 5, 0.5)
    parts = [_random_prime_graph(rng, 4, 0.5)]
    parts += [random_cograph(rng, 2) for _ in range(4)]
    graphs.append((substitute(base, parts)[0], 3))
    return graphs


def test_prime_sets_match_the_product_reference():
    # every prime node's set, witnesses included, is the full product's
    below_root = 0
    for g, top in _prime_node_graphs():
        t = decompose(g)
        for k in range(1, top + 1):
            dp = _TupleDP(t, k, DEFAULT_PRODUCT_BUDGET)
            dp.run()
            for node in t.nodes():
                if node.kind != "prime":
                    continue
                below_root += node is not t.root
                child_sets = [dp.full(c) for c in node.children]
                ref = ref_prime_set(node.rep, child_sets)
                assert dp.full(node) == tuple(ref)
                assert dp.found[node] == ref
    assert below_root == 9


def test_chi_colorings_on_hardness_gadgets_are_pinned():
    # the gadget's prime node sits below a join root, so every pass builds
    # its full set and the colouring is rebuilt through its witnesses
    rng = random.Random(1102)
    primes = [_random_prime_graph(rng, n, 0.5) for n in (8, 9, 10)]
    gadgets = [gen_hardness_gadget(h, k) for h in primes for k in (2, 3)]
    pinned = [
        (2, "1111111122222222222222111"),
        (2, "111111112222222222222222222222111"),
        (3, "2221121223333333333333333221"),
        (3, "2221121223333333333333333333333333221"),
        (3, "2222222122333333333333333332221"),
        (3, "22222221223333333333333333333333333332221"),
    ]
    for g, (k, colors) in zip(gadgets, pinned, strict=True):
        assert decompose(g).root.children[0].kind == "prime"
        got_k, part = chi_1ext(g)
        assert (got_k, "".join(map(str, part.color))) == (k, colors)
        assert verify_partition(g, part)


def test_chi_on_independent_sets():
    for n in (1, 4, 9):
        k, part = chi_1ext(empty_graph(n))
        assert k == 1
        assert part.color == (1,) * n


def test_chi_empty_graph():
    k, part = chi_1ext(Graph(0))
    assert k == 0 and part.color == ()


def test_chi_fig2_instance():
    g, _ = complete_multipartite([2, 3, 4, 7, 9])
    k, part = chi_1ext(g)
    assert k == 3
    assert verify_partition(g, part)
    assert part.nonempty_count() == 3


def test_chi_certificates_verify():
    rng = random.Random(64)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        k, part = chi_1ext(g)
        assert verify_partition(g, part)
        assert part.nonempty_count() == k
        assert k == bf_chi_1ext(g)
        assert (k == 1) == is_1ext_oracle(g)
        if k == 1:
            assert part == Partition(1, (1,) * g.n)


def test_chi_bounded_by_alpha_and_chromatic():
    rng = random.Random(65)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        k, _ = chi_1ext(g)
        assert k <= alpha(g)
        assert k <= bf_chromatic(g)


def test_chi_max_k_cutoff():
    g = gen_multipartite_extremal(2)  # chi is 3
    assert chi_1ext(g, max_k=2) is None
    k, _ = chi_1ext(g, max_k=3)
    assert k == 3
    assert chi_1ext(g, max_k=0) is None
    assert chi_1ext(cycle_graph(5), max_k=0) is None  # 1-extendable
    assert chi_1ext(empty_graph(0), max_k=0) == (0, Partition(0, ()))
    for h in (g, empty_graph(0)):
        with pytest.raises(InputError, match="max_k"):
            chi_1ext(h, max_k=-1)


def test_peel_1_extendable_single_class():
    for g in (p4(), complete_graph(4), empty_graph(3)):
        part = peel_partition(g)
        assert part.k == 1
        assert verify_partition(g, part)


def test_peel_fig1_bottom():
    part = peel_partition(fig1_bottom())
    assert part.k == 2
    assert part.color == (1, 1, 2, 1)


def test_peel_class_count_at_most_alpha():
    rng = random.Random(66)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 12), rng.random())
        part = peel_partition(g)
        assert part.k <= alpha(g) or g.n == 0
        assert verify_partition(g, part)


def test_greedy_short_circuits():
    assert greedy_sqrt_partition(empty_graph(7)).k == 1
    assert greedy_sqrt_partition(complete_graph(9)).k == 1  # cliques are 1-extendable


def test_greedy_class_count_bound():
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.uniform(0.05, 0.95))
        part = greedy_sqrt_partition(g)
        assert part.k <= math.ceil(2 * math.sqrt(n))
        assert verify_partition(g, part)


def test_greedy_strata_and_least_mis_are_pinned():
    # each stratum is the lexicographically least MIS of what is left, so
    # a change in which MIS is found, or in the graph it is searched in,
    # moves the colourings
    pinned = [
        (8, 0.2, "11111111", (0, 1, 2, 3, 4, 5)),
        (10, 0.5, "2111112211", (1, 3, 9)),
        (12, 0.8, "121121212111", (0, 5)),
        (15, 0.1, "111111112122221", (0, 1, 2, 3, 4, 5, 6, 7, 9, 14)),
        (18, 0.3, "111143322131223422", (0, 1, 2, 3, 9, 11)),
        (20, 0.6, "11343224424311123233", (0, 1, 12, 13, 14)),
        (24, 0.15, "121111213132332111122232", (0, 2, 3, 4, 5, 7, 9, 15, 16, 17, 18)),
        (27, 0.4, "412222444332343414143231111", (1, 16, 18, 23, 24, 25, 26)),
        (30, 0.7, "221112121112321111131122121212", (2, 14, 18, 24)),
        (
            33,
            0.05,
            "121111111122211212112112212221122",
            (0, 2, 3, 4, 5, 6, 7, 8, 9, 13, 14, 16, 18, 19, 21, 22, 25, 29, 30),
        ),
        (
            36,
            0.25,
            "224151123131211321241114432431233152",
            (3, 5, 6, 9, 11, 13, 14, 17, 20, 21, 22, 29, 33),
        ),
        (
            40,
            0.5,
            "2212326241213212515433331421222555464533",
            (2, 9, 11, 14, 17, 24, 27),
        ),
    ]
    rng = random.Random(2024)
    for n, p, colors, mis in pinned:
        g = random_graph(rng, n, p)
        assert "".join(map(str, greedy_sqrt_partition(g).color)) == colors
        assert maximum_independent_set(g) == mis


def test_split_integers_forced_and_critical():
    assert split_integers(0, 7, 4) == (0, 4)
    assert split_integers(7, 0, 4) == (4, 0)
    assert split_integers(4, 4, 5) == (3, 2)


def test_split_integers_postconditions_small():
    for a1 in range(13):
        for a2 in range(13):
            for k in range(a1 + a2 + 1):
                k1, k2 = split_integers(a1, a2, k)
                assert k1 + k2 == k
                assert 0 <= k1 <= a1 and 0 <= k2 <= a2
                lhs = max(k1 - 1, a1 - k1) + max(k2 - 1, a2 - k2)
                assert lhs <= max(k - 1, a1 + a2 - k)


def test_split_integers_range_errors():
    with pytest.raises(InputError):
        split_integers(2, 2, 5)
    with pytest.raises(InputError):
        split_integers(2, 2, -1)


def test_log_partition_clique():
    part = log_partition_cograph(decompose(complete_graph(6)))
    assert part.k == 1


def test_log_partition_extremal_is_optimal():
    for k in range(4):
        g = gen_multipartite_extremal(k)
        part = log_partition_cograph(decompose(g))
        assert part.k == k + 1
        assert verify_partition(g, part)


def test_log_partition_interval_family():
    g = gen_interval_extremal(4)
    part = log_partition_cograph(decompose(g))
    assert part.k <= 4
    assert verify_partition(g, part)


def test_log_partition_bound_random_cotrees():
    rng = random.Random(68)
    for _ in range(30):
        g = random_cograph(rng, rng.randint(1, 12))
        part = log_partition_cograph(decompose(g))
        assert part.k <= alpha(g).bit_length()
        assert verify_partition(g, part)


def test_log_partition_colorings_are_pinned():
    # which vertices each halving round extracts, not only the bound
    graphs = [gen_multipartite_extremal(3), gen_interval_extremal(4)]
    rng = random.Random(72)
    graphs += [random_cograph(rng, rng.randint(10, 30)) for _ in range(12)]
    pinned = [
        (4, "322111141213121"),
        (4, "321411212131121"),
        (3, "112313112122"),
        (3, "111111133121311211"),
        (2, "211111121211"),
        (4, "4411222211312221"),
        (3, "1321212221111211"),
        (4, "34111222231122111113"),
        (3, "322222222333323111212121"),
        (3, "13111221121"),
        (4, "4111112131213311211211211321"),
        (2, "2211222222211"),
        (4, "222411111222221111311211"),
        (3, "1311121112"),
    ]
    for g, (k, colors) in zip(graphs, pinned, strict=True):
        part = log_partition_cograph(decompose(g))
        assert (part.k, "".join(map(str, part.color))) == (k, colors)
        assert verify_partition(g, part)


def test_log_partition_rejects_non_cograph():
    with pytest.raises(InputError):
        log_partition_cograph(decompose(p4()))


def test_verify_partition_cases():
    g = fig1_bottom()
    # a proper coloring is always accepted: independent classes
    assert verify_partition(g, Partition(3, (1, 2, 1, 3)))
    # the whole graph in one class is not 1-extendable
    assert not verify_partition(g, Partition(1, (1, 1, 1, 1)))
    with pytest.raises(InputError):
        verify_partition(g, Partition(1, (1, 1, 1)))


def test_verify_partition_cost_follows_the_colours_used():
    # a class per colour 1..k would not fit in memory
    g, huge = fig1_bottom(), 10**12
    assert verify_partition(g, Partition(huge, (1, huge, 1, 3)))
    assert not verify_partition(g, Partition(huge, (huge,) * 4))
    assert Partition(huge, (1, huge, 1, 3)).nonempty_count() == 3


def test_hardness_gadget_equivalence_small():
    for n in range(1, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if bits & (1 << i)])
            chi_g = chi_1ext(g)[0]
            for k in (2, 3):
                gadget = gen_hardness_gadget(g, k)
                chi_gadget = chi_1ext(gadget)[0]
                assert (chi_gadget <= k) == (chi_g <= k - 1)


def test_union_of_cographs_bound_by_construction():
    # coloring each cograph component with its own palette partitions the
    # union into at most c * (floor(log2 alpha) + 1) 1-extendable classes
    rng = random.Random(69)
    for _ in range(10):
        comps = [random_cograph(rng, rng.randint(1, 6)) for _ in range(rng.randint(2, 3))]
        g = comps[0]
        for c in comps[1:]:
            g = disjoint_union(g, c)
        offset = 0
        shift = 0
        colors = [0] * g.n
        for comp in comps:
            part = log_partition_cograph(decompose(comp))
            for v in range(comp.n):
                colors[offset + v] = shift + part.color[v]
            offset += comp.n
            shift += part.k
        combined = Partition(shift, tuple(colors))
        assert verify_partition(g, combined)
        assert combined.k <= len(comps) * (alpha(g).bit_length())


