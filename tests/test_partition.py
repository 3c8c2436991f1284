import itertools
import math
import random

import pytest

from extpart import (
    Graph,
    InputError,
    Partition,
    alpha,
    chi_1ext,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    decompose,
    disjoint_union,
    empty_graph,
    feasible_tuples_cograph,
    feasible_tuples_mw,
    gen_hardness_gadget,
    gen_interval_extremal,
    gen_multipartite_extremal,
    greedy_sqrt_partition,
    log_partition_cograph,
    peel_partition,
    split_integers,
    tuple_join,
    tuple_sum,
    verify_partition,
)
from extpart.partition import FeasibleTupleSet, _join_witness, _sum_witness
from bruteforce import (
    bf_chi_1ext,
    bf_chromatic,
    bf_feasible_tuples,
    fig1_bottom,
    p4,
    random_cograph,
    random_graph,
    ref_chi_cotree,
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


@pytest.mark.parametrize("top", [1, 3, 127, 128, 1000, 40_000, 2**40])
def test_fold_kernels_match_all_pairs_reference(top):
    # tops on both sides of each field width (8, 16, 32, 64 bits); values
    # come from a small pool so that joins find agreeing coordinates
    rng = random.Random(70 + top)
    for k in range(1, 6):
        for _ in range(12):
            values = rng.sample(range(1, top + 1), min(top, 3)) + [top]
            s1 = _random_tuple_set(rng, k, rng.randint(0, 12), values)
            s2 = _random_tuple_set(rng, k, rng.randint(0, 12), values)
            _assert_fold_matches_reference(fts(k, *s1), fts(k, *s2))


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
    t = decompose(complete_graph(1))
    assert feasible_tuples_cograph(t, 2).tuples == ((0, 1), (1, 0))


def test_cograph_multipartite_23():
    g, _ = complete_multipartite([2, 3])
    t = decompose(g)
    assert not feasible_tuples_cograph(t, 1)
    s = feasible_tuples_cograph(t, 2)
    assert s and (2, 1) in s


def test_cograph_extremal_family_tuples():
    g = gen_multipartite_extremal(2)
    t = decompose(g)
    assert not feasible_tuples_cograph(t, 2)
    assert feasible_tuples_cograph(t, 3)


def test_cograph_rejects_prime():
    with pytest.raises(InputError, match="feasible_tuples_mw"):
        feasible_tuples_cograph(decompose(p4()), 2)


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


def test_symmetry_reduced_decision_agrees():
    rng = random.Random(63)
    for _ in range(25):
        g = random_cograph(rng, rng.randint(1, 8))
        t = decompose(g)
        for k in (1, 2, 3):
            full = feasible_tuples_cograph(t, k)
            reduced = feasible_tuples_cograph(t, k, symmetry_reduced=True)
            assert {tuple(sorted(tup)) for tup in full.tuples} == set(reduced.tuples)


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
