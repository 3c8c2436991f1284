import random
from fractions import Fraction

import pytest

from extpart import (
    Graph,
    InputError,
    ResourceLimitError,
    access_proportion,
    complete_graph,
    disjoint_union,
    empty_graph,
    is_1ext_oracle,
    mis_stats,
    starvation_set,
)
from bruteforce import (
    bf_independent_sets,
    bf_mis_list,
    fig1_bottom,
    p4,
    random_graph,
)


def bf_access(g, theta):
    """Direct evaluation of the defining sums over all independent sets."""
    theta = Fraction(theta)
    sets = bf_independent_sets(g)
    den = sum(theta ** len(s) for s in sets)
    return [
        sum(theta ** len(s) for s in sets if v in s) / den for v in range(g.n)
    ]


def test_single_vertex():
    for theta in (1, 50, Fraction(3, 2)):
        prof = access_proportion(complete_graph(1), theta)
        assert prof.p == (Fraction(theta) / (1 + Fraction(theta)),)
        assert prof.limit_p == (Fraction(1),)


def test_k2_at_theta_one():
    prof = access_proportion(complete_graph(2), 1)
    assert prof.p == (Fraction(1, 3), Fraction(1, 3))


def test_p4_limits():
    prof = access_proportion(p4(), 50)
    assert prof.limit_p == (
        Fraction(2, 3),
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(2, 3),
    )
    assert prof.starved == ()


def test_fig1_bottom_limits_and_starvation():
    prof = access_proportion(fig1_bottom(), 50)
    assert prof.limit_p == (Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(1))
    assert prof.starved == (2,)
    assert starvation_set(fig1_bottom()) == (2,)


def test_matches_direct_sum_evaluation():
    rng = random.Random(31)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        for theta in (1, 10, Fraction(7, 3), Fraction(1, 7), Fraction(3, 2), 50):
            prof = access_proportion(g, theta)
            assert list(prof.p) == bf_access(g, theta)


def test_limits_match_mis_counts():
    rng = random.Random(35)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        sets = bf_mis_list(g)
        prof = access_proportion(g, 50)
        assert prof.limit_p == tuple(
            Fraction(sum(v in s for s in sets), len(sets)) for v in range(g.n)
        )
        assert prof.starved == tuple(v for v in range(g.n) if prof.limit_p[v] == 0)


def test_empty_graph_profile():
    prof = access_proportion(Graph(0), Fraction(3, 2))
    assert prof.theta == Fraction(3, 2)
    assert (prof.p, prof.limit_p, prof.starved) == ((), (), ())


def test_edgeless_and_complete_at_the_default_cap():
    for theta in (1, Fraction(1, 7), Fraction(3, 2), 1000):
        theta = Fraction(theta)
        prof = access_proportion(empty_graph(25), theta)
        assert prof.p == (theta / (1 + theta),) * 25
        assert prof.limit_p == (Fraction(1),) * 25
        prof = access_proportion(complete_graph(25), theta)
        assert prof.p == (theta / (1 + 25 * theta),) * 25
        assert prof.limit_p == (Fraction(1, 25),) * 25
        assert prof.starved == ()


def test_values_in_unit_interval_and_shared_denominator():
    rng = random.Random(32)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        theta = rng.randint(1, 100)
        prof = access_proportion(g, theta)
        sets = bf_independent_sets(g)
        den = sum(Fraction(theta) ** len(s) for s in sets)
        for pv in prof.p:
            assert 0 <= pv <= 1
            # for integer theta every p_v is a multiple of 1/den: all
            # vertices share the normalizing denominator
            assert (pv * den).denominator == 1


def test_convergence_to_limit():
    # |p_v(theta) - limit| <= (#subsets / #MIS) / theta for theta >= 1:
    # below-maximum terms are bounded by 2^n * theta^(alpha-1)
    rng = random.Random(33)
    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        stats = mis_stats(g)
        bound_scale = Fraction(2**g.n, stats.total_mis_count)
        for theta in (1, 10, 100, 1000):
            prof = access_proportion(g, theta)
            for pv, lim in zip(prof.p, prof.limit_p):
                assert abs(pv - lim) <= bound_scale / theta


def test_starvation_iff_not_1_extendable():
    rng = random.Random(34)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        assert (starvation_set(g) == ()) == is_1ext_oracle(g)


def test_starvation_set_union_example():
    g = disjoint_union(complete_graph(1), complete_graph(2))
    assert starvation_set(g) == ()


def test_bad_theta():
    with pytest.raises(InputError):
        access_proportion(p4(), 0)
    with pytest.raises(InputError):
        access_proportion(p4(), Fraction(-1, 2))


def test_access_cap():
    with pytest.raises(ResourceLimitError):
        access_proportion(empty_graph(26), 2)
    access_proportion(empty_graph(26), 2, cap=30)
