"""Exact independent-set engine: the ground truth other modules are
validated against.

One branch and bound over vertex bitmasks (`_heaviest`) answers every
maximum-weight independent-set question, unit weights included. It
branches on a vertex of maximum degree and prunes with a greedy clique
cover, summing the largest weight in each clique. `_cover` finds the
vertices in some maximum-weight set by covering with witness sets: v is
covered iff w(v) + w-alpha(G - N[v]) reaches the maximum, and each set
found covers all its vertices. Neither has a size cap or recurses: the
search keeps its open branches on a stack. Exact MIS counting,
enumeration and the CSMA access proportions run behind an explicit cap
on one memoized independence polynomial per graph, whose degree is
alpha and whose leading coefficient counts the maximum sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ResourceLimitError
from .graphs import Graph, VertexSet, WeightedGraph

DEFAULT_COUNT_CAP = 40


def _check_cap(what: str, n: int, cap: int) -> None:
    if n > cap:
        raise ResourceLimitError(f"{what} cap exceeded: n={n} > cap={cap}")


@dataclass(frozen=True)
class MisStats:
    """Exact MIS statistics: alpha, #MIS, and per-vertex #MIS counts."""

    alpha: int
    total_mis_count: int
    per_vertex_mis_count: tuple[int, ...]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _clique_cover_weight(mask: int, nbr: Sequence[int], w: Sequence[int]) -> int:
    """Greedily partition the masked vertices into cliques and sum the
    largest weight of each clique: an upper bound on the weight of any
    independent set within the mask."""
    total = 0
    while mask:
        low = mask & -mask
        v = low.bit_length() - 1
        mask ^= low
        top = w[v]
        cand = mask & nbr[v]
        while cand:
            low = cand & -cand
            u = low.bit_length() - 1
            mask ^= low
            if w[u] > top:
                top = w[u]
            cand &= nbr[u]
        total += top
    return total


def _heaviest(
    mask: int,
    nbr: Sequence[int],
    w: Sequence[int],
    floor: int = 0,
    goal: int | None = None,
) -> tuple[int, int]:
    """Branch and bound for a maximum-weight independent set within a
    vertex mask, under non-negative weights w.

    Returns (weight, set mask) of the heaviest set found that weighs more
    than `floor`, or (floor, 0) when none does. The search stops as soon
    as a set reaches `goal` (by default the clique-cover bound of the
    whole mask, which no set exceeds).
    """
    heavy = max(w, default=0)
    if goal is None:
        goal = _clique_cover_weight(mask, nbr, w)
    best, best_set = floor, 0
    # depth first: follow the include branch, keep each exclude branch
    stack = [(mask, 0, 0)]
    while stack:
        m, acc, chosen = stack.pop()
        while acc + heavy * m.bit_count() > best:
            bound = _clique_cover_weight(m, nbr, w)
            if acc + bound <= best:
                break
            # branch on a vertex of maximum degree inside the mask
            v = -1
            vdeg = 0
            rest = m
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                d = (nbr[u] & m).bit_count()
                if d > vdeg:
                    v, vdeg = u, d
                rest ^= low
            if vdeg == 0:
                # an independent mask: its cover is by singletons, so the
                # bound is its weight
                best, best_set = acc + bound, chosen | m
                break
            bit = 1 << v
            stack.append((m & ~bit, acc, chosen))
            m, acc, chosen = m & ~nbr[v] & ~bit, acc + w[v], chosen | bit
        if best >= goal:
            break
    return best, best_set


def _cover(
    mask: int, nbr: Sequence[int], w: Sequence[int], until_miss: bool = False
) -> tuple[int, int]:
    """(maximum weight, mask of the vertices in some maximum-weight
    independent set) within a vertex mask, by covering with witness sets.
    With `until_miss`, stops at the first vertex in no such set, so the
    returned cover equals the mask iff every vertex is covered."""
    best, covered = _heaviest(mask, nbr, w)
    rest = mask & ~covered
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        need = best - w[v]
        got, witness = _heaviest(mask & ~nbr[v] & ~low, nbr, w, need - 1, need)
        if got < need:
            if until_miss:
                break
        else:
            covered |= witness | low
        rest &= ~covered & ~low
    return best, covered


def _unit_cover(g: Graph, until_miss: bool = False) -> tuple[int, int]:
    """`_cover` of the whole graph with unit weights: (alpha, covered)."""
    return _cover((1 << g.n) - 1, g.neighbor_masks(), (1,) * g.n, until_miss)


def alpha(g: Graph) -> int:
    """Independence number alpha(G); 0 for the empty graph."""
    return _heaviest((1 << g.n) - 1, g.neighbor_masks(), (1,) * g.n)[0]


class _IndependencePolynomial:
    """Memoized independence polynomial I(mask; x), the sum of x^|S| over
    independent S within a vertex mask, packed into one int: the number of
    independent i-sets lives in bits [i*s, (i+1)*s), s = n + 1. No count
    exceeds 2^n, so a field never overflows; I(m) = I(m - v) + x*I(m - N[v])
    is one shift and one add. k isolated vertices multiply by (1 + 2^s)^k,
    which keeps a matching's memo linear in n instead of 2^(n/2) masks. An
    entry holds up to n*(alpha + 1) bits, so the memo grows with alpha.
    """

    def __init__(self, g: Graph):
        self.closed = tuple(m | (1 << v) for v, m in enumerate(g.neighbor_masks()))
        self.shift = g.n + 1
        self.memo: dict[int, int] = {0: 1}

    def query(self, mask: int) -> int:
        # recursion depth <= n, which callers hold to their count caps
        memo = self.memo
        got = memo.get(mask)
        if got is not None:
            return got
        closed = self.closed
        v = -1
        vdeg = 1
        isolated = 0
        for u in _bits(mask):
            d = (closed[u] & mask).bit_count()
            if d > vdeg:
                v, vdeg = u, d
            elif d == 1:
                isolated |= 1 << u
        res = (1 + (1 << self.shift)) ** isolated.bit_count()
        if v >= 0:
            rest = mask & ~isolated
            res *= self.query(rest & ~(1 << v)) + (
                self.query(rest & ~closed[v]) << self.shift
            )
        memo[mask] = res
        return res

    def degree(self, poly: int) -> int:
        return (poly.bit_length() - 1) // self.shift

    def coefficient(self, poly: int, i: int) -> int:
        return (poly >> (i * self.shift)) & ((1 << self.shift) - 1)


def mis_stats(g: Graph, cap: int = DEFAULT_COUNT_CAP) -> MisStats:
    """Exact alpha, total MIS count, and per-vertex MIS counts.

    Counts are arbitrary-precision integers. Raises ResourceLimitError
    when n exceeds the brute-force cap.
    """
    _check_cap("mis_stats brute-force", g.n, cap)
    poly = _IndependencePolynomial(g)
    full = (1 << g.n) - 1
    top = poly.query(full)
    a = poly.degree(top)
    # I(G - N[v]) has degree <= alpha - 1; there it counts the MIS through v
    per = tuple(poly.coefficient(poly.query(full & ~c), a - 1) for c in poly.closed)
    return MisStats(
        alpha=a, total_mis_count=poly.coefficient(top, a), per_vertex_mis_count=per
    )


def enumerate_max_independent_sets(
    g: Graph, cap: int = DEFAULT_COUNT_CAP
) -> Iterator[VertexSet]:
    """Yield every maximum independent set exactly once, lexicographically
    by sorted vertex list."""
    _check_cap("enumeration brute-force", g.n, cap)
    return _enumerate_mis(g)


def _enumerate_mis(g: Graph) -> Iterator[VertexSet]:
    poly = _IndependencePolynomial(g)
    full = (1 << g.n) - 1
    target = poly.degree(poly.query(full))

    # recursion depth <= n, which the caller holds to the count cap
    def walk(chosen: list[int], cand: int) -> Iterator[VertexSet]:
        if len(chosen) == target:
            yield tuple(chosen)
            return
        need = target - len(chosen)
        for v in _bits(cand):
            rest = cand & ~poly.closed[v] & ~((1 << (v + 1)) - 1)
            if 1 + poly.degree(poly.query(rest)) >= need:
                chosen.append(v)
                yield from walk(chosen, rest)
                chosen.pop()

    return walk([], full)


def is_1ext_oracle(g: Graph) -> bool:
    """True iff every vertex lies in some MIS, i.e. for every v,
    alpha(G - N[v]) = alpha(G) - 1. Uncapped branch and bound."""
    return _unit_cover(g, until_miss=True)[1] == (1 << g.n) - 1


def mis_covered_vertices(g: Graph) -> VertexSet:
    """Vertices belonging to at least one MIS (uncapped branch and bound)."""
    return tuple(_bits(_unit_cover(g)[1]))


def maximum_independent_set(g: Graph) -> VertexSet:
    """The lexicographically smallest maximum independent set."""
    nbr = g.neighbor_masks()
    w = (1,) * g.n
    cand = (1 << g.n) - 1
    remaining = _heaviest(cand, nbr, w)[0]
    chosen = []
    while remaining > 0:
        need = remaining - 1
        for v in _bits(cand):
            rest = cand & ~nbr[v] & ~(1 << v)
            if _heaviest(rest, nbr, w, need - 1, need)[0] == need:
                chosen.append(v)
                cand = rest
                remaining = need
                break
    return tuple(chosen)


def weighted_profile(h: WeightedGraph) -> tuple[int, VertexSet]:
    """Maximum weight over independent sets of h, together with the set of
    vertices appearing in at least one maximum-weight independent set."""
    best, covered = _cover((1 << h.base.n) - 1, h.base.neighbor_masks(), h.weights)
    return best, tuple(_bits(covered))


def weighted_alpha(h: WeightedGraph) -> int:
    """Maximum total weight over independent sets of h."""
    return _heaviest((1 << h.base.n) - 1, h.base.neighbor_masks(), h.weights)[0]


def weighted_is_1ext(h: WeightedGraph) -> bool:
    """True iff every vertex of h is in some maximum-weight independent set."""
    full = (1 << h.base.n) - 1
    return _cover(full, h.base.neighbor_masks(), h.weights, until_miss=True)[1] == full
