"""Exact reference computations of the benchmark's own, sharing no code
with extpart: independence numbers by memoized branching with
component splitting, MIS coverage, 1-extendability, a peeling partition
used to build valid certificates, and the generating-set number by
exhaustive search.
"""

from __future__ import annotations

import itertools


class Oracle:
    """Independence numbers of induced subgraphs of one graph, memoized
    by vertex mask."""

    def __init__(self, n: int, edges):
        self.n = n
        self.full = (1 << n) - 1
        nbr = [0] * n
        for u, v in edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        self.nbr = nbr
        self.closed = [m | (1 << v) for v, m in enumerate(nbr)]
        self.memo = {0: 0}

    def _component(self, mask: int) -> int:
        comp = frontier = mask & -mask
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= self.nbr[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & mask & ~comp
            comp |= frontier
        return comp

    def alpha(self, mask: int | None = None) -> int:
        if mask is None:
            mask = self.full
        memo = self.memo
        got = memo.get(mask)
        if got is not None:
            return got
        comp = self._component(mask)
        if comp != mask:
            res = self.alpha(comp) + self.alpha(mask & ~comp)
        else:
            low_v, low_d, high_v, high_d = -1, self.n, -1, -1
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                d = (self.nbr[v] & mask).bit_count()
                if d < low_d:
                    low_v, low_d = v, d
                if d > high_d:
                    high_v, high_d = v, d
            if low_d <= 1:
                # a vertex of degree <= 1 lies in some maximum independent set
                res = 1 + self.alpha(mask & ~self.closed[low_v])
            else:
                v = high_v
                res = max(
                    self.alpha(mask & ~(1 << v)),
                    1 + self.alpha(mask & ~self.closed[v]),
                )
        memo[mask] = res
        return res

    def covered(self, mask: int | None = None) -> int:
        """Mask of the vertices lying in some MIS of the induced subgraph."""
        if mask is None:
            mask = self.full
        a = self.alpha(mask)
        out = 0
        for v in range(self.n):
            if mask >> v & 1 and 1 + self.alpha(mask & ~self.closed[v]) == a:
                out |= 1 << v
        return out

    def is_1ext(self, mask: int | None = None) -> bool:
        if mask is None:
            mask = self.full
        return self.covered(mask) == mask

    def peel(self) -> list[int]:
        """Colors 1.. of the peeling partition: each class is the set of
        vertices lying in some MIS of what is left, so it is 1-extendable."""
        colors = [0] * self.n
        rest = self.full
        c = 0
        while rest:
            c += 1
            cov = self.covered(rest)
            for v in range(self.n):
                if cov >> v & 1:
                    colors[v] = c
            rest &= ~cov
        return colors


def class_masks(colors) -> list[int]:
    masks: dict[int, int] = {}
    for v, c in enumerate(colors):
        masks[c] = masks.get(c, 0) | (1 << v)
    return [masks[c] for c in sorted(masks)]


def subset_sums(gens) -> set[int]:
    sums = {0}
    for g in gens:
        sums |= {s + g for s in sums}
    return sums


def genset_feasible(targets, k: int) -> bool:
    """Whether k generators (values 1..max target, repeats allowed, some
    possibly unused) have every target among their subset sums."""
    top = max(targets)
    for r in range(1, k + 1):
        for gens in itertools.combinations_with_replacement(range(1, top + 1), r):
            if set(targets) <= subset_sums(gens):
                return True
    return False


def genset_number(targets) -> int:
    k = 1
    while not genset_feasible(targets, k):
        k += 1
    return k
