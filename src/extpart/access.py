"""CSMA access-proportion metrics on conflict graphs.

For a vertex v and a ratio theta between transmission and listen phase
durations, the access proportion is

    p_v = sum(theta^|S| for independent S containing v)
          / sum(theta^|S| for all independent S)

where the sum ranges over every independent set including the empty set.
As theta grows, p_v tends to (#MIS containing v) / (#MIS). All arithmetic
is exact rational; floats appear only in display code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, ResourceLimitError
from .graphs import Graph, VertexSet
from .independent_sets import _bits, _closed_masks, _unit_cover, mis_stats

DEFAULT_ACCESS_CAP = 25


@dataclass(frozen=True)
class AccessProfile:
    """Per-vertex access proportions at a finite theta and in the limit."""

    theta: Fraction
    p: tuple[Fraction, ...]
    limit_p: tuple[Fraction, ...]
    starved: VertexSet


class _IndepPolynomial:
    """Memoized evaluation of Z(mask) = sum of theta^|S| over independent
    sets S within the mask (the empty set contributes theta^0 = 1)."""

    def __init__(self, g: Graph, theta: Fraction):
        self.closed = _closed_masks(g)
        self.theta = theta
        self.memo: dict[int, Fraction] = {0: Fraction(1)}

    def eval(self, mask: int) -> Fraction:
        # recursion depth <= n, which access_proportion holds to its cap
        got = self.memo.get(mask)
        if got is not None:
            return got
        v = (mask & -mask).bit_length() - 1
        res = self.eval(mask & ~(1 << v)) + self.theta * self.eval(
            mask & ~self.closed[v]
        )
        self.memo[mask] = res
        return res


def access_proportion(
    g: Graph, theta: Fraction | int | str, cap: int = DEFAULT_ACCESS_CAP
) -> AccessProfile:
    """Exact access proportions for every vertex at the given theta.

    Raises InputError for theta <= 0 and ResourceLimitError when n exceeds
    the exhaustive-summation cap.
    """
    theta = Fraction(theta)
    if theta <= 0:
        raise InputError(f"theta must be positive, got {theta}")
    if g.n > cap:
        raise ResourceLimitError(
            f"access_proportion cap exceeded: n={g.n} > cap={cap}"
        )
    poly = _IndepPolynomial(g, theta)
    full = (1 << g.n) - 1
    denom = poly.eval(full)
    p = tuple(
        theta * poly.eval(full & ~poly.closed[v]) / denom for v in range(g.n)
    )
    stats = mis_stats(g, cap=max(cap, g.n))
    limit = tuple(
        Fraction(c, stats.total_mis_count) for c in stats.per_vertex_mis_count
    )
    starved = tuple(v for v in range(g.n) if limit[v] == 0)
    return AccessProfile(theta=theta, p=p, limit_p=limit, starved=starved)


def starvation_set(g: Graph) -> VertexSet:
    """Vertices in no MIS (limit access proportion zero); empty iff the
    graph is 1-extendable. Uncapped."""
    return tuple(_bits(((1 << g.n) - 1) & ~_unit_cover(g)[1]))
