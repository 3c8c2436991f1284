"""CSMA access-proportion metrics on conflict graphs.

For a vertex v and a ratio theta between transmission and listen phase
durations, the access proportion is

    p_v = sum(theta^|S| for independent S containing v)
          / sum(theta^|S| for all independent S)

where the sum ranges over every independent set including the empty set:
theta * I(G - N[v]; theta) / I(G; theta) for the independence polynomial
I of `independent_sets`. As theta grows, p_v tends to (#MIS containing v)
/ (#MIS), read off the leading coefficients. All arithmetic is exact
rational; floats appear only in display code.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .graphs import Graph, VertexSet, _bits
from .independent_sets import _IndependencePolynomial, _check_cap, _unit_cover

DEFAULT_ACCESS_CAP = 25


@dataclass(frozen=True)
class AccessProfile:
    """Per-vertex access proportions at a finite theta and in the limit."""

    theta: Fraction
    p: tuple[Fraction, ...]
    limit_p: tuple[Fraction, ...]
    starved: VertexSet


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
    _check_cap("access_proportion", g.n, cap)
    poly = _IndependencePolynomial(g)
    full = (1 << g.n) - 1
    top = poly.query(full)
    a = poly.degree(top)
    # q^alpha * I(p/q) in integers, for theta = p/q and degree <= alpha
    num, den = theta.numerator, theta.denominator
    weights = [num**i * den ** (a - i) for i in range(a + 1)]

    def scaled(f: int) -> int:
        return sum(w * poly.coefficient(f, i) for i, w in enumerate(weights))

    z, mis = den * scaled(top), poly.coefficient(top, a)
    fs = [poly.query(full & ~c) for c in poly.closed]
    p = tuple(Fraction(num * scaled(f), z) for f in fs)
    limit = tuple(Fraction(poly.coefficient(f, a - 1), mis) for f in fs)
    starved = tuple(v for v in range(g.n) if limit[v] == 0)
    return AccessProfile(theta=theta, p=p, limit_p=limit, starved=starved)


def starvation_set(g: Graph) -> VertexSet:
    """Vertices in no MIS (limit access proportion zero); empty iff the
    graph is 1-extendable. Uncapped."""
    return tuple(_bits(((1 << g.n) - 1) & ~_unit_cover(g)[1]))
