"""Structured 1-extendability tests.

A graph is 1-extendable when every vertex belongs to some maximum
independent set. Over a modular decomposition this reduces to: a union
is 1-extendable iff all children are; a join additionally needs all
child independence numbers equal; at a prime node the children must be
1-extendable and the weighted representative graph must be 1-extendable
in the weighted sense.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graphs import Graph
from .independent_sets import _cover, _unit_cover
from .moddecomp import JOIN, LEAF, MDNode, MDTree, UNION, _check_tree, is_cograph


@dataclass(frozen=True)
class ExtReport:
    """Outcome of a 1-extendability test.

    witness_failure is best effort: oracle-backed paths report a vertex
    in no MIS when the answer is negative; the structured tests leave
    it unset.
    """

    is_1ext: bool
    alpha: int
    witness_failure: int | None = None


def is_1ext_cograph(t: MDTree) -> ExtReport:
    """Cotree rule, linear in the tree size: unions need 1-extendable
    children, joins also equal child independence numbers. Raises
    InputError on a tree with prime nodes."""
    if not is_cograph(t):
        raise InputError(
            "tree contains a prime node; use is_1ext_mw for general graphs"
        )
    ok, a = _rec_mw(t.root)
    return ExtReport(is_1ext=ok, alpha=a)


def _rec_mw(root: MDNode) -> tuple[bool, int]:
    """(1-extendable, independence number) of root's module, bottom-up."""
    done: dict[MDNode, tuple[bool, int]] = {}
    for node in root.bottom_up():
        if node.kind == LEAF:
            done[node] = True, 1
            continue
        results = [done.pop(c) for c in node.children]
        oks = all(ok for ok, _ in results)
        alphas = [a for _, a in results]
        if node.kind == UNION:
            done[node] = oks, sum(alphas)
        elif node.kind == JOIN:
            done[node] = oks and len(set(alphas)) == 1, max(alphas)
        else:
            assert node.rep is not None
            full = (1 << len(alphas)) - 1
            weight, covered = _cover(
                full, node.rep.neighbor_masks(), alphas, until_miss=True
            )
            done[node] = oks and covered == full, weight
    return done[root]


def is_1ext_mw(g: Graph, t: MDTree) -> ExtReport:
    """Modular-decomposition test; brute force only on the (small) prime
    representative graphs. Raises InputError when t is not g's tree."""
    _check_tree(g, t)
    ok, a = _rec_mw(t.root)
    return ExtReport(is_1ext=ok, alpha=a)


def is_1ext_oracle_report(g: Graph) -> ExtReport:
    """Brute-force test with a starvation witness when negative."""
    a, covered = _unit_cover(g, until_miss=True)
    missing = ((1 << g.n) - 1) & ~covered
    if missing:
        first = (missing & -missing).bit_length() - 1
        return ExtReport(is_1ext=False, alpha=a, witness_failure=first)
    return ExtReport(is_1ext=True, alpha=a)
