"""Structured 1-extendability tests.

A graph is 1-extendable when every vertex belongs to some maximum
independent set. Over a modular decomposition this reduces to: a union
is 1-extendable iff all children are; a join additionally needs all
child independence numbers equal; at a prime node the children must be
1-extendable and the weighted representative graph must be 1-extendable
in the weighted sense. Both tests read `moddecomp._module_alphas`, the
one bottom-up pass of this recurrence, which `chi_1ext` reads too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graphs import Graph
from .independent_sets import _unit_cover
from .moddecomp import MDTree, _check_tree, _module_alphas, is_cograph


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
    alphas, ok = _module_alphas(t.root)
    return ExtReport(is_1ext=ok, alpha=alphas[t.root])


def is_1ext_mw(g: Graph, t: MDTree) -> ExtReport:
    """Modular-decomposition test; brute force only on the (small) prime
    representative graphs. Raises InputError when t is not g's tree."""
    _check_tree(g, t)
    alphas, ok = _module_alphas(t.root)
    return ExtReport(is_1ext=ok, alpha=alphas[t.root])


def is_1ext_oracle_report(g: Graph) -> ExtReport:
    """Brute-force test with a starvation witness when negative."""
    a, covered = _unit_cover(g, until_miss=True)
    missing = ((1 << g.n) - 1) & ~covered
    if missing:
        first = (missing & -missing).bit_length() - 1
        return ExtReport(is_1ext=False, alpha=a, witness_failure=first)
    return ExtReport(is_1ext=True, alpha=a)
