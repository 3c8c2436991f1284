"""Modular decomposition: strong-module tree, modular width, cograph
detection, and weighted representative graphs.

Each vertex set splits by the classical rule: on connected components
(union node), else on co-connected components (join node); when the
graph is connected and co-connected the quotient on its maximal strong
modules is prime. Those modules come from one partition refinement
(Habib, Paul & Viennot, 1999): splitters refine the set without its
lowest vertex v into the maximal modules that avoid v, and one splitter
closure per part tells whether the part joins v's module. Components
grow from the smaller side (`graphs._components`), and a node's module
is merged from its children's.

Every walk over a tree keeps its pending nodes on an explicit stack,
the bottom-up ones (building the tree included) through `post_order`,
so a tree as deep as the graph is large (a threshold cograph) never
meets the interpreter's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import InputError
from .graphs import (
    Graph,
    VertexSet,
    WeightedGraph,
    _bits,
    _components,
    complete_graph,
    induced_subgraph,
)
from .independent_sets import _cover

LEAF = "leaf"
UNION = "union"
JOIN = "join"
PRIME = "prime"

T = TypeVar("T")


def post_order(root: T, children: Callable[[T], Sequence[T]]) -> Iterator[T]:
    """Every item below root, root included, each after all of its
    children, siblings in the order `children` gives them. `children` is
    called once per item, before any item is yielded."""
    # a pre-order that takes the last child first, reversed
    order = []
    stack = [root]
    while stack:
        item = stack.pop()
        order.append(item)
        stack.extend(children(item))
    return reversed(order)


@dataclass(frozen=True, eq=False)
class MDNode:
    """One node of a modular decomposition tree.

    kind is "leaf", "union", "join" or "prime"; module lists the graph
    vertices below the node; prime nodes carry the representative graph,
    whose vertex i corresponds to children[i].
    """

    kind: str
    module: VertexSet
    children: tuple["MDNode", ...] = ()
    vertex: int | None = None
    rep: Graph | None = None

    @property
    def is_leaf(self) -> bool:
        return self.kind == LEAF

    def bottom_up(self) -> Iterator["MDNode"]:
        """This node and every node below it, each after its children."""
        return post_order(self, attrgetter("children"))


@dataclass(frozen=True, eq=False)
class MDTree:
    """Modular decomposition tree of a graph."""

    graph: Graph
    root: MDNode

    def nodes(self) -> Iterator[MDNode]:
        return self.root.bottom_up()


def _smallest_module(nbr: tuple[int, ...], mask: int, seed: int) -> int:
    """Close a seed set under splitters: repeatedly absorb any outside
    vertex adjacent to some but not all of the current set."""
    mod = seed
    grew = True
    while grew and mod != mask:
        grew = False
        for w in _bits(mask & ~mod):
            x = nbr[w] & mod
            if x and x != mod:
                mod |= 1 << w
                grew = True
    return mod


def _maximal_strong_modules(nbr: tuple[int, ...], mask: int) -> list[int]:
    """Partition of a connected, co-connected graph into its maximal
    strong modules, ordered by minimum vertex.

    With v the lowest vertex, refining `mask - v` by splitters yields the
    maximal modules that avoid v. The quotient is prime, so no union of
    two or more maximal strong modules is a proper module: every maximal
    strong module but v's is one of these parts, and a part lies in v's
    iff the smallest module holding it and v is proper."""
    v = (mask & -mask).bit_length() - 1
    parts, pending = [], [mask & ~(1 << v)]
    while pending:
        part = pending.pop()
        # final once no outside vertex sees some but not all of it
        for w in _bits(mask & ~part if part & (part - 1) else 0):
            seen = nbr[w] & part
            if seen and seen != part:
                pending += [seen, part & ~seen]
                break
        else:
            parts.append(part)
    own, rest = 1 << v, []
    for part in parts:
        mod = _smallest_module(nbr, mask, own | part)
        if mod != mask:
            own = mod
        else:
            rest.append(part)
    return sorted([own, *rest], key=lambda c: c & -c)


def _split(
    g: Graph, nbr: tuple[int, ...], mask: int
) -> tuple[int, str, list[int], Graph | None]:
    """(mask, kind, child masks ordered by minimum vertex, representative
    graph of a prime node) of the module `mask`."""
    if mask & (mask - 1) == 0:
        return mask, LEAF, [], None

    comps = _components(mask, nbr)
    if len(comps) > 1:
        return mask, UNION, comps, None

    cocomps = _components(mask, nbr, complement=True)
    if len(cocomps) > 1:
        return mask, JOIN, cocomps, None

    classes = _maximal_strong_modules(nbr, mask)
    if len(classes) == g.n:  # all single vertices: the quotient is g itself
        return mask, PRIME, classes, g
    # ascending, so representative vertex i stands for classes[i]
    reps = [(c & -c).bit_length() - 1 for c in classes]
    return mask, PRIME, classes, induced_subgraph(g, reps)[0]


def _merged_module(children: Sequence[MDNode]) -> VertexSet:
    """The sorted module of a node, merged from its children's."""
    return tuple(sorted(chain.from_iterable(c.module for c in children)))


def decompose(g: Graph) -> MDTree:
    """Modular decomposition of a non-empty graph, children ordered by
    minimum contained vertex."""
    if g.n == 0:
        raise InputError("cannot decompose the empty graph")
    nbr = g.neighbor_masks()
    full = (1 << g.n) - 1
    built: dict[int, MDNode] = {}
    for mask, kind, parts, rep in post_order(
        _split(g, nbr, full), lambda split: [_split(g, nbr, c) for c in split[2]]
    ):
        children = tuple(map(built.pop, parts))
        vs = _merged_module(children) if children else (mask.bit_length() - 1,)
        built[mask] = MDNode(kind, vs, children, vs[0] if kind == LEAF else None, rep)
    return MDTree(graph=g, root=built[full])


def _check_tree(g: Graph, t: MDTree) -> None:
    if t.graph is not g and t.graph != g:
        raise InputError("decomposition tree does not belong to this graph")


def modular_width(t: MDTree) -> int:
    """Maximum order of a prime representative; 2 for non-trivial trees
    without prime nodes (cographs), 1 for a single vertex."""
    width = 1 if t.root.is_leaf else 2
    for node in t.nodes():
        if node.kind == PRIME:
            width = max(width, len(node.children))
    return width


def is_cograph(t: MDTree) -> bool:
    """True iff the decomposition has no prime node."""
    return all(node.kind != PRIME for node in t.nodes())


def verify_module(g: Graph, vertices: VertexSet) -> bool:
    """Check the module definition directly: every outside vertex sees all
    of the set or none of it."""
    mask = 0
    for v in vertices:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    nbr = g.neighbor_masks()
    return all(nbr[w] & mask in (0, mask) for w in _bits((1 << g.n) - 1 & ~mask))


def _module_alphas(root: MDNode) -> tuple[dict[MDNode, int], bool]:
    """Alpha of every module below root, root included, and whether root's
    module is 1-extendable. A union sums its children's alphas and a join
    takes their maximum, needing them equal; a prime node weighs its
    representative by them, needing each child in a maximum-weight set."""
    alphas: dict[MDNode, int] = {}
    ok = True
    for node in root.bottom_up():
        w = [alphas[c] for c in node.children]
        if node.kind == LEAF:
            a = 1
        elif node.kind == UNION:
            a = sum(w)
        elif node.kind == JOIN:
            a = max(w)
            ok = ok and min(w) == a
        else:
            assert node.rep is not None
            full = (1 << len(w)) - 1
            a, covered = _cover(full, node.rep.neighbor_masks(), w, until_miss=True)
            ok = ok and covered == full
        alphas[node] = a
    return alphas, ok


def _restrict(root: MDNode, keep: int) -> MDNode | None:
    """The cotree below root restricted to the vertex mask `keep`, or
    None when no vertex is kept: a node left with one child is that
    child, a child of its parent's kind merges into it, children stay
    ordered by least vertex, and a node that lost nothing is reused."""
    built: dict[MDNode, MDNode | None] = {}
    for node in root.bottom_up():
        children: list[MDNode] = []
        for child in map(built.pop, node.children):
            if child is not None:
                children.extend(child.children if child.kind == node.kind else (child,))
        if tuple(children) == node.children:  # a leaf, or a node that lost nothing
            built[node] = node if children or keep >> node.vertex & 1 else None
        elif len(children) < 2:
            built[node] = children[0] if children else None
        else:
            children.sort(key=lambda c: c.module[0])
            built[node] = MDNode(node.kind, _merged_module(children), tuple(children))
    return built[root]


def module_alpha(g: Graph, node: MDNode) -> int:
    """Independence number of the subgraph induced by the node's module,
    bottom-up over the tree (weighted representative at prime nodes)."""
    return _module_alphas(node)[0][node]


def weighted_representative(g: Graph, node: MDNode) -> WeightedGraph:
    """Representative graph of an internal node with each child weighted
    by the independence number of its module."""
    if node.is_leaf:
        raise InputError("a leaf has no representative graph")
    m = len(node.children)
    if node.kind == UNION:
        base = Graph(m)
    elif node.kind == JOIN:
        base = complete_graph(m)
    else:
        assert node.rep is not None
        base = node.rep
    alphas = _module_alphas(node)[0]
    return WeightedGraph(base, tuple(alphas[c] for c in node.children))


def reconstruct(t: MDTree) -> Graph:
    """Rebuild the graph by substitution at every node of the tree;
    equals the decomposed graph exactly (used as a validation oracle)."""
    masks = [0] * t.graph.n
    for node in t.nodes():
        if node.kind in (JOIN, PRIME):
            rep = node.rep or complete_graph(len(node.children))
            mods = [sum(1 << v for v in c.module) for c in node.children]
            for child, hmask in zip(node.children, rep.neighbor_masks()):
                cross = sum(mods[j] for j in _bits(hmask))
                for v in child.module:
                    masks[v] |= cross
    return Graph._from_masks(t.graph.n, tuple(masks))
