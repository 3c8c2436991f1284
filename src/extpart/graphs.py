"""Immutable simple graphs, composition operations, and named graph families.

Vertices are dense 0-based integers; a graph is its neighbour bitmasks.
Composition operations relabel deterministically (first operand first,
then the second; parts in list order) so callers can assert exact edge
sets rather than isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress, count
from typing import Iterable, Iterator, Sequence

from .errors import InputError

VertexSet = tuple[int, ...]
_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _positions(mask: int) -> Iterator[int]:
    """`_bits` of the mask while it holds at most one vertex per 64 bits;
    a denser one is read at C speed from its binary string."""
    if mask.bit_count() << 6 <= mask.bit_length():
        return _bits(mask)
    return compress(count(), bin(mask)[:1:-1].encode().translate(_BINARY_DIGITS))


def _components(mask: int, nbr: Sequence[int], complement: bool = False) -> list[int]:
    """The connected components of the vertex mask, ordered by minimum
    vertex; with `complement`, those of its complement, by mask arithmetic
    on `nbr`. Each grows from its lowest vertex one step at a time, from
    whichever side holds fewer vertices: the frontier pushes (its
    neighbours join) or the unreached part pulls (a vertex joins if it
    sees the component)."""
    comps, rest = [], mask
    while rest:
        frontier = comp = rest & -rest
        rest ^= comp
        while frontier and rest:
            new = 0
            if frontier.bit_count() <= rest.bit_count():
                for v in _positions(frontier):
                    new |= ~nbr[v] if complement else nbr[v]
                new &= rest
            else:
                for v in _positions(rest):
                    seen = nbr[v] & comp
                    if seen != comp if complement else seen:
                        new |= 1 << v
            comp |= new
            rest ^= new
            frontier = new
        comps.append(comp)
    return comps


def edge_masks(n: int, edges: Iterable[tuple[int, int]]) -> tuple[list[int], int]:
    """The neighbour masks of vertices 0..n-1 joined by `edges`, and the index
    of the first edge that is no pair of distinct ints (not bools) in range(n),
    or -1 if there is none."""
    masks = [0] * n
    for i, edge in enumerate(edges):
        try:
            u, v = edge
        except (TypeError, ValueError):
            return masks, i
        if not (type(u) is type(v) is int and u != v and 0 <= u < n and 0 <= v < n):
            return masks, i
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks, -1


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    The only state is one neighbour bitmask per vertex: bit v of mask u is
    set iff u and v are adjacent. `edges` is derived once and cached;
    `adj`, `m` and `degree` are derived on each read. Instances are
    immutable, so graphs are safe to share across threads.

    A mask is as long as its highest neighbour's label, so the masks of
    a sparse graph whose edges run along the labels (a path) take about
    n^2/16 bytes: some 56 MB at n = 30,000.
    """

    __slots__ = ("n", "_masks", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        edges = list(edges)
        masks, bad = edge_masks(n, edges)
        if bad >= 0:
            u, v = edges[bad]
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        self.n, self._masks, self._edges = n, tuple(masks), None

    @classmethod
    def _from_masks(cls, n: int, masks: tuple[int, ...]) -> "Graph":
        """A graph on n checked masks: symmetric, in range, loop-free."""
        g = cls.__new__(cls)
        g.n, g._masks, g._edges = n, masks, None
        return g

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted (u, v) pairs with u < v (computed once)."""
        if self._edges is None:
            rows = enumerate(self._masks)
            self._edges = tuple((u, v) for u, nb in rows for v in _bits(nb >> u << u))
        return self._edges

    @property
    def adj(self) -> tuple[VertexSet, ...]:
        return tuple(tuple(_bits(mask)) for mask in self._masks)

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self._masks) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return self._masks[u] >> v & 1 == 1

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex open neighborhoods as bitmasks."""
        return self._masks

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class WeightedGraph:
    """A graph with positive integer vertex weights."""

    base: Graph
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.base.n:
            raise InputError(
                f"expected {self.base.n} weights, got {len(self.weights)}"
            )
        for w in self.weights:
            if w < 1:
                raise InputError(f"vertex weights must be >= 1, got {w}")


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError(f"a cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by a vertex subset, plus the old->new index map.

    New labels follow the sorted order of the requested vertices.
    """
    chosen = sorted(set(vertices))
    members = 0
    for v in chosen:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for n={g.n}")
        members |= 1 << v
    index = {old: new for new, old in enumerate(chosen)}
    nbr = g.neighbor_masks()
    masks = tuple(
        sum(1 << index[w] for w in _bits(nbr[old] & members)) for old in chosen
    )
    return Graph._from_masks(len(chosen), masks), index


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; g2's vertices are shifted by g1.n."""
    return substitute(empty_graph(2), [g1, g2])[0]


def complete_sum(g1: Graph, g2: Graph) -> Graph:
    """Complete sum (join): disjoint union plus all cross edges."""
    return substitute(complete_graph(2), [g1, g2])[0]


def substitute(h: Graph, parts: Sequence[Graph]) -> tuple[Graph, list[VertexSet]]:
    """Substitute one graph per vertex of h; returns the result and the
    module boundaries (each part's vertex set is a module of the result)."""
    if len(parts) != h.n:
        raise InputError(f"expected {h.n} parts, got {len(parts)}")
    *offsets, total = accumulate((p.n for p in parts), initial=0)
    blocks = [((1 << p.n) - 1) << off for p, off in zip(parts, offsets)]
    masks: list[int] = []
    for p, off, hmask in zip(parts, offsets, h.neighbor_masks()):
        cross = sum(blocks[j] for j in _bits(hmask))
        masks += [mask << off | cross for mask in p.neighbor_masks()]
    boundaries = [tuple(range(off, off + p.n)) for p, off in zip(parts, offsets)]
    return Graph._from_masks(total, tuple(masks)), boundaries


def complete_multipartite(sizes: Sequence[int]) -> tuple[Graph, list[VertexSet]]:
    """Complete multipartite graph with the given part sizes, plus the
    part boundaries (parts laid out contiguously in list order)."""
    for s in sizes:
        if s < 1:
            raise InputError(f"part sizes must be positive, got {s}")
    return substitute(complete_graph(len(sizes)), [empty_graph(s) for s in sizes])


def gen_multipartite_extremal(k: int) -> Graph:
    """Complete multipartite graph with part sizes 2^0, ..., 2^k
    (2^(k+1) - 1 vertices)."""
    if k < 0:
        raise InputError(f"k must be non-negative, got {k}")
    return complete_multipartite([1 << i for i in range(k + 1)])[0]


def gen_interval_extremal(k: int) -> Graph:
    """Recursive interval cograph family: G_1 = K1 and
    G_{k+1} = K1 + (G_k U G_k); G_k has 2^k - 1 vertices.

    The apex K1 comes first, so vertex 0 of the result is universal.
    """
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    g = complete_graph(1)
    for _ in range(k - 1):
        g = complete_sum(complete_graph(1), disjoint_union(g, g))
    return g


def gen_hardness_gadget(g: Graph, k: int) -> Graph:
    """Complete sum of g with a fresh independent set of k*n(g)+1 vertices,
    so the result has (k+1)*n(g)+1 vertices."""
    if k < 2:
        raise InputError(f"k must be at least 2, got {k}")
    return complete_sum(g, empty_graph(k * g.n + 1))
