"""Partitions into 1-extendable induced subgraphs.

The exact solver runs a dynamic program over the modular decomposition
that maintains, per node and target class count k, the set of feasible
k-tuples: (a_1, ..., a_k) is feasible when the node's module admits a
1-extendable k-partition whose classes have exactly these independence
numbers (an empty class is encoded as 0). Leaves contribute the unit
tuples; union nodes combine children by componentwise sums; join nodes
combine by the zero-tolerant intersection (coordinates must agree unless
one side is 0); prime nodes enumerate child tuple combinations and keep
those whose per-color weighted representative graphs are 1-extendable.
The minimum k with a non-empty root set is the number of channels needed
so that no vertex starves, and witnesses rebuild a concrete partition.

The two fold kernels pack every k-tuple into one int of k fixed-width
fields, coordinate 0 most significant, so packed ints sort like their
tuples. A field is wide enough for the sum of two coordinates, so a sum
is one integer addition. The join groups each operand by its zero
pattern and, per pair of patterns, hashes one side on its projection
onto the common support, so only compatible pairs are ever touched.
Sum and join results store no witnesses: rebuilding a partition
expands one tuple per node and recovers, for that tuple only, the first
pair in sorted order that combines to it. Leaf and prime sets keep their
witnesses.

Alongside the exact search, three constructive procedures realize the
general upper bounds: stratified peeling (at most alpha classes), greedy
MIS stripping (at most 2*sqrt(n) classes), and the halving recursion on
cographs (at most log2(alpha) + 1 classes).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from dataclasses import dataclass

from .errors import InputError, ResourceLimitError
from .graphs import Graph, VertexSet, WeightedGraph, induced_subgraph
from .independent_sets import (
    alpha,
    is_1ext_oracle,
    maximum_independent_set,
    mis_covered_vertices,
    weighted_profile,
)
from .moddecomp import (
    LEAF,
    MDNode,
    MDTree,
    PRIME,
    UNION,
    decompose,
    is_cograph,
)

DEFAULT_PRODUCT_BUDGET = 5_000_000

Tuple = tuple[int, ...]


@dataclass(frozen=True)
class Partition:
    """Total coloring vertex -> {1..k}; classes may be empty."""

    k: int
    color: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 0:
            raise InputError(f"class count must be non-negative, got {self.k}")
        for c in self.color:
            if not (1 <= c <= self.k):
                raise InputError(f"color {c} outside 1..{self.k}")

    def classes(self) -> list[VertexSet]:
        """Vertex sets per color 1..k (possibly empty)."""
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.color):
            out[c - 1].append(v)
        return [tuple(cls) for cls in out]

    def nonempty_count(self) -> int:
        return sum(1 for cls in self.classes() if cls)


class FeasibleTupleSet:
    """Deduplicated, sorted set of feasible k-tuples. `witness` maps each
    tuple, in sorted order, to how it arose; sum and join results map
    every tuple to None, because rebuilding recovers their witnesses on
    demand. `top` bounds every coordinate from above."""

    def __init__(self, k: int, witness: dict[Tuple, object]):
        if type(k) is not int or k < 1:
            raise InputError(f"class count k must be an int of at least 1, got {k!r}")
        for tup in witness:
            if not (
                isinstance(tup, tuple)
                and len(tup) == k
                and all(type(a) is int and a >= 0 for a in tup)
            ):
                raise InputError(
                    f"feasible {k}-tuple must hold {k} non-negative ints, got {tup!r}"
                )
        top = max(map(max, witness), default=0)
        self._fill(k, dict(sorted(witness.items())), top)

    @classmethod
    def _result(
        cls, k: int, witness: dict[Tuple, object], top: int
    ) -> "FeasibleTupleSet":
        """A set the DP computed from checked operands, skipping the check;
        `witness` must list its tuples in sorted order."""
        fts = cls.__new__(cls)
        fts._fill(k, witness, top)
        return fts

    def _fill(self, k: int, witness: dict[Tuple, object], top: int) -> None:
        self.k = k
        self.witness = witness
        self.tuples: tuple[Tuple, ...] = tuple(witness)
        self.top = top
        self._dp: "_TupleDP | None" = None

    def __len__(self) -> int:
        return len(self.tuples)

    def __bool__(self) -> bool:
        return bool(self.tuples)

    def __contains__(self, tup: Tuple) -> bool:
        return tup in self.witness

    def __iter__(self):
        return iter(self.tuples)

    def __repr__(self) -> str:
        return f"FeasibleTupleSet(k={self.k}, size={len(self.tuples)})"


_FIELD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class _Packing:
    """Packs k-tuples into ints of k fields of `nbytes` bytes, coordinate 0
    most significant, so packed ints sort like their tuples. Callers pick
    fields that hold twice the largest coordinate, so adding two packed
    tuples never carries into the next field, and a coordinate leaves
    its field's top bit clear."""

    def __init__(self, k: int, nbytes: int):
        self.k = k
        self.shift = 8 * nbytes - 1
        self.field = (1 << 8 * nbytes) - 1
        self.struct = struct.Struct(f">{k}{_FIELD_CODES[nbytes]}")
        low = int.from_bytes((bytes(nbytes - 1) + b"\1") * k, "big")
        self.high = low << self.shift
        # adding 2**shift - 1 sets a field's top bit iff the field is non-zero
        self.nonzero_carry = low * ((1 << self.shift) - 1)

    def pack(self, tuples) -> list[int]:
        pack = self.struct.pack
        return [int.from_bytes(pack(*t), "big") for t in tuples]

    def by_pattern(self, tuples) -> dict[int, list[int]]:
        """Packed tuples grouped by their top-bit pattern of non-zero fields."""
        groups: dict[int, list[int]] = {}
        pack, carry, high = self.struct.pack, self.nonzero_carry, self.high
        for t in tuples:
            a = int.from_bytes(pack(*t), "big")
            groups.setdefault((a + carry) & high, []).append(a)
        return groups

    def result(self, packed: set[int], top: int) -> FeasibleTupleSet:
        unpack, size = self.struct.unpack, self.struct.size
        tuples = [unpack(a.to_bytes(size, "big")) for a in sorted(packed)]
        return FeasibleTupleSet._result(self.k, dict.fromkeys(tuples), top)


@functools.cache
def _packing(k: int, nbytes: int) -> _Packing:
    return _Packing(k, nbytes)


def _fold_packing(s1: FeasibleTupleSet, s2: FeasibleTupleSet) -> _Packing:
    if s1.k != s2.k:
        raise InputError(f"tuple arity mismatch: {s1.k} vs {s2.k}")
    top = max(s1.top, s2.top)
    for nbytes in _FIELD_CODES:
        if 2 * top < 1 << 8 * nbytes:
            return _packing(s1.k, nbytes)
    raise InputError(f"tuple coordinate {top} is too large to pack in 64 bits")


def tuple_sum(s1: FeasibleTupleSet, s2: FeasibleTupleSet) -> FeasibleTupleSet:
    """Pairwise componentwise sums (the disjoint-union combination)."""
    packing = _fold_packing(s1, s2)
    # addition commutes, so the Python loop runs over the smaller operand
    small, large = (s1, s2) if len(s1) <= len(s2) else (s2, s1)
    large_packed = packing.pack(large.tuples)
    out: set[int] = set()
    for a in packing.pack(small.tuples):
        out.update(map(a.__add__, large_packed))
    return packing.result(out, s1.top + s2.top)


def tuple_join(s1: FeasibleTupleSet, s2: FeasibleTupleSet) -> FeasibleTupleSet:
    """Zero-tolerant intersection (the complete-sum combination): each
    coordinate must agree, except that a 0 on either side defers to the
    other side's value.

    Both operands are packed and grouped by zero pattern. Two packed
    tuples a and b are compatible iff they agree on the fields where
    both are non-zero, and their join is then a | b. For each pair of
    patterns, the right group is hashed on its projection onto the
    common support and probed with the left group, so the cost follows
    the compatible pairs, not all pairs.
    """
    packing = _fold_packing(s1, s2)
    shift, field = packing.shift, packing.field
    left = packing.by_pattern(s1.tuples)
    out: set[int] = set()
    for p2, group2 in packing.by_pattern(s2.tuples).items():
        # with disjoint supports every pair is compatible: one bucket
        index_by_overlap: dict[int, dict[int, list[int]]] = {0: {0: group2}}
        for p1, group1 in left.items():
            # all bits of the fields that are non-zero on both sides
            overlap = ((p1 & p2) >> shift) * field
            index = index_by_overlap.get(overlap)
            if index is None:
                index = index_by_overlap[overlap] = {}
                for b in group2:
                    index.setdefault(b & overlap, []).append(b)
            for a in group1:
                bucket = index.get(a & overlap)
                if bucket is not None:
                    out.update(map(a.__or__, bucket))
    return packing.result(out, max(s1.top, s2.top))


def _sum_witness(
    left: FeasibleTupleSet, right: FeasibleTupleSet, tup: Tuple
) -> tuple[Tuple, Tuple]:
    """The first pair (t1, t2) in sorted order with t1 + t2 == tup."""
    for t1 in left.tuples:
        t2 = tuple(map(operator.sub, tup, t1))
        if t2 in right:
            return t1, t2
    raise AssertionError(f"no sum witness for {tup}")


def _join_witness(
    left: FeasibleTupleSet, right: FeasibleTupleSet, tup: Tuple
) -> tuple[Tuple, Tuple]:
    """The first pair (t1, t2) in sorted order whose join is tup: t1
    agrees with tup on its support, and t2 equals tup off t1's support
    and is 0 or tup's value on it (options listed in ascending order, so
    the product runs through candidates for t2 in sorted order)."""
    for t1 in left.tuples:
        if all(a == 0 or a == b for a, b in zip(t1, tup)):
            options = [(0, b) if a else (b,) for a, b in zip(t1, tup)]
            for t2 in itertools.product(*options):
                if t2 in right:
                    return t1, t2
    raise AssertionError(f"no join witness for {tup}")


class _TupleDP:
    """Feasible-tuple dynamic program over a modular decomposition tree,
    retaining per-node sets and fold intermediates so a witness tuple can
    be expanded back into a concrete partition."""

    def __init__(self, tree: MDTree, k: int, product_budget: int):
        self.tree = tree
        self.k = k
        self.budget = product_budget
        self.final: dict[MDNode, FeasibleTupleSet] = {}
        self.chain: dict[MDNode, list[FeasibleTupleSet]] = {}
        self.leaf = self._leaf_set()  # shared by every leaf of the tree

    def run(self) -> FeasibleTupleSet:
        fts = self._set_for(self.tree.root)
        fts._dp = self
        return fts

    def _set_for(self, node: MDNode) -> FeasibleTupleSet:
        got = self.final.get(node)
        if got is not None:
            return got
        if node.kind == LEAF:
            fts = self.leaf
        elif node.kind == PRIME:
            fts = self._prime_set(node)
        else:
            fts = self._fold_set(node)
        self.final[node] = fts
        return fts

    def _leaf_set(self) -> FeasibleTupleSet:
        k = self.k
        out: dict[Tuple, object] = {}
        for i in range(k, 0, -1):  # unit tuples in sorted order
            e = tuple(1 if j == i - 1 else 0 for j in range(k))
            out[e] = ("leaf", i)
        return FeasibleTupleSet._result(k, out, 1)

    def _fold_set(self, node: MDNode) -> FeasibleTupleSet:
        op = tuple_sum if node.kind == UNION else tuple_join
        sets = [self._set_for(c) for c in node.children]
        partial = [sets[0]]
        for s in sets[1:]:
            partial.append(op(partial[-1], s))
        self.chain[node] = partial
        return partial[-1]

    def _prime_set(self, node: MDNode) -> FeasibleTupleSet:
        assert node.rep is not None
        k = self.k
        rep = node.rep
        child_sets = [self._set_for(c) for c in node.children]
        total = math.prod(len(s) for s in child_sets)
        if total > self.budget:
            raise ResourceLimitError(
                f"prime-node tuple product {total} exceeds budget {self.budget}"
            )
        m = len(child_sets)
        # per-color feasibility depends only on which children contribute
        # which weight, so memoize on that key across combinations
        color_memo: dict[tuple[tuple[int, int], ...], tuple[int, bool]] = {}
        out: dict[Tuple, object] = {}
        for combo in itertools.product(*(s.tuples for s in child_sets)):
            result = []
            ok = True
            for i in range(k):
                key = tuple((j, combo[j][i]) for j in range(m) if combo[j][i] > 0)
                cached = color_memo.get(key)
                if cached is None:
                    if not key:
                        cached = (0, True)
                    else:
                        idxs = [j for j, _ in key]
                        sub, _ = induced_subgraph(rep, idxs)
                        hw = WeightedGraph(sub, tuple(w for _, w in key))
                        weight, covered = weighted_profile(hw)
                        cached = (weight, len(covered) == sub.n)
                    color_memo[key] = cached
                a_i, good = cached
                if not good:
                    ok = False
                    break
                result.append(a_i)
            if ok:
                t = tuple(result)
                if t not in out:
                    out[t] = ("prime", combo)
        top = max(map(max, out), default=0)
        return FeasibleTupleSet._result(k, dict(sorted(out.items())), top)

    def rebuild(self, tup: Tuple) -> Partition:
        colors = [0] * self.tree.graph.n
        self._assign(self.tree.root, tup, colors)
        return Partition(self.k, tuple(colors))

    def _assign(self, node: MDNode, tup: Tuple, colors: list[int]) -> None:
        if node.kind == LEAF:
            assert node.vertex is not None
            colors[node.vertex] = self.final[node].witness[tup][1]
            return
        if node.kind == PRIME:
            _, combo = self.final[node].witness[tup]
            for child, child_tup in zip(node.children, combo):
                self._assign(child, child_tup, colors)
            return
        recover = _sum_witness if node.kind == UNION else _join_witness
        partial = self.chain[node]
        cur = tup
        for i in range(len(node.children) - 1, 0, -1):
            left, right = recover(partial[i - 1], self.final[node.children[i]], cur)
            self._assign(node.children[i], right, colors)
            cur = left
        self._assign(node.children[0], cur, colors)


def feasible_tuples_mw(
    g: Graph,
    t: MDTree,
    k: int,
    *,
    product_budget: int = DEFAULT_PRODUCT_BUDGET,
) -> FeasibleTupleSet:
    """Feasible k-tuples of g via its modular decomposition; non-empty iff
    g splits into k induced 1-extendable subgraphs."""
    if k < 1:
        raise InputError(f"class count k must be at least 1, got {k}")
    if t.graph is not g and t.graph != g:
        raise InputError("decomposition tree does not belong to this graph")
    return _TupleDP(t, k, product_budget).run()


def feasible_tuples_cograph(
    t: MDTree, k: int, *, symmetry_reduced: bool = False
) -> FeasibleTupleSet:
    """Cograph specialization of the feasible-tuple program.

    With symmetry_reduced=True, tuples are canonicalized to nondecreasing
    order at every combination step (expanding one operand's permutations
    to stay exact), which bounds blowup for the decision question; the
    reduced sets carry no witnesses, so they cannot rebuild partitions.
    """
    if k < 1:
        raise InputError(f"class count k must be at least 1, got {k}")
    if not is_cograph(t):
        raise InputError(
            "tree contains a prime node; use feasible_tuples_mw instead"
        )
    if not symmetry_reduced:
        return _TupleDP(t, k, DEFAULT_PRODUCT_BUDGET).run()
    canon = _canon_set(t.root, k)
    return FeasibleTupleSet(k, {tup: None for tup in canon})


def _canon_set(node: MDNode, k: int) -> set[Tuple]:
    if node.kind == LEAF:
        return {tuple([0] * (k - 1) + [1])}
    op = tuple_sum if node.kind == UNION else tuple_join
    sets = [_canon_set(c, k) for c in node.children]
    cur = sets[0]
    for nxt in sets[1:]:
        spread = {p for base in nxt for p in itertools.permutations(base)}
        combined = op(
            FeasibleTupleSet(k, dict.fromkeys(cur)),
            FeasibleTupleSet(k, dict.fromkeys(spread)),
        )
        cur = {tuple(sorted(t)) for t in combined}
    return cur


def _ceil_2sqrt(n: int) -> int:
    root = math.isqrt(4 * n)
    return root if root * root == 4 * n else root + 1


def chi_1ext(
    g: Graph,
    *,
    max_k: int | None = None,
    product_budget: int = DEFAULT_PRODUCT_BUDGET,
) -> tuple[int, Partition] | None:
    """Minimum k admitting a 1-extendable k-partition, with a certificate.

    Searches k = 1, 2, ... up to min(alpha, ceil(2*sqrt(n)), and the log
    bound on cographs), all proven upper bounds, so the search always
    succeeds; returns None only when a user-supplied max_k cuts it off.
    """
    if g.n == 0:
        return 0, Partition(0, ())
    tree = decompose(g)
    a = alpha(g)
    bound = min(a, _ceil_2sqrt(g.n))
    if is_cograph(tree):
        bound = min(bound, a.bit_length())
    capped = max_k is not None and max_k < bound
    if capped:
        bound = max_k
    for k in range(1, bound + 1):
        fts = feasible_tuples_mw(g, tree, k, product_budget=product_budget)
        if fts:
            assert fts._dp is not None
            return k, fts._dp.rebuild(fts.tuples[0])
    if capped:
        return None
    raise AssertionError("no feasible partition within proven upper bounds")


def verify_partition(g: Graph, p: Partition) -> bool:
    """Certificate check: every non-empty class must induce a 1-extendable
    subgraph (brute-force oracle)."""
    if len(p.color) != g.n:
        raise InputError(
            f"partition covers {len(p.color)} vertices, graph has {g.n}"
        )
    for cls in p.classes():
        if not cls:
            continue
        sub, _ = induced_subgraph(g, cls)
        if not is_1ext_oracle(sub):
            return False
    return True


def peel_partition(g: Graph) -> Partition:
    """Repeatedly strip the set of vertices lying in some MIS of the
    residual graph; each stratum is 1-extendable by construction and the
    independence number drops every round, so at most alpha(g) classes."""
    colors = [0] * g.n
    remaining = list(range(g.n))
    c = 0
    while remaining:
        sub, _ = induced_subgraph(g, remaining)
        covered = mis_covered_vertices(sub)
        c += 1
        for v in covered:
            colors[remaining[v]] = c
        remaining = [v for v in remaining if colors[v] == 0]
    return Partition(c, tuple(colors))


def greedy_sqrt_partition(g: Graph) -> Partition:
    """Greedy MIS stripping: strata of size at least sqrt(n) become
    individual classes (at most sqrt(n) of them); the residual then has
    independence number below sqrt(n) and is peeled, for at most
    ceil(2*sqrt(n)) classes in total. A graph that is already
    1-extendable short-circuits to a single class."""
    n = g.n
    if n == 0:
        return Partition(0, ())
    if is_1ext_oracle(g):
        return Partition(1, (1,) * n)
    colors = [0] * n
    remaining = list(range(n))
    c = 0
    while remaining:
        sub, _ = induced_subgraph(g, remaining)
        a = alpha(sub)
        if a * a < n:
            break
        c += 1
        for v in maximum_independent_set(sub):
            colors[remaining[v]] = c
        remaining = [v for v in remaining if colors[v] == 0]
    if remaining:
        sub, _ = induced_subgraph(g, remaining)
        tail = peel_partition(sub)
        for new, old in enumerate(remaining):
            colors[old] = c + tail.color[new]
        c += tail.k
    return Partition(c, tuple(colors))


def split_integers(alpha1: int, alpha2: int, k: int) -> tuple[int, int]:
    """Split k into k1 + k2 with k1 <= alpha1, k2 <= alpha2 and
    max(k1-1, alpha1-k1) + max(k2-1, alpha2-k2) <= max(k-1, alpha1+alpha2-k).

    Three cases: k at or above the upper pivot (both k_i in the top half),
    k at or below the lower pivot (both in the bottom half), and the
    critical middle case, which occurs only when both alphas are even.
    Within the designated interval the smallest valid k1 is chosen.
    """
    if alpha1 < 0 or alpha2 < 0:
        raise InputError("independence numbers must be non-negative")
    if not (0 <= k <= alpha1 + alpha2):
        raise InputError(f"k={k} outside 0..{alpha1 + alpha2}")
    if alpha1 == 0:
        return 0, k
    if alpha2 == 0:
        return k, 0
    hi1, hi2 = (alpha1 + 2) // 2, (alpha2 + 2) // 2
    lo1, lo2 = (alpha1 + 1) // 2, (alpha2 + 1) // 2
    if k >= hi1 + hi2:
        k1 = max(hi1, k - alpha2)
        return k1, k - k1
    if k <= lo1 + lo2:
        k1 = max(0, k - lo2)
        return k1, k - k1
    # both alphas even and k = alpha1/2 + alpha2/2 + 1
    return alpha1 // 2 + 1, alpha2 // 2


def _cograph_alphas(node: MDNode, out: dict[MDNode, int]) -> int:
    if node.kind == LEAF:
        a = 1
    elif node.kind == UNION:
        a = sum(_cograph_alphas(c, out) for c in node.children)
    else:
        a = max(_cograph_alphas(c, out) for c in node.children)
    out[node] = a
    return a


def _extract(
    node: MDNode, k: int, alphas: dict[MDNode, int]
) -> tuple[list[int], list[int]]:
    """Partition the node's module into (V1, V2) with V1 inducing a
    1-extendable subgraph of independence number exactly k and
    alpha(V2) <= max(k-1, alpha - k)."""
    if node.kind == LEAF:
        assert node.vertex is not None
        return ([node.vertex], []) if k == 1 else ([], [node.vertex])
    if node.kind == UNION:
        return _extract_union(list(node.children), k, alphas)
    return _extract_join(list(node.children), k, alphas)


def _extract_union(
    children: list[MDNode], k: int, alphas: dict[MDNode, int]
) -> tuple[list[int], list[int]]:
    if len(children) == 1:
        return _extract(children[0], k, alphas)
    first, rest = children[0], children[1:]
    a1 = alphas[first]
    a2 = sum(alphas[c] for c in rest)
    k1, k2 = split_integers(a1, a2, k)
    v1a, v2a = _extract(first, k1, alphas)
    v1b, v2b = _extract_union(rest, k2, alphas)
    return v1a + v1b, v2a + v2b


def _extract_join(
    children: list[MDNode], k: int, alphas: dict[MDNode, int]
) -> tuple[list[int], list[int]]:
    if len(children) == 1:
        return _extract(children[0], k, alphas)
    first, rest = children[0], children[1:]
    a_first = alphas[first]
    a_rest = max(alphas[c] for c in rest)
    # the larger-alpha side leads; ties keep the first child in tree order
    if a_first >= a_rest:
        a_small = a_rest

        def big(kk: int) -> tuple[list[int], list[int]]:
            return _extract(first, kk, alphas)

        def small(kk: int) -> tuple[list[int], list[int]]:
            return _extract_join(rest, kk, alphas)

        small_vertices = [v for c in rest for v in c.module]
    else:
        a_small = a_first

        def big(kk: int) -> tuple[list[int], list[int]]:
            return _extract_join(rest, kk, alphas)

        def small(kk: int) -> tuple[list[int], list[int]]:
            return _extract(first, kk, alphas)

        small_vertices = list(first.module)
    if k <= a_small:
        v1a, v2a = big(k)
        v1b, v2b = small(k)
        return v1a + v1b, v2a + v2b
    v1a, v2a = big(k)
    return v1a, v2a + small_vertices


def log_partition_cograph(t: MDTree) -> Partition:
    """Halving recursion on a cograph: extract a 1-extendable subgraph of
    independence number ceil(alpha/2), recurse on the rest; uses at most
    floor(log2(alpha)) + 1 classes."""
    if not is_cograph(t):
        raise InputError("log partition requires a cograph decomposition")
    g = t.graph
    colors = [0] * g.n
    to_orig = list(range(g.n))
    cur_g, cur_tree = g, t
    c = 0
    while cur_g.n > 0:
        alphas: dict[MDNode, int] = {}
        a = _cograph_alphas(cur_tree.root, alphas)
        c += 1
        if a <= 1:
            for v in range(cur_g.n):
                colors[to_orig[v]] = c
            break
        k = (a + 1) // 2
        v1, v2 = _extract(cur_tree.root, k, alphas)
        for v in v1:
            colors[to_orig[v]] = c
        if not v2:
            break
        v2_sorted = sorted(v2)
        cur_g, _ = induced_subgraph(cur_g, v2_sorted)
        to_orig = [to_orig[v] for v in v2_sorted]
        cur_tree = decompose(cur_g)
    return Partition(c, tuple(colors))
