"""Partitions into 1-extendable induced subgraphs.

The exact solver runs a dynamic program over the modular decomposition
that maintains, per node and target class count k, the set of feasible
k-tuples: (a_1, ..., a_k) is feasible when the node's module admits a
1-extendable k-partition whose classes have exactly these independence
numbers (an empty class is encoded as 0). Leaves contribute the unit
tuples; union nodes combine children by componentwise sums; join nodes
combine by the zero-tolerant intersection (coordinates must agree unless
one side is 0); a prime node searches the combinations of one tuple per
child depth first, in product order, and keeps the tuples of those whose
per-color weighted representative graphs are 1-extendable.
The minimum k with a non-empty root set is the number of channels needed
so that no vertex starves, and witnesses rebuild a concrete partition.
That needs one tuple of the root, the least, so `chi_1ext` builds the
least tuple alone on the lean path: the root, and every node reached
from it through unions alone. Lexicographic order is translation
invariant, so a union's least tuple is the sum of its children's least
tuples. A join is at least each of its operands, so its last fold walks
one operand in sorted order and stops once no later tuple can do
better. A prime node runs the same search for the least tuple alone,
pruning every branch whose per-color weighted alphas so far are already
lexicographically at least the best tuple found. Rebuilding the least
tuple reads no other tuple of a lean node, so the certificate is the
one the full sets give.
The one program serves cographs and general graphs alike. It fills the
node sets bottom-up and rebuilds top-down from a work list, so neither
walk is bounded by the interpreter's recursion limit.

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
MIS stripping (at most 2*sqrt(n) classes), and repeated halving on
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
from .graphs import Graph, VertexSet, _bits, induced_subgraph
from .independent_sets import (
    _cover,
    _heaviest,
    _split_cover,
    alpha,
    is_1ext_oracle,
    maximum_independent_set,
)
from .moddecomp import (
    LEAF,
    MDNode,
    MDTree,
    PRIME,
    UNION,
    _check_tree,
    _module_alphas,
    decompose,
    is_cograph,
    module_alpha,
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


def _least_join(s1: FeasibleTupleSet, s2: FeasibleTupleSet) -> FeasibleTupleSet:
    """The least tuple of `tuple_join(s1, s2)` alone, or no tuple when
    the join is empty. Walks the larger operand's tuples in sorted order
    and probes the smaller one's zero-pattern groups, each hashed on the
    common support as in `tuple_join`, for the least compatible partner.
    A join is at least each of its operands, so the walk stops at the
    first tuple that is at least the best join found.

    Within one bucket every b agrees with a on a's support, so a | b
    grows with b: a bucket keeps its least member alone."""
    packing = _fold_packing(s1, s2)
    shift, field = packing.shift, packing.field
    carry, high, pack = packing.nonzero_carry, packing.high, packing.struct.pack
    small, large = (s1, s2) if len(s1) <= len(s2) else (s2, s1)
    # per pattern of the smaller operand: its group, and its index per
    # overlap, built on first use
    indexed = [
        (p2, group2, {0: {0: group2[0]}})
        for p2, group2 in packing.by_pattern(small.tuples).items()
    ]
    best = None
    for t in large.tuples:
        a = int.from_bytes(pack(*t), "big")
        if best is not None and a >= best:
            break
        p1 = (a + carry) & high
        for p2, group2, index_by_overlap in indexed:
            overlap = ((p1 & p2) >> shift) * field
            index = index_by_overlap.get(overlap)
            if index is None:
                index = index_by_overlap[overlap] = {}
                for b in group2:
                    index.setdefault(b & overlap, b)
            b = index.get(a & overlap)
            if b is not None and (best is None or a | b < best):
                best = a | b
    return packing.result(set() if best is None else {best}, max(s1.top, s2.top))


def _least(s: FeasibleTupleSet) -> FeasibleTupleSet:
    """The least tuple of a non-empty set alone, with its witness."""
    tup = s.tuples[0]
    return FeasibleTupleSet._result(s.k, {tup: s.witness[tup]}, max(tup))


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


def _support(weights: Tuple) -> int:
    return sum(1 << j for j, a in enumerate(weights) if a)


class _PrimeColors:
    """Per-color questions at one prime node. A color's answers depend
    only on the weight each child contributes to it (0: none), so they
    are memoized on that weight vector across combinations."""

    def __init__(self, node: MDNode):
        assert node.rep is not None
        self.nbr = node.rep.neighbor_masks()
        self.checked: dict[Tuple, tuple[int, bool]] = {}
        self.compared: dict[tuple[Tuple, int], int] = {}

    def check(self, weights: Tuple) -> tuple[int, bool]:
        """A color's weighted alpha over the children it weighs, and whether
        its weighted representative graph on them is 1-extendable; memoized
        in `checked`."""
        sub = _support(weights)
        weight, covered = _cover(sub, self.nbr, weights, until_miss=True)
        self.checked[weights] = out = (weight, covered == sub)
        return out

    def bound_below(self, prefix, best: Tuple) -> bool:
        """Whether the colors' weighted alphas over a prefix of the
        children, which bound the tuple of every completion from below,
        are lexicographically below `best`. Color i is weighed only when
        colors 0..i-1 tie with `best`, and only as far as telling its
        alpha below, at or above best[i]."""
        compared, nbr = self.compared, self.nbr
        for weights, b in zip(zip(*prefix), best):
            # a child adding no weight leaves alpha as it was, so its
            # prefix shares the entry of the shorter one
            end = len(weights)
            while end and not weights[end - 1]:
                end -= 1
            key = (weights[:end], b)
            a = compared.get(key)
            if a is None:
                # below b it reads b - 1, above b at least b + 1
                a = _heaviest(_support(weights), nbr, weights, b - 1, b + 1)[0]
                compared[key] = a
            if a != b:
                return a < b
        return False


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

    def run(self, least: bool = False) -> FeasibleTupleSet:
        """The root's feasible set. With `least`, only what `chi_1ext`
        reads: the lean nodes (the root, and every node reached from it
        through unions alone) build their least tuple alone, and the pass
        stops at the first empty node set, which empties the root's too."""
        root = self.tree.root
        lean = set()
        work = [root] if least else []
        while work:
            node = work.pop()
            lean.add(node)
            if node.kind == UNION:
                work.extend(node.children)
        lean_leaf = _least(self.leaf)
        for node in root.bottom_up():
            if node.kind == LEAF:
                s = lean_leaf if node in lean else self.leaf
            elif node.kind == PRIME:
                s = self._prime_set(node, node in lean)
            else:
                s = self._fold_set(node, node in lean)
            self.final[node] = s
            if least and not s:
                return s
        return self.final[root]

    def _leaf_set(self) -> FeasibleTupleSet:
        k = self.k
        out: dict[Tuple, object] = {}
        for i in range(k, 0, -1):  # unit tuples in sorted order
            e = tuple(1 if j == i - 1 else 0 for j in range(k))
            out[e] = ("leaf", i)
        return FeasibleTupleSet._result(k, out, 1)

    def _fold_set(self, node: MDNode, lean: bool) -> FeasibleTupleSet:
        """The fold of the children's sets, left to right, keeping each
        partial result for `rebuild`; a lean join's last fold keeps its
        least tuple alone, which `rebuild` never reads as a left operand."""
        op = tuple_sum if node.kind == UNION else tuple_join
        last = _least_join if lean and node.kind != UNION else op
        *sets, last_set = [self.final[c] for c in node.children]
        partial = [sets[0]]
        for s in sets[1:]:
            partial.append(op(partial[-1], s))
        partial.append(last(partial[-1], last_set))
        self.chain[node] = partial
        return partial[-1]

    def _prime_set(self, node: MDNode, least: bool) -> FeasibleTupleSet:
        """Every tuple some combination of one tuple per child yields, with
        the first such combination in product order as its witness; with
        `least`, only the least tuple. Searches depth first in product
        order, the last child's tuples in a plain loop. The full set refuses
        a product over the budget up front. The least search prunes each
        branch whose colors' weighted alphas so far, which only grow as
        weight is added, are lexicographically at least the best tuple
        found; each combination reached and each branch pruned counts
        against the budget."""
        *outer, inner = sets = [self.final[c].tuples for c in node.children]
        budget = self.budget
        if not least:
            total = math.prod(map(len, sets))
            if total > budget:
                raise ResourceLimitError(
                    f"prime-node tuple product {total} exceeds budget {budget}"
                )
        colors = _PrimeColors(node)
        checked = colors.checked
        found: dict[Tuple, object] = {}
        best: Tuple | None = None  # set by the least search only
        spent = 0
        combo: list[Tuple] = [()] * len(sets)
        # stack[d] runs through child d's tuples; combo[d] is its current one
        stack = [iter(outer[0])]
        while stack:
            tup = next(stack[-1], None)
            if tup is None:
                stack.pop()
                continue
            depth = len(stack) - 1
            combo[depth] = tup
            if best is not None and not colors.bound_below(combo[: depth + 1], best):
                spent += 1
            elif depth + 1 < len(outer):
                stack.append(iter(outer[depth + 1]))
                continue
            else:
                spent += len(inner)
                for last in inner:
                    combo[-1] = last
                    if best is not None and not colors.bound_below(combo, best):
                        continue
                    # inline, not a method call: this runs once per combination
                    alphas = []
                    for weights in zip(*combo):
                        a_i, good = checked.get(weights) or colors.check(weights)
                        if not good:
                            break
                        alphas.append(a_i)
                    else:
                        t = tuple(alphas)
                        if t not in found and (best is None or t < best):
                            if least:
                                best, found = t, {}
                            found[t] = ("prime", tuple(combo))
            if spent > budget:
                raise ResourceLimitError(
                    f"prime-node search over {len(sets)} children"
                    f" exceeds budget {budget}"
                )
        top = max(map(max, found), default=0)
        return FeasibleTupleSet._result(self.k, dict(sorted(found.items())), top)

    def rebuild(self, tup: Tuple) -> Partition:
        """Expand a root tuple top-down into a colouring: each node hands
        every child the tuple its witness names."""
        colors = [0] * self.tree.graph.n
        work = [(self.tree.root, tup)]
        while work:
            node, tup = work.pop()
            witness = self.final[node].witness
            if node.kind == LEAF:
                assert node.vertex is not None
                colors[node.vertex] = witness[tup][1]
            elif node.kind == PRIME:
                work.extend(zip(node.children, witness[tup][1]))
            else:
                recover = _sum_witness if node.kind == UNION else _join_witness
                partial = self.chain[node]
                for i in range(len(node.children) - 1, 0, -1):
                    left, right = recover(
                        partial[i - 1], self.final[node.children[i]], tup
                    )
                    work.append((node.children[i], right))
                    tup = left
                work.append((node.children[0], tup))
        return Partition(self.k, tuple(colors))


def feasible_tuples_mw(
    g: Graph,
    t: MDTree,
    k: int,
    *,
    product_budget: int = DEFAULT_PRODUCT_BUDGET,
) -> FeasibleTupleSet:
    """Feasible k-tuples of g via its modular decomposition; non-empty iff
    g splits into k induced 1-extendable subgraphs. A prime node whose
    tuple product exceeds `product_budget` raises ResourceLimitError."""
    if k < 1:
        raise InputError(f"class count k must be at least 1, got {k}")
    _check_tree(g, t)
    return _TupleDP(t, k, product_budget).run()


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
    The certificate is the rebuild of the least feasible root tuple of
    `feasible_tuples_mw` through its first witness. Each pass builds
    only what that rebuild reads, and stops at the first empty node set.
    On the lean path (the root, and every node reached from it through
    unions alone) a union sums its children's least tuples, a join's
    last fold searches for its least tuple alone, and a prime node's
    depth-first search over its children's tuple combinations looks for
    the least tuple alone and prunes; the budget then bounds the
    combinations reached plus the branches pruned, a part of the
    product, for each k. Every other node builds its full set, and a
    prime node there refuses a product over `product_budget` before
    starting. Raises ResourceLimitError when the budget runs out.
    """
    if g.n == 0:
        return 0, Partition(0, ())
    tree = decompose(g)
    a = module_alpha(g, tree.root)
    bound = min(a, _ceil_2sqrt(g.n))
    if is_cograph(tree):
        bound = min(bound, a.bit_length())
    capped = max_k is not None and max_k < bound
    if capped:
        bound = max_k
    for k in range(1, bound + 1):
        dp = _TupleDP(tree, k, product_budget)
        fts = dp.run(least=True)
        if fts:
            return k, dp.rebuild(fts.tuples[0])
    if capped:
        return None
    raise AssertionError("no feasible partition within proven upper bounds")


def verify_partition(g: Graph, p: Partition) -> bool:
    """Certificate check: every non-empty class must induce a 1-extendable
    subgraph (the exact oracle, run on each connected component of the
    class's vertex mask of g)."""
    if len(p.color) != g.n:
        raise InputError(
            f"partition covers {len(p.color)} vertices, graph has {g.n}"
        )
    nbr, unit = g.neighbor_masks(), (1,) * g.n
    for cls in p.classes():
        mask = sum(1 << v for v in cls)
        if _split_cover(mask, nbr, unit, until_miss=True)[1] != mask:
            return False
    return True


def _peel(g: Graph, remaining: int, colors: list[int], c: int) -> int:
    """Colour the vertices of the mask `remaining` c + 1, c + 2, ... by
    stripping the vertices in some MIS of what is left, one stratum per
    colour; returns the last colour used."""
    nbr, unit = g.neighbor_masks(), (1,) * g.n
    while remaining:
        c += 1
        covered = _cover(remaining, nbr, unit)[1]
        for v in _bits(covered):
            colors[v] = c
        remaining &= ~covered
    return c


def peel_partition(g: Graph) -> Partition:
    """Repeatedly strip the set of vertices lying in some MIS of the
    residual graph; each stratum is 1-extendable by construction and the
    independence number drops every round, so at most alpha(g) classes."""
    colors = [0] * g.n
    c = _peel(g, (1 << g.n) - 1, colors, 0)
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
    c = _peel(g, sum(1 << v for v in remaining), colors, c)
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


def _extract(root: MDNode, k: int, alphas: dict[MDNode, int]) -> list[int]:
    """The part V1 of a split of root's module into (V1, V2), with V1
    inducing a 1-extendable subgraph of independence number exactly k
    and alpha(V2) <= max(k-1, alpha - k).

    The target is carried down the cotree. A union splits it between its
    first child and the union of the rest by split_integers, then the
    rest in the same way. A join hands it whole to its first child and
    to the join of the rest; the side of smaller alpha (the rest, on a
    tie) takes it only when it fits, and otherwise goes to V2 whole.
    """
    v1: list[int] = []
    work = [(root, k)]
    while work:
        node, k = work.pop()
        if node.kind == LEAF:
            assert node.vertex is not None
            if k == 1:
                v1.append(node.vertex)
            continue
        children = node.children
        if node.kind == UNION:
            rest = sum(alphas[c] for c in children)
            for c in children[:-1]:
                rest -= alphas[c]
                k_first, k = split_integers(alphas[c], rest, k)
                work.append((c, k_first))
            work.append((children[-1], k))
            continue
        # peak[i]: the largest alpha among children[i + 1:]
        peak = [*itertools.accumulate((alphas[c] for c in children[:0:-1]), max)][::-1]
        for c, a_rest in zip(children, peak):
            if alphas[c] >= a_rest:
                work.append((c, k))
                if k > a_rest:
                    break
            elif k <= alphas[c]:
                work.append((c, k))
        else:
            work.append((children[-1], k))
    return v1


def log_partition_cograph(t: MDTree) -> Partition:
    """Repeated halving on a cograph: extract a 1-extendable subgraph of
    independence number ceil(alpha/2), repeat on the rest; uses at most
    floor(log2(alpha)) + 1 classes."""
    if not is_cograph(t):
        raise InputError("log partition requires a cograph decomposition")
    g = t.graph
    colors = [0] * g.n
    to_orig = list(range(g.n))
    cur_g, cur_tree = g, t
    c = 0
    while cur_g.n > 0:
        alphas = _module_alphas(cur_tree.root)
        a = alphas[cur_tree.root]
        c += 1
        if a <= 1:
            for v in range(cur_g.n):
                colors[to_orig[v]] = c
            break
        v1 = _extract(cur_tree.root, (a + 1) // 2, alphas)
        for v in v1:
            colors[to_orig[v]] = c
        v2 = sorted(set(range(cur_g.n)).difference(v1))
        if not v2:
            break
        cur_g, _ = induced_subgraph(cur_g, v2)
        to_orig = [to_orig[v] for v in v2]
        cur_tree = decompose(cur_g)
    return Partition(c, tuple(colors))
