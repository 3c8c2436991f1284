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

Feasible sets are closed under permuting colours, so a node stores one
tuple per permutation class, sorted ascending and packed into one int of
k fields, coordinate 0 most significant, so packed ints sort like their
tuples; a field holds twice the graph's order, so a sum is one integer
addition. The sum or join of closed A and B is the closure of that of
A's sorted tuples with all of B, so a fold runs one packed kernel on the
two and keeps the sorted form of each result; packings, and their memos
of sorted forms and permutations, serve every DP. The join groups each
operand by its zero pattern and, per pair of patterns, hashes one side
on its projection onto the common support, so only compatible pairs are
ever touched. Only prime nodes store witnesses, inside the DP: a leaf's
unit tuple names its colour, a lean union's children take their least
tuples, and any other fold node recovers the first pair in sorted order
that combines to the one tuple it expands.

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
from .graphs import Graph, _bits
from .independent_sets import _cover, _heaviest, _least_mis, _split_cover
from .independent_sets import is_1ext_oracle
from .moddecomp import (
    JOIN,
    LEAF,
    MDNode,
    MDTree,
    PRIME,
    UNION,
    _check_tree,
    _module_alphas,
    _restrict,
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

    def nonempty_count(self) -> int:
        return len(set(self.color))


class FeasibleTupleSet:
    """A plain value: the deduplicated, sorted feasible k-tuples of any
    iterable of tuples. `_TupleDP` keeps one packed tuple per colour
    permutation, and witnesses of its own, and expands to this form."""

    def __init__(self, k: int, tuples):
        if type(k) is not int or k < 1:
            raise InputError(f"class count k must be an int of at least 1, got {k!r}")
        # checked before duplicates collapse, since (True, 0) == (1, 0)
        tuples = list(tuples)
        for tup in tuples:
            if not (
                isinstance(tup, tuple)
                and len(tup) == k
                and all(type(a) is int and a >= 0 for a in tup)
            ):
                raise InputError(
                    f"feasible {k}-tuple must hold {k} non-negative ints, got {tup!r}"
                )
        tuples = tuple(sorted(set(tuples)))
        self.k, self.tuples = k, tuples

    @classmethod
    def _result(cls, k: int, tuples: tuple[Tuple, ...]) -> "FeasibleTupleSet":
        """A set the DP computed from checked operands, skipping the check;
        `tuples` must be distinct and sorted."""
        fts = cls.__new__(cls)
        fts.k, fts.tuples = k, tuples
        return fts

    def __len__(self) -> int:
        return len(self.tuples)

    @functools.cached_property
    def _members(self) -> frozenset[Tuple]:
        # built on the first `in`: callers that only iterate never pay for it
        return frozenset(self.tuples)

    def __contains__(self, tup: Tuple) -> bool:
        return tup in self._members

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
    its field's top bit clear. `canonical` and `permutations` are
    memoized with a bound, since a packing serves the whole process."""

    def __init__(self, k: int, nbytes: int):
        self.k = k
        self.shift = 8 * nbytes - 1
        self.field = (1 << 8 * nbytes) - 1
        self.struct = struct.Struct(f">{k}{_FIELD_CODES[nbytes]}")
        low = int.from_bytes((bytes(nbytes - 1) + b"\1") * k, "big")
        self.high = low << self.shift
        # adding 2**shift - 1 sets a field's top bit iff the field is non-zero
        self.nonzero_carry = low * ((1 << self.shift) - 1)
        self.canonical = functools.lru_cache(2**13)(self._canonical)
        self.permutations = functools.lru_cache(2**12)(self._permutations)

    def pack(self, tuples) -> list[int]:
        pack = self.struct.pack
        return [int.from_bytes(pack(*t), "big") for t in tuples]

    def unpack(self, a: int) -> Tuple:
        return self.struct.unpack(a.to_bytes(self.struct.size, "big"))

    def _canonical(self, a: int) -> int:
        """The packed tuple with the coordinates of `a` sorted ascending."""
        st = self.struct
        tup = sorted(st.unpack(a.to_bytes(st.size, "big")))
        return int.from_bytes(st.pack(*tup), "big")

    def _permutations(self, a: int) -> tuple[int, ...]:
        """Every distinct packed permutation of the coordinates of `a`.
        k! orders soon outgrow the distinct ones, so each coordinate is
        inserted at every place, keeping distinct orders only."""
        perms = {()}
        for v in self.unpack(a):
            perms = {p[:i] + (v,) + p[i:] for p in perms for i in range(len(p) + 1)}
        return tuple(self.pack(perms))

    def expand(self, canonical) -> list[int]:
        """Every colour permutation of the canonical packed tuples."""
        return [*itertools.chain.from_iterable(map(self.permutations, canonical))]

    def by_pattern(self, packed) -> dict[int, list[int]]:
        """Packed tuples grouped by their top-bit pattern of non-zero fields."""
        groups: dict[int, list[int]] = {}
        carry, high = self.nonzero_carry, self.high
        for a in packed:
            groups.setdefault((a + carry) & high, []).append(a)
        return groups

    def result(self, packed) -> tuple[Tuple, ...]:
        return tuple(map(self.unpack, sorted(packed)))


_packing = functools.cache(_Packing)


def _packing_for(k: int, top: int) -> _Packing:
    """The narrowest packing of k-tuples whose fields hold twice `top`."""
    for nbytes in _FIELD_CODES:
        if 2 * top < 1 << 8 * nbytes:
            return _packing(k, nbytes)
    raise InputError(f"tuple coordinate {top} is too large to pack in 64 bits")


def _fold_packing(s1: FeasibleTupleSet, s2: FeasibleTupleSet) -> _Packing:
    if s1.k != s2.k:
        raise InputError(f"tuple arity mismatch: {s1.k} vs {s2.k}")
    return _packing_for(s1.k, max(itertools.chain(*s1, *s2), default=0))


def _sum_packed(left, right) -> set[int]:
    """Every packed sum a + b of a in `left` and b in `right`."""
    # addition commutes, so the Python loop runs over the smaller operand
    small, large = (left, right) if len(left) <= len(right) else (right, left)
    out: set[int] = set()
    for a in small:
        out.update(map(a.__add__, large))
    return out


def _join_packed(packing: _Packing, left, right) -> set[int]:
    """Every packed join a | b of compatible a in `left` and b in `right`.

    Both operands are grouped by zero pattern. Two packed tuples a and b
    are compatible iff they agree on the fields where both are non-zero,
    and their join is then a | b. For each pair of patterns, the right
    group is hashed on its projection onto the common support and probed
    with the left group, so the cost follows the compatible pairs, not
    all pairs.
    """
    shift, field = packing.shift, packing.field
    left_groups = packing.by_pattern(left)
    out: set[int] = set()
    for p2, group2 in packing.by_pattern(right).items():
        # with disjoint supports every pair is compatible: one bucket
        index_by_overlap: dict[int, dict[int, list[int]]] = {0: {0: group2}}
        for p1, group1 in left_groups.items():
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
    return out


def _least_join_packed(packing: _Packing, walk, index) -> int | None:
    """The least canonical form of a packed join a | b of compatible a in
    `walk` and b in `index`, both sorted, `walk` holding canonical tuples,
    or None when no pair is compatible. Walks `walk` in sorted order and
    probes the other operand's zero-pattern groups, each hashed on the
    common support as in `_join_packed`, for the least compatible partner.

    A canonical a has its zeros first, and a | b is at least a in every
    field, so the sorted join is at least a: the walk stops at the first
    a that is at least the best found. Within one bucket every b agrees
    with a on a's support and varies only on a's leading zeros, where the
    least b has the least sorted values: a bucket keeps its least member
    alone."""
    shift, field, canonical = packing.shift, packing.field, packing.canonical
    carry, high = packing.nonzero_carry, packing.high
    # per pattern of the indexed operand: its group, and its index per
    # overlap, built on first use
    indexed = [
        (p2, group2, {0: {0: group2[0]}})
        for p2, group2 in packing.by_pattern(index).items()
    ]
    best = None
    for a in walk:
        if best is not None and a >= best:
            break
        p1 = (a + carry) & high
        for p2, group2, index_by_overlap in indexed:
            overlap = ((p1 & p2) >> shift) * field
            bucket = index_by_overlap.get(overlap)
            if bucket is None:
                bucket = index_by_overlap[overlap] = {}
                for b in group2:
                    bucket.setdefault(b & overlap, b)
            b = bucket.get(a & overlap)
            if b is not None:
                joined = canonical(a | b)
                if best is None or joined < best:
                    best = joined
    return best


def tuple_sum(s1: FeasibleTupleSet, s2: FeasibleTupleSet) -> FeasibleTupleSet:
    """Pairwise componentwise sums (the disjoint-union combination)."""
    packing = _fold_packing(s1, s2)
    sums = _sum_packed(packing.pack(s1), packing.pack(s2))
    return FeasibleTupleSet._result(s1.k, packing.result(sums))


def tuple_join(s1: FeasibleTupleSet, s2: FeasibleTupleSet) -> FeasibleTupleSet:
    """Zero-tolerant intersection (the complete-sum combination): each
    coordinate must agree, except that a 0 on either side defers to the
    other side's value."""
    packing = _fold_packing(s1, s2)
    joins = _join_packed(packing, packing.pack(s1), packing.pack(s2))
    return FeasibleTupleSet._result(s1.k, packing.result(joins))


def _sum_witness(left, right, tup: Tuple) -> tuple[Tuple, Tuple]:
    """The first pair (t1, t2), t1 running through `left` in sorted order
    and t2 a member of `right`, with t1 + t2 == tup."""
    for t1 in left:
        t2 = tuple(map(operator.sub, tup, t1))
        if t2 in right:
            return t1, t2
    raise AssertionError(f"no sum witness for {tup}")


def _join_witness(left, right, tup: Tuple) -> tuple[Tuple, Tuple]:
    """The first pair (t1, t2) in sorted order, t1 a member of `left` and
    t2 of `right`, whose join is tup: t1 agrees with tup on its support,
    and t2 equals tup off t1's support and is 0 or tup's value on it.
    Both run through their candidates in sorted order: each coordinate's
    options are listed in ascending order, so their product is sorted."""
    for t1 in itertools.product(*[(0, b) if b else (0,) for b in tup]):
        if t1 in left:
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


class _Closure:
    """Membership in the colour-permutation closure of a canonical set."""

    def __init__(self, canonical: set[int], packing: _Packing):
        self.canonical, self.pack = canonical, packing.struct.pack

    def __contains__(self, tup: Tuple) -> bool:
        tup = sorted(tup)
        # a sum witness probes differences, which may go negative
        return tup[0] >= 0 and int.from_bytes(self.pack(*tup), "big") in self.canonical


class _TupleDP:
    """Feasible-tuple dynamic program over a modular decomposition tree,
    retaining per-node sets, fold intermediates and witnesses so a root
    tuple can be expanded back into a concrete partition. `sets` holds
    each node's canonical tuples, packed at one field width per DP,
    which the packing expands; a lean node's is its least tuple alone. A
    leaf's is the unit tuple, whose 1 names its colour. A prime node's
    `found` maps each of its tuples to its combination of child tuples."""

    def __init__(self, tree: MDTree, k: int, product_budget: int):
        self.tree = tree
        self.budget = product_budget
        self.packing = _packing_for(k, tree.graph.n)
        self.sets: dict[MDNode, set[int]] = {}
        self.found: dict[MDNode, dict[Tuple, tuple[Tuple, ...]]] = {}
        self.chain: dict[MDNode, list[set[int]]] = {}
        self.lean: set[MDNode] = set()

    def run(self, least: bool = False) -> Tuple | None:
        """The root's least feasible tuple, or None when its set is empty.
        With `least`, only what `chi_1ext` reads: the lean nodes (the
        root, and every node reached from it through unions alone) build
        their least tuple alone, and the pass stops at the first empty
        node set, which empties the root's too."""
        root = self.tree.root
        work = [root] if least else []
        while work:
            node = work.pop()
            self.lean.add(node)
            if node.kind == UNION:
                work.extend(node.children)
        for node in root.bottom_up():
            if node.kind == LEAF:
                s = {1}  # the canonical unit tuple (0, ..., 0, 1), packed
            elif node.kind == PRIME:
                s = self._prime_set(node, node in self.lean)
            else:
                s = self._fold_set(node)
            self.sets[node] = s
            if least and not s:
                return None
        return self.packing.unpack(min(self.sets[root])) if self.sets[root] else None

    def full(self, node: MDNode) -> tuple[Tuple, ...]:
        """The node's full feasible set in sorted order: its canonical
        tuples with every colour permutation, or a prime node's tuples in
        `found`."""
        if node in self.found:
            return tuple(self.found[node])
        return self.packing.result(self.packing.expand(self.sets[node]))

    def _fold_set(self, node: MDNode) -> set[int]:
        """The fold of the children's sets, left to right, keeping each
        partial result for `rebuild`, but a lean union's: it is the sum of
        its children's least tuples, lexicographic order being translation
        invariant. A lean join's last fold, which `rebuild` never reads as
        a left operand, keeps its least tuple alone. Any other fold refuses
        a product of its operands' sizes over the budget before it starts."""
        sets = [self.sets[c] for c in node.children]
        lean, packing = node in self.lean, self.packing
        if lean and node.kind == UNION:
            return {sum(map(min, sets))}
        kernel = _sum_packed
        if node.kind == JOIN:
            kernel = functools.partial(_join_packed, packing)
        partial = [sets[0]]
        for s in sets[1:-1] if lean else sets[1:]:
            left, right = partial[-1], packing.expand(s)
            if len(left) * len(right) > self.budget:
                raise ResourceLimitError(
                    f"{node.kind} fold of {len(left)} x {len(right)} tuples"
                    f" exceeds budget {self.budget}"
                )
            partial.append(set(map(packing.canonical, kernel(left, right))))
        if lean:
            walk, other = sorted((partial[-1], sets[-1]), key=len, reverse=True)
            index = sorted(packing.expand(other))
            best = _least_join_packed(packing, sorted(walk), index)
            partial.append(set() if best is None else {best})
        self.chain[node] = partial
        return partial[-1]

    def _prime_set(self, node: MDNode, least: bool) -> set[int]:
        """Every tuple some combination of one tuple per child yields, with
        the first such combination in product order as its witness; with
        `least`, only the least tuple. Searches depth first in product
        order, the last child's tuples in a plain loop. The full set refuses
        a product over the budget up front. The least search prunes each
        branch whose colors' weighted alphas so far, which only grow as
        weight is added, are lexicographically at least the best tuple
        found; each combination reached and each branch pruned counts
        against the budget. Keeps the tuples with their combinations in
        `found` and returns their canonical forms."""
        *outer, inner = sets = [self.full(c) for c in node.children]
        budget = self.budget
        if not least:
            total = math.prod(map(len, sets))
            if total > budget:
                raise ResourceLimitError(
                    f"prime-node tuple product {total} exceeds budget {budget}"
                )
        colors = _PrimeColors(node)
        checked = colors.checked
        found: dict[Tuple, tuple[Tuple, ...]] = {}
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
                            found[t] = tuple(combo)
            if spent > budget:
                raise ResourceLimitError(
                    f"prime-node search over {len(sets)} children"
                    f" exceeds budget {budget}"
                )
        self.found[node] = dict(sorted(found.items()))
        return set(map(self.packing.canonical, self.packing.pack(found)))

    def rebuild(self, tup: Tuple) -> Partition:
        """Expand a root tuple top-down into a colouring: each node hands
        every child the tuple its witness names. A lean node is only rebuilt
        from its least tuple, so a lean union's children get their own. Any
        other fold node recovers the first pair (t1, t2) in sorted order,
        testing membership by canonical lookup. A union walks the full
        expansion of the side with fewer canonical tuples: the left one
        upwards, or the right one downwards, as t1 = tup - t2 then grows. A
        join walks the tuples that agree with tup on their support."""
        unpack, expand = self.packing.unpack, self.packing.expand
        closure = functools.partial(_Closure, packing=self.packing)
        colors = [0] * self.tree.graph.n
        work = [(self.tree.root, tup)]
        while work:
            node, tup = work.pop()
            if node.kind == LEAF:
                assert node.vertex is not None
                colors[node.vertex] = tup.index(1) + 1
            elif node.kind == PRIME:
                work.extend(zip(node.children, self.found[node][tup]))
            elif node.kind == UNION and node in self.lean:
                work.extend((c, unpack(min(self.sets[c]))) for c in node.children)
            else:
                partial = self.chain[node]
                for i in range(len(node.children) - 1, 0, -1):
                    left, right = partial[i - 1], self.sets[node.children[i]]
                    if node.kind == JOIN:
                        tup, t2 = _join_witness(closure(left), closure(right), tup)
                    elif len(left) <= len(right):
                        walk = map(unpack, sorted(expand(left)))
                        tup, t2 = _sum_witness(walk, closure(right), tup)
                    else:
                        walk = map(unpack, sorted(expand(right), reverse=True))
                        t2, tup = _sum_witness(walk, closure(left), tup)
                    work.append((node.children[i], t2))
                work.append((node.children[0], tup))
        return Partition(self.packing.k, tuple(colors))


def feasible_tuples_mw(
    g: Graph,
    t: MDTree,
    k: int,
    *,
    product_budget: int = DEFAULT_PRODUCT_BUDGET,
) -> FeasibleTupleSet:
    """Feasible k-tuples of g via its modular decomposition; non-empty iff
    g splits into k induced 1-extendable subgraphs. A prime node's tuple
    product, or a fold's product of operand sizes, over `product_budget`
    raises ResourceLimitError."""
    if k < 1:
        raise InputError(f"class count k must be at least 1, got {k}")
    _check_tree(g, t)
    dp = _TupleDP(t, k, product_budget)
    dp.run()
    return FeasibleTupleSet._result(k, dp.full(t.root))


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
    The pass that gives alpha (`_module_alphas`) also decides k = 1: a
    1-extendable graph is one class. From k = 2 the certificate is the
    rebuild of the least feasible root tuple of `feasible_tuples_mw`
    through its first witness; each pass builds only what that reads,
    and stops at the first empty node set. On the lean path (the root,
    and every node reached from it through unions alone) a union sums
    its children's least tuples, a join's last fold searches for its
    least tuple alone, and a prime node's depth-first search looks for
    the least tuple alone and prunes; the budget then bounds the
    combinations reached plus the branches pruned, for each k. Every
    other node builds its full set under the budget of
    `feasible_tuples_mw`. Raises ResourceLimitError when the budget runs
    out, and InputError on a negative max_k.
    """
    if max_k is not None and max_k < 0:
        raise InputError(f"max_k must be non-negative, got {max_k}")
    if g.n == 0:
        return 0, Partition(0, ())
    tree = decompose(g)
    alphas, is_1ext = _module_alphas(tree.root)
    a = alphas[tree.root]
    bound = min(a, _ceil_2sqrt(g.n))
    if is_cograph(tree):
        bound = min(bound, a.bit_length())
    capped = max_k is not None and max_k < bound
    if capped:
        bound = max_k
    if is_1ext and bound >= 1:
        return 1, Partition(1, (1,) * g.n)
    for k in range(2, bound + 1):
        dp = _TupleDP(tree, k, product_budget)
        least = dp.run(least=True)
        if least is not None:
            return k, dp.rebuild(least)
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
    # one mask per colour that occurs: the colour numbers may be huge
    masks: dict[int, int] = {}
    for v, c in enumerate(p.color):
        masks[c] = masks.get(c, 0) | 1 << v
    nbr, unit = g.neighbor_masks(), (1,) * g.n
    for mask in masks.values():
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
    nbr, colors = g.neighbor_masks(), [0] * n
    remaining = (1 << n) - 1
    c = 0
    while remaining:
        a, stratum = _least_mis(remaining, nbr)
        if a * a < n:
            break
        c += 1
        for v in _bits(stratum):
            colors[v] = c
        remaining &= ~stratum
    c = _peel(g, remaining, colors, c)
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
    floor(log2(alpha)) + 1 classes. The rest's cotree is the current one
    restricted to the rest's vertices."""
    if not is_cograph(t):
        raise InputError("log partition requires a cograph decomposition")
    colors = [0] * t.graph.n
    root: MDNode | None = t.root
    remaining = (1 << t.graph.n) - 1
    c = 0
    while root is not None:
        alphas = _module_alphas(root)[0]
        a = alphas[root]
        c += 1
        v1 = root.module if a <= 1 else _extract(root, (a + 1) // 2, alphas)
        for v in v1:
            colors[v] = c
            remaining &= ~(1 << v)
        root = _restrict(root, remaining)
    return Partition(c, tuple(colors))
