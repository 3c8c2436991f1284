"""Generating sets of integers, and their round trip to partitions of
complete multipartite graphs.

A complete multipartite graph splits into 1-extendable (i.e. balanced
multipartite) classes exactly when the part sizes admit k generators
alpha_1, ..., alpha_k such that every part size is a subset sum of them:
the class of generator j takes alpha_j vertices from each part whose
witness subset contains j.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, ResourceLimitError
from .graphs import complete_multipartite
from .io import _int_fields
from .partition import Partition

DEFAULT_TUPLE_BUDGET = 5_000_000


@dataclass(frozen=True)
class GenSetInstance:
    """Targets n_1..n_m (part sizes, unary scale) and a generator count k."""

    targets: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if not self.targets:
            raise InputError("at least one target is required")
        for t in self.targets:
            if t < 1:
                raise InputError(f"targets must be positive, got {t}")
        if self.k < 1:
            raise InputError(f"k must be at least 1, got {self.k}")

    @property
    def alpha_max(self) -> int:
        return max(self.targets)


@dataclass(frozen=True)
class GenSetSolution:
    """k generators (nondecreasing, zeros meaning unused) plus, per target,
    the generator indices whose values sum exactly to it."""

    generators: tuple[int, ...]
    subsets: tuple[tuple[int, ...], ...]


def _subset_sum_witness(
    generators: Sequence[int], target: int
) -> tuple[int, ...] | None:
    """First-reach subset-sum DP with parent pointers; zero generators are
    never used."""
    parents: dict[int, tuple[int, int]] = {0: (-1, -1)}
    for j, gen in enumerate(generators):
        if gen == 0:
            continue
        for s in sorted(parents, reverse=True):
            t = s + gen
            if t <= target and t not in parents:
                parents[t] = (s, j)
    if target not in parents:
        return None
    indices = []
    s = target
    while s != 0:
        prev, j = parents[s]
        indices.append(j)
        s = prev
    return tuple(sorted(indices))


def solve(
    inst: GenSetInstance, *, budget: int = DEFAULT_TUPLE_BUDGET
) -> GenSetSolution | None:
    """Exhaustive search over nondecreasing k-tuples in {0..alpha_max}^k,
    returning the lexicographically first feasible one with per-target
    subset-sum witnesses, or None when infeasible."""
    a = inst.alpha_max
    count = math.comb(a + inst.k, inst.k)
    if count > budget:
        raise ResourceLimitError(
            f"generating-set enumeration needs {count} tuples, budget {budget}"
        )
    for gens in itertools.combinations_with_replacement(range(a + 1), inst.k):
        subsets = []
        for target in inst.targets:
            w = _subset_sum_witness(gens, target)
            if w is None:
                break
            subsets.append(w)
        else:
            return GenSetSolution(generators=gens, subsets=tuple(subsets))
    return None


def binary_solution(
    alpha: int, targets: Sequence[int] | None = None
) -> GenSetSolution:
    """Powers of two up to 2^ceil(log2(alpha)): always a generating set,
    since any target <= alpha decomposes by its binary representation."""
    if alpha < 1:
        raise InputError(f"alpha must be at least 1, got {alpha}")
    top = math.ceil(math.log2(alpha)) if alpha > 1 else 0
    generators = tuple(1 << i for i in range(top + 1))
    subsets: list[tuple[int, ...]] = []
    for t in targets or ():
        if not (1 <= t <= alpha):
            raise InputError(f"target {t} outside 1..{alpha}")
        subsets.append(tuple(i for i in range(top + 1) if t & (1 << i)))
    return GenSetSolution(generators=generators, subsets=tuple(subsets))


def to_instance(sizes: Sequence[int], k: int) -> GenSetInstance:
    """Part sizes of a complete multipartite graph as generating-set targets."""
    return GenSetInstance(targets=tuple(sizes), k=k)


def from_solution(sizes: Sequence[int], sol: GenSetSolution) -> Partition:
    """Build the partition of complete_multipartite(sizes) described by a
    solution: the class of generator j takes alpha_j vertices from each
    part whose subset contains j, giving a balanced (hence 1-extendable)
    class. Zero generators are dropped; colors follow the canonical
    generator order."""
    if len(sol.subsets) != len(sizes):
        raise InputError(
            f"solution has {len(sol.subsets)} subsets for {len(sizes)} parts"
        )
    _, parts = complete_multipartite(sizes)
    nonzero = [j for j, gen in enumerate(sol.generators) if gen > 0]
    color_of = {j: c for c, j in enumerate(nonzero, start=1)}
    n = sum(sizes)
    colors = [0] * n
    for part, size, subset in zip(parts, sizes, sol.subsets):
        offset = 0
        for j in sorted(subset):
            if not (0 <= j < len(sol.generators)) or sol.generators[j] == 0:
                raise InputError(f"invalid generator index {j} in witness")
            width = sol.generators[j]
            if offset + width > size:
                raise InputError(
                    f"witness oversubscribes a part of size {size}"
                )
            for v in part[offset : offset + width]:
                colors[v] = color_of[j]
            offset += width
        if offset != size:
            raise InputError(
                f"witness sums to {offset}, part size is {size}"
            )
    return Partition(len(nonzero), tuple(colors))


def parse_instance_text(text: str) -> GenSetInstance:
    """Parse the two-line instance format: `targets: 2 3 4 7 9` / `k: 3`."""
    targets: tuple[int, ...] | None = None
    k: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("targets:"):
            fields = line[len("targets:") :].split()
            targets = tuple(_int_fields(fields, f"line {lineno}: bad target list"))
        elif line.startswith("k:"):
            (k,) = _int_fields([line[len("k:") :].strip()], f"line {lineno}: bad k")
        else:
            raise InputError(f"line {lineno}: unrecognized line {line!r}")
    if targets is None or k is None:
        raise InputError("instance needs both a `targets:` and a `k:` line")
    return GenSetInstance(targets=targets, k=k)


def format_instance_text(inst: GenSetInstance) -> str:
    return f"targets: {' '.join(str(t) for t in inst.targets)}\nk: {inst.k}\n"
