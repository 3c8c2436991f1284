"""Independent brute-force oracles for the test suite.

Everything here works by plain subset/coloring enumeration with
itertools, deliberately sharing no code with the package's solvers.
"""

from __future__ import annotations

import itertools
import random

from extpart import Graph


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def random_cograph(rng: random.Random, leaves: int) -> Graph:
    """Random cograph built from a random binary cotree with the given
    number of leaves (union or join chosen at each internal node)."""
    from extpart import complete_graph, complete_sum, disjoint_union

    if leaves == 1:
        return complete_graph(1)
    left = rng.randint(1, leaves - 1)
    g1 = random_cograph(rng, left)
    g2 = random_cograph(rng, leaves - left)
    op = disjoint_union if rng.random() < 0.5 else complete_sum
    return op(g1, g2)


def p4() -> Graph:
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


def fig1_bottom() -> Graph:
    """Four vertices a,b,c,d with edges ab, bc, cd, ac: not 1-extendable,
    c is starved."""
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])


def is_independent(g: Graph, vs: tuple[int, ...]) -> bool:
    return all(not g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))


def bf_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """All independent sets (including the empty set) as sorted tuples."""
    out = []
    for r in range(g.n + 1):
        for vs in itertools.combinations(range(g.n), r):
            if is_independent(g, vs):
                out.append(vs)
    return out


def bf_alpha(g: Graph) -> int:
    return max(len(s) for s in bf_independent_sets(g))


def bf_mis_list(g: Graph) -> list[tuple[int, ...]]:
    sets = bf_independent_sets(g)
    a = max(len(s) for s in sets)
    return sorted(s for s in sets if len(s) == a)


def bf_is_1ext(g: Graph) -> bool:
    if g.n == 0:
        return True
    covered = set()
    for s in bf_mis_list(g):
        covered.update(s)
    return len(covered) == g.n


def bf_modules(g: Graph) -> list[tuple[int, ...]]:
    """All non-empty modules, by checking the definition on every subset."""
    out = []
    for r in range(1, g.n + 1):
        for vs in itertools.combinations(range(g.n), r):
            members = set(vs)
            ok = True
            for w in range(g.n):
                if w in members:
                    continue
                hits = sum(1 for v in vs if g.has_edge(w, v))
                if hits not in (0, len(vs)):
                    ok = False
                    break
            if ok:
                out.append(vs)
    return out


def bf_chromatic(g: Graph) -> int:
    """Classical chromatic number by exhaustive coloring."""
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for coloring in itertools.product(range(k), repeat=g.n):
            if all(coloring[u] != coloring[v] for u, v in g.edges):
                return k
    raise AssertionError("unreachable")


def bf_chi_1ext(g: Graph, k_max: int | None = None) -> int:
    """Minimum number of classes in a partition where every non-empty
    class induces a graph whose vertices all lie in some MIS."""
    if g.n == 0:
        return 0
    top = k_max if k_max is not None else g.n
    ext_cache: dict[tuple[int, ...], bool] = {}

    def class_ok(vs: tuple[int, ...]) -> bool:
        if vs not in ext_cache:
            sub = Graph(
                len(vs),
                [
                    (i, j)
                    for i, u in enumerate(vs)
                    for j, v in enumerate(vs)
                    if i < j and g.has_edge(u, v)
                ],
            )
            ext_cache[vs] = bf_is_1ext(sub)
        return ext_cache[vs]

    for k in range(1, top + 1):
        for coloring in itertools.product(range(k), repeat=g.n):
            classes = [
                tuple(v for v in range(g.n) if coloring[v] == c) for c in range(k)
            ]
            if all(class_ok(cls) for cls in classes if cls):
                return k
    raise AssertionError(f"no partition with at most {top} classes")


def bf_feasible_tuples(g: Graph, k: int) -> set[tuple[int, ...]]:
    """All feasible k-tuples by enumerating every k-coloring."""
    subs: dict[tuple[int, ...], Graph] = {}

    def sub_of(vs: tuple[int, ...]) -> Graph:
        if vs not in subs:
            subs[vs] = Graph(
                len(vs),
                [
                    (i, j)
                    for i, u in enumerate(vs)
                    for j, v in enumerate(vs)
                    if i < j and g.has_edge(u, v)
                ],
            )
        return subs[vs]

    ok_cache: dict[tuple[int, ...], bool] = {}
    alpha_cache: dict[tuple[int, ...], int] = {}
    out = set()
    for coloring in itertools.product(range(k), repeat=g.n):
        classes = [
            tuple(v for v in range(g.n) if coloring[v] == c) for c in range(k)
        ]
        tup = []
        good = True
        for cls in classes:
            if cls not in ok_cache:
                ok_cache[cls] = bf_is_1ext(sub_of(cls))
                alpha_cache[cls] = bf_alpha(sub_of(cls)) if cls else 0
            if not ok_cache[cls]:
                good = False
                break
            tup.append(alpha_cache[cls])
        if good:
            out.add(tuple(tup))
    return out


def ref_tuple_sum(left, right) -> dict[tuple[int, ...], tuple]:
    """All-pairs componentwise sums of two sorted tuple lists; each sum
    maps to the first pair (t1, t2), in loop order, that produces it."""
    out: dict[tuple[int, ...], tuple] = {}
    for t1 in left:
        for t2 in right:
            out.setdefault(tuple(a + b for a, b in zip(t1, t2)), (t1, t2))
    return out


def ref_tuple_join(left, right) -> dict[tuple[int, ...], tuple]:
    """All-pairs zero-tolerant intersection of two sorted tuple lists
    (coordinates agree unless one side is 0), with first-pair witnesses."""
    out: dict[tuple[int, ...], tuple] = {}
    for t1 in left:
        for t2 in right:
            if all(a == 0 or b == 0 or a == b for a, b in zip(t1, t2)):
                out.setdefault(tuple(max(a, b) for a, b in zip(t1, t2)), (t1, t2))
    return out


def ref_chi_cotree(root, n: int) -> tuple[int, tuple[int, ...]]:
    """Minimum k and the coloring (vertex -> 1..k) that the all-pairs
    feasible-tuple DP on a cotree rebuilds from the smallest root tuple,
    following first-pair witnesses. `root` is a decomposition tree node
    with `kind` "leaf", "union" or "join", `children` and `vertex`."""
    k = 1
    while True:
        witnesses: dict[int, list[dict]] = {}
        root_set = _ref_fold(root, k, witnesses)
        if root_set:
            colors = [0] * n
            _ref_assign(root, min(root_set), witnesses, colors)
            return k, tuple(colors)
        k += 1


def _ref_fold(node, k: int, witnesses: dict) -> dict:
    if node.kind == "leaf":
        units = {tuple(int(j == i) for j in range(k)): i + 1 for i in range(k)}
        witnesses[id(node)] = [units]
        return units
    combine = ref_tuple_sum if node.kind == "union" else ref_tuple_join
    chain = [_ref_fold(node.children[0], k, witnesses)]
    for child in node.children[1:]:
        right = _ref_fold(child, k, witnesses)
        chain.append(combine(sorted(chain[-1]), sorted(right)))
    witnesses[id(node)] = chain
    return chain[-1]


def _ref_assign(node, tup, witnesses: dict, colors: list[int]) -> None:
    chain = witnesses[id(node)]
    if node.kind == "leaf":
        colors[node.vertex] = chain[0][tup]
        return
    for i in range(len(node.children) - 1, 0, -1):
        tup, right = chain[i][tup]
        _ref_assign(node.children[i], right, witnesses, colors)
    _ref_assign(node.children[0], tup, witnesses, colors)
