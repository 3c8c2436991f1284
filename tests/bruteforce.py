"""Independent brute-force oracles for the test suite.

Everything here works by plain subset/coloring enumeration with
itertools, deliberately sharing no code with the package's solvers.
"""

from __future__ import annotations

import itertools
import math
import random
import re

from extpart import Graph, InputError


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


def unit_disk_graph(rng: random.Random, n: int, d: float) -> Graph:
    """A unit-disk conflict graph: n points uniform in the unit square,
    one edge per pair closer than sqrt(d / (pi n)), so that the mean
    degree is about d."""
    points = [(rng.random(), rng.random()) for _ in range(n)]
    radius = math.sqrt(d / (math.pi * n))
    return Graph(
        n,
        [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if math.dist(points[u], points[v]) < radius
        ],
    )


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


def bf_weighted_profile(
    g: Graph, weights: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """Maximum weight over independent sets, and the sorted vertices that
    lie in some independent set of that weight."""
    sets = bf_independent_sets(g)
    best = max(sum(weights[v] for v in s) for s in sets)
    cover = {v for s in sets if sum(weights[v] for v in s) == best for v in s}
    return best, tuple(sorted(cover))


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


def ref_root_set(root, k: int) -> set[tuple[int, ...]]:
    """The feasible k-tuples of a cotree's root by the all-pairs DP."""
    return set(_ref_fold(root, k, {}))


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


def ref_prime_set(rep: Graph, child_sets) -> dict[tuple[int, ...], tuple]:
    """The feasible set of a prime node with representative `rep`, vertex
    i standing for child i, whose children hold the sorted tuple lists
    `child_sets`. Runs the full product of one tuple per child: colour c
    weighs each child by its c-th coordinate, and the combination yields
    the colours' maximum weights when, for every colour, each child of
    positive weight lies in some independent set of that weight. Maps
    each tuple, in sorted order, to the first combination in product
    order that yields it. Weights are non-negative, so the maximal
    independent sets alone reach every maximum and cover every vertex
    that some maximum-weight set holds."""
    independent = [
        s
        for s in bf_independent_sets(rep)
        if all(not is_independent(rep, (*s, v)) for v in range(rep.n) if v not in s)
    ]
    profiles: dict[tuple[int, ...], tuple[int, bool]] = {}

    def profile(weights: tuple[int, ...]) -> tuple[int, bool]:
        if weights not in profiles:
            scores = [sum(weights[v] for v in s) for s in independent]
            best = max(scores)
            cover = {v for s, w in zip(independent, scores) if w == best for v in s}
            support = {v for v, a in enumerate(weights) if a}
            profiles[weights] = (best, support <= cover)
        return profiles[weights]

    out: dict[tuple[int, ...], tuple] = {}
    for combo in itertools.product(*child_sets):
        tup = []
        for weights in zip(*combo):
            best, ok = profile(weights)
            if not ok:
                break
            tup.append(best)
        else:
            out.setdefault(tuple(tup), combo)
    return dict(sorted(out.items()))


def ref_components(mask: int, adj_of) -> list[int]:
    """The connected components of the vertex mask under `adj_of` (a
    vertex's neighbour mask), ordered by minimum vertex: a frontier
    search from each lowest vertex not yet reached, pushing every
    frontier vertex through the callback."""
    comps = []
    rem = mask
    while rem:
        comp, frontier = 0, rem & -rem
        while frontier:
            comp |= frontier
            nxt = 0
            for v in range(frontier.bit_length()):
                if frontier >> v & 1:
                    nxt |= adj_of(v)
            frontier = nxt & mask & ~comp
        comps.append(comp)
        rem &= ~comp
    return comps


def _ref_bits(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def ref_smallest_module(nbr: tuple[int, ...], mask: int, seed: int) -> int:
    """Close a seed set under splitters: repeatedly absorb any outside
    vertex adjacent to some but not all of the current set."""
    mod = seed
    grew = True
    while grew and mod != mask:
        grew = False
        for w in _ref_bits(mask & ~mod):
            x = nbr[w] & mod
            if x and x != mod:
                mod |= 1 << w
                grew = True
    return mod


def ref_maximal_strong_modules(nbr: tuple[int, ...], mask: int) -> list[int]:
    """The prime step as it stood before each closure stopped at a known
    maximal strong module, kept verbatim (but for the bit walk) as the
    reference the package is compared with: one unstopped splitter
    closure per refined part, so cubic on sparse relabelled graphs.

    Partition of a connected, co-connected graph into its maximal
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
        for w in _ref_bits(mask & ~part if part & (part - 1) else 0):
            seen = nbr[w] & part
            if seen and seen != part:
                pending += [seen, part & ~seen]
                break
        else:
            parts.append(part)
    own, rest = 1 << v, []
    for part in parts:
        mod = ref_smallest_module(nbr, mask, own | part)
        if mod != mask:
            own = mod
        else:
            rest.append(part)
    return sorted([own, *rest], key=lambda c: c & -c)


def ref_decompose(g: Graph) -> tuple:
    """Modular decomposition as nested (kind, module, children) tuples,
    built top-down by recursion: a module splits on its components
    (union), else on its co-components (join), both by `ref_components`,
    else on the maximal strong modules `ref_maximal_strong_modules`
    gives (prime); children ordered by minimum vertex."""
    nbr = g.neighbor_masks()

    def rec(mask: int) -> tuple:
        module = tuple(v for v in range(g.n) if mask >> v & 1)
        if len(module) == 1:
            return "leaf", module, ()
        kind, parts = "union", ref_components(mask, nbr.__getitem__)
        if len(parts) == 1:
            kind, parts = "join", ref_components(mask, lambda v: mask & ~nbr[v] & ~(1 << v))
        if len(parts) == 1:
            kind, parts = "prime", ref_maximal_strong_modules(nbr, mask)
        return kind, module, tuple(rec(p) for p in parts)

    return rec((1 << g.n) - 1)


def ref_format_tree(node: tuple) -> str:
    """`io.format_tree` of a `ref_decompose` tree."""
    kind, module, children = node
    if kind == "leaf":
        return f"leaf {module[0]}"
    return f"{kind}({','.join(map(ref_format_tree, children))})"


_REF_INT_FIELD = re.compile(r"-?[0-9]+")
_REF_EDGE_LINE = re.compile(r"\s*e\s+(-?[0-9]+)\s+(-?[0-9]+)\s*")


def ref_parse_edge_list(text: str) -> Graph:
    """The line-by-line edge-list parser as it stood before canonical
    documents were read in bulk, kept verbatim (but for returning the graph
    alone) as the reference the parser is compared with. Numbers of more
    digits than int() reads raise ValueError here."""
    n = m = None
    masks: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        edge = _REF_EDGE_LINE.fullmatch(raw)
        if edge and n is not None:
            u, v = int(edge[1]), int(edge[2])
        else:
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            fields = line.split()
            if fields[0] == "p":
                if n is not None:
                    raise InputError(f"line {lineno}: duplicate header")
                if len(fields) != 3:
                    raise InputError(f"line {lineno}: header must be `p n m`")
                n, m = _ref_int_fields(fields[1:], f"line {lineno}: bad header numbers")
                masks = [0] * n
                continue
            if fields[0] != "e":
                raise InputError(f"line {lineno}: unrecognized line {line!r}")
            if n is None:
                raise InputError(f"line {lineno}: edge before `p` header")
            if len(fields) != 3:
                raise InputError(f"line {lineno}: edge must be `e u v`")
            u, v = _ref_int_fields(fields[1:], f"line {lineno}: bad edge endpoints")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        if u == v:
            raise InputError(f"line {lineno}: self-loop at {u}")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    if n is None:
        raise InputError("missing `p n m` header line")
    found = sum(mask.bit_count() for mask in masks) // 2
    if m != found:
        raise InputError(f"header declares {m} edges, found {found} distinct")
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    return Graph._from_masks(n, tuple(masks))


def _ref_int_fields(fields: list[str], error: str) -> list[int]:
    if not all(_REF_INT_FIELD.fullmatch(f) for f in fields):
        raise InputError(error)
    return [int(f) for f in fields]
