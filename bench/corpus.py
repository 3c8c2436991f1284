"""Seeded corpus for the extpart benchmark.

Each workload has a fixed pool of base instances, generated here from
POOL_SEED with the benchmark's own generators (no extpart code). A run
seed never changes which instances a pass holds: it draws, per pass, a
fresh vertex relabelling of every instance (and a target order for
generating-set instances) and the order in which requests are sent.
Answers are invariant under relabelling, so one committed answer file
per workload serves every seed, and the cost of a pass is comparable
across seeds. Documents are written in the `p n m` / `e u v` edge-list
format that `extpart` reads.

This module imports nothing from extpart, so the workload process can
build its pool and write each pass's documents without loading anything
but the program under test.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

from oracle import Oracle

POOL_SEED = "extpart-bench-pool-1"

WORKLOADS = ("chi-cograph", "chi-prime", "query-mix")


@dataclass(frozen=True)
class Item:
    """One base instance and the command run on it.

    `extra` holds command-specific data: `colors` (a partition, for
    verify), `targets`/`k` (for genset), `bits` (threshold cographs,
    used to derive their decomposition tree).
    """

    name: str
    command: str
    n: int = 0
    edges: tuple[tuple[int, int], ...] = ()
    extra: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------- graphs


def _gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [e for e in itertools.combinations(range(n), 2) if rng.random() < p]


def _masks(n: int, edges) -> list[int]:
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def is_prime_graph(n: int, edges) -> bool:
    """True iff the graph has no module other than the trivial ones:
    closing every vertex pair under splitters reaches the whole set."""
    if n < 4:
        return False
    nbr = _masks(n, edges)
    full = (1 << n) - 1
    for u in range(n):
        for v in range(u + 1, n):
            mod = (1 << u) | (1 << v)
            grew = True
            while grew and mod != full:
                grew = False
                for w in range(n):
                    if mod >> w & 1:
                        continue
                    x = nbr[w] & mod
                    if x and x != mod:
                        mod |= 1 << w
                        grew = True
            if mod != full:
                return False
    return True


def prime_gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    while True:
        edges = _gnp(rng, n, p)
        if is_prime_graph(n, edges):
            return edges


def _cotree(rng: random.Random, leaves: int, first: int, edges: list) -> list[int]:
    """Random binary cotree on vertices first..first+leaves-1 (union or
    join at each internal node with equal odds); appends the edges."""
    if leaves == 1:
        return [first]
    left = rng.randint(1, leaves - 1)
    a = _cotree(rng, left, first, edges)
    b = _cotree(rng, leaves - left, first + left, edges)
    if rng.random() < 0.5:
        edges.extend((u, v) for u in a for v in b)
    return a + b


def random_cograph(rng: random.Random, leaves: int) -> list[tuple[int, int]]:
    edges: list[tuple[int, int]] = []
    _cotree(rng, leaves, 0, edges)
    return edges


def threshold_edges(bits) -> list[tuple[int, int]]:
    """Threshold cograph: vertex v arrives isolated (bit 0) or dominating
    (bit 1) with respect to vertices 0..v-1."""
    return [(u, v) for v, b in enumerate(bits) if b for u in range(v)]


def threshold_tree(bits) -> tuple:
    """Modular decomposition of a threshold cograph, as nested tuples
    (`("leaf", v)` or `(kind, child, ...)`), built from its construction.
    Consecutive arrivals of one kind share a node."""
    node: tuple = ("leaf", 0)
    v = 1
    n = len(bits)
    while v < n:
        b = bits[v]
        run = [("leaf", v)]
        v += 1
        while v < n and bits[v] == b:
            run.append(("leaf", v))
            v += 1
        node = ("join" if b else "union", node, *run)
    return node


def complete_multipartite(sizes) -> tuple[int, list[tuple[int, int]]]:
    starts = list(itertools.accumulate([0, *sizes]))
    edges = [
        (u, v)
        for i, j in itertools.combinations(range(len(sizes)), 2)
        for u in range(starts[i], starts[i + 1])
        for v in range(starts[j], starts[j + 1])
    ]
    return starts[-1], edges


def interval_extremal(k: int) -> tuple[int, list[tuple[int, int]]]:
    """G_1 = K1, G_{k+1} = K1 + (G_k U G_k), apex first."""
    n, edges = 1, []
    for _ in range(k - 1):
        shifted = [(u + 1, v + 1) for u, v in edges]
        second = [(u + 1 + n, v + 1 + n) for u, v in edges]
        edges = [(0, v) for v in range(1, 2 * n + 1)] + shifted + second
        n = 2 * n + 1
    return n, edges


def substituted_prime(rng: random.Random, base_n: int, total: int):
    """A prime base graph with a random cograph substituted for each
    vertex, `total` vertices in all (prime nodes with non-leaf children)."""
    base = prime_gnp(rng, base_n, 0.45)
    sizes = [1] * base_n
    while sum(sizes) < total:
        sizes[rng.randrange(base_n)] += 1
    starts = list(itertools.accumulate([0, *sizes]))
    edges = []
    for i, size in enumerate(sizes):
        edges += [(u + starts[i], v + starts[i]) for u, v in random_cograph(rng, size)]
    for i, j in base:
        edges += [
            (u, v)
            for u in range(starts[i], starts[i + 1])
            for v in range(starts[j], starts[j + 1])
        ]
    return total, edges


# ----------------------------------------------------------------- pools


def _graph_item(name, command, n, edges, **extra) -> Item:
    canon = sorted({(u, v) if u < v else (v, u) for u, v in edges})
    return Item(name, command, n, tuple(canon), extra)


# Random cotrees, by index in the pool seed's sequence. Those of chi 4
# carry the tuple DP that dominates `chi-cograph`, so a pass holds a
# fixed set of them, 0.2-0.55 s each at the seed commit. Left out are
# the chi-4 cotrees that take longer (0.8 s to 6 s) and those whose time
# swings most with the vertex labelling (68, 137, 202, 252), which would
# make the time of a pass depend on the seed. Cotree 9 is sent ten
# times: the p90 rank of a pass then falls in the middle of its ten
# requests, so the tail is a median over many of them rather than one
# request's time. The easy cotrees are the first 58 indices whose chi
# is at most 3.
HARD_COTREES = (6, *[9] * 10, 23, 169, 192, 224, 226, 244)
_CHI4_BELOW_80 = (4, 6, 9, 11, 12, 15, 23, 28, 51, 60, 62, 68, 79)


def _chi_cograph() -> list[Item]:
    items = []
    for k in (1, 2, 3):
        n, e = complete_multipartite([1 << i for i in range(k + 1)])
        items.append(_graph_item(f"mp-extremal-{k}", "chi", n, e, family_k=k))
    for k in (2, 3, 4):
        n, e = interval_extremal(k)
        items.append(_graph_item(f"iv-extremal-{k}", "chi", n, e, family_k=k))
    n, e = complete_multipartite([2, 3, 4, 7, 9])
    items.append(_graph_item("mp-2-3-4-7-9", "chi", n, e, sizes=[2, 3, 4, 7, 9]))
    for i in range(18):
        rng = random.Random(f"{POOL_SEED}/threshold/{i}")
        n = 80 + 80 * i // 17
        bits = [0] + [int(rng.random() < 0.5) for _ in range(n - 1)]
        items.append(_graph_item(f"threshold-{i}", "chi", n, threshold_edges(bits)))
    easy = [i for i in range(80) if i not in _CHI4_BELOW_80][:58]
    copies: dict[int, int] = {}
    for i in sorted((*easy, *HARD_COTREES)):
        rng = random.Random(f"{POOL_SEED}/cotree/{i}")
        leaves = rng.randint(32, 44)
        copies[i] = copies.get(i, 0) + 1
        name = f"cotree-{i}" if HARD_COTREES.count(i) < 2 else f"cotree-{i}-copy{copies[i]}"
        items.append(_graph_item(name, "chi", leaves, random_cograph(rng, leaves)))
    return items


# Substituted instances (by index) left out because they take over
# 0.15 s at the seed commit; two of that kind (25 and 35) stay in. The
# p90 rank of a pass then falls in the middle of the G(11, 0.3)
# instances, which cost about the same, instead of at an edge.
_SLOW_SUBSTITUTED = (3, 12, 23, 28, 29, 53, 65, 68, 84, 85, 86, 97, 103)


def _chi_prime() -> list[Item]:
    items = []
    for n, count in ((11, 10), (12, 4), (13, 2), (14, 1)):
        for i in range(count):
            rng = random.Random(f"{POOL_SEED}/prime/{n}/{i}")
            items.append(_graph_item(f"prime-{n}-{i}", "chi", n, prime_gnp(rng, n, 0.3)))
    kept = [i for i in range(120) if i not in _SLOW_SUBSTITUTED][:83]
    for i in kept:
        rng = random.Random(f"{POOL_SEED}/substituted/{i}")
        base_n = rng.choice((4, 5, 5, 6))
        n, e = substituted_prime(rng, base_n, rng.randint(15, 18))
        items.append(_graph_item(f"substituted-{i}", "chi", n, e))
    return items


def _negative_threshold(rng: random.Random, n: int) -> list[int]:
    while True:
        bits = [0] + [int(rng.random() < 0.5) for _ in range(n - 1)]
        if not Oracle(n, threshold_edges(bits)).is_1ext():
            return bits


def _query_mix() -> list[Item]:
    items = []
    for i in range(26):
        rng = random.Random(f"{POOL_SEED}/test/{i}")
        n = 18 + i % 8
        items.append(_graph_item(f"test-gnp-{i}", "test", n, _gnp(rng, n, 0.3)))
    for i in range(22):
        rng = random.Random(f"{POOL_SEED}/pv/{i}")
        n = 14 + i % 12
        items.append(_graph_item(f"pv-{i}", "pv", n, _gnp(rng, n, 0.3)))
    for i in range(22):
        rng = random.Random(f"{POOL_SEED}/verify/{i}")
        n = 16 + i % 7
        edges = _gnp(rng, n, 0.3)
        if i % 2:
            colors = [rng.randint(1, 3) for _ in range(n)]
        else:
            colors = Oracle(n, edges).peel()
        items.append(_graph_item(f"verify-{i}", "verify", n, edges, colors=colors))
    genset = (
        ((2, 3, 4, 7, 9), 3),
        ((2, 3, 4, 7, 9), 2),
        ((1, 2, 4, 8, 15), 3),
        ((5, 6, 11, 17), 3),
        ((3, 5, 7, 12, 13), 3),
        ((4, 9, 13, 22), 2),
        ((1, 3, 9, 27), 4),
        ((6, 10, 15, 21), 3),
        ((2, 5, 9, 14, 20), 3),
        ((7, 8, 15, 23), 2),
        ((1, 5, 6, 11), 3),
        ((3, 4, 10, 14, 17), 3),
        ((2, 9, 16, 25), 3),
        ((12, 13), 2),
        ((2, 3, 4, 7, 9), 4),
        ((1, 4, 6, 10), 2),
        ((5, 8, 13, 21), 3),
    )
    for i, (targets, k) in enumerate(genset):
        items.append(Item(f"genset-{i}", "genset", extra={"targets": list(targets), "k": k}))
    for i, n in enumerate((100, 115, 130, 150)):
        rng = random.Random(f"{POOL_SEED}/decompose-dense/{i}")
        items.append(_graph_item(f"decompose-dense-{n}", "decompose", n, _gnp(rng, n, 0.5)))
    for i, n in enumerate((60, 80, 100, 120, 140)):
        rng = random.Random(f"{POOL_SEED}/test-threshold/{i}")
        bits = _negative_threshold(rng, n)
        items.append(
            _graph_item(f"test-threshold-{n}", "test", n, threshold_edges(bits), bits=bits)
        )
    # Through the CLI, `format_tree` overflows the recursion limit on
    # these trees from about 330 vertices at the seed commit, so the
    # timed loop uses n=280 and n=500 is a known failure. The four
    # requests cost the same and sit at the p90 rank of a pass, which
    # keeps `latency_tail_ms` from jumping between neighbouring sizes.
    bits = [v % 2 for v in range(280)]
    for i in range(4):
        items.append(
            _graph_item(f"decompose-deep-280-{i}", "decompose", 280, threshold_edges(bits), bits=bits)
        )
    return items


def known_failures(workload: str) -> list[Item]:
    """Requests that fail at the seed commit, run once per run outside
    the timed loop: `test` exits 3 on a prime graph of more than 25
    vertices, and `decompose` raises RecursionError on a deep threshold
    cograph of 500 vertices."""
    if workload != "query-mix":
        return []
    rng = random.Random(f"{POOL_SEED}/known/test")
    bits = [v % 2 for v in range(500)]
    return [
        _graph_item("known-test-prime-30", "test", 30, prime_gnp(rng, 30, 0.3)),
        _graph_item("known-decompose-deep-500", "decompose", 500,
                    threshold_edges(bits), bits=bits),
    ]


_POOLS = {"chi-cograph": _chi_cograph, "chi-prime": _chi_prime, "query-mix": _query_mix}


def pool(workload: str) -> list[Item]:
    return _POOLS[workload]()


def pool_digest(items: list[Item]) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(repr((it.name, it.command, it.n, it.edges, sorted(it.extra.items()))).encode())
    return h.hexdigest()


# ------------------------------------------------------------- requests


@dataclass(frozen=True)
class Request:
    """One request of one pass: a relabelled instance and its argv."""

    index: int  # position in the pool
    perm: tuple[int, ...]  # base vertex -> label in the document
    order: tuple[int, ...]  # genset: target order
    argv: tuple[str, ...]
    files: dict = field(compare=False)  # path -> text


def edge_list_text(n: int, edges) -> str:
    lines = [f"p {n} {len(edges)}"] + [f"e {u} {v}" for u, v in sorted(edges)]
    return "\n".join(lines) + "\n"


def make_request(item: Item, seed: int, pass_no: int, index: int, directory: Path) -> Request:
    """Relabel `item` for (seed, pass) and build its argv, with file
    names in `directory` that start with `r<index>`."""
    rng = random.Random(f"{seed}/{pass_no}/{index}")
    perm = list(range(item.n))
    rng.shuffle(perm)
    edges = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in item.edges]
    path = {ext: str(directory / f"r{index}.{ext}") for ext in ("txt", "part", "cert", "genset")}
    files = {}
    order: list[int] = []
    if item.command == "genset":
        targets = item.extra["targets"]
        order = list(range(len(targets)))
        rng.shuffle(order)
        files[path["genset"]] = (
            f"targets: {' '.join(str(targets[i]) for i in order)}\nk: {item.extra['k']}\n"
        )
        argv = ["genset", "--instance", path["genset"]]
    else:
        files[path["txt"]] = edge_list_text(item.n, edges)
        if item.command == "chi":
            argv = ["chi", path["txt"], "--emit-partition", path["part"]]
        elif item.command == "verify":
            colors = item.extra["colors"]
            inv = [0] * item.n
            for b, v in enumerate(perm):
                inv[v] = b
            files[path["cert"]] = "".join(f"{v} {colors[inv[v]]}\n" for v in range(item.n))
            argv = ["verify", path["txt"], path["cert"]]
        elif item.command == "pv":
            argv = ["pv", path["txt"], "--theta", "50"]
        else:
            argv = [item.command, path["txt"]]
    return Request(index, tuple(perm), tuple(order), tuple(argv), files)


def pass_requests(items: list[Item], seed: int, pass_no: int, directory: Path) -> list[Request]:
    """The requests of one pass, in the seeded order they are sent."""
    reqs = [make_request(it, seed, pass_no, i, directory) for i, it in enumerate(items)]
    random.Random(f"{seed}/{pass_no}/order").shuffle(reqs)
    return reqs


def write_request_files(reqs: list[Request], digest=None) -> None:
    """Write the requests' documents; `digest` (a hashlib object), when
    given, absorbs each document's name and text in sending order."""
    for r in reqs:
        for path, text in r.files.items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text)
            if digest is not None:
                digest.update(Path(path).name.encode() + b"\0" + text.encode())
