"""Answer checks, run outside the timed region.

Every output is compared byte for byte with the committed reference
answer carried over to the request's relabelling. `chi` certificates
are also re-checked class by class: with the benchmark's own oracle,
and with `tests/bruteforce.py` for classes small enough to enumerate.
"""

from __future__ import annotations

import re

from oracle import Oracle, class_masks

BRUTEFORCE_MAX = 10  # classes up to this size are also enumerated

_TOKEN = re.compile(r"(\w+)\(|leaf (\d+)|,|\)")


def relabel_tree(text: str, perm) -> str:
    """Carry a tree in `format_tree` syntax over to new labels, with the
    children of every node ordered by their minimum vertex."""
    kinds: list[str] = []
    stack: list[list] = [[]]  # per open node: (minimum vertex, subtree) of its children
    for m in _TOKEN.finditer(text):
        kind, leaf = m.group(1), m.group(2)
        if kind:
            kinds.append(kind)
            stack.append([])
        elif leaf is not None:
            v = perm[int(leaf)]
            stack[-1].append((v, ("leaf", v)))
        elif m.group(0) == ")":
            children = sorted(stack.pop())  # sibling minima are distinct
            stack[-1].append((children[0][0], (kinds.pop(), *(c for _, c in children))))
    ((_, top),) = stack[0]
    return tree_text(top)


def tree_text(node: tuple) -> str:
    """`format_tree` syntax for a nested-tuple tree (children kept in
    the given order)."""
    out = []
    todo: list = [node]
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
        elif x[0] == "leaf":
            out.append(f"leaf {x[1]}")
        else:
            out.append(f"{x[0]}(")
            todo.append(")")
            for i, c in enumerate(reversed(x[1:])):
                if i:
                    todo.append(",")
                todo.append(c)
    return "".join(out)


def _labels(perm, base_vertices) -> str:
    return " ".join(str(v) for v in sorted(perm[b] for b in base_vertices))


def expected_stdout(item, req, ref: dict) -> tuple[int, str]:
    """Exit code and stdout the request must produce."""
    perm = req.perm
    cmd = item.command
    if cmd == "chi":
        return 0, f"chi_1ext: {ref['chi']}\n"
    if cmd == "test":
        text = (
            f"1-extendable: {'yes' if ref['is_1ext'] else 'no'}\n"
            f"alpha: {ref['alpha']}\nmethod: {ref['method']}\n"
        )
        if not ref["is_1ext"]:
            text += f"starved: {_labels(perm, ref['starved'])}\n"
        return (0 if ref["is_1ext"] else 1), text
    if cmd == "pv":
        inv = [0] * item.n
        for b, v in enumerate(perm):
            inv[v] = b
        rows = [f"{v}\t{ref['p'][inv[v]]}\t{ref['limit'][inv[v]]}\n" for v in range(item.n)]
        text = "theta: 50\nvertex\tp\tlimit\n" + "".join(rows)
        if ref["starved"]:
            text += f"starved: {_labels(perm, ref['starved'])}\n"
        return 0, text
    if cmd == "decompose":
        return 0, f"{relabel_tree(ref['tree'], perm)}\nmw={ref['mw']}\n"
    if cmd == "verify":
        return (0, "valid 1-extendable partition: yes\n") if ref["valid"] else (
            1, "valid 1-extendable partition: no\n")
    if cmd == "genset":
        if not ref["feasible"]:
            return 1, "infeasible\n"
        head, per_target = ref["stdout"][:2], ref["stdout"][2:]
        return 0, "".join(head + [per_target[i] for i in req.order])
    raise ValueError(f"unknown command {cmd}")


def check_certificate(item, req, text: str, k: int, bruteforce) -> str | None:
    """None when the partition file is a valid k-class certificate for
    the request's document; otherwise what is wrong with it."""
    n = item.n
    colors = [0] * n
    for line in text.splitlines():
        try:
            v, c = (int(x) for x in line.split())
        except ValueError:
            return f"bad certificate line {line!r}"
        if not (0 <= v < n) or colors[v] or not (1 <= c <= k):
            return f"bad certificate line {line!r}"
        colors[v] = c
    if 0 in colors:
        return "certificate misses a vertex"
    edges = [(req.perm[u], req.perm[v]) for u, v in item.edges]
    oracle = Oracle(n, edges)
    for mask in class_masks(colors):
        if not oracle.is_1ext(mask):
            return "a certificate class is not 1-extendable (oracle)"
        members = [v for v in range(n) if mask >> v & 1]
        if len(members) <= BRUTEFORCE_MAX:
            index = {v: i for i, v in enumerate(members)}
            sub = bruteforce.Graph(
                len(members),
                [(index[u], index[v]) for u, v in edges if u in index and v in index],
            )
            if not bruteforce.bf_is_1ext(sub):
                return "a certificate class is not 1-extendable (bruteforce)"
    return None


def classify(status) -> str:
    if status == 2:
        return "exit2"
    if status == 3:
        return "exit3"
    if isinstance(status, str):
        return f"exception:{status}"
    return "wrong_answer"


def check(item, req, record: dict, ref: dict, bruteforce) -> str | None:
    """None when the request was answered correctly; else its failure kind."""
    code, text = expected_stdout(item, req, ref)
    if record["status"] != code or record["stdout"] != text:
        return classify(record["status"])
    if item.command == "chi":
        path = req.argv[req.argv.index("--emit-partition") + 1]
        try:
            with open(path) as f:
                cert = f.read()
        except OSError:
            return "wrong_answer"
        if check_certificate(item, req, cert, ref["chi"], bruteforce) is not None:
            return "wrong_answer"
    return None
