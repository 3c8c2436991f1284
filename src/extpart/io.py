"""Text formats: graph documents (edge list and JSON), partition
certificates, decomposition trees, and DOT export.

The edge-list format is DIMACS-like but 0-based: a header line `p n m`,
one `e u v` line per edge, and `c ...` comment lines. A canonical document
(`p n m`, then only `e u v` lines of plain decimals, as serialization writes)
is checked by one regex search and its endpoints read by one `json.loads`;
any other is read line by line. Every graph reader builds the masks with
`graphs.edge_masks`. Serialization is canonical (sorted edges), so
parse/serialize round trips byte-stable.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .graphs import Graph, edge_masks
from .moddecomp import LEAF, MDNode
from .partition import Partition

EDGE_LIST = "edge-list"
ADJACENCY_JSON = "adjacency-json"

# int() alone would also read "+1", "1_0" and non-ASCII digits
_INT_FIELD = re.compile(r"-?[0-9]+")
# a well-formed `e u v` line of numbers int() reads; any other line is
# checked field by field
_EDGE_LINE = re.compile(r"\s*e\s+(-?[0-9]{1,18})\s+(-?[0-9]{1,18})\s*")
# a canonical header; after it each line break starts a canonical edge line
# or ends the text (one search: a repeated group would grow sre's stack)
_PLAIN = r"(?:0|[1-9][0-9]{0,17})"
_CANONICAL_HEADER = re.compile(rf"p ({_PLAIN}) ({_PLAIN})\n")
_NOT_CANONICAL_EDGE = re.compile(rf"\n(?!e {_PLAIN} {_PLAIN}\n|\Z)")


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph plus optional vertex names and multipartite parts."""

    fmt: str
    graph: Graph
    names: tuple[str, ...] | None = None
    parts: tuple[int, ...] | None = None

    def vertex_label(self, v: int) -> str:
        return self.names[v] if self.names else str(v)


def graph_to_document(
    g: Graph,
    fmt: str = EDGE_LIST,
    names: Sequence[str] | None = None,
    parts: Sequence[int] | None = None,
) -> GraphDocument:
    return GraphDocument(
        fmt=fmt,
        graph=g,
        names=tuple(names) if names is not None else None,
        parts=tuple(parts) if parts is not None else None,
    )


def parse_graph_text(text: str) -> GraphDocument:
    """Parse a graph document, auto-detecting JSON versus edge list."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_edge_list(text)


def _parse_edge_list(text: str) -> GraphDocument:
    header = _CANONICAL_HEADER.match(text)
    if header and not _NOT_CANONICAL_EDGE.search(text, header.end() - 1):
        body = text[header.end() + 2 : -1].replace("\ne ", ",").replace(" ", ",")
        ends = iter(json.loads(f"[{body}]"))
        n, m = int(header[1]), int(header[2])
        masks, bad = edge_masks(n, zip(ends, ends))
        if bad < 0 and sum(map(int.bit_count, masks)) == 2 * m:
            return GraphDocument(EDGE_LIST, Graph._from_masks(n, tuple(masks)))
    # any other document, and a canonical one with an error, line by line
    n = m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        edge = _EDGE_LINE.fullmatch(raw)
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
                n, m = _int_fields(fields[1:], f"line {lineno}: bad header numbers")
                continue
            if fields[0] != "e":
                raise InputError(f"line {lineno}: unrecognized line {line!r}")
            if n is None:
                raise InputError(f"line {lineno}: edge before `p` header")
            if len(fields) != 3:
                raise InputError(f"line {lineno}: edge must be `e u v`")
            u, v = _int_fields(fields[1:], f"line {lineno}: bad edge endpoints")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        if u == v:
            raise InputError(f"line {lineno}: self-loop at {u}")
        edges.append((u, v))
    if n is None:
        raise InputError("missing `p n m` header line")
    masks, _ = edge_masks(n, edges)  # each edge was checked on its line
    found = sum(mask.bit_count() for mask in masks) // 2
    if m != found:
        raise InputError(f"header declares {m} edges, found {found} distinct")
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    return GraphDocument(fmt=EDGE_LIST, graph=Graph._from_masks(n, tuple(masks)))


def _int_fields(fields: list[str], error: str) -> list[int]:
    """Decimal integer fields of a text line; `error` is raised for any
    field that is not an optional minus sign followed by ASCII digits."""
    try:
        if all(map(_INT_FIELD.fullmatch, fields)):
            return list(map(int, fields))
    except ValueError:  # more digits than int() reads
        error += f" (over {sys.get_int_max_str_digits()} digits)"
    raise InputError(error)


def _parse_json(text: str) -> GraphDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"line {exc.lineno}, column {exc.colno}: invalid JSON ({exc.msg})"
        ) from exc
    except ValueError as exc:  # an integer longer than int() reads
        limit = sys.get_int_max_str_digits()
        raise InputError(f"invalid JSON (a number of over {limit} digits)") from exc
    except RecursionError as exc:  # arrays or objects nested past the stack
        raise InputError("invalid JSON (nested too deeply)") from exc
    if not isinstance(data, dict):
        raise InputError("JSON graph document must be an object")
    fmt = data.get("format", ADJACENCY_JSON)
    if fmt != ADJACENCY_JSON:
        raise InputError(f"unsupported format tag {fmt!r}")
    if "n" not in data or "edges" not in data:
        raise InputError("JSON graph document needs `n` and `edges`")
    n = _json_int(data["n"], "n")
    if n < 0:
        raise InputError(f"`n` must be non-negative, got {n}")
    edges = _json_list(data["edges"], "edges")
    masks, i = edge_masks(n, edges)
    if i >= 0:
        u, v = _json_list(edges[i], f"edges[{i}]", length=2)
        u, v = _json_int(u, f"edges[{i}][0]"), _json_int(v, f"edges[{i}][1]")
        raise InputError(f"`edges[{i}]`: bad edge ({u}, {v}) for n={n}")
    names = None
    if data.get("names") is not None:
        names = tuple(_json_list(data["names"], "names"))
        for i, name in enumerate(names):
            if type(name) is not str:
                raise InputError(f"`names[{i}]` must be a string, got {_excerpt(name)}")
        if len(names) != n or len(set(names)) != n:
            raise InputError("names must biject with vertices")
    parts = None
    if data.get("parts") is not None:
        raw = _json_list(data["parts"], "parts")
        parts = tuple(_json_int(x, f"parts[{i}]") for i, x in enumerate(raw))
        if any(p < 1 for p in parts) or sum(parts) != n:
            raise InputError("parts must be positive and sum to n")
    return GraphDocument(
        fmt=ADJACENCY_JSON,
        graph=Graph._from_masks(n, tuple(masks)),
        names=names,
        parts=parts,
    )


def _json_int(value: object, field: str) -> int:
    """A JSON integer; bools, floats and strings are refused."""
    if type(value) is not int:
        raise InputError(f"`{field}` must be an integer, got {_excerpt(value)}")
    return value


def _json_list(value: object, field: str, length: int | None = None) -> list:
    if type(value) is not list or (length is not None and len(value) != length):
        shape = "a list" if length is None else f"a list of {length}"
        raise InputError(f"`{field}` must be {shape}, got {_excerpt(value)}")
    return value


def _excerpt(value: object) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def serialize_graph_document(doc: GraphDocument) -> str:
    """Canonical text for a document (byte-stable under round trips)."""
    n, edges = doc.graph.n, doc.graph.edges
    if doc.fmt == EDGE_LIST:
        lines = [f"p {n} {len(edges)}"]
        lines += [f"e {u} {v}" for u, v in edges]
        return "\n".join(lines) + "\n"
    payload: dict[str, object] = {
        "format": ADJACENCY_JSON,
        "n": n,
        "edges": [list(e) for e in edges],
    }
    if doc.names is not None:
        payload["names"] = list(doc.names)
    if doc.parts is not None:
        payload["parts"] = list(doc.parts)
    return json.dumps(payload, sort_keys=True) + "\n"


def parse_partition_text(text: str, n: int) -> Partition:
    """Parse `vertex color` lines into a partition covering 0..n-1."""
    assignment: dict[int, int] = {}
    max_color = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise InputError(f"line {lineno}: expected `vertex color`")
        v, c = _int_fields(fields, f"line {lineno}: bad numbers")
        if not (0 <= v < n):
            raise InputError(f"line {lineno}: vertex {v} out of range 0..{n - 1}")
        if v in assignment:
            raise InputError(f"line {lineno}: vertex {v} assigned twice")
        if c < 1:
            raise InputError(f"line {lineno}: colors start at 1, got {c}")
        assignment[v] = c
        max_color = max(max_color, c)
    missing = [v for v in range(n) if v not in assignment]
    if missing:
        raise InputError(f"partition misses vertices {missing}")
    return Partition(max_color, tuple(assignment[v] for v in range(n)))


def format_partition_text(p: Partition) -> str:
    lines = [f"{v} {c}" for v, c in enumerate(p.color)]
    return "\n".join(lines) + "\n"


def format_tree(node: MDNode) -> str:
    """Nested-list text form, e.g. `join(union(leaf 0,leaf 1),leaf 2)`.
    Walks an explicit stack, so tree depth is not bounded by recursion."""
    out: list[str] = []
    stack: list[MDNode | str] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.kind == LEAF:
            out.append(f"leaf {item.vertex}")
        else:
            out.append(f"{item.kind}(")
            stack.append(")")
            for i, child in enumerate(reversed(item.children)):
                if i:
                    stack.append(",")
                stack.append(child)
    return "".join(out)


_DOT_PALETTE = (
    "#e6a176",
    "#7bb3d1",
    "#b5d99c",
    "#d9a7c7",
    "#f2d377",
    "#9ad0c2",
    "#d98c8c",
    "#a6a1d1",
    "#c9c9c9",
    "#8cd9b3",
)


def format_dot(
    g: Graph,
    partition: Partition | None = None,
    names: Sequence[str] | None = None,
) -> str:
    """Static DOT rendering, coloring vertices by partition class."""
    lines = ["graph G {", "  node [style=filled];"]
    for v in range(g.n):
        label = names[v] if names else str(v)
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        if partition is not None:
            fill = _DOT_PALETTE[(partition.color[v] - 1) % len(_DOT_PALETTE)]
        else:
            fill = "#ffffff"
        lines.append(f'  {v} [label="{label}" fillcolor="{fill}"];')
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
