"""No function in the package calls itself, directly or through other
functions of the package, apart from three memoized counters whose
depth is held down by a count cap.

Tree walks recurse once per tree level, and a threshold cograph's tree
is as deep as the graph is large, so a recursive walker fails with
RecursionError on graphs of a few hundred vertices.
"""

import ast
from pathlib import Path

import extpart

ALLOWED = {
    # one level per vertex of the mask; mis_stats and
    # enumerate_max_independent_sets refuse n > 40 by default
    "independent_sets._MisCounter.query",
    # one level per chosen vertex; enumerate_max_independent_sets
    # refuses n > 40 by default
    "independent_sets._enumerate_mis.walk",
    # one level per vertex of the mask; access_proportion refuses n > 25
    # by default
    "access._IndepPolynomial.eval",
}


def _call_graph(sources: dict[str, str]) -> dict[str, set[str]]:
    """Calls between the functions of the given modules, by qualified
    name `module.Outer.inner`. A plain name resolves to a def visible in
    the enclosing scopes (nested, module-level, or imported with
    `from .module import name`); `self.name(...)` resolves to a method
    of the enclosing class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def own_nodes(fn):
        """The nodes of fn's body, not descending into nested defs."""
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (*defs, ast.ClassDef)):
                stack.extend(ast.iter_child_nodes(node))

    work = []
    for mod, text in sources.items():
        body = ast.parse(text).body
        module_scope = {}
        for node in body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for a in node.names:
                    module_scope[a.asname or a.name] = f"{node.module}.{a.name}"
            elif isinstance(node, defs):
                module_scope[node.name] = f"{mod}.{node.name}"
        for node in body:
            if isinstance(node, defs):
                work.append((node, f"{mod}.{node.name}", [module_scope], None))
            elif isinstance(node, ast.ClassDef):
                cls = f"{mod}.{node.name}"
                for item in node.body:
                    if isinstance(item, defs):
                        work.append((item, f"{cls}.{item.name}", [module_scope], cls))
    known = {qual for _, qual, _, _ in work}
    calls: dict[str, set[str]] = {}
    while work:
        fn, qual, scopes, cls = work.pop()
        inner = [n for n in own_nodes(fn) if isinstance(n, defs)]
        scopes = [{n.name: f"{qual}.{n.name}" for n in inner}, *scopes]
        out = calls.setdefault(qual, set())
        for node in own_nodes(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                target = next((s[f.id] for s in scopes if f.id in s), None)
                if target is not None:
                    out.add(target)
            elif (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
                and cls is not None
            ):
                out.add(f"{cls}.{f.attr}")
        for n in inner:
            work.append((n, f"{qual}.{n.name}", scopes, cls))
            known.add(f"{qual}.{n.name}")
    return {q: {c for c in cs if c in known} for q, cs in calls.items()}


def _recursive(sources: dict[str, str]) -> set[str]:
    """The functions that can reach themselves through calls."""
    calls = _call_graph(sources)
    found = set()
    for start, callees in calls.items():
        seen, stack = set(), list(callees)
        while stack:
            q = stack.pop()
            if q == start:
                found.add(start)
                break
            if q not in seen:
                seen.add(q)
                stack.extend(calls.get(q, ()))
    return found


def _package_sources() -> dict[str, str]:
    src = Path(extpart.__file__).parent
    return {p.stem: p.read_text() for p in sorted(src.glob("*.py"))}


def test_checker_finds_each_kind_of_recursion():
    sources = {
        "a": (
            "from .b import far\n"
            "def direct(x):\n    return direct(x - 1)\n"
            "def ping(x):\n    return pong(x)\n"
            "def pong(x):\n    return ping(x)\n"
            "def near(x):\n    return far(x)\n"
            "def outer(x):\n"
            "    def walk(y):\n        return [walk(z) for z in y]\n"
            "    return walk(x)\n"
            "def fine(x):\n    return sorted(x)\n"
            "class C:\n"
            "    def m(self, x):\n        return self.m(x)\n"
            "    def n(self, x):\n        return self.struct.n(x)\n"
        ),
        "b": "from .a import near\ndef far(x):\n    return near(x)\n",
    }
    assert _recursive(sources) == {
        "a.direct", "a.ping", "a.pong", "a.near", "b.far", "a.outer.walk", "a.C.m",
    }


def test_package_has_no_recursion_but_the_capped_counters():
    sources = _package_sources()
    assert ALLOWED <= set(_call_graph(sources))
    assert _recursive(sources) - ALLOWED == set()
