"""Outside-in tracer: wraps extpart's public functions from the
benchmark's side, without changing the package.

Each traced name is rebound in every `extpart` module that holds the
original function object (for example, `weighted_profile` is bound in
`extpart.independent_sets`, `extpart.partition`, `extpart.extend` and
the package itself), so calls between modules and within a module both
go through the wrapper. A name that the package no longer defines is
recorded as absent instead of failing.

Spans (name, start, end, parent span, request id) are kept in flat
in-memory arrays and written out when the run ends; self time is a
span's duration minus that of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

TRACED = {
    "io": ("parse_graph_text", "parse_partition_text"),
    "graphs": ("induced_subgraph",),
    "moddecomp": ("decompose",),
    "independent_sets": (
        "alpha",
        "is_1ext_oracle",
        "mis_covered_vertices",
        "mis_stats",
        "weighted_profile",
    ),
    "extend": ("is_1ext_mw", "is_1ext_cograph"),
    "access": ("access_proportion", "starvation_set"),
    "partition": (
        "chi_1ext",
        "feasible_tuples_mw",
        "tuple_join",
        "tuple_sum",
        "verify_partition",
    ),
    "genset": ("solve",),
    "cli": ("main",),
}

REQUEST = "request"


def _decompose_counters(tracer: "Tracer", args, result) -> None:
    stack = [result.root]
    while stack:
        node = stack.pop()
        if node.kind == "prime":
            tracer.count("moddecomp.prime_nodes")
            tracer.maximum("moddecomp.max_prime_width", len(node.children))
        stack.extend(node.children)


def _fold_counters(name: str):
    def hook(tracer: "Tracer", args, result) -> None:
        tracer.count(f"{name}.pairs", len(args[0]) * len(args[1]))
        tracer.count(f"{name}.kept", len(result))

    return hook


def _profile_counters(tracer: "Tracer", args, result) -> None:
    tracer.maximum("independent_sets.weighted_profile.max_n", args[0].base.n)


def _root_counters(tracer: "Tracer", args, result) -> None:
    tracer.count("partition.root_tuples", len(result))


HOOKS = {
    "moddecomp.decompose": _decompose_counters,
    "partition.tuple_join": _fold_counters("partition.tuple_join"),
    "partition.tuple_sum": _fold_counters("partition.tuple_sum"),
    "independent_sets.weighted_profile": _profile_counters,
    "partition.feasible_tuples_mw": _root_counters,
}


class Tracer:
    """Spans and counters of one workload process."""

    def __init__(self) -> None:
        self.names: list[str] = [REQUEST]
        self.t0 = array("q")
        self.t1 = array("q")
        self.parent = array("q")
        self.rid = array("q")
        self.name_id = array("q")
        self.stack: list[int] = []
        self.request_id = -1
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.enabled = False
        self._bindings: list[tuple[object, str, object, object]] | None = None

    # -- counters
    def count(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def maximum(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- spans
    def _open(self, name_id: int) -> int:
        idx = len(self.t0)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.rid.append(self.request_id)
        self.t1.append(0)
        self.stack.append(idx)
        self.t0.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = perf_counter_ns()
        self.stack.pop()

    def request(self, request_id: int, call, *args):
        """Run one request under a root span."""
        self.request_id = request_id
        idx = self._open(0)
        try:
            return call(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced name in every loaded extpart module; the
        wrappers are made on the first call and reused after."""
        if self._bindings is None:
            self._bindings = []
            modules = [m for k, m in sys.modules.items() if k == "extpart" or k.startswith("extpart.")]
            for short, names in TRACED.items():
                home = sys.modules.get(f"extpart.{short}")
                for name in names:
                    key = f"{short}.{name}"
                    original = getattr(home, name, None) if home is not None else None
                    if not callable(original):
                        self.absent.append(key)
                        continue
                    wrapper = self._wrap(key, original)
                    self._bindings += [
                        (mod, attr, original, wrapper)
                        for mod in modules
                        for attr, value in vars(mod).items()
                        if value is original
                    ]
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        self.enabled = True

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings or ():
            setattr(mod, attr, original)
        self.enabled = False

    # -- results
    def summary(self, walls: dict[int, int] | None = None) -> dict:
        """Per name: calls, inclusive ns and self ns; and the largest
        difference between the sum of a request's self times and its
        wall time (`walls`, by request id, as measured by the caller;
        by default the request's root span)."""
        n = len(self.t0)
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        per_name: dict[str, list[int]] = {}
        wall: dict[int, int] = {}
        self_sum: dict[int, int] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            agg = per_name.setdefault(name, [0, 0, 0])
            own = dur[i] - child[i]
            agg[0] += 1
            agg[1] += dur[i]
            agg[2] += own
            r = self.rid[i]
            self_sum[r] = self_sum.get(r, 0) + own
            if self.parent[i] < 0:
                wall[r] = wall.get(r, 0) + dur[i]
        walls = wall if walls is None else walls
        gap = max((abs(self_sum.get(r, 0) - ns) for r, ns in walls.items()), default=0)
        return {
            "names": {k: {"calls": v[0], "ns": v[1], "self_ns": v[2]} for k, v in per_name.items()},
            "counters": dict(self.counters),
            "absent": list(self.absent),
            "requests": len(wall),
            "self_sum_gap_ns": gap,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for i in range(len(self.t0)):
                out.write(
                    f"{self.names[self.name_id[i]]}\t{self.t0[i]}\t{self.t1[i]}"
                    f"\t{self.parent[i]}\t{self.rid[i]}\n"
                )
