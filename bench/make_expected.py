"""Write bench/expected/<workload>.json: the reference answer for every
base instance of a workload's pool, with the source of each value.

    python3 bench/make_expected.py [workload ...]   # from the repository root

Answers are taken from the program at the commit this is run on (the
"seed-code" source) and then cross-checked; a disagreement with any
independent source stops the script. Sources:

- "theorem": chi = k+1 for multipartite extremal member k, chi = k for
  interval extremal member k;
- "genset-number": chi of a complete multipartite graph equals the
  generating-set number of its part sizes (oracle.genset_number);
- "bruteforce": tests/bruteforce.py enumeration, where it finishes;
- "oracle": bench/oracle.py (for chi <= 2: chi = 1 iff the graph is
  1-extendable, and the certificate check gives the upper bound);
- "construction": decomposition trees of threshold cographs;
- "seed-code": only the program's own answer.

Because a run seed only relabels instances, these answers hold for
every seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import corpus  # noqa: E402
from check import relabel_tree, tree_text  # noqa: E402
from oracle import Oracle, class_masks, genset_feasible, genset_number  # noqa: E402
from run import load_bruteforce  # noqa: E402

BRUTE_CHI_N = 7
BRUTE_SETS_N = 14


def require(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"reference check failed: {what}")


def run_cli(argv) -> tuple[int, str]:
    import extpart.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = extpart.cli.main(list(argv))
    return code, out.getvalue()


def base_files(item, directory: Path) -> list[str]:
    """Write the instance with its base labels; returns its argv."""
    directory.mkdir(parents=True, exist_ok=True)
    graph = directory / f"{item.name}.txt"
    graph.write_text(corpus.edge_list_text(item.n, item.edges))
    if item.command == "chi":
        return ["chi", str(graph)]
    if item.command == "pv":
        return ["pv", str(graph), "--theta", "50"]
    if item.command == "verify":
        cert = directory / f"{item.name}.cert"
        cert.write_text("".join(f"{v} {c}\n" for v, c in enumerate(item.extra["colors"])))
        return ["verify", str(graph), str(cert)]
    if item.command == "genset":
        inst = directory / f"{item.name}.genset"
        inst.write_text(f"targets: {' '.join(map(str, item.extra['targets']))}\nk: {item.extra['k']}\n")
        return ["genset", "--instance", str(inst)]
    return [item.command, str(graph)]


def bf_access(bf, g, theta: Fraction):
    sets = bf.bf_independent_sets(g)
    z = sum(theta ** len(s) for s in sets)
    a = max(len(s) for s in sets)
    mis = [s for s in sets if len(s) == a]
    p = [sum(theta ** len(s) for s in sets if v in s) / z for v in range(g.n)]
    limit = [Fraction(sum(1 for s in mis if v in s), len(mis)) for v in range(g.n)]
    return p, limit


def reference(item, directory: Path, bf) -> dict:
    code, text = run_cli(base_files(item, directory))
    cmd = item.command
    oracle = Oracle(item.n, item.edges) if cmd in ("chi", "test", "verify") else None
    if cmd == "chi":
        require(code == 0, (item.name, code))
        k = int(text.split(":")[1])
        sources = ["seed-code"]
        if "family_k" in item.extra:
            fk = item.extra["family_k"]
            require(k == (fk + 1 if item.name.startswith("mp-") else fk), item.name)
            sources.append("theorem")
        if "sizes" in item.extra:
            require(k == genset_number(item.extra["sizes"]), item.name)
            sources.append("genset-number")
        if k <= 2:
            require(oracle.is_1ext() == (k == 1), item.name)
            sources.append("oracle")
        if item.n <= BRUTE_CHI_N:
            require(k == bf.bf_chi_1ext(bf.Graph(item.n, item.edges)), item.name)
            sources.append("bruteforce")
        return {"chi": k, "source": "+".join(sources)}
    if cmd == "test":
        lines = dict(line.split(": ", 1) for line in text.splitlines())
        is_1ext = oracle.is_1ext()
        cov = oracle.covered()
        starved = [v for v in range(item.n) if not cov >> v & 1]
        require(code == (0 if is_1ext else 1), item.name)
        require(lines["1-extendable"] == ("yes" if is_1ext else "no"), item.name)
        require(int(lines["alpha"]) == oracle.alpha(), item.name)
        require(lines.get("starved", "") == " ".join(map(str, starved)), item.name)
        sources = ["oracle"]
        if item.n <= BRUTE_SETS_N:
            require(bf.bf_is_1ext(bf.Graph(item.n, item.edges)) == is_1ext, item.name)
            sources.append("bruteforce")
        return {"is_1ext": is_1ext, "alpha": oracle.alpha(), "method": lines["method"],
                "starved": starved, "source": "+".join(sources) + " (method: seed-code)"}
    if cmd == "pv":
        require(code == 0, item.name)
        rows = [line.split("\t") for line in text.splitlines()[2 : 2 + item.n]]
        p = [r[1] for r in rows]
        limit = [r[2] for r in rows]
        starved = [v for v in range(item.n) if Fraction(limit[v]) == 0]
        source = "seed-code"
        if item.n <= BRUTE_SETS_N:
            bp, bl = bf_access(bf, bf.Graph(item.n, item.edges), Fraction(50))
            require([str(x) for x in bp] == p and [str(x) for x in bl] == limit, item.name)
            source = "bruteforce"
        return {"p": p, "limit": limit, "starved": starved, "source": source}
    if cmd == "decompose":
        require(code == 0, item.name)
        tree, mw = text.splitlines()
        source = "seed-code"
        if "bits" in item.extra:
            built = tree_text(corpus.threshold_tree(item.extra["bits"]))
            require(relabel_tree(built, range(item.n)) == tree, item.name)
            source = "construction"
        return {"tree": tree, "mw": int(mw.split("=")[1]), "source": source}
    if cmd == "verify":
        valid = all(oracle.is_1ext(m) for m in class_masks(item.extra["colors"]))
        require(code == (0 if valid else 1), item.name)
        return {"valid": valid, "source": "oracle"}
    if cmd == "genset":
        feasible = genset_feasible(item.extra["targets"], item.extra["k"])
        require(code == (0 if feasible else 1), item.name)
        ref = {"feasible": feasible, "source": "bruteforce-genset (lines: seed-code)"}
        if feasible:
            ref["stdout"] = text.splitlines(keepends=True)
        return ref
    raise ValueError(cmd)


def known_reference(item) -> dict:
    """References for the known failures, from independent sources only
    (the seed code does not answer them)."""
    if item.command == "decompose":
        tree = relabel_tree(tree_text(corpus.threshold_tree(item.extra["bits"])), range(item.n))
        return {"tree": tree, "mw": 2, "source": "construction", "fails_with": "RecursionError"}
    oracle = Oracle(item.n, item.edges)
    cov = oracle.covered()
    return {"is_1ext": oracle.is_1ext(), "alpha": oracle.alpha(), "method": "mw",
            "starved": [v for v in range(item.n) if not cov >> v & 1],
            "source": "oracle (method: prime graph)", "fails_with": "exit3"}


def main(workloads) -> None:
    bf = load_bruteforce(ROOT)
    for w in workloads:
        items = corpus.pool(w)
        directory = ROOT / ".bench_work" / "expected" / w
        answers = {it.name: reference(it, directory, bf) for it in items}
        known = {it.name: known_reference(it) for it in corpus.known_failures(w)}
        doc = {"workload": w, "pool_seed": corpus.POOL_SEED,
               "pool_digest": corpus.pool_digest(items), "answers": answers, "known": known}
        (HERE / "expected" / f"{w}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(w, len(answers), "answers", len(known), "known failures")


if __name__ == "__main__":
    main(sys.argv[1:] or corpus.WORKLOADS)
