"""Seeded workload inputs, each with the answer the program must give.

Every expected answer is computed here, from the construction of the input,
without importing `cyclicsource`: Dade classes from planted bit vectors and
the recursion n -> p^depth - n, suite case counts from closed counts,
tree verdicts from how each tree pair was built.

An operation is a dict with
    argv      the `cyclicsource` command line, run in-process by the worker;
    kind      "verify", "infer" or "tree", which selects the check;
    expect    what the check compares the output with;
    known_fault  the exception class the operation raises today because of
              a known fault in the program, or None.
Input files are written under the directory given to `make`, and each
argv names its file by path.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("verify-tensor", "verify-syzygy", "infer-bulk", "tree-compare")

VERIFY_TENSOR_GROUPS = ((2, 4), (5, 2), (7, 2))
VERIFY_TENSOR_SUITES = ("dade-law", "classification")
VERIFY_SYZYGY_GROUPS = ((2, 5), (3, 3), (5, 2), (11, 1))
VERIFY_SYZYGY_SUITES = ("relative-heller", "restriction", "induction",
                        "operator-composition")

INFER_FILES = 8
INFER_MAKEUP = {          # records per file, by kind
    "chi": 1500,          # small odd p, ell 1..8, a quarter Heller-negated
    "chi-large-p": 250,   # 10^6 < p < 10^7, ell 1..3
    "principal": 250,     # odd p and p = 2
    "local": 250,         # centralizer or normalizer equality
    "c4": 250,            # p = 2, ell = 2, no flags
}
SMALL_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


# ---------------------------------------------------------------------------
# arithmetic the expected answers rest on


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def num_classes(p: int, ell: int) -> int:
    """Order of the Dade group of C_{p^ell}: rank ell, or ell - 1 for p = 2."""
    return 2 ** (ell - 1 if p == 2 else ell)


def class_sizes(p: int, ell: int) -> list[int]:
    rank = ell - 1 if p == 2 else ell
    out = []
    for k in range(2 ** rank):
        alpha = [(k >> b) & 1 for b in range(rank)] + [0] * (ell - rank)
        out.append(jordan_size(p, alpha))
    return out


def jordan_size(p: int, alpha: list[int]) -> int:
    """Bit alpha_{ell-depth} set: n -> p^depth - n, from n = 1."""
    ell = len(alpha)
    n = 1
    for depth in range(1, ell + 1):
        if alpha[ell - depth]:
            n = p ** depth - n
    return n


def suite_totals(p: int, ell: int) -> dict[str, int]:
    """cases + skipped of every suite, counted from what each enumerates."""
    order = p ** ell
    classes = num_classes(p, ell)
    sizes = class_sizes(p, ell)
    cap = 1 << 20  # the documented default oracle capacity, in entries
    return {
        "dade-law": classes * classes,
        # injectivity, full vertex per class, then either the two oracle
        # checks or one skip when the tensor square exceeds the capacity
        "classification": 1 + classes + sum(
            2 if (n * n) ** 2 <= cap else 1 for n in sizes),
        "relative-heller": order * (ell + 1),
        "restriction": order * (ell + 1) + classes * ell * (ell + 1) // 2,
        "induction": sum(p ** i for i in range(ell + 1)),
        "operator-composition": 2 * classes,
    }


# ---------------------------------------------------------------------------
# verify workloads


def _verify_ops(groups, suites) -> list[dict]:
    ops = []
    for p, ell in groups:
        argv = ["--format", "json-lines", "verify", "--p", str(p),
                "--ell", str(ell)]
        for s in suites:
            argv += ["--suite", s]
        totals = suite_totals(p, ell)
        ops.append({"argv": argv, "kind": "verify", "known_fault": None,
                    "expect": [[s, totals[s]] for s in suites]})
    return ops


# ---------------------------------------------------------------------------
# infer-bulk


def _planted_chi(rng: random.Random, p: int, ell: int, record: dict) -> dict:
    alpha = [0] + [rng.randint(0, 1) for _ in range(ell - 1)]
    signs, total = [], 0
    for a in alpha:
        total += a
        signs.append(1 if total % 2 == 0 else -1)
    flip = -1 if rng.random() < 0.25 else 1  # Heller translate
    record["chi_values"] = [flip * s * rng.randint(1, 999) for s in signs]
    if rng.random() < 0.3:
        record["is_principal"] = False
        divisors = [e for e in range(1, min(p - 1, 64) + 1) if (p - 1) % e == 0]
        record["inertial_index"] = rng.choice(divisors)
    return {"alpha": "".join(map(str, alpha)), "jordan": jordan_size(p, alpha),
            "signs": signs, "trivial": not any(alpha),
            "provenance": "character-values"}


def _trivial(ell: int, provenance: str) -> dict:
    return {"alpha": "0" * ell, "jordan": 1, "signs": [1] * ell,
            "trivial": True, "provenance": provenance}


def _large_prime(rng: random.Random) -> int:
    n = rng.randrange(10 ** 6, 10 ** 7) | 1
    while not is_prime(n):
        n += 2
    return n


def _block(rng: random.Random, kind: str, label: str) -> tuple[dict, dict]:
    if kind in ("chi", "chi-large-p"):
        if kind == "chi":
            p, ell = rng.choice(SMALL_ODD_PRIMES), rng.randint(1, 8)
        else:
            p, ell = _large_prime(rng), rng.randint(1, 3)
        record = {"label": label, "p": p, "ell": ell}
        return record, _planted_chi(rng, p, ell, record)
    if kind == "c4":
        return {"label": label, "p": 2, "ell": 2}, _trivial(2, "c4-defect")
    p = rng.choice((2,) + SMALL_ODD_PRIMES)
    ell = rng.randint(1, 6)
    record = {"label": label, "p": p, "ell": ell}
    if kind == "principal":
        record["is_principal"] = True
        return record, _trivial(ell, "principal-block")
    record["is_principal"] = False
    record[rng.choice(("centralizer_equal", "normalizer_equal"))] = True
    return record, _trivial(ell, "local-equality")


def _infer_ops(rng: random.Random, work: Path) -> list[dict]:
    ops = []
    for f in range(INFER_FILES):
        kinds = [k for k, n in INFER_MAKEUP.items() for _ in range(n)]
        rng.shuffle(kinds)
        records, expect = [], []
        for idx, kind in enumerate(kinds):
            record, answer = _block(rng, kind, f"f{f}b{idx}")
            records.append(record)
            expect.append({"record": "block", "label": record["label"],
                           "status": "ok", **answer})
        name = f"blocks-{f}.json"
        (work / name).write_text(
            json.dumps({"version": 1, "blocks": records}) + "\n")
        ops.append({"argv": ["--format", "json-lines", "infer",
                             str(work / name)],
                    "kind": "infer", "expect": expect, "known_fault": None})
    return ops


def block_count() -> int:
    return INFER_FILES * sum(INFER_MAKEUP.values())


# ---------------------------------------------------------------------------
# trees: vertex 0 is the root; adj[v] is the cyclic neighbour order


def _tree_numbers(e: int, exceptional: bool) -> tuple[int, int]:
    """(p, m) with e * m = p - 1 (ell = 1); m = 1 unless exceptional."""
    m = 1
    while not is_prime(e * m + 1):
        if not exceptional:
            raise ValueError(f"{e} + 1 is not prime")
        m += 1
    return e * m + 1, m


def _random_tree(rng: random.Random, edges: int) -> list[list[int]]:
    """Random recursive tree, shallow: its depth is about 2.7 ln n."""
    adj: list[list[int]] = [[]]
    for v in range(1, edges + 1):
        u = rng.randrange(v)
        adj.append([u])
        adj[u].insert(rng.randint(0, len(adj[u])), v)
    return adj


def _star(edges: int) -> list[list[int]]:
    return [list(range(1, edges + 1))] + [[0] for _ in range(edges)]


def _double_star(left: int, right: int) -> list[list[int]]:
    """Hub 0 with `left` leaves and hub 1 with `right` leaves, joined."""
    adj = [[1], [0]]
    for hub, count in ((0, left), (1, right)):
        for _ in range(count):
            adj[hub].append(len(adj))
            adj.append([hub])
    return adj


def _caterpillar(rng: random.Random, spine: int, edges: int) -> list[list[int]]:
    """A path of `spine` vertices, rooted at its middle, with the remaining
    edges as leaves hung on random spine vertices."""
    order = [spine // 2] + [v for v in range(spine) if v != spine // 2]
    rename = {old: new for new, old in enumerate(order)}
    adj: list[list[int]] = [[] for _ in range(spine)]
    for v in range(spine - 1):
        a, b = rename[v], rename[v + 1]
        adj[a].append(b)
        adj[b].append(a)
    for _ in range(edges - (spine - 1)):
        hub = rename[rng.randrange(spine)]
        adj[hub].insert(rng.randint(0, len(adj[hub])), len(adj))
        adj.append([hub])
    return adj


def _chiral(rng: random.Random, sizes: tuple[int, int, int]) -> list[list[int]]:
    """Root with three subtrees of distinct sizes: the mirror reverses their
    cyclic order at the root, which no rotation undoes."""
    adj: list[list[int]] = [[]]
    for size in sizes:
        sub = _random_tree(rng, size - 1)
        base = len(adj)
        adj[0].append(base)
        for v, ns in enumerate(sub):
            adj.append([n + base for n in ns] + ([0] if v == 0 else []))
    return adj


def _depth(adj: list[list[int]]) -> int:
    depth = {0: 0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in depth:
                depth[w] = depth[v] + 1
                stack.append(w)
    return max(depth.values())


def _move_leaf(rng: random.Random, adj: list[list[int]]) -> list[list[int]]:
    """Re-hang one leaf so that the degree multiset changes."""
    degrees = sorted(len(ns) for ns in adj)
    leaves = [v for v in range(1, len(adj)) if len(adj[v]) == 1]
    while True:
        leaf = rng.choice(leaves)
        old = adj[leaf][0]
        new = rng.randrange(len(adj))
        if new in (leaf, old):
            continue
        moved = [list(ns) for ns in adj]
        moved[old].remove(leaf)
        moved[new].insert(rng.randint(0, len(moved[new])), leaf)
        moved[leaf] = [new]
        if sorted(len(ns) for ns in moved) != degrees:
            return moved


def _record(adj: list[list[int]], names: list[str], label: str,
            exceptional: bool, rng: random.Random) -> dict:
    """Tree record under vertex names `names`, with every cyclic order
    rotated by a random offset and the vertex list shuffled."""
    edges = len(adj) - 1
    p, m = _tree_numbers(edges, exceptional)
    planar = {}
    for v, ns in enumerate(adj):
        k = rng.randrange(len(ns)) if ns else 0
        planar[names[v]] = [names[w] for w in ns[k:] + ns[:k]]
    vertices = list(names)
    rng.shuffle(vertices)
    return {"label": label, "p": p, "ell": 1, "vertices": vertices,
            "planar": planar, "multiplicity": m,
            "exceptional": names[0] if exceptional else None}


def _names(rng: random.Random, count: int, prefix: str) -> list[str]:
    ids = list(range(count))
    rng.shuffle(ids)
    return [f"{prefix}{i}" for i in ids]


def _pair(rng, adj, partner, relation: str, exceptional: bool, tag: str):
    """Two tree records and the verdict their construction fixes."""
    a = _record(adj, _names(rng, len(adj), "a"), f"{tag}-a", exceptional, rng)
    b = _record(partner, _names(rng, len(partner), "b"), f"{tag}-b",
                exceptional, rng)
    verdict = {"copy": (True, True), "mirror": (True, False),
               "degrees": (False, False)}[relation]
    return [a, b], verdict


def _mirror(adj: list[list[int]]) -> list[list[int]]:
    return [list(reversed(ns)) for ns in adj]


# (tag, shape, size, relation, exceptional); sizes are edge counts
TREE_MAKEUP = (
    ("star-8008", "star", 8008, "copy", False),
    ("star-4000", "star", 4000, "degrees", False),
    ("random-3000a", "random", 3000, "copy", True),
    ("random-3000b", "random", 3000, "copy", True),
    ("random-4002a", "random", 4002, "copy", False),
    ("random-4002b", "random", 4002, "copy", False),
    ("random-3000c", "random", 3000, "degrees", True),
    ("random-4002c", "random", 4002, "degrees", False),
    ("chiral-3000a", "chiral", 3000, "mirror", True),
    ("chiral-3000b", "chiral", 3000, "mirror", True),
    ("caterpillar-2002a", "caterpillar", 2002, "copy", False),
    ("caterpillar-2002b", "caterpillar", 2002, "copy", False),
    ("caterpillar-2002c", "caterpillar", 2002, "degrees", False),
    ("caterpillar-2002d", "caterpillar", 2002, "degrees", False),
)
# Paths deeper than the recursion limit of the canonical codes, rooted at
# the exceptional vertex at one end.  They do not depend on the seed.
DEEP_PATHS = (1001, 600)  # edges
MAX_SHALLOW_DEPTH = 300


def _shape(rng: random.Random, shape: str, size: int) -> list[list[int]]:
    if shape == "star":
        return _star(size)
    if shape == "random":
        return _random_tree(rng, size)
    if shape == "chiral":
        third = (size - 3) // 3
        return _chiral(rng, (third, third + 1, size - 2 * third - 1))
    return _caterpillar(rng, 201, size)


def _partner(rng, adj, shape: str, relation: str):
    if relation == "mirror":
        return _mirror(adj)
    if relation == "copy":
        return adj
    if shape == "star":
        edges = len(adj) - 1
        return _double_star(edges // 2, edges - edges // 2 - 1)
    return _move_leaf(rng, adj)


def _tree_ops(rng: random.Random, work: Path) -> list[dict]:
    ops = []
    for tag, shape, size, relation, exceptional in TREE_MAKEUP:
        adj = _shape(rng, shape, size)
        if len(adj) - 1 != size or _depth(adj) > MAX_SHALLOW_DEPTH:
            raise AssertionError(f"{tag}: bad shape")
        partner = _partner(rng, adj, shape, relation)
        records, verdict = _pair(rng, adj, partner, relation, exceptional, tag)
        ops.append(_tree_op(work, tag, records, verdict, None))
    fixed = random.Random(0)
    for edges in DEEP_PATHS:
        tag = f"deep-path-{edges}"
        adj = [[1]] + [[v - 1, v + 1] for v in range(1, edges)] + [[edges - 1]]
        records, verdict = _pair(fixed, adj, adj, "copy", True, tag)
        ops.append(_tree_op(work, tag, records, verdict, "RecursionError"))
    return ops


def _tree_op(work: Path, tag: str, records: list[dict], verdict, fault):
    name = f"{tag}.json"
    (work / name).write_text(json.dumps({"version": 1, "trees": records}) + "\n")
    a, b = records[0]["label"], records[1]["label"]
    return {"argv": ["--format", "json-lines", "tree", "compare",
                     str(work / name), a, b],
            "kind": "tree", "known_fault": fault,
            "expect": {"record": "comparison", "label": f"{a} vs {b}",
                       "status": "ok", "similar": verdict[0],
                       "planar_isomorphic": verdict[1]}}


# ---------------------------------------------------------------------------


def make(workload: str, seed: int, work: Path) -> list[dict]:
    """The operations of one round of `workload`, with inputs from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    # A verify command's input is its group and its suites.  The lists are
    # fixed, and so is their order: the oracle's caches and the memory they
    # hold stay in the process, so a command's cost can depend on the
    # commands before it.
    if workload == "verify-tensor":
        return _verify_ops(VERIFY_TENSOR_GROUPS, VERIFY_TENSOR_SUITES)
    if workload == "verify-syzygy":
        return _verify_ops(VERIFY_SYZYGY_GROUPS, VERIFY_SYZYGY_SUITES)
    if workload == "infer-bulk":
        return _infer_ops(rng, work)
    if workload == "tree-compare":
        return _tree_ops(rng, work)
    raise ValueError(f"unknown workload {workload!r}")
