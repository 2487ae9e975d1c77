"""Planar embedded Brauer trees: validation, construction, comparison.

A tree is stored with a cyclic ordering of the neighbours of every vertex
(the planar embedding), an optional exceptional vertex with multiplicity m,
and the defect group it belongs to.  The numerical constraints of cyclic
block theory are e * m = p^ell - 1 and e | p - 1 for e the number of edges.

Comparison comes in two strengths: `similar` ignores the embedding and asks
for a tree isomorphism matching exceptional vertices and multiplicities;
`planar_isomorphic` additionally preserves the cyclic orderings.  Embeddings
are oriented, so mirror images are similar but not planar-isomorphic.  Both
are decided through canonical codes of the tree rooted at the exceptional
vertex, or at the graph-theoretic center (a vertex or an edge) when there
is none.  A tree keeps both codes, from one traversal.  A code nests three
deep (levels, keys, ranks), so comparing two codes never recurses deeper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

from .groups import GroupSpec


@dataclass(frozen=True)
class BrauerTree:
    vertices: tuple[str, ...]
    planar: dict[str, tuple[str, ...]]  # vertex -> neighbours in cyclic order
    defect: GroupSpec
    multiplicity: int = 1
    exceptional: str | None = None
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "planar", {v: tuple(ns) for v, ns in self.planar.items()}
        )

    @property
    def edges(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset((v, w))
                         for v, ns in self.planar.items() for w in ns)

    @property
    def num_edges(self) -> int:
        """Half the degree sum: each edge of a valid tree is listed at both
        ends."""
        return sum(map(len, self.planar.values())) // 2

    @cached_property
    def _codes(self) -> tuple:
        """The (unordered, planar) codes, made once: `planar` is a copy."""
        roots = _center(self) if self.exceptional is None else [self.exceptional]
        return tuple((self.multiplicity, self.exceptional is not None, code)
                     for code in _rooted_codes(self, roots))


@dataclass(frozen=True)
class TypeFunction:
    signs: dict[str, int] = field(default_factory=dict)  # vertex -> +-1


def validate(t: BrauerTree) -> list[str]:
    """All structural and numerical invariants; each violation is named.
    An empty list means the tree is valid.  Runs in time linear in the size
    of the planar orders."""
    violations: list[str] = []
    vset = set(t.vertices)
    if len(vset) != len(t.vertices):
        violations.append("duplicate vertex identifiers")
    if not vset:
        violations.append("no vertices")
        return violations
    for v in t.planar:
        if v not in vset:
            violations.append(f"planar order for unknown vertex {v!r}")
    neighbour_sets = {v: set(ns) for v, ns in t.planar.items()}
    for v, neighbours in t.planar.items():
        if len(neighbour_sets[v]) != len(neighbours):
            violations.append(f"repeated neighbour in cyclic order at {v!r}")
        for w in neighbours:
            if w not in vset:
                violations.append(f"edge to unknown vertex {w!r} at {v!r}")
            elif v not in neighbour_sets.get(w, ()):
                violations.append(f"edge {v!r}-{w!r} not mirrored at {w!r}")
        if v in neighbour_sets[v]:
            violations.append(f"loop at {v!r}")
    if violations:
        return violations

    # every edge is mirrored and no order repeats a vertex or holds a loop,
    # so each edge appears exactly twice
    e = t.num_edges
    if e < 1:
        violations.append("no edges")
    if len(vset) != e + 1:
        violations.append("not a tree: |vertices| != |edges| + 1")
    # connectivity (with |V| = |E| + 1 this also rules out cycles)
    seen, level = {t.vertices[0]}, [t.vertices[0]]
    while level:  # each vertex is marked when first reached
        level = [w for v in level for w in t.planar.get(v, ())
                 if w not in seen and not seen.add(w)]
    if seen != vset:
        violations.append("not a tree: graph is disconnected or has a cycle")

    group = t.defect
    if t.multiplicity < 1:
        violations.append("multiplicity must be positive")
    if t.exceptional is not None and t.exceptional not in vset:
        violations.append(f"exceptional vertex {t.exceptional!r} unknown")
    if t.exceptional is None and t.multiplicity != 1:
        violations.append("multiplicity > 1 requires an exceptional vertex")
    if e * t.multiplicity != group.order - 1:
        violations.append(
            f"e*m != p^ell - 1 ({e}*{t.multiplicity} != {group.order - 1})"
        )
    if e >= 1 and (group.p - 1) % e != 0:
        violations.append(f"e does not divide p - 1 ({e} does not divide {group.p - 1})")
    return violations


def type_functions(t: BrauerTree) -> tuple[TypeFunction, TypeFunction]:
    """The two proper sign 2-colorings of the tree (unique up to a global
    flip, since trees are bipartite and connected); ValueError if the graph
    has no vertex or is not connected."""
    stack = list(t.vertices[:1])
    signs = dict.fromkeys(stack, 1)
    while stack:
        v = stack.pop()
        for w in t.planar.get(v, ()):
            if w not in signs:
                signs[w] = -signs[v]
                stack.append(w)
    if not signs or signs.keys() != set(t.vertices):
        raise ValueError("not a tree: graph is disconnected or has a cycle")
    flipped = {v: -s for v, s in signs.items()}
    return TypeFunction(signs), TypeFunction(flipped)


def star(e: int, m: int, group: GroupSpec) -> BrauerTree:
    """The star tree: e edges from the center c to the leaves v1..ve, in
    that cyclic order at c, which is exceptional when m > 1."""
    if e < 1:
        raise ValueError("a star needs at least one edge")
    if e * m != group.order - 1:
        raise ValueError(f"e*m != p^ell - 1 ({e}*{m} != {group.order - 1})")
    if (group.p - 1) % e != 0:
        raise ValueError(f"e does not divide p - 1 ({e} does not divide {group.p - 1})")
    center = "c"
    leaves = tuple(f"v{i + 1}" for i in range(e))
    return BrauerTree(
        vertices=(center,) + leaves,
        planar={center: leaves, **dict.fromkeys(leaves, (center,))},
        defect=group,
        multiplicity=m,
        exceptional=center if m > 1 else None,
    )


# ---------------------------------------------------------------------------
# canonical codes


def _center(t: BrauerTree) -> list[str]:
    """The 1 or 2 middle vertices, found by stripping leaves layer by layer."""
    degree = {v: len(t.planar.get(v, ())) for v in t.vertices}
    remaining = set(t.vertices)
    leaves = [v for v in remaining if degree[v] <= 1]
    while len(remaining) > 2 and leaves:  # no leaves: a cycle, not a tree
        next_leaves = []
        for v in leaves:
            remaining.discard(v)
            for w in t.planar.get(v, ()):
                if w in remaining:
                    degree[w] -= 1
                    if degree[w] == 1:
                        next_leaves.append(w)
        leaves = next_leaves
    return sorted(remaining)


def _least_rotation(seq) -> int:
    """Start of the lexicographically least rotation of `seq`, in O(len(seq))
    comparisons.  Where the rotations at two candidate starts agree on k
    items and then differ, the start with the greater item cannot begin the
    least rotation, and neither can the k starts after it."""
    n, doubled = len(seq), list(seq) * 2
    i, j, k = 0, 1, 0  # candidates i < j, every other start below j is out
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:  # out: i..i+k
            i, j = j, max(j, i + k) + 1
        else:  # out: j..j+k
            j += k + 1
        k = 0
    return i


def _rooted_codes(t: BrauerTree, roots: list[str]) -> tuple[tuple, tuple]:
    """The (unordered, planar) pair of canonical codes of `t` rooted at the
    vertex or central edge `roots`, from one breadth-first traversal.

    AHU ranks (Aho, Hopcroft and Ullman, 1974), level by level from the
    deepest: a vertex's key is the tuple of its children's ranks, sorted in
    the unordered code and in cyclic order after the parent in the planar
    one, and its rank is the position of its key among the distinct keys of
    its level.  Rank order is the lexicographic order of keys, so ranks do
    not depend on the vertex names.  A planar code reads the cyclic order at
    a single root from its least rotation; a central edge is a top level of
    two keys, so it never matches the copy with that edge subdivided.  A
    code is the tuple of its levels, deepest first, each the sorted tuple of
    its keys: three deep at any height, so comparing codes never recurses
    deeper.  The tree can be rebuilt from it up to isomorphism, so equal
    codes mean isomorphic rooted trees.  O(E log E) time; ValueError on a
    graph that is not a tree.
    """
    # breadth-first levels; a vertex's children follow its parent in its
    # cyclic order, and the two ends of a central edge are each other's parent
    children = {}
    for root, parent in zip(roots, reversed(roots)):
        order = t.planar.get(root, ())
        if len(roots) == 2:
            if parent not in order:  # two centers that are not an edge
                raise ValueError(
                    "not a tree: graph is disconnected or has a cycle")
            idx = order.index(parent)
            order = order[idx + 1:] + order[:idx]
        children[root] = order
    levels = [roots]
    reached = len(roots)
    while True:
        below = []
        for v in levels[-1]:
            for w in children[v]:
                order = t.planar[w]
                idx = order.index(v)
                children[w] = order[idx + 1:] + order[:idx]
            below.extend(children[v])
        reached += len(below)
        if not below or reached > len(t.vertices):
            break
        levels.append(below)
    if reached != len(t.vertices):
        raise ValueError("not a tree: graph is disconnected or has a cycle")

    codes, ranks = ([], []), ({}, {})  # (unordered, planar) each
    for level in reversed(levels):
        # keys taken in C: map(map, repeat(f), kids) gives map(f, ch) per ch
        kids = list(map(children.__getitem__, level))
        unordered = list(map(tuple, map(sorted, map(
            map, repeat(ranks[0].__getitem__), kids))))
        planar = list(map(tuple, map(map, repeat(ranks[1].__getitem__), kids)))
        if len(level) == 1 and level is levels[0]:
            # the embedding fixes only the cyclic order at a single root
            start = _least_rotation(planar[0])
            planar[0] = planar[0][start:] + planar[0][:start]
        for code, rank, keys in zip(codes, ranks, (unordered, planar)):
            ordered = sorted(keys)
            code.append(tuple(ordered))
            position = dict(zip(dict.fromkeys(ordered), range(len(ordered))))
            rank.update(zip(level, map(position.__getitem__, keys)))
    return tuple(codes[0]), tuple(codes[1])


def canonical_code(t: BrauerTree):
    """Embedding-free canonical form, rooted at the exceptional vertex or at
    the center, a vertex or an edge.  Its nesting depth is fixed (see
    `_rooted_codes`)."""
    return t._codes[0]


def canonical_planar_code(t: BrauerTree):
    """Canonical form preserving the oriented embedding (rotations at the
    root allowed, reflections not), shaped like `canonical_code`."""
    return t._codes[1]


def similar(t1: BrauerTree, t2: BrauerTree) -> bool:
    """Tree isomorphism matching exceptional vertices and multiplicities,
    ignoring the planar embedding."""
    return canonical_code(t1) == canonical_code(t2)


def planar_isomorphic(t1: BrauerTree, t2: BrauerTree) -> bool:
    """Isomorphism of oriented planar embedded trees; implies `similar`."""
    return canonical_planar_code(t1) == canonical_planar_code(t2)


def strongly_similar(b1: tuple[BrauerTree, "WResult"],
                     b2: tuple[BrauerTree, "WResult"]) -> bool:
    """Same defect group, similar trees, and isomorphic source modules."""
    t1, w1 = b1
    t2, w2 = b2
    return (
        t1.defect == t2.defect
        and similar(t1, t2)
        and w1.jordan == w2.jordan
    )
