"""Planar embedded Brauer trees: validation, construction, comparison.

A tree is stored with a cyclic ordering of the neighbours of every vertex
(the planar embedding), an optional exceptional vertex with multiplicity m,
and the defect group it belongs to.  The numerical constraints of cyclic
block theory are e * m = p^ell - 1 and e | p - 1 for e the number of edges.

Comparison comes in two strengths: `similar` ignores the embedding and asks
for a tree isomorphism matching exceptional vertices and multiplicities;
`planar_isomorphic` additionally preserves the cyclic orderings.  Embeddings
are oriented, so mirror images are similar but not planar-isomorphic.  Both
are decided through canonical codes of the tree rooted at its center (a
vertex or an edge), with the exceptional vertex marked in its key.  One
leaf-stripping pass, `_strip`, is the tree test for `validate` too, and
gives the center, each vertex's parent and its slot in the vertex's cyclic
order, both codes and both sign colourings.  A tree keeps that pass, and
each code once it is asked for; a code nests three deep (levels, keys,
ranks), so comparing two trees never recurses deeper.  The leaf level is
ranked without keys, and `tree compare` asks for the unordered code only
when the planar codes differ, since planar isomorphism implies similarity.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import count, repeat

from .groups import GroupSpec, _set, _Value


class BrauerTree(_Value):
    def __init__(self, vertices: tuple[str, ...],
                 planar: dict[str, tuple[str, ...]],  # vertex -> cyclic order
                 defect: GroupSpec, multiplicity: int = 1,
                 exceptional: str | None = None, label: str = "") -> None:
        vertices = tuple(vertices)
        multiplicity = operator.index(multiplicity)
        _set(self, "vertices", vertices)
        _set(self, "planar", {v: tuple(ns) for v, ns in planar.items()})
        _set(self, "defect", defect)
        _set(self, "multiplicity", multiplicity)
        _set(self, "exceptional", exceptional)
        _set(self, "label", label)

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
    def _stripped(self) -> tuple[list[list[str]], dict[str, str],
                                 dict[str, int]]:
        return _strip(self)  # made once; a refusal is not kept

    # each code made once, when first asked for: `planar` is a copy
    @cached_property
    def _unordered_code(self) -> tuple:
        return _rooted_code(self, planar=False)

    @cached_property
    def _planar_code(self) -> tuple:
        return _rooted_code(self, planar=True)


class TypeFunction(_Value):
    def __init__(self, signs: dict[str, int] | None = None) -> None:
        _set(self, "signs", {} if signs is None else signs)  # vertex -> +-1


def validate(t: BrauerTree) -> list[str]:
    """Every violated structural and numerical invariant, by name; [] if valid.
    Tree-ness is `_strip`'s test: only a graph it refuses is swept for names."""
    e, faults = t.num_edges, []
    try:
        t._stripped
    except ValueError:
        if faults := _order_faults(t):
            return faults
        # a simple graph that is no tree is disconnected if |V| = |E| + 1,
        # and named by its edge count alone if connected with a cycle
        seen, level = {t.vertices[0]}, [t.vertices[0]]
        while level:  # each vertex is marked when first reached
            level = [w for v in level for w in t.planar.get(v, ())
                     if w not in seen and not seen.add(w)]
        if len(t.vertices) != e + 1:
            faults.append("not a tree: |vertices| != |edges| + 1")
        if len(seen) < len(t.vertices) or len(t.vertices) == e + 1:
            faults.append("not a tree: graph is disconnected or has a cycle")
    violations = ([] if e else ["no edges"]) + faults
    if t.multiplicity < 1:
        violations.append("multiplicity must be positive")
    if t.exceptional is not None and t.exceptional not in t.vertices:
        violations.append(f"exceptional vertex {t.exceptional!r} unknown")
    if t.exceptional is None and t.multiplicity != 1:
        violations.append("multiplicity > 1 requires an exceptional vertex")
    violations += _numerical_violations(e, t.multiplicity, t.defect)
    return violations


def _order_faults(t: BrauerTree) -> list[str]:
    """The faults of the vertex names and the planar orders themselves."""
    vset = set(t.vertices)
    if not vset:
        return ["no vertices"]
    violations = [] if len(vset) == len(t.vertices) else [
        "duplicate vertex identifiers"]
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
    return violations


def _numerical_violations(e: int, m: int, group: GroupSpec) -> list[str]:
    """The violated constraints of e edges and multiplicity m over `group`:
    e * m = p^ell - 1, and e | p - 1 when there is an edge."""
    violations = []
    if e * m != group.order - 1:
        violations.append(f"e*m != p^ell - 1 ({e}*{m} != {group.order - 1})")
    if e >= 1 and (group.p - 1) % e != 0:
        violations.append(f"e does not divide p - 1 ({e} does not divide {group.p - 1})")
    return violations


def type_functions(t: BrauerTree) -> tuple[TypeFunction, TypeFunction]:
    """The two proper sign 2-colorings of the tree (unique up to a global
    flip, since trees are bipartite and connected), the first with
    vertices[0] at +1; ValueError if the graph is not a tree.  Read off
    `_strip`: a vertex takes the negated sign of its parent."""
    levels, parent, _ = t._stripped
    signs = dict(zip(levels[-1], (1, -1)))  # the center, a vertex or an edge
    for level in reversed(levels[:-1]):
        for v in level:
            signs[v] = -signs[parent[v]]
    first = signs[t.vertices[0]]
    one = {v: first * signs[v] for v in t.vertices}
    return TypeFunction(one), TypeFunction({v: -s for v, s in one.items()})


STAR_EDGES_MAX = 10**5  # as descriptor text, 8.3 MB


def star(e: int, m: int, group: GroupSpec) -> BrauerTree:
    """The star tree: e edges from the center c to the leaves v1..ve, in
    that cyclic order at c, which is exceptional when m > 1.  ValueError
    for more than STAR_EDGES_MAX edges, before any leaf is built: e is
    bounded by p - 1 only, and p may have 25 digits."""
    if e < 1:
        raise ValueError("a star needs at least one edge")
    if violations := _numerical_violations(e, m, group):
        raise ValueError(violations[0])
    if e > STAR_EDGES_MAX:
        raise ValueError(f"a star has at most {STAR_EDGES_MAX} edges, got {e}")
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
# the rooting pass and canonical codes


def _strip(t: BrauerTree) -> tuple[list[list[str]], dict[str, str],
                                   dict[str, int]]:
    """(levels, parent, slot) of `t` rooted at its center, from stripping
    leaves round by round: each round is one height level, the leaves first,
    and a stripped vertex's parent is its one neighbour not yet stripped,
    found at `t.planar[v][slot[v]]`.  The last level is the center, one
    vertex or the two ends of an edge, which are each other's parent.  The
    one tree test of this module: ValueError unless the orders list each
    edge of a tree on `t.vertices` once at each end and nothing else, so
    nothing is read off another graph.  O(E) time."""
    degree = dict.fromkeys(t.vertices, 0)
    named = len(degree)  # then an order of no vertex adds one
    degree.update(zip(t.planar, map(len, t.planar.values())))
    leaves = [v for v, d in degree.items() if d <= 1]
    levels, parent, slot, live = [], {}, {}, set(degree)
    while len(live) > 2 and leaves:
        live.difference_update(leaves)
        above = []
        for v in leaves:
            for k, w in enumerate(t.planar.get(v, ())):
                if w in live:  # its one neighbour left
                    parent[v], slot[v] = w, k
                    degree[w] -= 1
                    if degree[w] == 1:
                        above.append(w)
                    break
        levels.append(leaves)
        leaves = above
    # a tree if the parents span the vertices, each named once and alone in
    # having an order, and each lists its parent (found there) and children
    # once each: every child at its parent (none in the first level), and
    # 2(|V| - 1) listings in all
    spanning = len(parent) + len(leaves) == len(degree)
    if len(leaves) == 2:  # the ends of the central edge
        parent.update(zip(leaves, reversed(leaves)))
    up = parent.get
    children = {w for level in (*levels[1:], leaves) for v in level
                for w in t.planar.get(v, ()) if up(w) == v}
    if not spanning or len(children) != len(parent) \
            or not len(t.vertices) == named == len(degree) \
            or sum(map(len, t.planar.values())) != 2 * len(degree) - 2:
        raise ValueError("not a tree: graph is disconnected or has a cycle")
    slot.update((v, t.planar[v].index(parent[v]))  # the central edge's ends
                for v in leaves if v in parent)
    return [*levels, leaves], parent, slot


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


def _rooted_code(t: BrauerTree, planar: bool) -> tuple:
    """The planar or unordered canonical code of `t` rooted at its center,
    from the one pass of `_strip`.  AHU ranks (Aho, Hopcroft and Ullman,
    1974), from the leaves up: a vertex's key is its children's ranks,
    sorted (unordered) or in cyclic order after the parent (planar), led by
    -1 at the exceptional vertex.  Its rank is the key's place among the
    distinct keys of its level, in lexicographic order, offset by the number
    of vertices below, since a vertex's children sit at several heights.
    The first level is the leaves, whose keys are () or (-1,), so it is
    ranked without keys.  At a single root the planar key is its least
    rotation; a central edge is a top level of two keys, so it never matches
    its subdivision.  A code is the tuple of the levels' sorted keys, three
    deep at any height, after the multiplicity and whether a vertex is
    exceptional.  The tree can be rebuilt from it, so equal codes mean
    isomorphic trees, with the exceptional vertices matched.  O(E log E)."""
    (levels, _, slot), orders = t._stripped, t.planar
    leaves, marked = levels[0], t.exceptional in levels[0]
    rank = dict.fromkeys(leaves, 0)
    if marked:  # after (): a tree of two levels or more has two leaves
        rank[t.exceptional] = 1
    code = [((),) * (len(leaves) - marked) + ((-1,),) * marked]
    ranked = len(leaves)
    for level in levels[1:]:
        root = level is levels[-1] and len(level) == 1
        kids = [orders[level[0]]] if root else [  # in order after the parent
            order[k + 1:] + order[:k] for order, k in zip(
                map(orders.__getitem__, level), map(slot.__getitem__, level))]
        # keys taken in C: map(map, repeat(f), kids) gives map(f, ch) per ch
        ranks = map(map, repeat(rank.__getitem__), kids)
        keys = list(map(tuple, ranks if planar else map(sorted, ranks)))
        if root and planar:
            # the embedding fixes only the cyclic order at a single root
            start = _least_rotation(keys[0])
            keys[0] = keys[0][start:] + keys[0][:start]
        if t.exceptional in level:
            idx = level.index(t.exceptional)
            keys[idx] = (-1, *keys[idx])
        ordered = sorted(keys)
        code.append(tuple(ordered))
        position = dict(zip(dict.fromkeys(ordered), count(ranked)))
        rank.update(zip(level, map(position.__getitem__, keys)))
        ranked += len(level)
    return t.multiplicity, t.exceptional is not None, tuple(code)


def canonical_code(t: BrauerTree):
    """Embedding-free canonical form, rooted at the center, a vertex or an
    edge, with the exceptional vertex marked.  Its nesting depth is fixed
    (see `_rooted_code`)."""
    return t._unordered_code


def canonical_planar_code(t: BrauerTree):
    """Canonical form preserving the oriented embedding (rotations at the
    root allowed, reflections not), shaped like `canonical_code`."""
    return t._planar_code


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
