"""Planar Brauer trees: validation, type functions, comparison."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cyclicsource.groups import GroupSpec
from cyclicsource.trees import (
    BrauerTree,
    _least_rotation,
    _strip,
    canonical_code,
    canonical_planar_code,
    planar_isomorphic,
    similar,
    star,
    strongly_similar,
    type_functions,
    validate,
)
from oracle_reference import validate_by_sweep

C7 = GroupSpec(7, 1)
C9 = GroupSpec(3, 2)


def path_tree(names, group, multiplicity=1, exceptional=None):
    planar = {}
    for idx, v in enumerate(names):
        ns = []
        if idx > 0:
            ns.append(names[idx - 1])
        if idx < len(names) - 1:
            ns.append(names[idx + 1])
        planar[v] = tuple(ns)
    return BrauerTree(tuple(names), planar, group,
                      multiplicity=multiplicity, exceptional=exceptional)


def random_planar_tree(rng, n_vertices, group):
    """Random labelled tree with a random cyclic order at every vertex."""
    names = [f"v{k}" for k in range(n_vertices)]
    adj = {v: [] for v in names}
    for k in range(1, n_vertices):
        parent = names[rng.randrange(k)]
        adj[parent].append(names[k])
        adj[names[k]].append(parent)
    planar = {}
    for v, ns in adj.items():
        ns = ns[:]
        rng.shuffle(ns)
        planar[v] = tuple(ns)
    return BrauerTree(tuple(names), planar, group)


def relabel(t, mapping):
    return BrauerTree(
        tuple(mapping[v] for v in t.vertices),
        {mapping[v]: tuple(mapping[w] for w in ns)
         for v, ns in t.planar.items()},
        t.defect,
        multiplicity=t.multiplicity,
        exceptional=mapping[t.exceptional] if t.exceptional else None,
    )


def mirror(t):
    return BrauerTree(
        t.vertices,
        {v: tuple(reversed(ns)) for v, ns in t.planar.items()},
        t.defect,
        multiplicity=t.multiplicity,
        exceptional=t.exceptional,
    )


class TestValidate:
    def test_valid_star(self):
        assert validate(star(2, 4, C9)) == []

    def test_numeric_violation(self):
        t = star(2, 4, C9)
        bad = BrauerTree(t.vertices, t.planar, C9, multiplicity=3,
                         exceptional=t.exceptional)
        assert any("e*m != p^ell - 1" in v for v in validate(bad))

    def test_divisibility_violation(self):
        # 4 edges, m = 2, p^ell = 9: e*m fits but 4 does not divide 2
        tree = BrauerTree(
            ("c", "a", "b", "d", "e"),
            {"c": ("a", "b", "d", "e"), "a": ("c",), "b": ("c",),
             "d": ("c",), "e": ("c",)},
            C9, multiplicity=2, exceptional="c",
        )
        assert any("does not divide p - 1" in v for v in validate(tree))

    def test_cycle_detected(self):
        tree = BrauerTree(
            ("a", "b", "c"),
            {"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")},
            GroupSpec(3, 1), multiplicity=1,
        )
        violations = validate(tree)
        assert any("not a tree" in v for v in violations)

    def test_cycle_with_a_tree_edge_count(self):
        # a triangle and an isolated vertex: |V| = |E| + 1, yet not a tree
        tree = BrauerTree(
            ("a", "b", "c", "d"),
            {"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b"), "d": ()},
            C7, multiplicity=2, exceptional="a",
        )
        assert validate(tree) == [
            "not a tree: graph is disconnected or has a cycle"]

    def test_unmirrored_edge(self):
        tree = BrauerTree(("a", "b"), {"a": ("b",), "b": ()},
                          GroupSpec(2, 1))
        assert any("not mirrored" in v for v in validate(tree))

    def test_loop_and_duplicates(self):
        tree = BrauerTree(("a", "b"), {"a": ("a", "b", "b"), "b": ("a",)},
                          GroupSpec(2, 1))
        violations = " ".join(validate(tree))
        assert "loop" in violations
        assert "repeated neighbour" in violations

    def test_unknown_vertices(self):
        tree = BrauerTree(("a", "b"), {"a": ("b", "x"), "b": ("a",)},
                          GroupSpec(2, 1))
        assert any("unknown vertex" in v for v in validate(tree))

    def test_multiplicity_requires_exceptional(self):
        t = path_tree(["a", "b", "c"], GroupSpec(7, 1), multiplicity=3)
        assert any("requires an exceptional vertex" in v for v in validate(t))

    EDGE = {"a": ("b",), "b": ("a",)}

    @pytest.mark.parametrize("tree, violation", [
        (BrauerTree(("a", "a", "b"), EDGE, C7), "duplicate vertex identifiers"),
        (BrauerTree((), {}, C7), "no vertices"),
        (BrauerTree(("a", "b"), {**EDGE, "x": ()}, C7),
         "planar order for unknown vertex 'x'"),
        (BrauerTree(("a",), {"a": ()}, C7), "no edges"),
        (BrauerTree(("a", "b"), EDGE, C7, multiplicity=0, exceptional="a"),
         "multiplicity must be positive"),
        (BrauerTree(("a", "b"), EDGE, GroupSpec(3, 1), multiplicity=2,
                    exceptional="x"), "exceptional vertex 'x' unknown"),
    ], ids=["duplicate", "no-vertices", "unknown-planar", "no-edges",
            "multiplicity", "unknown-exceptional"])
    def test_violation_named(self, tree, violation):
        assert violation in validate(tree)


class TestTypeFunctions:
    def test_single_edge(self):
        t = star(1, 1, GroupSpec(2, 1))
        one, other = type_functions(t)
        assert one.signs != other.signs
        assert set(one.signs.values()) == {1, -1}

    def test_proper_colorings(self):
        rng = random.Random(7)
        for _ in range(20):
            t = random_planar_tree(rng, rng.randint(2, 10), C7)
            colorings = type_functions(t)
            assert len(colorings) == 2
            for tf in colorings:
                for edge in t.edges:
                    v, w = tuple(edge)
                    assert tf.signs[v] == -tf.signs[w]
            assert colorings[1].signs == {
                v: -s for v, s in colorings[0].signs.items()}
            assert colorings[0].signs[t.vertices[0]] == 1

    @pytest.mark.parametrize("vertices, planar", [
        ((), {}),
        (("a", "b", "c", "d"),
         {"a": ("b",), "b": ("a",), "c": ("d",), "d": ("c",)})])
    def test_not_a_tree(self, vertices, planar):
        # no vertex to start from, and two disjoint edges of which a
        # traversal from a reaches only b
        tree = BrauerTree(vertices, planar, C7)
        with pytest.raises(ValueError, match="not a tree"):
            type_functions(tree)

    def test_cycle_is_an_error(self):
        # the triangle has no proper 2-coloring; a traversal that colours
        # each vertex when first reached gives b and c one sign
        tree = BrauerTree(("a", "b", "c"),
                          {"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")},
                          C7)
        with pytest.raises(ValueError, match="not a tree"):
            type_functions(tree)


class TestStar:
    def test_structure(self):
        t = star(3, 2, C7)
        assert validate(t) == []
        assert t.num_edges == 3
        assert t.exceptional == "c"
        assert len(t.planar["c"]) == 3

    def test_no_exceptional_when_multiplicity_one(self):
        t = star(6, 1, C7)
        assert t.exceptional is None

    def test_constraints_enforced(self):
        with pytest.raises(ValueError, match="e\\*m"):
            star(3, 2, C9)
        with pytest.raises(ValueError, match="does not divide"):
            star(4, 2, C9)

    @pytest.mark.parametrize("e, m, group, message", [
        (3, 0, C7, "e*m != p^ell - 1 (3*0 != 6)"),
        (4, -2, C7, "e*m != p^ell - 1 (4*-2 != 6)"),  # 4 does not divide 6
        (4, 2, C9, "e does not divide p - 1 (4 does not divide 2)"),
        (0, 1, C7, "a star needs at least one edge"),
        (100001, 2, GroupSpec(200003, 1),
         "a star has at most 100000 edges, got 100001")])
    def test_first_violation_raised(self, e, m, group, message):
        with pytest.raises(ValueError) as info:
            star(e, m, group)
        assert str(info.value) == message


class TestComparison:
    def test_reflexive(self):
        t = star(2, 4, C9)
        assert similar(t, t)
        assert planar_isomorphic(t, t)

    def test_labels_are_not_structure(self):
        t1 = star(3, 2, C7)
        t2 = relabel(t1, {"c": "c", "v1": "x", "v2": "y", "v3": "z"})
        assert similar(t1, t2)
        assert planar_isomorphic(t1, t2)

    def test_mirror_of_asymmetric_tree(self):
        # a 3-valent center with distinguishable branches: the mirror is
        # similar but not planar-isomorphic
        base = {
            "c": ("a", "b", "d"),
            "a": ("c",),
            "b": ("c", "b1"), "b1": ("b",),
            "d": ("c", "d1"), "d1": ("d", "d2"), "d2": ("d1",),
        }
        t = BrauerTree(("c", "a", "b", "b1", "d", "d1", "d2"), base, C7,
                       multiplicity=1, exceptional="c")
        assert similar(t, mirror(t))
        assert not planar_isomorphic(t, mirror(t))

    def test_rotation_at_root_is_invisible(self):
        t = star(3, 2, C7)
        rotated = BrauerTree(
            t.vertices,
            {**t.planar, "c": t.planar["c"][1:] + t.planar["c"][:1]},
            C7, multiplicity=2, exceptional="c",
        )
        assert planar_isomorphic(t, rotated)

    def test_central_edge_is_not_its_subdivision(self):
        # rooted at its central edge b-c, the path a-b-c-d; rooted at its
        # center x, the path with that edge subdivided by x: the levels
        # below the roots agree, and only the top level tells them apart
        t = path_tree(["a", "b", "c", "d"], C7)
        u = path_tree(["a", "b", "x", "c", "d"], C7)
        assert canonical_code(t)[2][:-1] == canonical_code(u)[2][:-2]
        assert canonical_code(t) != canonical_code(u)
        assert canonical_planar_code(t) != canonical_planar_code(u)
        assert not similar(t, u) and not planar_isomorphic(t, u)

    def test_multiplicity_distinguishes(self):
        t1 = star(2, 4, C9)
        t2 = BrauerTree(t1.vertices, t1.planar, C9, multiplicity=1)
        assert not similar(t1, t2)

    def test_randomized_invariances(self):
        rng = random.Random(20240824)
        for _ in range(60):
            t = random_planar_tree(rng, rng.randint(2, 12), C7)
            names = list(t.vertices)
            shuffled = names[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(names, shuffled))
            r = relabel(t, mapping)
            assert canonical_code(t) == canonical_code(r)
            assert canonical_planar_code(t) == canonical_planar_code(r)
            assert similar(t, r) and planar_isomorphic(t, r)
            assert similar(t, mirror(t))
            # planar isomorphism always implies similarity
            if planar_isomorphic(t, mirror(t)):
                assert similar(t, mirror(t))


class TestStronglySimilar:
    def _wresult(self, jordan):
        from cyclicsource import dade
        from cyclicsource.blocks import PROVENANCE_CHARACTER, WResult
        e = dade.element_from_jordan(C9, jordan)
        return WResult(e, dade.psi(e), PROVENANCE_CHARACTER)

    def test_same_pair(self):
        t = star(2, 4, C9)
        w = self._wresult(2)
        assert strongly_similar((t, w), (t, w))

    def test_different_source_module(self):
        t = star(2, 4, C9)
        assert not strongly_similar((t, self._wresult(1)),
                                    (t, self._wresult(2)))

    def test_different_defect(self):
        t1 = star(2, 4, C9)
        t2 = star(2, 2, GroupSpec(5, 1))
        assert not strongly_similar((t1, self._wresult(1)),
                                    (t2, self._wresult(1)))


class TestLeastRotation:
    @given(st.lists(st.integers(0, 2), max_size=40))
    def test_agrees_with_min_over_rotations(self, seq):
        k = _least_rotation(seq)
        rotations = [seq[i:] + seq[:i] for i in range(len(seq))] or [[]]
        assert seq[k:] + seq[:k] == min(rotations)

    def test_repeated_blocks(self):
        for seq in ([1, 1, 1], [2, 1, 2, 1], [0, 1, 0, 0, 1, 0], [3, 0, 3, 0, 0]):
            k = _least_rotation(seq)
            assert seq[k:] + seq[:k] == min(seq[i:] + seq[:i]
                                            for i in range(len(seq)))


@st.composite
def planar_trees(draw, max_vertices=40):
    """A labelled tree with a drawn cyclic order at every vertex and,
    sometimes, an exceptional vertex of multiplicity 2."""
    n = draw(st.integers(1, max_vertices))
    names = [f"v{k}" for k in range(n)]
    adj = {v: [] for v in names}
    for k in range(1, n):
        parent = names[draw(st.integers(0, k - 1))]
        adj[parent].append(names[k])
        adj[names[k]].append(parent)
    planar = {v: tuple(draw(st.permutations(ns))) for v, ns in adj.items()}
    exceptional = draw(st.one_of(st.none(), st.sampled_from(names)))
    return BrauerTree(tuple(names), planar, C7,
                      multiplicity=2 if exceptional else 1,
                      exceptional=exceptional)


def rotate_orders(t, shifts):
    return BrauerTree(
        t.vertices,
        {v: ns[s % len(ns):] + ns[:s % len(ns)] if ns else ns
         for (v, ns), s in zip(t.planar.items(), shifts)},
        t.defect, multiplicity=t.multiplicity, exceptional=t.exceptional,
    )


def brute_force_isomorphic(t1, t2, planar):
    """A bijection of vertices carrying edges, the exceptional vertex and,
    when `planar`, every cyclic order (up to rotation) of t1 onto t2."""
    if (len(t1.vertices) != len(t2.vertices)
            or t1.multiplicity != t2.multiplicity
            or (t1.exceptional is None) != (t2.exceptional is None)):
        return False
    for image in itertools.permutations(t2.vertices):
        f = dict(zip(t1.vertices, image))
        if t1.exceptional is not None and f[t1.exceptional] != t2.exceptional:
            continue
        ok = True
        for v in t1.vertices:
            mapped = tuple(f[w] for w in t1.planar.get(v, ()))
            target = t2.planar.get(f[v], ())
            if planar:
                doubled = target + target
                ok = len(mapped) == len(target) and any(
                    doubled[i:i + len(target)] == mapped
                    for i in range(max(len(target), 1)))
            else:
                ok = sorted(mapped) == sorted(target)
            if not ok:
                break
        if ok:
            return True
    return False


class TestCanonicalCodeProperties:
    @given(planar_trees(), st.randoms(use_true_random=False),
           st.lists(st.integers(0, 40), min_size=40, max_size=40))
    def test_invariant_under_relabelling_and_rotation(self, t, rng, shifts):
        names = list(t.vertices)
        shuffled = names[:]
        rng.shuffle(shuffled)
        u = rotate_orders(relabel(t, dict(zip(names, shuffled))), shifts)
        assert canonical_code(u) == canonical_code(t)
        assert canonical_planar_code(u) == canonical_planar_code(t)
        assert canonical_code(mirror(t)) == canonical_code(t)

    @given(planar_trees(), planar_trees())
    def test_planar_isomorphic_implies_similar(self, t1, t2):
        for u in (t2, mirror(t1)):
            if planar_isomorphic(t1, u):
                assert similar(t1, u)

    @settings(max_examples=150, deadline=None)
    @given(planar_trees(max_vertices=7), planar_trees(max_vertices=7),
           st.booleans())
    def test_agrees_with_brute_force(self, t1, t2, use_mirror):
        if use_mirror:  # a pair that is similar, and planar only sometimes
            t2 = mirror(t1)
        assert similar(t1, t2) == brute_force_isomorphic(t1, t2, planar=False)
        assert planar_isomorphic(t1, t2) == \
            brute_force_isomorphic(t1, t2, planar=True)

    def test_deep_path_compares(self):
        # 3,000 edges from the root: a nested code would overflow the stack
        names = [f"p{k}" for k in range(3001)]
        t = path_tree(names, GroupSpec(3001, 1), exceptional=names[0])
        u = relabel(t, {v: f"q{k}" for k, v in enumerate(reversed(names))})
        assert similar(t, u) and planar_isomorphic(t, u)
        assert not similar(t, path_tree(names, GroupSpec(3001, 1),
                                        exceptional=names[1]))

    def test_codes_are_kept_on_the_tree(self):
        t = star(3, 2, C7)
        assert canonical_code(t) is canonical_code(t)
        assert canonical_planar_code(t) is canonical_planar_code(t)

    def test_cycle_is_an_error(self):
        tree = BrauerTree(("a", "b", "c"),
                          {"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b")},
                          GroupSpec(3, 1))
        with pytest.raises(ValueError, match="not a tree"):
            canonical_code(tree)
        with pytest.raises(ValueError, match="not a tree"):
            canonical_planar_code(tree)

    def test_disconnected_graph_is_an_error(self):
        # two disjoint edges: stripping leaves removes every vertex at once
        tree = BrauerTree(("a", "b", "c", "d"),
                          {"a": ("b",), "b": ("a",), "c": ("d",), "d": ("c",)},
                          GroupSpec(5, 1))
        with pytest.raises(ValueError, match="not a tree"):
            canonical_code(tree)

    def test_two_centers_that_are_not_an_edge(self):
        # two disjoint paths a-b-c and d-e-f: stripping leaves keeps b and e
        tree = BrauerTree(tuple("abcdef"),
                          {"a": ("b",), "b": ("a", "c"), "c": ("b",),
                           "d": ("e",), "e": ("d", "f"), "f": ("e",)},
                          GroupSpec(7, 1))
        message = "^not a tree: graph is disconnected or has a cycle$"
        with pytest.raises(ValueError, match=message):
            canonical_code(tree)
        with pytest.raises(ValueError, match=message):
            canonical_planar_code(tree)

    def test_isolated_vertex_is_an_error(self):
        # the path a-b-c and a vertex d: stripping leaves ends at b, but d
        # has no neighbour to be its parent
        tree = BrauerTree(tuple("abcd"),
                          {"a": ("b",), "b": ("a", "c"), "c": ("b",)},
                          GroupSpec(5, 1))
        with pytest.raises(ValueError, match="not a tree"):
            canonical_code(tree)
        with pytest.raises(ValueError, match="not a tree"):
            type_functions(tree)


def assert_slots(t, levels, parent, slot):
    """Every vertex but a single root has a parent and a slot, and the slot
    is the parent's place in the vertex's cyclic order."""
    assert len(parent) == len(t.vertices) - (len(levels[-1]) == 1)
    assert slot.keys() == parent.keys()
    for v, up in parent.items():
        assert t.planar[v][slot[v]] == up, v


class TestStrip:
    def test_rounds_are_heights(self):
        # the path a-b-c-d-e with a leaf f at b: rooted at its center c,
        # the heights are a, e, f: 0; b, d: 1; c: 2
        planar = {"a": ("b",), "b": ("a", "c", "f"), "c": ("b", "d"),
                  "d": ("c", "e"), "e": ("d",), "f": ("b",)}
        tree = BrauerTree(tuple("abcdef"), planar, C7)
        levels, parent, slot = _strip(tree)
        assert [sorted(level) for level in levels] == [
            ["a", "e", "f"], ["b", "d"], ["c"]]
        assert parent == {"a": "b", "f": "b", "e": "d", "b": "c", "d": "c"}
        assert slot == {"a": 0, "f": 0, "e": 0, "b": 1, "d": 0}
        assert_slots(tree, levels, parent, slot)

    def test_central_edge_ends_are_each_others_parent(self):
        tree = path_tree(list("abcd"), C7)
        levels, parent, slot = _strip(tree)
        assert [sorted(level) for level in levels] == [["a", "d"], ["b", "c"]]
        assert parent == {"a": "b", "d": "c", "b": "c", "c": "b"}
        assert slot == {"a": 0, "d": 0, "b": 1, "c": 0}
        assert_slots(tree, levels, parent, slot)

    @pytest.mark.parametrize("rotation", [0, 1, 2])
    def test_slots_at_both_ends_of_a_central_edge(self, rotation):
        # the edge b-c with two leaves at each end, every order rotated:
        # each end's slot is the other end's place in its own order
        planar = {"b": ("a1", "c", "a2"), "c": ("d1", "d2", "b"),
                  "a1": ("b",), "a2": ("b",), "d1": ("c",), "d2": ("c",)}
        planar = {v: ns[rotation % len(ns):] + ns[:rotation % len(ns)]
                  for v, ns in planar.items()}
        tree = BrauerTree(("b", "c", "a1", "a2", "d1", "d2"), planar, C7)
        levels, parent, slot = _strip(tree)
        assert sorted(levels[-1]) == ["b", "c"]
        assert (parent["b"], parent["c"]) == ("c", "b")
        assert_slots(tree, levels, parent, slot)

    @pytest.mark.parametrize("tree", [
        BrauerTree(("v",), {}, GroupSpec(2, 1)),
        BrauerTree(("a", "b"), {"a": ("b",), "b": ("a",)}, C7),
        path_tree(list("abc"), C7),
        star(6, 1, C7),
    ], ids=["one-vertex", "one-edge", "single-root", "star"])
    def test_slots_of_small_trees(self, tree):
        levels, parent, slot = _strip(tree)
        assert_slots(tree, levels, parent, slot)

    def test_slots_of_random_trees(self):
        rng = random.Random(29)
        for _ in range(200):
            tree = random_planar_tree(rng, rng.randint(1, 40), C7)
            levels, parent, slot = _strip(tree)
            assert_slots(tree, levels, parent, slot)

    @pytest.mark.parametrize("vertices, planar", [
        ("v0 v1 v2", {"v0": ("v2", "z"), "v1": ("v0",), "v2": ("v0",)}),
        ("v0 v1 v2", {"v0": ("v1", "v1"), "v1": ("v0",), "v2": ("v0",)}),
        ("r x y x1 y1", {"r": ("x", "y"), "x": ("r", "y1"), "y": ("r", "x1"),
                         "x1": ("x",), "y1": ("y",)}),
        ("a b a", {"a": ("b", "z"), "b": ("a",), "z": ("a",)}),
    ], ids=["unknown-neighbour", "repeated-child", "swapped-grandchildren",
            "twice-named-for-unnamed"])
    def test_stripping_graph_that_is_no_tree(self, vertices, planar):
        # each strips like a tree, with every count right, yet a vertex
        # lists a neighbour in place of a child, or the orders are a tree's
        # on other vertices than those named: the codes would read a rank
        # that is not there (KeyError) or a tree that is not this graph
        tree = BrauerTree(tuple(vertices.split()), planar, C7)
        for read in (canonical_code, canonical_planar_code, type_functions):
            with pytest.raises(ValueError, match="not a tree"):
                read(tree)

    def test_refuses_exactly_what_validate_calls_no_tree(self):
        # on the orders of `random_orders`, `_strip` raises exactly when
        # `validate` names a fault of the graph (not of its numbers)
        rng = random.Random(20)
        numerical = ("e*m", "e does not divide", "no edges")
        refused = 0
        for _ in range(4000):
            names, planar = random_orders(rng)
            tree = BrauerTree(tuple(names), planar, C7)
            faults = [f for f in validate(tree) if not f.startswith(numerical)]
            try:
                _strip(tree)
            except ValueError:
                refused += 1
                assert faults, planar
            else:
                assert not faults, planar
        assert 2500 < refused < 3500  # both outcomes well sampled


def random_orders(rng):
    """Names and planar orders on up to 6 vertices: half of them a tree's
    with up to two neighbours added or replaced, the rest random, and a few
    with an order for no vertex or a vertex named twice.  The `_strip` fuzz
    of `TestStrip` and `TestValidateAgainstSweep` draw from it with the same
    seed, so they see the same graphs."""
    names = [f"v{k}" for k in range(rng.randint(1, 6))]
    if rng.random() < 0.5:
        planar = dict(random_planar_tree(rng, len(names), C7).planar)
        for _ in range(rng.randint(0, 2)):
            v = rng.choice(names)
            ns = list(planar.get(v, ()))
            if ns and rng.random() < 0.5:
                ns.pop(rng.randrange(len(ns)))
            ns.insert(rng.randint(0, len(ns)), rng.choice([*names, "z"]))
            planar[v] = tuple(ns)
    else:
        planar = {v: tuple(rng.choices([*names, "z"], k=rng.randint(0, 3)))
                  for v in names if rng.random() < 0.9}
    extra = rng.random()
    if extra < 0.05:
        planar["z"] = tuple(rng.choices(names, k=rng.randint(0, 2)))
    elif extra < 0.1:
        names.append(rng.choice(names))
    return names, planar


class TestValidateAgainstSweep:
    """`validate` takes tree-ness from `_strip` and sweeps only a graph it
    refuses; `validate_by_sweep` decides by its own sweep.  The two name the
    same violations, in the same order."""

    def test_seeded_orders(self):
        # the orders of the `_strip` fuzz, which accepts about a fifth of
        # them, each with a multiplicity and an exceptional vertex drawn
        # apart (none, a vertex, an unknown name)
        rng, numbers = random.Random(20), random.Random(21)
        valid = 0
        for _ in range(4000):
            names, planar = random_orders(rng)
            m = numbers.choice((-1, 0, 1, 1, 2, 3, 6))
            exceptional = numbers.choice((None, None, names[0], names[-1], "z"))
            tree = BrauerTree(tuple(names), planar, C7, m, exceptional)
            violations = validate(tree)
            assert violations == validate_by_sweep(tree), (planar, m,
                                                           exceptional)
            valid += violations == []
        assert valid > 20  # valid trees are sampled too

    @pytest.mark.parametrize("m, exceptional, planar", [
        (1, "a", {}), (6, "a", {"a": ()}), (0, None, {}), (0, "a", {}),
        (2, None, {"a": ()}), (2, "a", {}), (2, "b", {}),
    ])
    def test_lone_vertex(self, m, exceptional, planar):
        # `_strip` accepts a lone vertex, which has no edge and no order
        tree = BrauerTree(("a",), planar, C7, m, exceptional)
        assert validate(tree) == validate_by_sweep(tree)
        assert "no edges" in validate(tree)

    @pytest.mark.parametrize("e, m, group", [
        (3, 3, C7), (2, 4, C7), (4, 2, C9), (4, 3, C9), (6, 1, C7),
    ], ids=["e*m", "e*m-again", "e-divides", "both", "valid"])
    def test_valid_tree_with_wrong_numbers(self, e, m, group):
        tree = path_tree([f"v{k}" for k in range(e + 1)], group,
                         multiplicity=m, exceptional="v0" if m > 1 else None)
        assert validate(tree) == validate_by_sweep(tree)
        assert bool(validate(tree)) == (e * m != group.order - 1
                                        or (group.p - 1) % e != 0)


def labelled_trees(n):
    """Every labelled tree on the vertices 0..n-1, decoded from its Pruefer
    sequence, as adjacency lists in increasing order."""
    if n == 1:
        yield [[]]
        return
    for code in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in code:
            degree[v] += 1
        adj = [[] for _ in range(n)]
        for v in code:
            leaf = degree.index(1)
            adj[leaf].append(v)
            adj[v].append(leaf)
            degree[leaf] -= 1
            degree[v] -= 1
        u, w = (k for k in range(n) if degree[k] == 1)
        adj[u].append(w)
        adj[w].append(u)
        yield [sorted(ns) for ns in adj]


class TestSmallTreesExhaustively:
    def test_partitions_agree_with_brute_force(self):
        # every labelled tree on at most 5 vertices, with no exceptional
        # vertex or any one, in its given and its mirrored embedding: 1,694
        # trees.  The codes split them into classes, and the brute force
        # must find each tree isomorphic to its class's first member and no
        # two first members isomorphic.
        forms = []
        for n in range(1, 6):
            names = [f"v{k}" for k in range(n)]
            for adj in labelled_trees(n):
                planar = {v: tuple(names[w] for w in ns)
                          for v, ns in zip(names, adj)}
                for exceptional in (None, *names):
                    t = BrauerTree(tuple(names), planar, C7,
                                   multiplicity=2 if exceptional else 1,
                                   exceptional=exceptional)
                    forms += [t, mirror(t)]
        assert len(forms) == 1694
        for planar, code in ((False, canonical_code),
                             (True, canonical_planar_code)):
            classes = {}
            for t in forms:
                classes.setdefault(code(t), []).append(t)
            firsts = [members[0] for members in classes.values()]
            for members in classes.values():
                assert all(brute_force_isomorphic(members[0], t, planar)
                           for t in members[1:])
            for i, t1 in enumerate(firsts):
                assert not any(brute_force_isomorphic(t1, t2, planar)
                               for t2 in firsts[i + 1:])
