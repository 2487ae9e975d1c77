"""Acceptance suite: one test per criterion, exact arithmetic, hard time
budgets.  Every numeric claim is either recomputed by the matrix oracle or
asserted as integer identity; there are no tolerances.

Criterion 2 includes p = 2, where the Dade group of C_{2^ell} has rank
ell - 1, not ell (Dade 1978): the syzygy relative to the maximal subgroup is
the inflation of Omega_{C_2}(k) = k, so its bit names the trivial class.
`dade.enumerate_elements` yields each class once, and the map from classes
to Jordan sizes is injective for every p.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from cyclicsource import cli, dade, modules, oracle, trees
from cyclicsource.blocks import (
    BlockDescriptor,
    CharacterValueError,
    infer_w,
    is_trivial_by_signs,
)
from cyclicsource.dade import DadeElement
from cyclicsource.descriptors import emit_descriptor, parse_descriptor
from cyclicsource.groups import GroupSpec
from cyclicsource.modules import ModuleSum

FIXTURES = Path(__file__).parent / "fixtures"


class Budget:
    """Wall-clock budget for one criterion; exceeding it is a failure."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "FAIL" if exc_type else "PASS"
        print(f"{self.name}: {status} ({elapsed:.2f} s, budget "
              f"{self.seconds:.0f} s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds} s budget "
                f"({elapsed:.2f} s)"
            )


def test_criterion_01_dade_group_law():
    """cap(J_w(a) (x) J_w(b)) = J_w(a+b) for all pairs, by tensor oracle."""
    with Budget("criterion 1 (Dade group law)", 10.0):
        for p, ell in [(3, 1), (3, 2), (5, 1)]:
            group = GroupSpec(p, ell)
            elements = list(dade.enumerate_elements(group))
            for a, b in itertools.product(elements, repeat=2):
                tensor = oracle.tensor_decompose(dade.w_module_sum(a),
                                                 dade.w_module_sum(b))
                assert modules.cap_part(tensor) == \
                    dade.w_module(dade.dade_add(a, b)), (str(a), str(b))


def test_criterion_02_classification():
    """alpha -> Jordan size injective with p coprime images for
    p in {2,3,5,7}, ell <= 4; oracle endo-permutation and cap checks where
    capacity permits (p = 3, ell <= 3).

    For p = 2 the Dade group has rank ell - 1, so the sweep covers its
    2^(ell-1) classes (see module docstring)."""
    with Budget("criterion 2 (classification)", 30.0):
        violations = []
        for p in (2, 3, 5, 7):
            for ell in range(1, 5):
                group = GroupSpec(p, ell)
                elements = list(dade.enumerate_elements(group))
                sizes = [dade.w_module(e) for e in elements]
                for n in sizes:
                    assert n % p != 0, (p, ell, n)
                if len(set(sizes)) != len(sizes):
                    violations.append(
                        f"p={p} ell={ell}: sizes {sorted(sizes)} collide"
                    )
        for ell in range(1, 4):
            group = GroupSpec(3, ell)
            for e in dade.enumerate_elements(group):
                m = dade.w_module_sum(e)
                assert oracle.is_endo_permutation(m), str(e)
                assert modules.cap_part(m) == dade.w_module(e), str(e)
        assert not violations, "; ".join(violations)


def test_criterion_03_heller_shift_negates_character():
    """Adding the syzygy generator complements the degree to p^ell and
    negates every layer value."""
    with Budget("criterion 3 (character negation)", 1.0):
        for p in (3, 5, 7):
            for ell in range(1, 5):
                group = GroupSpec(p, ell)
                gen = DadeElement(group, (1,) + (0,) * (ell - 1))
                for e in dade.enumerate_elements(group):
                    char = dade.lift_character(e)
                    shifted = dade.lift_character(dade.dade_add(e, gen))
                    assert shifted.dim == group.order - char.dim, str(e)
                    assert shifted.layer_values == \
                        tuple(-v for v in char.layer_values), str(e)


def test_criterion_04_sign_formula():
    """psi gives the character signs, psi_inverse inverts it, and psi turns
    addition into componentwise sign products."""
    with Budget("criterion 4 (sign formula)", 1.0):
        for p in (3, 5, 7):
            for ell in range(1, 5):
                group = GroupSpec(p, ell)
                elements = list(dade.enumerate_elements(group))
                for e in elements:
                    layers = dade.lift_character(e).layer_values
                    assert dade.psi(e).signs == \
                        tuple(1 if v > 0 else -1 for v in layers), str(e)
                    assert dade.psi_inverse(dade.psi(e)) == e, str(e)
                for a, b in itertools.product(elements, repeat=2):
                    assert dade.psi(dade.dade_add(a, b)).signs == tuple(
                        x * y for x, y in zip(dade.psi(a).signs,
                                              dade.psi(b).signs))


def test_criterion_05_character_round_trip():
    """infer_w recovers alpha from synthetic character values with random
    positive magnitudes, in both the plain and the globally negated case;
    zero values are rejected."""
    rng = random.Random(5)
    with Budget("criterion 5 (inference round trip)", 5.0):
        for p in (3, 5):
            for ell in range(1, 5):
                group = GroupSpec(p, ell)
                for e in dade.enumerate_elements(group):
                    if e.alpha[0] != 0:
                        continue
                    signs = dade.psi(e).signs
                    for _ in range(5):
                        mags = [rng.randint(1, 10 ** 9) for _ in range(ell)]
                        values = tuple(s * m for s, m in zip(signs, mags))
                        for case in (values, tuple(-v for v in values)):
                            b = BlockDescriptor(group, chi_values=case)
                            assert infer_w(b).dade == e, (str(e), case)
                with pytest.raises(CharacterValueError):
                    infer_w(BlockDescriptor(
                        group, chi_values=(0,) + (1,) * (ell - 1)))


def test_criterion_06_triviality_agreement():
    """is_trivial_by_signs matches infer_w(...).dade == 0 on all inputs of
    criterion 5."""
    rng = random.Random(5)
    with Budget("criterion 6 (triviality agreement)", 5.0):
        for p in (3, 5):
            for ell in range(1, 5):
                group = GroupSpec(p, ell)
                for e in dade.enumerate_elements(group):
                    if e.alpha[0] != 0:
                        continue
                    signs = dade.psi(e).signs
                    for _ in range(5):
                        mags = [rng.randint(1, 10 ** 9) for _ in range(ell)]
                        values = tuple(s * m for s, m in zip(signs, mags))
                        for case in (values, tuple(-v for v in values)):
                            b = BlockDescriptor(group, chi_values=case)
                            w = infer_w(b)
                            assert is_trivial_by_signs(b) == w.trivial
                            assert w.trivial == w.dade.is_zero


def test_criterion_07_restriction_cap():
    """Restriction-cap bookkeeping for p = 3, ell = 3: the closed path, the
    oracle path, the chain composition, and the named witness value."""
    with Budget("criterion 7 (restriction cap)", 30.0):
        group = GroupSpec(3, 3)
        for e in dade.enumerate_elements(group):
            m = ModuleSum(group, (dade.w_module(e),))
            caps = {}
            for i in range(1, 4):
                closed = modules.cap_part(modules.restrict(m, i))
                by_oracle = modules.cap_part(oracle.restrict_oracle(m, i))
                assert closed == by_oracle, (str(e), i)
                caps[i] = closed
            # chain composition: capping through an intermediate subgroup
            for i in range(1, 4):
                for j in range(1, i + 1):
                    mid = ModuleSum(group.subgroup(i), (caps[i],))
                    chained = modules.cap_part(modules.restrict(mid, j))
                    assert chained == caps[j], (str(e), i, j)
        # witness: Res from C_9 to C_3 of J_8 has cap J_2
        c9 = GroupSpec(3, 2)
        assert modules.cap_part(modules.restrict(ModuleSum(c9, (8,)), 1)) == 2
        assert modules.cap_part(
            oracle.restrict_oracle(ModuleSum(c9, (8,)), 1)) == 2


def test_criterion_08_relative_heller_closed_form():
    """Relative syzygy closed form against the kernel-of-minimal-cover
    oracle for p in {2,3,5}, ell <= 3, every Jordan size, every index."""
    with Budget("criterion 8 (relative syzygy)", 60.0):
        for p in (2, 3, 5):
            for ell in range(1, 4):
                group = GroupSpec(p, ell)
                for n in range(1, group.order + 1):
                    for i in range(0, ell + 1):
                        m = ModuleSum(group, (n,))
                        assert modules.relative_heller(m, i) == \
                            oracle.relative_heller_oracle(m, i), (p, ell, n, i)


def _random_planar_tree(rng, n_vertices, group):
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
    return trees.BrauerTree(tuple(names), planar, group)


def _prime_powers(limit):
    for p in range(2, limit + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        q = p
        ell = 1
        while q <= limit:
            yield p, ell, q
            q *= p
            ell += 1


def test_criterion_09_tree_suite():
    """Stars for every admissible (e, m) with p^ell <= 343, plus invariance
    and equivalence properties on 100 random trees of at most 12 edges."""
    rng = random.Random(9)
    with Budget("criterion 9 (tree suite)", 10.0):
        admissible = 0
        for p, ell, q in _prime_powers(343):
            group = GroupSpec(p, ell)
            for e in range(1, p):
                if (p - 1) % e != 0:
                    continue
                m = (q - 1) // e
                assert e * m == q - 1
                t = trees.star(e, m, group)
                assert trees.validate(t) == [], (p, ell, e, m)
                two = trees.type_functions(t)
                assert len(two) == 2
                for tf in two:
                    for edge in t.edges:
                        v, w = tuple(edge)
                        assert tf.signs[v] == -tf.signs[w]
                assert trees.similar(t, t)
                assert trees.planar_isomorphic(t, t)
                admissible += 1
        assert admissible > 50  # the sweep actually covered the range

        seen = []
        for _ in range(100):
            t = _random_planar_tree(rng, rng.randint(2, 13), GroupSpec(7, 1))
            names = list(t.vertices)
            shuffled = names[:]
            rng.shuffle(shuffled)
            r_map = dict(zip(names, shuffled))
            relabelled = trees.BrauerTree(
                tuple(r_map[v] for v in t.vertices),
                {r_map[v]: tuple(r_map[w] for w in ns)
                 for v, ns in t.planar.items()},
                t.defect)
            assert trees.similar(t, relabelled)
            assert trees.planar_isomorphic(t, relabelled)
            mirrored = trees.BrauerTree(
                t.vertices,
                {v: tuple(reversed(ns)) for v, ns in t.planar.items()},
                t.defect)
            assert trees.similar(t, mirrored)
            if trees.planar_isomorphic(t, mirrored):
                assert trees.similar(t, mirrored)
            seen.append(t)
        # equivalence: symmetry and transitivity through canonical codes
        for t1, t2 in zip(seen, seen[1:]):
            assert trees.similar(t1, t2) == trees.similar(t2, t1)


def test_criterion_10_cli(capsys):
    """Round-trip parse/emit, the exit-code contract, and byte-identical
    json-lines reports over the fixtures directory."""
    with Budget("criterion 10 (CLI)", 5.0):
        # round trip on every parseable fixture
        for path in sorted(FIXTURES.glob("*.json")):
            text = path.read_text(encoding="utf-8")
            try:
                doc = parse_descriptor(text)
            except ValueError:
                assert path.name.startswith("bad_"), path.name
                continue
            again = parse_descriptor(emit_descriptor(doc))
            assert again.blocks == doc.blocks, path.name
            assert again.trees == doc.trees, path.name

        def run(*argv):
            code = cli.main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out

        # exit-code contract: 2 for parse failures, 1 for record errors,
        # 0 for clean runs; every error-class fixture is exercised
        for path in sorted(FIXTURES.glob("bad_*.json")):
            code, _ = run("infer", str(path))
            assert code == cli.EXIT_PARSE_ERROR, path.name
        for path in sorted(FIXTURES.glob("record_error_*.json")):
            code, _ = run("infer", str(path))
            assert code == cli.EXIT_RECORD_ERROR, path.name
        for path in sorted(FIXTURES.glob("tree_error_*.json")):
            code, _ = run("tree", "check", str(path))
            assert code == cli.EXIT_RECORD_ERROR, path.name
        assert run("infer", str(FIXTURES / "good.json"))[0] == cli.EXIT_OK
        assert run("tree", "check",
                   str(FIXTURES / "good.json"))[0] == cli.EXIT_OK

        # deterministic bytes under json-lines
        outputs = set()
        for _ in range(3):
            code, out = run("--format", "json-lines", "infer",
                            str(FIXTURES / "good.json"))
            assert code == cli.EXIT_OK
            for line in out.splitlines():
                json.loads(line)
            outputs.add(out.encode())
        assert len(outputs) == 1
