"""Command-line surface: exit codes, report formats, determinism."""

import gc
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import pytest

import cyclicsource
from cyclicsource import dade, trees
from cyclicsource.cli import (
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_RECORD_ERROR,
    build_parser,
    main,
)
from cyclicsource.descriptors import parse_descriptor
from cyclicsource.groups import is_prime

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a command line naming a bad group, and the start of its stderr; the group
# needs ell >= 1 in every command, as in a descriptor file
BAD_GROUPS = [
    (("dade", "--p", "4", "--ell", "1", "add", "0", "1"),
     "argument error: p must be prime"),
    (("verify", "--p", "3", "--ell", str(10**9)),
     "argument error: p^ell must have at most 4300 digits"),
    (("tree", "emit-star", "2", "1", "3", str(10**9)),
     "argument error: p^ell must have at most 4300 digits"),
    *((argv, "argument error: ell must be at least 1\n") for argv in (
        ("verify", "--p", "3", "--ell", "0"),
        ("tree", "emit-star", "1", "0", "3", "0"),
        ("dade", "--p", "3", "--ell", "0", "add", "", ""))),
]


def fixture(name: str) -> str:
    return str(FIXTURES / name)


class TestInfer:
    def test_good_file(self, capsys):
        code, out, err = run(capsys, "infer", fixture("good.json"))
        assert code == EXIT_OK
        assert "trivial" in out and "shifted" in out

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "--format", "json-lines",
                           "infer", fixture("good.json"))
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 5
        by_label = {r["label"]: r for r in records}
        assert by_label["trivial"]["alpha"] == "00"
        assert by_label["trivial"]["trivial"] is True
        assert by_label["shifted"]["alpha"] == "01"
        assert by_label["shifted"]["jordan"] == 2
        assert by_label["principal"]["provenance"] == "principal-block"
        assert by_label["c4"]["provenance"] == "c4-defect"

    def test_parse_failure_exit_two(self, capsys):
        for name in ("bad_syntax.json", "bad_float_chi.json",
                     "bad_nonprime.json", "bad_unknown_field.json",
                     "bad_top_level.json", "bad_version.json",
                     "bad_chi_length.json", "bad_types.json"):
            code, _, err = run(capsys, "infer", fixture(name))
            assert code == EXIT_PARSE_ERROR, name
            assert "parse error" in err or "error" in err.lower()

    @pytest.mark.parametrize("p, code", [(10**18 + 3, EXIT_OK),
                                         (10**46 + 1, EXIT_PARSE_ERROR)])
    def test_huge_prime_ends_quickly(self, capsys, tmp_path, p, code):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"version": 1, "blocks": [
            {"label": "b", "p": p, "ell": 1, "chi_values": [1]}]}))
        start = time.perf_counter()
        got, out, err = run(capsys, "--format", "json-lines", "infer", str(path))
        assert time.perf_counter() - start < 1.0
        assert got == code
        if code == EXIT_PARSE_ERROR:
            assert "$.blocks[0].p" in err and "too large" in err
        else:
            assert json.loads(out)["trivial"] is True

    @pytest.mark.parametrize("kind", ["blocks", "trees"])
    def test_huge_ell_ends_quickly(self, capsys, tmp_path, kind):
        record = {"label": "r", "p": 3, "ell": 10**9}
        if kind == "blocks":
            record["chi_values"] = [1]
        else:
            record.update(vertices=["a", "b"], planar={"a": ["b"], "b": ["a"]})
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"version": 1, kind: [record]}))
        start = time.perf_counter()
        code, _, err = run(capsys, "infer", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_PARSE_ERROR
        assert f"$.{kind}[0].ell" in err and "4300 digits" in err

    def test_deep_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"version": 1, "blocks": ' + "[" * 3000
                        + "]" * 3000 + "}")
        code, out, err = run(capsys, "infer", str(path))
        assert code == EXIT_PARSE_ERROR
        assert "parse error at line 1 column" in err and "nesting" in err
        assert out == ""

    def test_long_integer_literal_exit_two(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"version":1,"blocks":[{"p":' + "1" * 5000
                        + ',"ell":1}]}')
        code, out, err = run(capsys, "infer", str(path))
        assert code == EXIT_PARSE_ERROR
        assert err == ("parse error at line 1 column 29: integer literal of "
                       "5000 digits, more than 4300\n")
        assert out == ""

    def test_bad_inertial_index_exit_two(self, capsys, tmp_path):
        path = tmp_path / "inertial.json"
        path.write_text('{"version": 1, "blocks": '
                        '[{"p": 3, "ell": 2, "inertial_index": 0}]}')
        code, out, err = run(capsys, "infer", str(path))
        assert code == EXIT_PARSE_ERROR
        assert err == ("parse error at $.blocks[0]: inertial index must be "
                       "positive\n")
        assert out == ""

    def test_record_error_exit_one_batch_isolated(self, capsys):
        code, out, _ = run(capsys, "--format", "json-lines",
                           "infer", fixture("record_error_zero_chi.json"))
        assert code == EXIT_RECORD_ERROR
        records = [json.loads(line) for line in out.splitlines()]
        by_label = {r["label"]: r for r in records}
        # the failing record does not poison the good one
        assert by_label["ok"]["status"] == "ok"
        assert by_label["broken"]["status"] == "error"
        assert "zero" in by_label["broken"]["error"]

    def test_conflicting_metadata_exit_one(self, capsys):
        code, out, _ = run(capsys, "--format", "json-lines",
                           "infer", fixture("record_error_conflict.json"))
        assert code == EXIT_RECORD_ERROR
        record = json.loads(out.splitlines()[0])
        assert "character values" in record["error"]

    def test_p2_without_flags_exit_one(self, capsys):
        code, out, _ = run(capsys, "infer", fixture("record_error_p2_chi.json"))
        assert code == EXIT_RECORD_ERROR
        assert "odd prime" in out

    @pytest.mark.parametrize("command, labels", [
        (("infer",), ()),
        (("tree", "check"), ()),
        (("tree", "compare"), ("a", "b"))], ids=["infer", "check", "compare"])
    def test_missing_file(self, capsys, command, labels):
        code, out, err = run(capsys, *command,
                             fixture("nonexistent.json"), *labels)
        assert code == EXIT_PARSE_ERROR
        assert err.startswith("cannot read") and err.count("\n") == 1
        assert out == ""

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "--format", "json-lines",
                         "infer", fixture("good.json"))
        _, out2, _ = run(capsys, "--format", "json-lines",
                         "infer", fixture("good.json"))
        assert out1.encode() == out2.encode()


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "--format", "json-lines",
                           "verify", "--p", "3", "--ell", "1")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert all(r["status"] == "ok" for r in records)
        assert {r["label"] for r in records} >= {"dade-law", "classification"}

    def test_single_suite(self, capsys):
        code, out, _ = run(capsys, "--format", "json-lines", "verify",
                           "--p", "2", "--ell", "3", "--suite", "dade-law")
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["label"] for r in records] == ["dade-law"]
        assert records[0]["mismatches"] == 0

    def test_capacity_exceeded(self, capsys):
        code, _, err = run(capsys, "verify", "--p", "3", "--ell", "9")
        assert code == EXIT_RECORD_ERROR
        assert "oracle capacity exceeded" in err

    def test_oracle_cap_flag(self, capsys):
        code, _, err = run(capsys, "--oracle-cap", "4",
                           "verify", "--p", "3", "--ell", "1")
        assert code == EXIT_RECORD_ERROR
        assert "oracle capacity exceeded" in err

    @pytest.mark.parametrize("suite", ["restriction", "relative-heller"])
    def test_exactness_refusal_is_one_line(self, capsys, suite):
        # a prime whose products the oracle cannot take exactly stops the
        # sweep with one line and exit 1, as the capacity check does, and
        # is not counted as a skip
        code, out, err = run(capsys, "--oracle-cap", str(2 * 10**16),
                             "verify", "--p", "100000007", "--ell", "1",
                             "--suite", suite)
        assert code == EXIT_RECORD_ERROR
        assert out == ""
        assert err == ("float64 product mod 100000007 with inner dimension "
                       "1 would exceed 2^53\n")

    # env: a CYCLICSOURCE_ORACLE_CAP set around the flag; it is not read
    @pytest.mark.parametrize("env, flag, message", [
        (None, "-3", "--oracle-cap must be a positive integer, got -3"),
        ("16", "0", "--oracle-cap must be a positive integer, got 0"),
    ])
    def test_bad_capacity_is_argument_error(self, capsys, monkeypatch,
                                            env, flag, message):
        if env is not None:
            monkeypatch.setenv("CYCLICSOURCE_ORACLE_CAP", env)
        code, out, err = run(capsys, "--oracle-cap", flag,
                             "verify", "--p", "3", "--ell", "1")
        assert code == EXIT_PARSE_ERROR
        assert err == f"argument error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("env", ["abc", "0", "4"])
    def test_environment_does_not_set_the_capacity(self, capsys, monkeypatch,
                                                   env):
        argv = ("--format", "json-lines", "verify", "--p", "3", "--ell", "1")
        expected = run(capsys, *argv)
        monkeypatch.setenv("CYCLICSOURCE_ORACLE_CAP", env)
        assert run(capsys, *argv) == expected
        assert expected[0] == EXIT_OK

    def test_uncapped_module_is_a_reported_mismatch(self, capsys,
                                                    monkeypatch):
        # a wrong size formula whose module has no cap ends in a suite
        # record with witnesses, not in an uncaught NotCappedError
        monkeypatch.setattr(dade, "w_module",
                            lambda e: 3 if any(e.alpha) else 1)
        code, out, err = run(capsys, "--format", "json-lines", "verify",
                             "--p", "3", "--ell", "1",
                             "--suite", "classification")
        assert code == EXIT_RECORD_ERROR
        assert err == ""
        record = json.loads(out)
        assert record["status"] == "error"
        assert {"alpha": "1", "check": "cap", "jordan": 3, "module": "J_3",
                "error": "not capped endo-permutation: full-vertex parts []"} \
            in record["witnesses"]

    def test_p2_classification_reports_known_mismatch(self, capsys,
                                                      monkeypatch):
        argv = ("--format", "json-lines", "verify", "--p", "2", "--ell", "2",
                "--suite", "classification")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[0])["status"] == "ok"
        # a size map that collides is reported with witnesses and exit 1
        monkeypatch.setattr(dade, "w_module", lambda e: 1)
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_RECORD_ERROR
        record = json.loads(out.splitlines()[0])
        assert record["status"] == "error"
        assert record["mismatches"] >= 1
        assert record["witnesses"]


class TestTree:
    def test_check_good(self, capsys):
        code, out, _ = run(capsys, "tree", "check", fixture("good.json"))
        assert code == EXIT_OK

    def test_check_cycle(self, capsys):
        code, out, _ = run(capsys, "--format", "json-lines",
                           "tree", "check", fixture("tree_error_cycle.json"))
        assert code == EXIT_RECORD_ERROR
        record = json.loads(out.splitlines()[0])
        assert any("not a tree" in v for v in record["violations"])

    def test_check_numeric(self, capsys):
        code, out, _ = run(capsys, "--format", "json-lines", "tree",
                           "check", fixture("tree_error_numeric.json"))
        assert code == EXIT_RECORD_ERROR
        record = json.loads(out.splitlines()[0])
        assert any("e*m != p^ell - 1" in v for v in record["violations"])

    def test_check_names_unknown_exceptional(self, capsys, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"version": 1, "trees": [self._record(
            "edge", [(0, 1)], ["a", "b"], 3, exceptional="x", m=2)]}))
        code, out, _ = run(capsys, "--format", "json-lines",
                           "tree", "check", str(path))
        assert code == EXIT_RECORD_ERROR
        record = json.loads(out.splitlines()[0])
        assert record["violations"] == ["exceptional vertex 'x' unknown"]

    def test_compare_mirror_pair(self, capsys):
        code, out, _ = run(capsys, "--format", "json-lines", "tree",
                           "compare", fixture("good.json"),
                           "spine", "spine-mirror")
        assert code == EXIT_OK
        record = json.loads(out.splitlines()[0])
        assert record["similar"] is True
        assert record["planar_isomorphic"] is False

    def test_compare_self(self, capsys):
        code, out, _ = run(capsys, "--format", "json-lines", "tree",
                           "compare", fixture("good.json"), "star", "star")
        record = json.loads(out.splitlines()[0])
        assert record["similar"] is True and record["planar_isomorphic"] is True

    @pytest.mark.parametrize("file, a, b, message", [
        ("good.json", "star", "nope", "tree record(s) not found: nope\n"),
        ("tree_error_cycle.json", "cycle", "cycle", "invalid tree(s): "),
    ], ids=["missing-label", "invalid-tree"])
    def test_compare_missing_label(self, capsys, file, a, b, message):
        code, out, err = run(capsys, "tree", "compare", fixture(file), a, b)
        assert code == EXIT_RECORD_ERROR
        assert err.startswith(message) and out == ""

    CYCLE = ("cycle: not a tree: |vertices| != |edges| + 1; "
             "cycle: e*m != p^ell - 1 (3*1 != 2); "
             "cycle: e does not divide p - 1 (3 does not divide 2)")
    BADCOUNT = "badcount: e*m != p^ell - 1 (1*1 != 8)"

    @pytest.mark.parametrize("a, b, expected", [
        ("cycle", "cycle", CYCLE),
        ("cycle", "badcount", CYCLE + "; " + BADCOUNT),
        ("badcount", "star", BADCOUNT),
        ("star", "cycle", CYCLE),
    ], ids=["cycle-cycle", "cycle-badcount", "badcount-star", "star-cycle"])
    def test_compare_names_the_invalid_tree(self, capsys, monkeypatch,
                                            tmp_path, a, b, expected):
        # every violation once, after the label of its tree, and one
        # validation per tree, also for a tree compared with itself
        records = [t for name in ("tree_error_cycle.json",
                                  "tree_error_numeric.json", "good.json")
                   for t in json.loads((FIXTURES / name).read_text())["trees"]]
        path = tmp_path / "trees.json"
        path.write_text(json.dumps({"version": 1, "trees": records}))
        validated = []
        validate = trees.validate
        monkeypatch.setattr(
            trees, "validate", lambda t: validated.append(t.label) or validate(t))
        code, out, err = run(capsys, "tree", "compare", str(path), a, b)
        assert code == EXIT_RECORD_ERROR and out == ""
        assert err == "invalid tree(s): " + expected + "\n"
        assert validated == list(dict.fromkeys((a, b)))

    def _compare(self, capsys, tmp_path, first, second):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"version": 1, "trees": [first, second]}))
        code, out, err = run(capsys, "--format", "json-lines", "tree",
                             "compare", str(path), first["label"],
                             second["label"])
        assert code == EXIT_OK, err
        record = json.loads(out)
        return record["similar"], record["planar_isomorphic"]

    @staticmethod
    def _record(label, edges, names, p, exceptional=None, m=1):
        planar = {v: [] for v in names}
        for a, b in edges:
            planar[names[a]].append(names[b])
            planar[names[b]].append(names[a])
        return {"label": label, "p": p, "ell": 1, "vertices": names,
                "planar": planar, "exceptional": exceptional,
                "multiplicity": m}

    @pytest.mark.parametrize("a, b", [("a", "b"), ("b", "a"), ("a", "a")])
    def test_compare_shared_label_is_an_error(self, capsys, tmp_path, a, b):
        # two records labelled a: a star over C_3 and an edge over C_5 with
        # m = 4; b is the star again.  The label names neither record.
        star = self._record("a", [(0, 1), (0, 2)], ["c", "v1", "v2"], 3)
        edge = self._record("a", [(0, 1)], ["c", "v1"], 5, "c", 4)
        path = tmp_path / "shared.json"
        path.write_text(json.dumps({"version": 1, "trees": [
            star, edge, {**star, "label": "b"}]}))
        code, out, err = run(capsys, "tree", "compare", str(path), a, b)
        assert code == EXIT_RECORD_ERROR and out == ""
        assert err == "tree record(s) not unique: a (2 records)\n"

    def test_compare_deep_path(self, capsys, tmp_path):
        # 1,001 edges deep from the exceptional vertex at one end
        edges = [(k, k + 1) for k in range(1001)]
        names = [f"v{k}" for k in range(1002)]
        other = [f"w{(k * 7) % 1002}" for k in range(1002)]
        first = self._record("a", edges, names, 2003, names[0], 2)
        second = self._record("b", edges, other, 2003, other[0], 2)
        assert self._compare(capsys, tmp_path, first, second) == (True, True)

    def test_compare_star_with_double_star(self, capsys, tmp_path):
        names = [f"v{k}" for k in range(4001)]
        star_edges = [(0, k) for k in range(1, 4001)]
        double_edges = [(0, 1)] + [(0, k) for k in range(2, 2001)] + \
            [(1, k) for k in range(2001, 4001)]
        first = self._record("star", star_edges, names, 4001)
        second = self._record("double", double_edges, names, 4001)
        assert self._compare(capsys, tmp_path, first, second) == (False, False)

    def test_compare_roots_and_traverses_each_tree_once(self, capsys, tmp_path,
                                                        monkeypatch):
        # bicentral trees over C_7, the path v0-v1-v2-v3 with a leaf at v1
        # and two at v2, and a relabelled copy: `validate` and both codes of
        # a tree read one leaf-stripping pass, which also finds its central
        # edge, and a valid tree is never swept for faults to name
        edges = [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (2, 6)]
        first = self._record("a", edges, [f"v{k}" for k in range(7)], 7)
        second = self._record("b", edges, [f"w{6 - k}" for k in range(7)], 7)
        calls = []
        strip = trees._strip
        monkeypatch.setattr(trees, "_strip",
                            lambda t: calls.append(t.label) or strip(t))
        monkeypatch.setattr(trees, "_order_faults", lambda t: pytest.fail(
            f"{t.label} swept for faults"))
        assert self._compare(capsys, tmp_path, first, second) == (True, True)
        assert sorted(calls) == ["a", "b"]

    # the chiral tree r(a, b(b1), c(c1, c2)) over C_7, orders as listed
    CHIRAL = [(0, 1), (0, 2), (0, 4), (2, 3), (4, 5), (4, 6)]
    CHIRAL_NAMES = ["r", "a", "b", "b1", "c", "c1", "c2"]

    def _count_unordered(self, monkeypatch):
        # the trees whose unordered code is asked for, and built
        asked, built = [], []
        code, rooted = trees.canonical_code, trees._rooted_code

        def counted(t, planar):
            if not planar:
                built.append(t.label)
            return rooted(t, planar)

        monkeypatch.setattr(trees, "canonical_code",
                            lambda t: asked.append(t.label) or code(t))
        monkeypatch.setattr(trees, "_rooted_code", counted)
        return asked, built

    def test_compare_planar_copy_builds_no_unordered_code(
            self, capsys, tmp_path, monkeypatch):
        # a relabelled copy with every order rotated: planar isomorphism
        # decides both verdicts, since it implies similarity
        first = self._record("a", self.CHIRAL, self.CHIRAL_NAMES, 7)
        second = self._record("b", self.CHIRAL,
                               [f"w{k}" for k in range(7)], 7)
        second["planar"] = {v: ns[1:] + ns[:1]
                            for v, ns in second["planar"].items()}
        asked, built = self._count_unordered(monkeypatch)
        assert self._compare(capsys, tmp_path, first, second) == (True, True)
        assert asked == built == []

    def test_compare_mirror_builds_one_unordered_code_per_tree(
            self, capsys, tmp_path, monkeypatch):
        first = self._record("a", self.CHIRAL, self.CHIRAL_NAMES, 7)
        second = {**first, "label": "b", "planar": {
            v: ns[::-1] for v, ns in first["planar"].items()}}
        asked, built = self._count_unordered(monkeypatch)
        assert self._compare(capsys, tmp_path, first, second) == (True, False)
        assert sorted(asked) == sorted(built) == ["a", "b"]

    def test_compare_verdicts_on_random_pairs(self, capsys, tmp_path):
        # random trees of up to 40 vertices against a relabelled rotated
        # copy, the mirror, a copy with a leaf moved, or a copy with the
        # exceptional vertex moved: `tree compare` reports `similar` and
        # `planar_isomorphic` as computed apart, and planar implies similar
        rng = random.Random(2900)
        seen = Counter()
        for trial in range(240):
            n = rng.randint(2, 40)
            names = [f"v{k}" for k in range(n)]
            adj = {v: [] for v in names}
            for k in range(1, n):
                up = names[rng.randrange(k)]
                adj[up].append(names[k])
                adj[names[k]].append(up)
            for ns in adj.values():
                rng.shuffle(ns)
            e = n - 1
            m = next(m for m in itertools.count(1 + (rng.random() < 0.5))
                     if is_prime(e * m + 1))
            exceptional = rng.choice(names) if m > 1 or rng.random() < 0.5 \
                else None
            first = {"label": "a", "p": e * m + 1, "ell": 1,
                     "vertices": names, "planar": adj,
                     "exceptional": exceptional, "multiplicity": m}
            kind = rng.choice(["copy", "mirror", "leaf", "exceptional"])
            planar = {v: list(ns) for v, ns in adj.items()}
            if kind == "mirror":
                planar = {v: ns[::-1] for v, ns in planar.items()}
            elif kind == "leaf" and n > 2:
                leaf = rng.choice([v for v, ns in planar.items()
                                   if len(ns) == 1])
                old = planar[leaf][0]
                new = rng.choice([v for v in names if v != leaf])
                planar[old].remove(leaf)
                planar[new].insert(rng.randint(0, len(planar[new])), leaf)
                planar[leaf] = [new]
            elif kind == "exceptional" and exceptional is not None:
                exceptional = rng.choice(names)
            rename = dict(zip(names, rng.sample(names, n)))
            shifts = {v: rng.randrange(max(1, len(ns)))
                      for v, ns in planar.items()}
            second = {**first, "label": "b",
                      "vertices": [rename[v] for v in names],
                      "planar": {rename[v]: [rename[w] for w in
                                             ns[shifts[v]:] + ns[:shifts[v]]]
                                 for v, ns in planar.items()},
                      "exceptional": exceptional and rename[exceptional]}
            verdict = self._compare(capsys, tmp_path, first, second)
            doc = parse_descriptor(json.dumps(
                {"version": 1, "trees": [first, second]}))
            t1, t2 = doc.trees
            assert verdict == (trees.similar(t1, t2),
                               trees.planar_isomorphic(t1, t2)), trial
            assert verdict != (False, True), trial
            if kind == "copy":
                assert verdict == (True, True), trial
            seen[verdict] += 1
        assert min(seen[(True, True)], seen[(True, False)],
                   seen[(False, False)]) >= 20, seen

    def test_refused_tree_is_refused_again(self):
        # a refusal is not kept on the tree: after `validate` names the
        # triangle, the codes still raise rather than read a cached result
        doc = parse_descriptor((FIXTURES / "tree_error_cycle.json").read_text())
        cycle = doc.trees[0]
        assert "not a tree: |vertices| != |edges| + 1" in trees.validate(cycle)
        for _ in range(2):
            with pytest.raises(ValueError, match="not a tree"):
                trees.canonical_code(cycle)

    def test_emit_star_round_trip(self, capsys):
        code, out, _ = run(capsys, "tree", "emit-star", "2", "4", "3", "2")
        assert code == EXIT_OK
        doc = parse_descriptor(out)
        assert len(doc.trees) == 1
        assert doc.trees[0].num_edges == 2
        assert doc.trees[0].multiplicity == 4

    def test_emit_star_invalid(self, capsys):
        code, _, err = run(capsys, "tree", "emit-star", "3", "2", "3", "2")
        assert code == EXIT_RECORD_ERROR
        assert "e*m" in err

    def test_emit_star_over_the_edge_limit(self, capsys):
        # p is prime, e = p - 1 and e*m = p - 1: refused before any leaf
        code, out, err = run(capsys, "tree", "emit-star",
                             "1000000000000000002", "1",
                             "1000000000000000003", "1")
        assert code == EXIT_RECORD_ERROR and out == ""
        assert err == ("a star has at most 100000 edges, "
                       "got 1000000000000000002\n")


class TestDade:
    def test_add(self, capsys):
        code, out, _ = run(capsys, "--format", "json-lines", "dade",
                           "--p", "3", "--ell", "2", "add", "10", "11")
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[0])["alpha"] == "01"

    def test_signs(self, capsys):
        code, out, _ = run(capsys, "--format", "json-lines", "dade",
                           "--p", "3", "--ell", "3", "signs", "101")
        assert json.loads(out.splitlines()[0])["signs"] == [-1, -1, 1]

    def test_module(self, capsys):
        code, out, _ = run(capsys, "--format", "json-lines", "dade",
                           "--p", "3", "--ell", "2", "module", "10")
        assert json.loads(out.splitlines()[0])["jordan"] == 8

    def test_add_p_two_drops_trivial_top_bit(self, capsys):
        # over C_4 the top bit names the trivial class: 01 + 10 = 10
        code, out, _ = run(capsys, "dade", "--p", "2", "--ell", "2",
                           "add", "01", "10")
        assert code == EXIT_OK
        assert "alpha=10" in out

    @pytest.mark.parametrize("argv, message", [
        pytest.param(argv, message, id=f"argv{k}")
        for k, (argv, message) in enumerate(BAD_GROUPS)])
    def test_bad_group_arguments_exit_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PARSE_ERROR
        assert err.startswith(message) and out == ""

    @pytest.mark.parametrize("operation, alphas", [
        ("add", ("1", "11")), ("signs", ("1",)), ("module", ("1",))],
        ids=["add", "signs", "module"])
    def test_bad_alpha(self, capsys, operation, alphas):
        code, out, err = run(capsys, "dade", "--p", "3", "--ell", "2",
                             operation, *alphas)
        assert code == EXIT_RECORD_ERROR and out == ""
        assert err == "alpha must be 2 bits, got '1'\n"


class TestCollector:
    """A command runs with the cyclic collector paused, and `main` hands
    it back in the state it found it, whatever the exit."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("argv, code", [
        (("infer", fixture("good.json")), EXIT_OK),
        (("infer", fixture("record_error_conflict.json")), EXIT_RECORD_ERROR),
        (("infer", fixture("no_such_file.json")), EXIT_PARSE_ERROR),
        (("tree", "compare", fixture("good.json"), "star", "nowhere"),
         EXIT_RECORD_ERROR),
    ])
    def test_main_restores_the_collector(self, capsys, enabled, argv, code):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled
            with pytest.raises(SystemExit):  # argparse refusing the line
                run(capsys, "infer")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("argv", [
        ("infer", fixture("good.json")),
        ("--format", "json-lines", "infer", fixture("good.json")),
        ("tree", "compare", fixture("good.json"), "spine", "spine-mirror"),
        ("tree", "compare", fixture("good.json"), "star", "star"),
    ])
    def test_commands_leave_no_cycles(self, capsys, argv):
        # the premise of the pause: once the first call has filled the
        # caches, a command leaves nothing for the collector to free
        run(capsys, *argv)
        gc.collect()
        assert run(capsys, *argv)[0] == EXIT_OK
        assert gc.collect() == 0


class TestSharedParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_no_option_leaks_into_the_next_command(self, capsys):
        code, out, err = run(capsys, "--format", "json-lines",
                             "--oracle-cap", "4",
                             "verify", "--p", "3", "--ell", "1")
        assert code == EXIT_RECORD_ERROR
        assert "oracle capacity exceeded" in err
        code, out, err = run(capsys, "verify", "--p", "3", "--ell", "1")
        assert (code, err) == (EXIT_OK, "")  # the default capacity
        assert out.startswith("[suite] ")  # the human format


class TestNumpyLoad:
    """numpy loads at the oracle's first computation: the commands that
    build no matrix, and a verify refused before its first oracle call,
    never run numpy's import.  Checked in a fresh process, since this one
    has numpy loaded already."""

    CHILD = textwrap.dedent("""
        import contextlib, io, json, sys
        from cyclicsource.cli import main
        seen = []
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            seen.append([code, "numpy._core" in sys.modules])
        print(json.dumps(seen))
    """)

    def test_only_the_oracle_loads_numpy(self):
        good = fixture("good.json")
        argvs = [
            (["infer", good], EXIT_OK),
            (["tree", "check", good], EXIT_OK),
            (["tree", "compare", good, "spine", "spine-mirror"], EXIT_OK),
            (["tree", "emit-star", "2", "1", "3", "1"], EXIT_OK),
            (["dade", "--p", "3", "--ell", "2", "module", "10"], EXIT_OK),
            (["verify", "--p", "4", "--ell", "1"], EXIT_PARSE_ERROR),
            (["--oracle-cap", "0", "verify", "--p", "3", "--ell", "1"],
             EXIT_PARSE_ERROR),
            (["verify", "--p", "3", "--ell", "9"], EXIT_RECORD_ERROR),
            (["verify", "--p", "3", "--ell", "2"], EXIT_OK),
        ]
        # the child imports the package this process imported
        src = str(Path(cyclicsource.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD,
             json.dumps([argv for argv, _ in argvs])],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert [code for code, _ in seen] == [code for _, code in argvs]
        # loaded by the last command only, the one verify that computes
        assert [loaded for _, loaded in seen] == [False] * 8 + [True]
