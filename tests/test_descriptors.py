"""Descriptor parsing: positioned errors, exact integers, round trips."""

import json
import operator
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest

from cyclicsource import descriptors, groups
from cyclicsource.blocks import BlockDescriptor
from cyclicsource.descriptors import (
    _BLOCK_FIELDS,
    _TREE_FIELDS,
    FORMAT_VERSION,
    DescriptorError,
    DescriptorFile,
    emit_descriptor,
    parse_descriptor,
)
from cyclicsource.groups import GroupSpec
from cyclicsource.trees import BrauerTree, star

FIXTURES = Path(__file__).parent / "fixtures"


def load(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _tree(vertices: str, planar: str) -> str:
    return ('{"version": 1, "trees": [{"p": 3, "ell": 1, '
            f'"vertices": {vertices}, "planar": {planar}}}]}}')


def _block(fields: str) -> str:
    return '{"version": 1, "blocks": [{"p": 3, "ell": 2' + fields + '}]}'


# documents with one value of the wrong JSON kind, and the one issue each
# gives; a kind is exact, so `true` is no integer and `1` no boolean
KIND_ERRORS = [
    (_tree('["a", 1]', '{"a": ["b"], "b": ["a"]}'),
     ("$.trees[0].vertices[1]", "string required")),
    (_tree('["a", "b"]', '{"a": ["b"], "b": ["a", null]}'),
     ("$.trees[0].planar.b[1]", "string required")),
    (_tree('["a", "b"]', '{"a": "b", "b": ["a"]}'),
     ("$.trees[0].planar.a", "array required")),
    ('{"version": 1, "blocks": [{"p": true, "ell": 1}]}',
     ("$.blocks[0].p", "integer required")),
    (_block(', "is_principal": 1'),
     ("$.blocks[0].is_principal", "boolean required")),
    (_block(', "label": 5'), ("$.blocks[0].label", "string required")),
    ('{"version": 1, "blocks": {}}', ("$.blocks", "array required")),
    ('{"version": 1, "blocks": [3]}', ("$.blocks[0]", "object required")),
    (_block(', "chi_values": [1, true]'),
     ("$.blocks[0].chi_values[1]", "integer required")),
]


# the kind a place of good.json needs, by the type of the value there
NEEDED_KIND = {int: "integer", str: "string", bool: "boolean", list: "array",
               dict: "object", type(None): "string"}


def value_places(value, path="$", keys=()):
    """(path, keys, value) of `value` and of every value nested in it, the
    keys leading there from the top."""
    yield path, keys, value
    if isinstance(value, dict):
        for key, entry in value.items():
            yield from value_places(entry, f"{path}.{key}", (*keys, key))
    elif isinstance(value, list):
        for k, entry in enumerate(value):
            yield from value_places(entry, f"{path}[{k}]", (*keys, k))


def issues_of(text: str):
    with pytest.raises(DescriptorError) as err:
        parse_descriptor(text)
    return err.value.issues


class TestParsing:
    def test_good_file(self):
        doc = parse_descriptor(load("good.json"))
        assert len(doc.blocks) == 5
        assert len(doc.trees) == 3
        assert doc.blocks[0].chi_values == (1, 1)
        assert doc.blocks[2].is_principal is True
        assert doc.trees[0].multiplicity == 4

    def test_minimal_block(self):
        doc = parse_descriptor(
            '{"version": 1, "blocks": '
            '[{"p": 3, "ell": 2, "chi_values": [1, 1]}]}'
        )
        assert len(doc.blocks) == 1
        assert doc.blocks[0].group.order == 9

    def test_syntax_error_positioned(self):
        issues = issues_of(load("bad_syntax.json"))
        assert len(issues) == 1
        assert issues[0].path.startswith("line ")

    def test_top_level_must_be_object(self):
        issues = issues_of(load("bad_top_level.json"))
        assert issues[0].path == "$"
        assert "object required" in issues[0].message

    def test_unknown_field_named(self):
        issues = issues_of(load("bad_unknown_field.json"))
        assert any(i.path == "$.blocks[0].defect"
                   and i.message == "unknown field" for i in issues)

    def test_float_rejected_with_position(self):
        issues = issues_of(load("bad_float_chi.json"))
        assert any(i.path == "$.blocks[0].chi_values[1]"
                   and i.message == "integer required" for i in issues)

    def test_float_refused_by_the_kind_of_its_place(self):
        # 1.5 in place of each value of good.json gives one issue, at its
        # path, naming the kind the place needs: the kind of the value it
        # replaces, a string for the one null (no exceptional vertex)
        good = json.loads(load("good.json"))
        places = list(value_places(good))
        assert len(places) == 119
        for path, keys, value in places:
            data = json.loads(load("good.json"))
            if keys:
                *up, last = keys
                reduce(operator.getitem, up, data)[last] = 1.5
            else:
                data = 1.5
            need = ("top-level object" if not keys
                    else NEEDED_KIND[type(value)])
            assert [(i.path, i.message) for i in issues_of(json.dumps(data))] \
                == [(path, f"{need} required")], path

    def test_float_in_an_unknown_field_is_that_field(self):
        issues = issues_of('{"version": 1, "x": 1.5, "blocks": '
                           '[{"p": 3, "ell": 1, "weight": 2e3}]}')
        assert [(i.path, i.message) for i in issues] == [
            ("$.x", "unknown field"), ("$.blocks[0].weight", "unknown field")]

    def test_too_deep_positioned(self):
        text = '{"version": 1,\n "trees": ' + "[" * 3000 + "]" * 3000 + "}"
        issues = issues_of(text)
        assert len(issues) == 1
        assert issues[0].path == "line 2 column 3010"
        assert "nesting too deep" in issues[0].message

    def test_long_integer_literal_positioned(self):
        # json.loads cannot convert it (CPython's 4,300-digit limit); longer
        # floats and strings of digits before it are not at fault
        text = ('{"version": 1, "label": "' + "9" * 5000 + '",\n "x": [1.'
                + "2" * 5000 + ', -' + "3" * 4301 + '],\n "p": ' + "1" * 5000 + "}")
        issues = issues_of(text)
        assert [(i.path, i.message) for i in issues] == [
            ("line 2 column 5012", "integer literal of 4301 digits, more than 4300")]
        issues = issues_of('{"version":1,"blocks":[{"p":' + "1" * 5000 + ',"ell":1}]}')
        assert [(i.path, i.message) for i in issues] == [
            ("line 1 column 29", "integer literal of 5000 digits, more than 4300")]

    @pytest.mark.parametrize("document, expected", KIND_ERRORS,
                             ids=[path for _, (path, _) in KIND_ERRORS])
    def test_kind_errors_positioned(self, document, expected):
        issues = issues_of(document)
        assert [(i.path, i.message) for i in issues] == [expected]

    def test_ell_bounded_by_order_digits(self):
        issues = issues_of('{"version": 1, "blocks": [{"p": 2, "ell": 14285}]}')
        assert [(i.path, i.message) for i in issues] == [
            ("$.blocks[0].ell", "p^ell must have at most 4300 digits")]
        doc = parse_descriptor('{"version": 1, "blocks": [{"p": 2, "ell": 14284}]}')
        assert len(str(doc.blocks[0].group.order)) == 4300

    def test_ell_at_least_one(self):
        issues = issues_of('{"version": 1, "blocks": [{"p": 3, "ell": 0}]}')
        assert [(i.path, i.message) for i in issues] == [
            ("$.blocks[0].ell", "ell must be at least 1")]

    @pytest.mark.parametrize("e, message", [
        (0, "inertial index must be positive"),
        (4, "inertial index 4 does not divide p - 1 = 2"),
    ])
    def test_inertial_index_refused_at_the_record(self, e, message):
        issues = issues_of(_block(f', "inertial_index": {e}'))
        assert [(i.path, i.message) for i in issues] == [("$.blocks[0]", message)]

    def test_nonprime_p(self):
        issues = issues_of(load("bad_nonprime.json"))
        assert any(i.path == "$.blocks[0].p"
                   and "prime" in i.message for i in issues)

    def test_chi_length(self):
        issues = issues_of(load("bad_chi_length.json"))
        assert any("expected 2 values" in i.message for i in issues)

    def test_unsupported_version(self):
        issues = issues_of(load("bad_version.json"))
        assert any(i.path == "$.version" for i in issues)

    def test_type_errors_are_positioned(self):
        issues = issues_of(load("bad_types.json"))
        paths = {i.path for i in issues}
        assert "$.blocks[0].p" in paths
        assert "$.trees[0].vertices" in paths

    def test_error_classes_have_fixture_coverage(self):
        # every bad_* fixture must fail to parse, every record_error_* and
        # tree_error_* fixture must parse (the failure is semantic)
        for path in FIXTURES.glob("bad_*.json"):
            with pytest.raises(DescriptorError):
                parse_descriptor(path.read_text(encoding="utf-8"))
        for stem in ("record_error_", "tree_error_"):
            for path in FIXTURES.glob(f"{stem}*.json"):
                parse_descriptor(path.read_text(encoding="utf-8"))


class TestRoundTrip:
    def test_emit_then_parse_good(self):
        doc = parse_descriptor(load("good.json"))
        again = parse_descriptor(emit_descriptor(doc))
        assert again.blocks == doc.blocks
        assert again.trees == doc.trees

    def test_emit_is_stable(self):
        doc = parse_descriptor(load("good.json"))
        assert emit_descriptor(doc) == emit_descriptor(
            parse_descriptor(emit_descriptor(doc)))

    def test_empty_document(self):
        doc = DescriptorFile()
        again = parse_descriptor(emit_descriptor(doc))
        assert again.blocks == [] and again.trees == []

    def test_emitted_version_is_the_format_version(self):
        # a document holds no version of its own, so none but the one the
        # parser reads can be emitted
        assert list(vars(DescriptorFile())) == ["blocks", "trees"]
        assert json.loads(emit_descriptor(DescriptorFile()))["version"] \
            == FORMAT_VERSION


class TestGroupOncePerPair:
    """A document decides each (p, ell) group once; every record naming it
    shares the group, or has the failure reported at its own path."""

    def test_failure_reported_at_each_record(self):
        blocks = [{"p": 9, "ell": 1, "chi_values": [1]}] * 3
        issues = issues_of(json.dumps({"version": 1, "blocks": blocks}))
        assert [(i.path, i.message) for i in issues] == [
            (f"$.blocks[{k}].p", "p must be prime, got 9") for k in range(3)]

    def test_checks_run_once_per_pair(self, monkeypatch):
        calls = []

        def count(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls.append((module.__name__, name, args))
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        count(groups, "is_prime")
        count(groups, "order_too_large")  # in GroupSpec
        count(descriptors, "order_too_large")  # in the validator
        pairs = [(3, 1), (5, 2), (9, 1), (2, 14285), (7, 2)]  # p distinct
        records = [{"p": p, "ell": ell} for p, ell in pairs * 4]
        issues = issues_of(json.dumps({"version": 1, "blocks": records,
                                       "trees": records}))
        assert [i.path for i in issues if i.path.endswith((".p", ".ell"))] == [
            f"$.{kind}[{k}].{'p' if k % 5 == 2 else 'ell'}"
            for kind in ("blocks", "trees") for k in range(20) if k % 5 in (2, 3)]
        assert set(Counter(calls).values()) == {1}
        assert {args for _, name, args in calls if name == "is_prime"} == {
            (p,) for p, _ in pairs}
        assert {args for _, name, args in calls
                if name == "order_too_large"} == set(pairs)


class TestFieldTables:
    """`_BLOCK_FIELDS` and `_TREE_FIELDS` are the record format."""

    def test_block_with_every_field(self):
        block = BlockDescriptor(GroupSpec(3, 2), chi_values=(2, -1),
                                is_principal=False, centralizer_equal=True,
                                normalizer_equal=False, inertial_index=2,
                                label="all")
        text = emit_descriptor(DescriptorFile(blocks=[block]))
        [record] = json.loads(text)["blocks"]
        assert record.keys() == {"label", "p", "ell", *_BLOCK_FIELDS}
        assert parse_descriptor(text).blocks == [block]

    def test_tree_with_exceptional_vertex(self):
        plain = star(2, 4, GroupSpec(3, 2))
        tree = BrauerTree(plain.vertices, plain.planar, plain.defect,
                          plain.multiplicity, plain.exceptional, label="star")
        text = emit_descriptor(DescriptorFile(trees=[tree]))
        [record] = json.loads(text)["trees"]
        assert record.keys() == {"label", "p", "ell", *_TREE_FIELDS}
        assert parse_descriptor(text).trees == [tree]

    def test_block_table_names_every_descriptor_field(self):
        names = set(vars(BlockDescriptor(GroupSpec(3, 2))))
        assert _BLOCK_FIELDS.keys() | {"label"} == names - {"group"}
