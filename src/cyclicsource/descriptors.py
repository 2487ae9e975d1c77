"""Descriptor file parsing and emission.

A descriptor file is a JSON document with a version tag, a list of block
records and an optional list of tree records:

    {
      "version": 1,
      "blocks": [
        {"label": "b1", "p": 3, "ell": 2, "chi_values": [2, -1],
         "is_principal": false, "inertial_index": 2}
      ],
      "trees": [
        {"label": "t1", "p": 3, "ell": 2,
         "vertices": ["c", "v1", "v2"],
         "planar": {"c": ["v1", "v2"], "v1": ["c"], "v2": ["c"]},
         "exceptional": "c", "multiplicity": 4}
      ]
    }

The tables `_BLOCK_FIELDS` and `_TREE_FIELDS` are the format: each maps every
field but `label`, `p` and `ell` to its JSON kind, in the order the fields
are checked.  Kinds are exact: an integer is decimal with no exponent, and a
float is refused by the kind check of the place where it stands.  Unknown
fields are rejected by name.  Errors carry the JSON path of the offending
value.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain

from .blocks import BlockDescriptor
from .groups import MAX_ORDER_DIGITS, GroupSpec, _Value, order_too_large
from .trees import BrauerTree

FORMAT_VERSION = 1

_BLOCK_FIELDS = {"chi_values": list, "is_principal": bool, "centralizer_equal": bool,
                 "normalizer_equal": bool, "inertial_index": int}
_TREE_FIELDS = {"vertices": list, "planar": dict, "exceptional": str,
                "multiplicity": int}
_TOP_FIELDS = {"version", "blocks", "trees"}
# the fields a record may carry, for the unknown-field check
_BLOCK_KEYS = _BLOCK_FIELDS.keys() | {"label", "p", "ell"}
_TREE_KEYS = _TREE_FIELDS.keys() | {"label", "p", "ell"}
# the JSON kinds a field may be required to have, by the noun in messages
_KIND_NOUNS = {int: "integer", str: "string", bool: "boolean",
               list: "array", dict: "object"}


class ParseIssue(_Value, frozen=False):
    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class DescriptorError(ValueError):
    def __init__(self, issues: list[ParseIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


class DescriptorFile(_Value, frozen=False):
    def __init__(self, blocks: list[BlockDescriptor] | None = None,
                 trees: list[BrauerTree] | None = None) -> None:
        self.blocks = [] if blocks is None else blocks
        self.trees = [] if trees is None else trees


class _Validator:
    def __init__(self) -> None:
        self.issues: list[ParseIssue] = []
        # (p, ell) -> the group, or the field at fault and the message
        self.groups: dict[tuple[int, int], GroupSpec | tuple[str, str]] = {}

    def fail(self, path: str, message: str) -> None:
        self.issues.append(ParseIssue(path, message))

    def require(self, value, kind: type, path: str, name: str | None = None):
        """`value` if its type is exactly `kind` (so `true` is no integer),
        else None after reporting it at `path`, or at its field `name`; the
        field's path is built only then."""
        if type(value) is not kind:
            self.fail(path if name is None else f"{path}.{name}",
                      f"{_KIND_NOUNS[kind]} required")
            return None
        return value

    def require_all(self, items: list, kind: type, path: str, name: str) -> bool:
        """Whether every entry of the array `items` in the field `name` at
        `path` is of `kind`; the first one that is not is reported, and only
        its path is built."""
        for k, entry in enumerate(items):
            if type(entry) is not kind:
                self.fail(f"{path}.{name}[{k}]", f"{_KIND_NOUNS[kind]} required")
                return False
        return True

    def group(self, record: dict, path: str) -> GroupSpec | None:
        p = self.require(record.get("p"), int, path, "p")
        ell = self.require(record.get("ell"), int, path, "ell")
        if p is None or ell is None:
            return None
        outcome = self.groups.get((p, ell))
        if outcome is None:
            outcome = self.groups[p, ell] = _group_outcome(p, ell)
        if type(outcome) is GroupSpec:
            return outcome
        self.fail(f"{path}.{outcome[0]}", outcome[1])
        return None


def _group_outcome(p: int, ell: int) -> GroupSpec | tuple[str, str]:
    """The group C_{p^ell} of a record, or the field at fault and why."""
    if ell < 1:
        return "ell", "ell must be at least 1"
    try:
        return GroupSpec(p, ell)
    except ValueError as exc:
        if p >= 2 and order_too_large(p, ell):
            return "ell", f"p^ell must have at most {MAX_ORDER_DIGITS} digits"
        return "p", str(exc)  # with ell >= 1, only p is left at fault


def _open_record(v: _Validator, record, keys: set,
                 path: str) -> tuple[GroupSpec, str] | None:
    """The (group, label) of the record at `path`, after the fields not in
    `keys` are reported; None once a check fails."""
    if v.require(record, dict, path) is None:
        return None
    for key in sorted(record.keys() - keys):
        v.fail(f"{path}.{key}", "unknown field")
    group = v.group(record, path)
    if group is None:
        return None
    label = v.require(record.get("label", ""), str, path, "label")
    return None if label is None else (group, label)


def _parse_block(v: _Validator, record, path: str) -> BlockDescriptor | None:
    opened = _open_record(v, record, _BLOCK_KEYS, path)
    if opened is None:
        return None
    group, label = opened
    values = {}
    for name, kind in _BLOCK_FIELDS.items():
        if name in record:
            values[name] = v.require(record[name], kind, path, name)
            if values[name] is None:
                return None
    chi = values.get("chi_values")
    if chi is not None:
        if not v.require_all(chi, int, path, "chi_values"):
            return None
        if len(chi) != group.ell:
            v.fail(f"{path}.chi_values", f"expected {group.ell} values, got {len(chi)}")
            return None
    try:
        return BlockDescriptor(group, label=label, **values)
    except ValueError as exc:
        v.fail(path, str(exc))
        return None


def _parse_tree(v: _Validator, record, path: str) -> BrauerTree | None:
    opened = _open_record(v, record, _TREE_KEYS, path)
    if opened is None:
        return None
    group, label = opened
    vertices = v.require(record.get("vertices"), list, path, "vertices")
    if vertices is None or not v.require_all(vertices, str, path, "vertices"):
        return None
    planar = v.require(record.get("planar"), dict, path, "planar")
    if planar is None:
        return None
    orders = planar.values()
    if not (set(map(type, orders)) <= {list}
            and set(map(type, chain.from_iterable(orders))) <= {str}):
        at = f"{path}.planar"
        for vertex, neighbours in planar.items():  # report the first failure
            if v.require(neighbours, list, at, vertex) is None \
                    or not v.require_all(neighbours, str, at, vertex):
                return None
    exceptional = record.get("exceptional")
    if exceptional is not None and \
            v.require(exceptional, str, path, "exceptional") is None:
        return None
    multiplicity = v.require(record.get("multiplicity", 1), int, path,
                             "multiplicity")
    if multiplicity is None:
        return None
    return BrauerTree(vertices, planar, group, multiplicity, exceptional, label)


# a JSON string, or a JSON number split into its integer digits and the
# rest (fraction and exponent, empty for an integer literal)
_STRING = r'"(?:[^"\\]|\\.)*"'
_NUMBER = r"-?(\d+)((?:\.\d+)?(?:[eE][-+]?\d+)?)"


def _position(text: str, offset: int) -> str:
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return f"line {line} column {column}"


def _nesting_issue(text: str) -> ParseIssue:
    """The position of the first bracket at the deepest nesting level."""
    depth = deepest = offset = 0
    for token in re.finditer(_STRING + r"|[\[\]{}]", text):
        if token.group() in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest, offset = depth, token.start()
        elif token.group() in ("]", "}"):
            depth -= 1
    return ParseIssue(_position(text, offset),
                      f"nesting too deep to parse ({deepest} levels)")


def _long_int_issue(text: str) -> ParseIssue:
    """The position of the first integer literal with more digits than the
    interpreter converts (sys.get_int_max_str_digits())."""
    limit = sys.get_int_max_str_digits()
    for token in re.finditer(f"{_STRING}|{_NUMBER}", text):
        digits, rest = token.group(1, 2)
        if digits and not rest and len(digits) > limit:
            return ParseIssue(_position(text, token.start()),
                              f"integer literal of {len(digits)} digits, "
                              f"more than {limit}")
    raise AssertionError("no integer literal over the digit limit")


def parse_descriptor(text: str) -> DescriptorFile:
    """Parse and fully validate a descriptor document.

    Raises DescriptorError carrying one positioned issue per problem; a
    syntactically broken document yields a single issue with the line and
    column reported by the JSON parser, one nested too deep for the parser
    an issue at its deepest bracket, and an integer literal too long to
    convert an issue at that literal.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DescriptorError(
            [ParseIssue(f"line {exc.lineno} column {exc.colno}", exc.msg)]
        ) from exc
    except RecursionError:
        raise DescriptorError([_nesting_issue(text)]) from None
    except ValueError:  # an integer literal over the int<->str digit limit
        raise DescriptorError([_long_int_issue(text)]) from None
    if not isinstance(data, dict):
        raise DescriptorError([ParseIssue("$", "top-level object required")])
    v = _Validator()
    for key in sorted(data.keys() - _TOP_FIELDS):
        v.fail(f"$.{key}", "unknown field")
    version = v.require(data.get("version"), int, "$", "version")
    if version is not None and version != FORMAT_VERSION:
        v.fail("$.version", f"unsupported version {version}")
    out = DescriptorFile()
    for name, parse, parsed in (("blocks", _parse_block, out.blocks),
                                ("trees", _parse_tree, out.trees)):
        raw = v.require(data.get(name, []), list, "$", name) or []
        for k, record in enumerate(raw):
            if (item := parse(v, record, f"$.{name}[{k}]")) is not None:
                parsed.append(item)
    if v.issues:
        raise DescriptorError(v.issues)
    return out


def block_record(b: BlockDescriptor) -> dict:
    values = ((name, getattr(b, name)) for name in _BLOCK_FIELDS)
    return {"label": b.label, "p": b.group.p, "ell": b.group.ell,
            **{name: value for name, value in values if value is not None}}


def tree_record(t: BrauerTree) -> dict:
    return {"label": t.label, "p": t.defect.p, "ell": t.defect.ell,
            **{name: getattr(t, name) for name in _TREE_FIELDS}}


def emit_descriptor(doc: DescriptorFile) -> str:
    data: dict = {"version": FORMAT_VERSION}
    if doc.blocks:
        data["blocks"] = [block_record(b) for b in doc.blocks]
    if doc.trees:
        data["trees"] = [tree_record(t) for t in doc.trees]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
