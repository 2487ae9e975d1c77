"""Fuzzing the command line: whatever the descriptor text and the argv,
every run ends with exit 0, 1 or 2, prints no traceback and stays within a
fixed wall-clock bound."""

import contextlib
import io
import json
import time
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from cyclicsource.cli import main

BOUND_S = 3.0
FILE = "<file>"  # replaced by the path of the generated descriptor

# Values are generated as JSON text, so that integers over CPython's
# 4,300-digit conversion limit can be written at all.  Documents are the
# records of the good fixture with up to two fields replaced by such text
# or dropped.
LONG_INT = "1" * 5000
INTS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from([LONG_INT, "-" + "7" * 4301]),
    st.sampled_from(["1000000000000000003", "1.5", "2e3", "true", "null",
                     '"3"']),
)
NAMES = st.sampled_from(["c", "v1", "a", "star", "spine", "spine-mirror", ""])


def array(elements):
    return st.lists(elements, max_size=4).map(lambda xs: f"[{','.join(xs)}]")


def render(fields: dict) -> str:
    return "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in fields.items()) + "}"


SCALARS = st.one_of(INTS, NAMES.map(json.dumps))
VALUES = st.one_of(
    SCALARS, array(SCALARS), array(array(SCALARS)),
    st.dictionaries(NAMES, st.one_of(array(SCALARS), SCALARS),
                    max_size=3).map(render),
)
GOOD = json.loads((Path(__file__).parent / "fixtures" / "good.json").read_text())


def edited(bases: list[dict], fields: list[str]):
    """One of `bases` (field -> JSON text) with up to two of `fields`
    replaced by a generated value or dropped, rendered as JSON text."""
    def apply(case):
        base, edits = case
        out = dict(base)
        for key, value in edits:
            if value is None:
                out.pop(key, None)
            else:
                out[key] = value
        return render(out)

    edit = st.tuples(st.sampled_from(fields), st.one_of(st.none(), VALUES))
    edits = st.one_of(st.just(()), st.just(()), st.lists(edit, max_size=2))
    return st.tuples(st.sampled_from(bases), edits).map(apply)


def records(kind: str):
    bases = [{k: json.dumps(v) for k, v in r.items()} for r in GOOD[kind]]
    fields = sorted({k for r in bases for k in r} | {"bogus"})
    return edited(bases, fields)


DOCUMENT = st.tuples(st.lists(records("blocks"), max_size=2),
                     st.lists(records("trees"), max_size=3)).flatmap(
    lambda lists: edited(
        [{"version": "1", "blocks": f"[{','.join(lists[0])}]",
          "trees": f"[{','.join(lists[1])}]"}],
        ["version", "blocks", "trees", "bogus"]))
TEXTS = st.one_of(DOCUMENT, DOCUMENT, st.one_of(
    st.tuples(DOCUMENT, st.integers(0, 200)).map(lambda t: t[0][: t[1]]),
    st.integers(1, 3000).map(lambda n: '{"blocks": ' + "[" * n + "]" * n + "}"),
    st.text(max_size=40),
    st.binary(max_size=40),
))

SMALL = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["x", "1e3"]))
CAPS = st.sampled_from(["16", "81", "100000", "1048576",
                        "-3", "0", "abc", "1e3", "", " 81 "])
# every valid group among them has order p^ell <= 9
VALID_GROUPS = st.sampled_from([("2", "1"), ("2", "2"), ("2", "3"), ("3", "1"),
                               ("3", "2"), ("5", "1"), ("7", "1")])
GROUPS = st.one_of(
    VALID_GROUPS, VALID_GROUPS,
    st.sampled_from([("4", "1"), ("1", "1"), ("0", "2"), ("-3", "1"),
                     ("3", "0"), ("2", "-1"), ("3", "1000000000"), ("x", "1")]),
)
SUITES = st.lists(st.sampled_from(["dade-law", "classification", "characters",
                                   "relative-heller", "restriction",
                                   "operator-composition", "induction",
                                   "bogus"]), max_size=3)


@st.composite
def commands(draw):
    kind = draw(st.sampled_from(["infer", "verify", "tree", "dade"]))
    if kind == "infer":
        return ["infer", FILE]
    if kind == "verify":
        p, ell = draw(GROUPS)
        suites = [a for s in draw(SUITES) for a in ("--suite", s)]
        return ["verify", "--p", p, "--ell", ell, *suites]
    if kind == "tree":
        sub = draw(st.sampled_from(["check", "compare", "emit-star"]))
        if sub == "check":
            return ["tree", "check", FILE]
        if sub == "compare":
            return ["tree", "compare", FILE, draw(NAMES), draw(NAMES)]
        return ["tree", "emit-star", *(draw(SMALL) for _ in range(4))]
    p, ell = draw(GROUPS)
    sub = draw(st.sampled_from(["add", "signs", "module"]))
    bits = st.text(alphabet="01x", max_size=4)
    args = [draw(bits), draw(bits)] if sub == "add" else [draw(bits)]
    return ["dade", "--p", p, "--ell", ell, sub, *args]


@st.composite
def cases(draw):
    options = []
    if draw(st.booleans()):
        options += ["--format", "json-lines"]
    if draw(st.booleans()):
        options += ["--oracle-cap", draw(CAPS)]
    return options + draw(commands()), draw(TEXTS)


def is_positive_int(text: str) -> bool:
    try:
        return int(text) > 0
    except ValueError:
        return False


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=cases())
@example(case=(["--oracle-cap", "-3", "verify", "--p", "3", "--ell", "1"], ""))
@example(case=(["tree", "emit-star", "1000000000000000002", "1",
                "1000000000000000003", "1"], ""))
@example(case=(["infer", FILE],
               '{"version":1,"blocks":[{"p":' + LONG_INT + ',"ell":1}]}'))
def test_every_run_ends_cleanly(tmp_path_factory, case):
    argv, text = case
    if FILE in argv:
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        if isinstance(text, str):
            text = text.encode("utf-8", "surrogatepass")
        path.write_bytes(text)
        argv = [str(path) if a == FILE else a for a in argv]
    start = time.perf_counter()
    code, err = run_cli(argv)
    assert time.perf_counter() - start < BOUND_S, argv
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if "verify" in argv:
        # a capacity that is not a positive integer is an argument error
        cap = argv[argv.index("--oracle-cap") + 1] \
            if "--oracle-cap" in argv else None
        if cap is not None and not is_positive_int(cap):
            assert code == 2, (cap, err)
