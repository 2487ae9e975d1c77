"""Command-line surface.

Commands:
    infer FILE                 analyze every block record in a descriptor file
    verify --p P --ell L       run the oracle verification sweeps
    tree check FILE            validate every tree record
    tree compare FILE A B      compare two tree records by label
    tree emit-star E M P ELL   write a star tree record
    dade add|signs|module ...  Dade group arithmetic on bit vectors

argparse alone dispatches, to the handler that each leaf subcommand sets.
A handler returns its records (`tree emit-star` its descriptor text) or
raises: CommandError for a parse or argument error (a file, the group
given by --p and --ell, which needs ell >= 1, or the oracle capacity), and
the library's ValueError or OverflowError for a record-level error.
`main` alone writes output and picks the exit code: 2 for a CommandError,
1 for a record-level error or if any record is an error, else 0.  The
oracle capacity is `--oracle-cap` if given, else the oracle's default;
nothing is read from the environment.
Reports render as human-readable text or as one JSON object per line
(`--format json-lines`), byte-deterministic for fixed input.  A command
runs with the cyclic garbage collector paused: its objects live until it
ends, so collecting them would find nothing to free.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter
from functools import lru_cache

from . import dade, trees, verify
from .blocks import analyze
from .descriptors import (
    DescriptorError,
    DescriptorFile,
    emit_descriptor,
    parse_descriptor,
)
from .groups import GroupSpec
from .oracle import capacity_limit, check_capacity

EXIT_OK = 0
EXIT_RECORD_ERROR = 1
EXIT_PARSE_ERROR = 2
# json.dumps with these arguments would build an encoder for every record
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _emit(records: list[dict], fmt: str, out) -> None:
    if fmt == "json-lines":
        for record in records:
            out.write(_JSON.encode(record) + "\n")
        return
    for record in records:
        kind = record.get("record", "?")
        label = record.get("label", "")
        head = f"[{kind}] {label}".rstrip()
        if record.get("status") == "error":
            out.write(f"{head}: ERROR {record['error']}\n")
        else:
            body = {k: v for k, v in record.items()
                    if k not in ("record", "label", "status")}
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(body.items()))
            out.write(f"{head}: {rendered}\n")


class CommandError(Exception):
    """An argument or parse error: `main` writes the message to stderr and
    exits 2."""


def _load(path: str) -> DescriptorFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CommandError(f"cannot read {path}: {exc}")
    try:
        return parse_descriptor(text)
    except DescriptorError as exc:
        raise CommandError("\n".join(
            f"parse error at {issue.path}: {issue.message}"
            for issue in exc.issues))


def _group(p: int, ell: int) -> GroupSpec:
    try:
        group = GroupSpec(p, ell)
    except ValueError as exc:
        raise CommandError(f"argument error: {exc}")
    if ell < 1:
        raise CommandError("argument error: ell must be at least 1")
    return group


def cmd_infer(args) -> list[dict]:
    records = []
    for idx, block in enumerate(_load(args.file).blocks):
        base = {"record": "block", "label": block.label or f"blocks[{idx}]"}
        try:
            w = analyze(block)
            records.append({
                **base,
                "status": "ok",
                "alpha": str(w.dade),
                "jordan": w.jordan,
                "signs": list(w.signs.signs),
                "trivial": w.trivial,
                "provenance": w.provenance,
            })
        except ValueError as exc:
            records.append({**base, "status": "error", "error": str(exc)})
    return records


def cmd_verify(args) -> list[dict]:
    group = _group(args.p, args.ell)
    try:
        cap = capacity_limit(args.oracle_cap, "--oracle-cap")
    except ValueError as exc:
        raise CommandError(f"argument error: {exc}")
    check_capacity(group.order, cap)
    records = []
    for result in verify.run_suites(group, args.suite or None, cap):
        record = {
            "record": "suite",
            "label": result.name,
            "status": "ok" if result.passed else "error",
            "cases": result.cases,
            "skipped": result.skipped,
            "mismatches": len(result.mismatches),
        }
        if not result.passed:
            record["error"] = "mismatches found"
            record["witnesses"] = result.mismatches
        records.append(record)
    return records


def cmd_tree_check(args) -> list[dict]:
    records = []
    for idx, t in enumerate(_load(args.file).trees):
        label = t.label or f"trees[{idx}]"
        if violations := trees.validate(t):
            records.append({
                "record": "tree", "label": label, "status": "error",
                "error": "invalid tree", "violations": violations,
            })
        else:
            records.append({
                "record": "tree", "label": label, "status": "ok",
                "edges": t.num_edges, "multiplicity": t.multiplicity,
            })
    return records


def cmd_tree_compare(args) -> list[dict]:
    doc = _load(args.file)
    counts = Counter(t.label for t in doc.trees)
    missing = [name for name in (args.a, args.b) if not counts[name]]
    shared = [f"{name} ({counts[name]} records)"
              for name in dict.fromkeys((args.a, args.b)) if counts[name] > 1]
    for problem, names in (("not found", missing), ("not unique", shared)):
        if names:
            raise ValueError(f"tree record(s) {problem}: {', '.join(names)}")
    by_label = {t.label: t for t in doc.trees}
    t1, t2 = by_label[args.a], by_label[args.b]
    # each tree once, also when it is compared with itself
    bad = [f"{label}: {v}" for label in dict.fromkeys((args.a, args.b))
           for v in trees.validate(by_label[label])]
    if bad:
        raise ValueError("invalid tree(s): " + "; ".join(bad))
    planar = trees.planar_isomorphic(t1, t2)  # which implies similarity
    return [{
        "record": "comparison",
        "label": f"{args.a} vs {args.b}",
        "status": "ok",
        "similar": planar or trees.similar(t1, t2),
        "planar_isomorphic": planar,
    }]


def cmd_tree_emit_star(args) -> str:
    t = trees.star(args.e, args.m, _group(args.p, args.ell))
    return emit_descriptor(DescriptorFile(trees=[t]))


def _parse_alpha(text: str, group: GroupSpec) -> dade.DadeElement:
    if len(text) != group.ell or set(text) - {"0", "1"}:
        raise ValueError(f"alpha must be {group.ell} bits, got {text!r}")
    return dade.DadeElement(group, tuple(int(c) for c in text))


def cmd_dade_add(args) -> list[dict]:
    group = _group(args.p, args.ell)
    total = dade.dade_add(_parse_alpha(args.a, group),
                          _parse_alpha(args.b, group))
    return [{"record": "dade", "label": f"{args.a}+{args.b}",
             "status": "ok", "alpha": str(total)}]


def cmd_dade_signs(args) -> list[dict]:
    e = _parse_alpha(args.alpha, _group(args.p, args.ell))
    return [{"record": "dade", "label": args.alpha, "status": "ok",
             "signs": list(dade.psi(e).signs)}]


def cmd_dade_module(args) -> list[dict]:
    e = _parse_alpha(args.alpha, _group(args.p, args.ell))
    return [{"record": "dade", "label": args.alpha, "status": "ok",
             "jordan": dade.w_module(e)}]


@lru_cache(maxsize=1)  # one parser per process: each parse makes a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclicsource",
        description="Source modules of cyclic blocks: sign calculus, "
                    "character inference, Brauer trees, oracle sweeps.",
    )
    parser.add_argument("--format", choices=("human", "json-lines"),
                        default="human", help="report rendering")
    parser.add_argument("--oracle-cap", type=int, default=None,
                        help="oracle capacity in matrix entries per "
                             "matrix built (default 2^20)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="analyze block descriptors")
    p_infer.add_argument("file")
    p_infer.set_defaults(func=cmd_infer)

    p_verify = sub.add_parser("verify", help="run oracle verification sweeps")
    p_verify.add_argument("--p", type=int, required=True)
    p_verify.add_argument("--ell", type=int, required=True)
    p_verify.add_argument("--suite", action="append",
                          choices=sorted(verify.SUITES),
                          help="run only the named suite (repeatable)")
    p_verify.set_defaults(func=cmd_verify)

    p_tree = sub.add_parser("tree", help="Brauer tree operations")
    tree_sub = p_tree.add_subparsers(dest="tree_command", required=True)
    t_check = tree_sub.add_parser("check")
    t_check.add_argument("file")
    t_check.set_defaults(func=cmd_tree_check)
    t_compare = tree_sub.add_parser("compare")
    t_compare.add_argument("file")
    t_compare.add_argument("a")
    t_compare.add_argument("b")
    t_compare.set_defaults(func=cmd_tree_compare)
    t_star = tree_sub.add_parser("emit-star")
    for name in ("e", "m", "p", "ell"):
        t_star.add_argument(name, type=int)
    t_star.set_defaults(func=cmd_tree_emit_star)

    p_dade = sub.add_parser("dade", help="Dade group arithmetic")
    p_dade.add_argument("--p", type=int, required=True)
    p_dade.add_argument("--ell", type=int, required=True)
    dade_sub = p_dade.add_subparsers(dest="dade_command", required=True)
    d_add = dade_sub.add_parser("add")
    d_add.add_argument("a")
    d_add.add_argument("b")
    d_add.set_defaults(func=cmd_dade_add)
    for name, func in (("signs", cmd_dade_signs), ("module", cmd_dade_module)):
        d_one = dade_sub.add_parser(name)
        d_one.add_argument("alpha")
        d_one.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        try:
            result = args.func(args)
        except CommandError as exc:
            print(exc, file=sys.stderr)
            return EXIT_PARSE_ERROR
        except (ValueError, OverflowError) as exc:  # a record-level refusal
            print(exc, file=sys.stderr)
            return EXIT_RECORD_ERROR
        if isinstance(result, str):
            sys.stdout.write(result)
            return EXIT_OK
        _emit(result, args.format, sys.stdout)
        if any(record["status"] == "error" for record in result):
            return EXIT_RECORD_ERROR
        return EXIT_OK
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
