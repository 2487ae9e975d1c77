"""Checks of one operation's outcome against the answer the generator
fixed.  Each returns a list of problems; an empty list means correct.

An operation that raised exactly its `known_fault` is a failed operation,
not a wrong one: it is counted in `failed` by the caller.
"""

from __future__ import annotations

import json


def _json_lines(text: str) -> list:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_verify(expect: list, rc, out: str) -> list[str]:
    """Exit 0, one clean record per requested suite, and cases + skipped
    equal to the count derived from what the suite enumerates."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    records = _json_lines(out)
    if [r.get("label") for r in records] != [name for name, _ in expect]:
        return problems + [f"suites {[r.get('label') for r in records]}"]
    for record, (name, total) in zip(records, expect):
        if record.get("status") != "ok" or record.get("mismatches") != 0:
            problems.append(f"{name}: status {record.get('status')}, "
                            f"mismatches {record.get('mismatches')}")
        got = record.get("cases", 0) + record.get("skipped", 0)
        if got != total:
            problems.append(f"{name}: cases + skipped = {got}, expected {total}")
    return problems


def check_infer(expect: list, rc, out: str) -> list[str]:
    """Exit 0 and every record equal to its planted class, in order."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    records = _json_lines(out)
    if len(records) != len(expect):
        problems.append(f"{len(records)} records, expected {len(expect)}")
    for got, want in zip(records, expect):
        if got != want:
            problems.append(f"{want['label']}: got {got}, expected {want}")
            break
    return problems


def check_tree(expect: dict, rc, out: str) -> list[str]:
    """Exit 0 and the verdicts the pair was built to have."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    records = _json_lines(out)
    if records != [expect]:
        problems.append(f"got {records}, expected {expect}")
    return problems


CHECKS = {"verify": check_verify, "infer": check_infer, "tree": check_tree}


def judge(op: dict, outcome: dict) -> tuple[bool, list[str]]:
    """(failed, problems) for one operation and the worker's record of it."""
    if outcome["error"] is not None:
        if outcome["error"] == op["known_fault"]:
            return True, []
        return True, [f"{' '.join(op['argv'][2:])}: raised {outcome['error']}"]
    problems = CHECKS[op["kind"]](op["expect"], outcome["rc"], outcome["out"])
    if problems and outcome["err"]:
        problems.append(f"stderr: {outcome['err'].strip()[-300:]}")
    return False, problems
