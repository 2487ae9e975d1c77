"""Self-test of the output checks: one real round of each workload must
pass them, and every corruption of its outputs must be rejected.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run it from the root of a source checkout.  It exits 0 when every check
accepts the program's real outputs and rejects each corrupted copy: a
flipped verdict, a changed alpha, a dropped case or record, and an
exception other than an operation's known fault.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import time

import checks
import workloads
from run import BENCH, DEADLINE_S, run_worker


def _edit(outcome: dict, change) -> dict:
    """A copy of `outcome` whose JSON-lines output went through `change`."""
    records = [json.loads(line) for line in outcome["out"].splitlines()]
    change(records)
    bad = dict(outcome)
    bad["out"] = "".join(json.dumps(r) + "\n" for r in records)
    return bad


def _flip_bit(records):
    record = next(r for r in records if not r["trivial"])
    last = record["alpha"][-1]
    record["alpha"] = record["alpha"][:-1] + ("1" if last == "0" else "0")


def _set(key, value):
    return lambda records: records[0].__setitem__(key, value)


def _toggle(key):
    return lambda records: records[0].__setitem__(key, not records[0][key])


CORRUPTIONS = {
    "verify": {
        "flipped verdict": _set("status", "error"),
        "mismatch reported": _set("mismatches", 1),
        "dropped case": lambda rs: rs[-1].__setitem__("cases", rs[-1]["cases"] - 1),
        "dropped suite": lambda rs: rs.pop(),
    },
    "infer": {
        "changed alpha": _flip_bit,
        "changed jordan": lambda rs: rs[0].__setitem__("jordan", rs[0]["jordan"] + 2),
        "flipped trivial": _toggle("trivial"),
        "dropped record": lambda rs: rs.pop(),
    },
    "tree": {
        "flipped similar": _toggle("similar"),
        "flipped planar": _toggle("planar_isomorphic"),
        "dropped verdict": lambda rs: rs.clear(),
    },
}


def selftest(workload: str) -> list[str]:
    work = BENCH / "out" / f"selftest-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.make(workload, 1, work / "inputs")
    record = run_worker(work, [op["argv"] for op in ops], "round",
                        time.monotonic() + DEADLINE_S)
    errors = []
    for op, outcome in zip(ops, record["ops"], strict=True):
        name = " ".join(op["argv"][2:])[-60:]
        failed, problems = checks.judge(op, outcome)
        if problems:
            errors.append(f"{name}: real output rejected: {problems}")
            continue
        if failed:  # a known fault: any other exception must be rejected
            other = dict(outcome, error="ValueError")
            if not checks.judge(op, other)[1]:
                errors.append(f"{name}: accepted an unknown exception")
            continue
        unexpected = dict(outcome, error=op["known_fault"] or "RecursionError")
        if op["known_fault"] is None and not checks.judge(op, unexpected)[1]:
            errors.append(f"{name}: accepted an exception")
        for label, change in CORRUPTIONS[op["kind"]].items():
            bad = _edit(copy.deepcopy(outcome), change)
            if not checks.judge(op, bad)[1]:
                errors.append(f"{name}: accepted a {label}")
        if not checks.judge(op, dict(outcome, rc=1))[1]:
            errors.append(f"{name}: accepted exit code 1")
    return errors


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    errors = []
    for workload in names:
        found = selftest(workload)
        print(f"{workload}: {'ok' if not found else f'{len(found)} errors'}")
        errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
