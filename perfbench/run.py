"""Benchmark of the `cyclicsource` user paths: verify sweeps, bulk infer
and tree compare, run through `cyclicsource.cli.main` in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
`src/`.  Inputs come from the seed (see workloads.py); every operation's
output is checked against answers computed without the program.

With --trace 0 the run measures whole rounds of the workload, each in a
fresh worker process, while at least half a round fits in S seconds, and
reports the end-to-end metrics: medians over the run of times scaled to
the reference speed by the speed samples the workers take.  With --trace 1
it runs one plain and one traced round and reports the per-layer metrics.
The last line of standard output is the result as one JSON object; the
full record (machine, BLAS, samples) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# Time of worker.Sampler.loop run back to back on the reference machine
# (README, "Reference figures"); every reported time is scaled to it.
REFERENCE_S = 0.0018
DEADLINE_S = 170  # a run must end within 180 s
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def run_worker(work: Path, argvs: list, tag: str, deadline: float,
               trace: Path | None = None, sample: bool = True) -> dict:
    """Run `argvs` in one fresh worker process and return its record."""
    plan, result = work / f"plan-{tag}.json", work / f"result-{tag}.json"
    plan.write_text(json.dumps({"src": str(SRC), "ops": argvs,
                                "trace": str(trace) if trace else None,
                                "sample": sample}))
    env = {**os.environ, **BLAS_PIN, "PYTHONHASHSEED": "0",
           "PYTHONPATH": str(SRC)}
    env.pop("CYCLICSOURCE_ORACLE_CAP", None)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{tag}: no time left before the deadline")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(plan), str(result)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{tag}: worker killed after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{tag}: worker exit {proc.returncode}\n{proc.stderr}")
    return json.loads(result.read_text())


def judge_round(ops: list, record: dict, tally: dict) -> None:
    for op, outcome in zip(ops, record["ops"], strict=True):
        failed, problems = checks.judge(op, outcome)
        outcome["out"] = len(outcome["out"])  # keep the size, free the text
        tally["attempted"] += 1
        tally["failed"] += failed
        tally["problems"] += problems


def check_counts(workload: str, calls: dict, ops: list) -> list[str]:
    """Span counts of one traced round against the workload's make-up."""
    expect = {}
    if workload == "infer-bulk":
        expect["blocks.analyze"] = workloads.block_count()
    elif workload.startswith("verify-"):
        ran = {s for op in ops for s, _ in op["expect"]}
        for suite in spans.SUITES:
            expect[f"verify.{suite}"] = len(ops) if suite in ran else 0
    else:
        expect["trees.validate"] = 2 * len(ops)
    return [f"{name}: {calls.get(name, 0)} calls, expected {n}"
            for name, n in expect.items() if calls.get(name, 0) != n]


def speed(samples: list[float]) -> float:
    """The machine's mean speed over `samples`, relative to the reference."""
    return statistics.fmean(REFERENCE_S / d for d in samples)


def scaled(record: dict) -> tuple[float, list[float]]:
    """Set-up and operation times of one worker, in seconds at the reference
    speed: each time is multiplied by the speed sampled around it (after
    set-up; before, during and after an operation)."""
    setup = record["setup_s"] * speed(record["setup_samples"])
    return setup, [op["s"] * speed(op["samples"]) for op in record["ops"]]


def measure(args, ops: list, work: Path, deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics over whole rounds until the time is spent."""
    argvs = [op["argv"] for op in ops]
    begin = time.monotonic()
    tally = {"attempted": 0, "failed": 0, "problems": []}
    probes = [run_worker(work, [], f"probe{i}", deadline)
              for i in range(SETUP_PROBES)]
    rounds, lengths = [], []
    while True:
        start = time.monotonic()
        record = run_worker(work, argvs, f"round{len(rounds)}", deadline)
        lengths.append(time.monotonic() - start)
        judge_round(ops, record, tally)
        rounds.append(record)
        # another round only if at least half of it fits in the time left
        if time.monotonic() - begin + statistics.mean(lengths) / 2 > args.seconds:
            break
    setups = [scaled(r)[0] for r in probes + rounds]
    op_s = [scaled(r)[1] for r in rounds]
    # latency of each operation that did not fail, over the rounds
    op_ms = [[times[j] * 1000 for r, times in zip(rounds, op_s)
              if r["ops"][j]["error"] is None] for j in range(len(ops))]
    # Medians over the run: the machine's speed drifts within a run, and
    # scaling by the reference loop removes most, not all, of the drift
    # (see README, "Noise").
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(times) for times in op_s),
        "op_p50_ms": statistics.median(statistics.median(times)
                                       for times in op_ms if times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    samples = {"setup_s": setups, "wall_s": [sum(t) for t in op_s],
               "op_ms": op_ms, "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
               "raw_setup_s": [r["setup_s"] for r in probes + rounds],
               "raw_wall_s": [r["wall_s"] for r in rounds],
               "raw_op_ms": [[r["ops"][j]["s"] * 1000 for r in rounds]
                             for j in range(len(ops))],
               "speed": [[speed(op["samples"]) for op in r["ops"]]
                         for r in rounds]}
    return tally, {"values": values, "units": dict(END_TO_END),
                   "samples": samples, "rounds": len(rounds), "env": rounds[-1]}


def measure_traced(args, ops: list, work: Path,
                   deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics from one traced round, next to one plain round."""
    argvs = [op["argv"] for op in ops]
    tally = {"attempted": 0, "failed": 0, "problems": []}
    # no speed samples: they would land inside the spans
    plain = run_worker(work, argvs, "plain", deadline, sample=False)
    judge_round(ops, plain, tally)
    span_file = work / "spans"
    traced = run_worker(work, argvs, "traced", deadline, trace=span_file,
                        sample=False)
    judge_round(ops, traced, tally)
    out_mb = sum(o["out"] for o in traced["ops"]) / 1e6
    values, calls = spans.layer_metrics(span_file, out_mb,
                                        traced["wall_s"] - plain["wall_s"])
    tally["problems"] += check_counts(args.workload, calls, ops)
    return tally, {"values": values, "units": dict(spans.METRICS),
                   "span_calls": calls, "rounds": 1, "env": traced}


def provenance(env: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": env["numpy"], "blas": env["blas"],
            "blas_version": env["blas_version"],
            "blas_threads": env["blas_threads"], "blas_pin": BLAS_PIN}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "cyclicsource" / "cli.py").is_file():
        print(f"no cyclicsource sources under {SRC}", file=sys.stderr)
        return 2
    work = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.make(args.workload, args.seed, work / "inputs")
    try:
        run_worker(work, [], "warmup", deadline)  # byte-compiles; not counted
        measured = measure_traced if args.trace else measure
        tally, report = measured(args, ops, work, deadline)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": not tally["problems"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": report["values"][name], "unit": unit}
                    for name, unit in report["units"].items()},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": report["rounds"], **result,
              "problems": tally["problems"][:50],
              "samples": report.get("samples"),
              "span_calls": report.get("span_calls"),
              **provenance(report["env"])}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in tally["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
