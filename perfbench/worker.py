"""One measured process: set up `cyclicsource`, run a list of CLI commands
in-process through `cyclicsource.cli.main`, and write what happened.

    python3 worker.py PLAN RESULT

PLAN is a JSON object {"src": DIR, "ops": [argv, ...], "trace": PATH or
null, "sample": true or false}.  RESULT receives the set-up time (import
of `cyclicsource.cli`, numpy included, and `build_parser()`), each
operation's exit code, time, exception and captured output, the summed
time of the operations, the peak resident memory (VmHWM) and the BLAS
build.  With a trace path the public functions are wrapped before the
first operation and the spans are written there at the end.

With "sample" the worker also measures the machine's speed while it
works (see `Sampler`): it times a small fixed loop several times after
set-up and after each operation, and every SAMPLE_PERIOD_S seconds while
an operation runs.  Each operation's time leaves out the time of the
samples taken inside it, and its record lists the samples taken just
before, during and just after it.

The BLAS thread count is pinned by the parent through the environment,
before numpy is imported here.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """VmHWM of this process image.  Unlike ru_maxrss, it does not carry
    over the parent's resident set from before exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


SAMPLE_PERIOD_S = 0.1
BOUNDARY_SAMPLES = 8  # samples after set-up and after each operation


def _by_count(item):
    return item[1], item[0]


class Sampler:
    """Times `loop`, a fixed piece of work that uses nothing of
    `cyclicsource`, about 1.8 ms on the reference machine.  While `running`,
    a SIGALRM handler runs it every SAMPLE_PERIOD_S, so a long operation is
    sampled all through, not only at its ends.  A pending signal runs its
    handler when the current numpy call returns.
    """

    def __init__(self, numpy) -> None:
        self.numpy = numpy
        self.wide = numpy.arange(10000, dtype=numpy.int64).reshape(100, 100) % 5
        self.small = (numpy.arange(576, dtype=numpy.int64).reshape(24, 24)
                      * 7 + 3) % 5
        self.large = numpy.arange(65536, dtype=numpy.int64).reshape(256, 256) % 5
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the handler

    def loop(self) -> float:
        """Three parts.  A tight integer loop and row updates of a
        100 x 100 matrix; a mix like the program's own: string keys in a
        dict, a sort with a key function, a set, the elimination step of a
        24 x 24 matrix mod 5 (nonzero, a modular inverse, an outer-product
        update) and a float product; and one row update of a 256 x 256
        matrix, whose 512 KB arrays stand for the oracle's large Kronecker
        matrices.  No part alone slows down with the program under every
        kind of load on the host (README, "Noise")."""
        np = self.numpy
        t = time.perf_counter()
        total, seen = 0, {}
        for i in range(1500):
            total += i * i % 7
            seen[i & 255] = total
        a = self.wide.copy()
        for r in range(12):
            a[:, r + 1:] -= np.outer(a[:, r] % 5, a[r, r + 1:] % 5)
        for _ in range(2):
            seen = {}
            for i in range(300):
                key = f"v{i % 37}"
                seen[key] = seen.get(key, 0) + i
            ordered = tuple(sorted(seen.items(), key=_by_count))
            {name for name, _ in ordered}
            a = self.small.copy()
            for r in range(16):
                head = a[r, r:] % 5
                nz = np.nonzero(head)[0]
                inv = pow(int(head[nz[0]]) if nz.size else 1, 3, 5)
                a[:, r + 1:] -= np.outer(a[:, r] % 5, (head[1:] * inv) % 5)
            b = a.astype(np.float64)
            (b @ b.T) % 5
        a = self.large.copy()
        a[:, 1:] -= np.outer(a[:, 0] % 5, a[0, 1:] % 5)
        d = time.perf_counter() - t
        self.samples.append(d)
        return d

    def boundary(self) -> None:
        for _ in range(BOUNDARY_SAMPLES):
            self.loop()

    def _handler(self, signum, frame) -> None:
        self.spent += self.loop()

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def blas_info() -> dict:
    import ctypes

    import numpy

    config = numpy.show_config(mode="dicts") or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "blas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                threads = getter()
                break
    return {"numpy": numpy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    src = Path(plan["src"]).resolve()

    t0 = time.perf_counter()
    from cyclicsource import cli
    cli.build_parser()
    setup_s = time.perf_counter() - t0

    import cyclicsource
    if src not in Path(cyclicsource.__file__).resolve().parents:
        print(f"cyclicsource imported from {cyclicsource.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if plan["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(cyclicsource)

    sampler = None
    if plan["sample"]:
        import numpy
        sampler = Sampler(numpy)
        sampler.boundary()
    setup_samples = sampler.samples[:] if sampler else []
    sampling = sampler.running if sampler else contextlib.nullcontext
    ops = []
    for argv in plan["ops"]:
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        first = len(sampler.samples) - BOUNDARY_SAMPLES if sampler else 0
        spent = sampler.spent if sampler else 0.0
        t = time.perf_counter()  # the handler runs only inside this span
        with sampling():
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except SystemExit as exc:  # argparse refusing the command line
                rc = exc.code
            except Exception as exc:  # recorded per operation; the parent judges
                error = type(exc).__name__
        op_s = time.perf_counter() - t
        if sampler:
            op_s -= sampler.spent - spent
            sampler.boundary()
        ops.append({"rc": rc, "s": op_s, "error": error,
                    "samples": sampler.samples[first:] if sampler else [],
                    "out": out.getvalue(), "err": err.getvalue()[-2000:]})
    wall_s = sum(op["s"] for op in ops)
    peak_rss_mb = peak_rss_kb() / 1024

    if tracer is not None:
        tracer.dump(Path(plan["trace"]))
    Path(sys.argv[2]).write_text(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "setup_samples": setup_samples, "ops": ops, **blas_info()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
