"""The timed loop and fresh-interpreter timing shared by end-to-end and traced runs."""

import os
import resource
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter

from workloads import Mismatch, short

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"  # results, traces and the latency log
MIN_OPS = 1000  # p99 then has at least ten samples beyond it
REPORTED = 5  # failures and mismatches echoed to stderr


class LoopResult:
    def __init__(self):
        self.latencies = array("d")  # seconds per completed operation
        self.busy = 0.0  # their sum
        self.nodes = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.examples = []  # the first few failures and mismatches
        self.rounds = 0
        self.peak_rss_mib = 0.0

    def note(self, message):
        if len(self.examples) < REPORTED:
            self.examples.append(message)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches += other.mismatches
        self.examples += other.examples[:REPORTED - len(self.examples)]


def run_loop(wl, api, seconds=0.0, rounds=None, tracer=None):
    """Run whole rounds until ``seconds`` of operation time and MIN_OPS
    operations are reached, or exactly ``rounds`` rounds when given.

    Only the call to ``wl.op`` is timed; the checks run between operations.
    Latencies wait in a file until the end, so that the peak resident set
    size, taken before they are read back, does not grow with the number
    of operations a run completes.
    """
    res = LoopResult()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as log:
        while (res.rounds < rounds) if rounds is not None else (res.busy < seconds or res.attempted < MIN_OPS):
            r = res.rounds
            latencies = array("d")
            phase = "loop" if r else "loop0"
            wl.begin_round(api)
            for x in wl.round(r):
                res.attempted += 1
                if tracer is not None:
                    sid = tracer.begin_op(phase, x[0])
                t0 = perf_counter()
                try:
                    out = wl.op(api, x)
                except Exception as err:  # a failing operation is counted; the run goes on
                    out = err
                t1 = perf_counter()
                if tracer is not None:
                    tracer.finish(sid)
                    tracer.settle()
                if isinstance(out, Exception):
                    res.failed += 1
                    res.note(f"{x[0]} {short(x[1])}: {type(out).__name__}: {out}")
                    continue
                latencies.append(t1 - t0)
                try:
                    res.nodes += wl.check(r, x, out)
                except Mismatch as err:
                    res.mismatches += 1
                    res.note(str(err))
            res.busy += sum(latencies)
            latencies.tofile(log)
            res.rounds += 1
        res.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        log.seek(0)
        res.latencies.frombytes(log.read())
    return res


def fresh_starts(argv, expected, count):
    """Wall seconds of ``count`` fresh interpreters running ``argv``, one at a time.

    One unmeasured start first writes the bytecode caches.  Raises
    RuntimeError if any start fails or prints something else than ``expected``.
    """
    cmd = [sys.executable, *argv]
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    times = []
    for k in range(count + 1):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        t1 = perf_counter()
        if proc.returncode != 0 or proc.stdout != expected:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stdout!r} {proc.stderr!r}")
        if k:
            times.append(t1 - t0)
    return times
