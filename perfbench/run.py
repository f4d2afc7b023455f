"""Benchmark of treenum: one workload, end to end or traced by layer.

    python3 perfbench/run.py --workload enumerate-textbook --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see ``layers.py``).  Result and trace files go to
``perfbench/out/``.  The exit code is 0 when every output passed its
checks, 1 when some did not, 2 when the checkout has no program to run.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_STARTS = 25  # fresh interpreters per run; setup_s is their median


def percentile_ms(latencies, p):
    return statistics.quantiles(latencies, n=100, method="inclusive")[p - 1] * 1e3


def end_to_end(wl, seconds):
    from harness import fresh_starts, run_loop
    from workloads import plain_api

    setup = fresh_starts(["-m", "treenum", *wl.setup_argv], wl.setup_output(), SETUP_STARTS)
    res = run_loop(wl, plain_api(), seconds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "trees_per_s": (len(res.latencies) / res.busy, "1/s"),
        "nodes_per_s": (res.nodes / res.busy, "1/s"),
        "latency_p50_ms": (percentile_ms(res.latencies, 50), "ms"),
        "latency_p99_ms": (percentile_ms(res.latencies, 99), "ms"),
        "peak_rss_mib": (res.peak_rss_mib, "MiB"),
    }
    return res, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "treenum" / "__init__.py").is_file():
        print(f"error: no treenum sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import OUT
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](ROOT, args.seed)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        from layers import traced

        res, metrics = traced(wl, args.seconds, OUT / f"trace-{stem}.csv.gz")
    else:
        res, metrics = end_to_end(wl, args.seconds)

    for message in res.examples:
        print(message, file=sys.stderr)
    result = {
        "correct": res.mismatches == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
