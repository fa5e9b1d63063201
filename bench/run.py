#!/usr/bin/env python3
"""tweetpipe benchmark.

    python3 bench/run.py --workload pipeline|gateway|audit --seed 7 --seconds 25 --trace 0|1

Run from the repository root; it builds ``src/tweetpipe`` and works under
``.bench/``. Workloads are described in ``workloads.py``. With ``--trace 0``
every timed command runs untraced and the end-to-end metrics are reported:

- ``setup_s``: median time of three set-ups (build plus input generation);
- ``wall_s``, ``cpu_s``: median over repetitions of the timed commands'
  summed wall time and user+system CPU time;
- ``peak_rss_mb``: median over repetitions of the largest child RSS;
- ``throughput_per_s``: records kept per wall second of ``pipeline``
  (records_per_s), bundles dispatched per wall second of ``gateway``
  (bundles_per_s), or 1000 / report_p50_ms on ``audit``.

With ``--trace 1`` every timed repetition runs once untraced and once
traced, a small traced probe chain follows, and the per-layer metrics of
``layers.py`` are reported instead. Detail lines, including failed_ratio and
each workload's own named metrics, precede the final line, which is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The same record,
with the machine's core count, Python version and filesystem type, is
written to ``.bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from checks import CheckFailed
from harness import ROOT, SRC, BenchError, Run, filesystem_type
from layers import Spans, descriptions, metric_names
from layers import metrics as layer_metrics
from workloads import WORKLOADS, measure

DEFAULT_SEED = 7
HELD_OUT_SEED = 1009  # kept out of sizing and tuning; use it to confirm a claim


def end_to_end(workload, outcome) -> tuple[dict, dict]:
    reps = outcome.reps
    rate, named = workload.throughput(reps)
    metrics = {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "wall_s": (statistics.median(r.wall_s for r in reps), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in reps), "MB"),
        "throughput_per_s": (rate, "1/s"),
    }
    return metrics, named


def per_layer(workload, outcome) -> dict:
    def span_files(reps):
        return [(c.spans_path, c.wall_s) for r in reps for c in r.children if c.spans_path]

    probe_reps, probe_leaked = outcome.probe
    leaked = outcome.leaked if workload.name == "gateway" else probe_leaked
    overhead = (statistics.median(r.wall_s for r in outcome.traced)
                - statistics.median(r.wall_s for r in outcome.reps))
    values = layer_metrics(Spans(span_files(outcome.traced)), Spans(span_files(probe_reps)),
                           leaked, overhead)
    missing = [name for name, _unit in metric_names() if name not in values]
    if missing:
        raise BenchError(f"no spans for per-layer metrics {missing}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure repetitions for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tweetpipe" / "__init__.py").is_file():
        print(f"error: no tweetpipe sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = Run(ROOT / ".bench" / "work" / tag)
    try:
        outcome = measure(workload, run, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            metrics, named = per_layer(workload, outcome), {}
        else:
            metrics, named = end_to_end(workload, outcome)
    except (BenchError, CheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    reps = outcome.reps + outcome.traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    named["failed_ratio"] = (failed / attempted, "ratio")
    if workload.name == "gateway":
        # Leaked bundles were dispatched, so they are not failed operations;
        # the leak is the gateway's known privacy defect and is shown here.
        named["leaked_bundles"] = (outcome.leaked, "count")
        named["leaked_ratio"] = (outcome.leaked / reps[0].items, "ratio")
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "filesystem": filesystem_type(ROOT)}
    print(f"machine: nproc={machine['nproc']} python={machine['python']} "
          f"filesystem={machine['filesystem']}")
    print(f"workload={args.workload} seed={args.seed} (default {DEFAULT_SEED}, held-out "
          f"{HELD_OUT_SEED}) trace={args.trace} set-ups={len(outcome.setup_s)} "
          f"repetitions={len(outcome.reps)} traced={len(outcome.traced)}")
    notes = descriptions() if args.trace else {}
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"  {name:40s} {value:14.6g} {unit:5s} {notes.get(name, '')}".rstrip())
    print(f"  failed {failed} of {attempted} operations")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print("checks: " + ("all passed" if not outcome.problems else "FAILED"))

    result = {
        "correct": not outcome.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results_dir = ROOT / ".bench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "setup_s": outcome.setup_s,
              "repetitions": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb}
                              for r in outcome.reps],
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "problems": outcome.problems}
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n",
                                             encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
