"""Run one workload of the system benchmark and print its result.

    python3 sysperf/run.py --workload serve-zipf --seed 1 --seconds 10 \\
        --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line
before it is the full report (host, source revision, seed, sample
counts, every correctness check).  Traced runs also write their spans
to ``.sysperf_out/``.  Scratch files live under ``.sysperf_work/`` and
are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"serve-zipf": "serve_zipf", "scale-1m": "scale_1m",
             "online-ssdrec": "online_ssdrec"}


def workload_limits(spec: dict, name: str) -> dict:
    """The fixed open-loop rate and latency limit a workload's ``why``
    states (``... N req/s ... SLO L ms``)."""
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    rate = re.search(r"(\d+(?:\.\d+)?) req/s", why)
    slo = re.search(r"SLO (\d+(?:\.\d+)?) ms", why)
    if rate is None or slo is None:
        raise ValueError(f"workload {name!r}: its why must state the "
                         f"rate ('N req/s') and the limit ('SLO L ms')")
    return {"rate": float(rate.group(1)), "slo_ms": float(slo.group(1))}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import importlib

    from sysperf.harness import Run, host_info, peak_rss_mb, source_revision
    from sysperf.layers import span_metrics

    workdir = ROOT / ".sysperf_work" / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = str(workdir / "tmp")
    run = Run(args.seed, args.seconds, bool(args.trace), workdir,
              workload_limits(spec, args.workload))
    try:
        module = importlib.import_module(
            f"sysperf.{WORKLOADS[args.workload]}")
        module.run_workload(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.report("peak_rss_mb", peak_rss_mb())
    ended = time.perf_counter()

    if run.traced:
        for name, value in span_metrics(run.tracer, run.started,
                                        ended).items():
            if value is not None and name not in run.values:
                run.report(name, value)
        out = ROOT / ".sysperf_out"
        run.tracer.dump(str(out / f"trace-{args.workload}-seed"
                                  f"{args.seed}.jsonl"))
    wanted = spec["per_layer" if run.traced else "end_to_end"]
    metrics, absent = {}, []
    for metric in wanted:
        value = run.values.get(metric["name"])
        if value is None:
            absent.append(metric["name"])
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_info(), "source": source_revision(ROOT),
              "limits": run.limits, "wall_s": ended - run.started,
              "values": run.values, "samples": run.samples,
              "not_applicable": absent, "checks": run.checks}
    if not run.traced:
        run.check("every end-to-end metric measured", not absent, absent)
    print(json.dumps(report, default=str))
    correct = run.correct and run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
