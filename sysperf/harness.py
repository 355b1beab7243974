"""Run bookkeeping shared by the workloads.

A :class:`Run` carries the seed, time budget, tracer and working
directory of one benchmark run, counts every operation attempted and
failed (requests and correctness checks alike), and collects the
values each workload reports.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.eval import metric_report
from repro.serve import ClusterService, Router, freeze

from . import layers
from .stats import median, percentile, slo_share
from .tracing import Tracer
from .traffic import pooled

#: Rounds of set-up then serving in one run; serving samples pool over
#: the rounds, set-up and freshness report their median.
ROUNDS = 3
#: Share of a round's serving time spent open loop; closed loop follows.
OPEN_SHARE = 0.5
#: Every workload answers top-10 in flushes of at most 64 requests,
#: with a 1024-entry answer cache.
K, MAX_BATCH, CACHE = 10, 64, 1024
#: Requests compared with the exact-scoring oracle per run.
ORACLE_REQUESTS = 512
#: Traced and untraced replays behind ``trace.overhead_share``.
OVERHEAD_PAIRS = 9
#: What a round hands on to the run's report once its state is freed.
ROUND_KEYS = ("setup_s", "lags", "opens", "closed", "train", "recall")


class Run:
    """State of one benchmark run."""

    def __init__(self, seed: int, seconds: float, trace: bool,
                 workdir: Path, limits: Dict[str, float]):
        self.seed = seed
        self.seconds = float(seconds)
        self.workdir = workdir
        self.limits = limits
        self.tracer = Tracer(trace)
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.checks: List[dict] = []
        #: end-to-end and per-layer values by metric name.
        self.values: Dict[str, float] = {}
        #: sample count behind each value.
        self.samples: Dict[str, int] = {}

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    def span(self, name: str, **kwargs):
        return self.tracer.span(name, **kwargs)

    # ------------------------------------------------------------------
    def requests(self, results: Sequence) -> None:
        """Count answered requests; an error result is a failure."""
        self.attempted += len(results)
        self.failed += sum(1 for r in results if r.failed)

    def check(self, name: str, ok: bool, detail: object = None) -> bool:
        """Count one correctness check; a failed check fails the run."""
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"check": name, "ok": bool(ok),
                            "detail": detail})
        return ok

    @property
    def correct(self) -> bool:
        return all(entry["ok"] for entry in self.checks)

    def report(self, name: str, value: float, samples: int = 1) -> None:
        self.values[name] = float(value)
        self.samples[name] = int(samples)

    def report_median(self, name: str, values: Sequence[float]) -> None:
        self.report(name, median(values), len(values))


# ----------------------------------------------------------------------
def run_rounds(run, plan_class, setup, serve, check, last_round,
               release) -> List[dict]:
    """Run :data:`ROUNDS` rounds and report the metrics all workloads share.

    A round is ``setup(run, number)`` returning its state, ``serve(run,
    state, seconds)``, ``check(run, state, number)``, on the last round
    ``last_round(run, state)`` (quality, and the per-layer extras when
    traced), and always ``release(state)``.  The state then holds
    ``setup_s``, ``lags`` (freshness samples), ``opens`` (open-loop
    phases) and ``closed`` (the closed-loop phase), and may hold
    ``train`` and ``recall`` for the workload's own report.  Returns the
    rounds' :data:`ROUND_KEYS`.
    """
    if run.traced:
        layers.install(run.tracer, plan_class)
    rounds = []
    for number in range(ROUNDS):
        state = setup(run, number)
        try:
            serve(run, state, run.seconds / ROUNDS)
            check(run, state, number)
            if number == ROUNDS - 1:
                last_round(run, state)
        finally:
            release(state)
        rounds.append({key: state[key] for key in ROUND_KEYS
                       if key in state})
        del state
        gc.unfreeze()
        gc.collect()
    run.report_median("setup_s", [r["setup_s"] for r in rounds])
    run.report_median("freshness_lag_s",
                      [lag for r in rounds for lag in r["lags"]])
    report_serving(run, [p for r in rounds for p in r["opens"]],
                   [r["closed"] for r in rounds])
    return rounds


def report_serving(run, opens, closeds) -> None:
    """Serving metrics pooled over every round of a run.

    Rounds are spread over the whole run, so pooling their samples
    averages over the host's slow and fast spells.
    """
    latencies = np.concatenate([p.latencies for p in opens])
    failed = np.concatenate([p.failed for p in opens])
    lateness = np.concatenate([p.lateness for p in opens])
    run.report("serve_p50_ms", percentile(latencies, 50) * 1e3,
               latencies.size)
    run.report("load.lateness_p50_ms", percentile(lateness, 50) * 1e3,
               lateness.size)
    run.report("load.lateness_max_ms", float(lateness.max()) * 1e3,
               lateness.size)
    p99 = percentile(latencies, 99)
    if p99 is not None:             # the tail is reported, not gated
        run.report("serve.p99_ms", p99 * 1e3, latencies.size)
    run.report("serve_slo_share",
               slo_share(latencies, failed, run.limits["slo_ms"] / 1e3),
               latencies.size)
    closed = pooled(closeds)
    run.report("serve_capacity_rps", closed.rate, len(closed.flushes))


def freeze_verified(run, model, **kwargs):
    """``freeze`` then ``verify``, each in its own span."""
    with run.span("plan.freeze"):
        plan = freeze(model, verify=False, **kwargs)
    with run.span("plan.verify"):
        plan.verify()
    return plan


def report_hit_rate(run, plan, evaluators) -> None:
    """HR@10 of ``plan`` over every target the evaluators hold out."""
    with run.span("eval.ranks"):
        ranks = np.concatenate([e.ranks_frozen(plan) for e in evaluators])
    run.report("hr_at_10", metric_report(ranks, (10,))["HR@10"], ranks.size)


def report_train_rate(run, step_lists, batch_size: int) -> None:
    """Examples per second at the median full-batch training step."""
    steps = [s for steps in step_lists for s in steps]
    run.report("train_examples_per_s", batch_size / median(steps),
               len(steps))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def host_info() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "blas": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = {"name": blas.get("name"),
                        "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    return info


def source_revision(root: Path) -> dict:
    """Git revision when available, plus a digest of the source tree.

    The digest identifies the code even in a checkout that is not a git
    repository.
    """
    rev = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16]}


def spawn_cluster(run, plan, **service_kwargs) -> ClusterService:
    """Start a ``ClusterService`` as a pre-fork server should be started.

    Cluster workers number ``nproc - 1``, so the front-end and each
    worker have a core.  Everything the benchmark holds at this point
    (data, models, records) is frozen out of the garbage collector
    before the workers fork, as the ``gc`` documentation advises for
    fork without exec: otherwise each collection in a worker rescans
    the inherited heap and stalls requests for tens of milliseconds
    (serve-zipf p99 about 40 ms, against about 5 ms frozen).
    :func:`run_rounds` unfreezes once the round is released.
    """
    workers = max(1, (os.cpu_count() or 1) - 1)
    gc.collect()
    gc.freeze()
    with run.span("cluster.spawn"):
        return ClusterService(plan, num_workers=workers, **service_kwargs)


def replay_flushes(make_service, flushes, num_shards: int, tracer):
    """Feed recorded flushes to in-process services, shard by shard.

    ``flushes`` holds the request lists a cluster flushed, in order.
    Each is split by the cluster's router and every shard's batch goes
    to that shard's own in-process service, as the cluster worker
    received it, so the answers must match bitwise.  Returns the
    answers per flush (arrival order), the seconds each flush took and
    the services' summed counters.
    """
    router = Router(num_shards)
    services = [make_service() for _ in range(num_shards)]
    answers, seconds = [], []
    for index, requests in enumerate(flushes):
        out: list = [None] * len(requests)
        start = time.perf_counter()
        with tracer.span("service.replay_flush", request=index):
            for shard, positions in sorted(router.partition(requests).items()):
                Router.scatter(out, positions, services[shard].recommend_many(
                    [requests[i] for i in positions]))
        seconds.append(time.perf_counter() - start)
        answers.append(out)
    return answers, seconds, layers.summed_stats(
        service.stats.as_dict() for service in services)


def overhead_share(run, plan_class, segments, num_shards: int) -> list:
    """Report ``trace.overhead_share`` from replays of the same flushes.

    ``segments`` lists ``(make_service, flushes)`` pairs, replayed in
    order with :func:`replay_flushes`, alternately traced and with the
    patches removed, :data:`OVERHEAD_PAIRS` times each; only the replays
    are timed.  The share is the median over pairs of traced minus
    untraced time over untraced: neighbours in time, so the host's
    drift over seconds cancels.  Returns the untraced seconds of every
    flush of the last replay, per segment.
    """
    def replay(name):
        with run.span(name):
            start = time.perf_counter()
            seconds = [replay_flushes(make, flushes, num_shards,
                                      run.tracer)[1]
                       for make, flushes in segments]
            return time.perf_counter() - start, seconds

    traced, untraced = [], []
    for _ in range(OVERHEAD_PAIRS):
        traced.append(replay("replay.traced")[0])
        run.tracer.remove()
        total, seconds = replay("replay.untraced")
        untraced.append(total)
        layers.install(run.tracer, plan_class)
    run.report("trace.overhead_share",
               median([(t - u) / u for t, u in zip(traced, untraced)]),
               OVERHEAD_PAIRS)
    return seconds


def bitwise_equal(got, want) -> bool:
    """Two answer lists agree item for item and score byte for byte."""
    return len(got) == len(want) and all(
        not a.failed and not b.failed and np.array_equal(a.items, b.items)
        and a.scores.tobytes() == b.scores.tobytes()
        for a, b in zip(got, want))


def answer_in_chunks(service, requests, width: int) -> list:
    """Answer ``requests`` in ``width``-wide flushes (bounded memory)."""
    out: list = []
    for at in range(0, len(requests), width):
        out.extend(service.recommend_many(requests[at:at + width]))
    return out


def top_k_overlap(got, want) -> float:
    """Mean share of each oracle top-K found in the served top-K."""
    shares = [len(set(a.items.tolist()) & set(b.items.tolist()))
              / max(1, len(b.items)) for a, b in zip(got, want)]
    return float(np.mean(shares))
