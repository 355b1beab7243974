"""Per-layer metrics: which calls are traced and how spans become numbers.

Spans recorded by the benchmark itself (``data.generate``,
``train.fit``, ``cluster.spawn`` ...) wrap its own calls into the
program.  The calls the program makes internally — a service flush
encoding, appending, scoring and ranking — are traced by patching the
public methods listed in :func:`install`, which only a traced run does.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.serve import ClusterService, RecommendService
from repro.serve import service as service_module

from .stats import median
from .tracing import coverage, self_times

#: Top-level spans whose contents are request serving.
SERVING_ROOTS = ("replay", "serve.open", "serve.closed")

#: Children of a flush whose time is not the service's own.
FLUSH_CHILDREN = ("plan.encode", "plan.append_item", "retrieval.score",
                  "retrieval.topk", "ann.topk")


def _rows(self, items, *args, **kwargs) -> int:
    return int(items.shape[0])


def install(tracer, plan_class) -> None:
    """Patch the serving calls of ``plan_class`` and the services."""
    tracer.patch(RecommendService, "flush", "service.flush")
    for attr in ("encode", "encode_tight", "encode_tight_with_state"):
        if hasattr(plan_class, attr):
            tracer.patch(plan_class, attr, "plan.encode", rows=_rows)
    if hasattr(plan_class, "append_item"):
        tracer.patch(plan_class, "append_item", "plan.append_item")
    tracer.patch(plan_class, "score", "retrieval.score")
    tracer.patch(plan_class, "ann_topk", "ann.topk")
    tracer.patch(service_module, "topk_from_scores", "retrieval.topk")
    tracer.patch(ClusterService, "flush", "cluster.flush")


def _mean(tracer, name: str, scale: float,
          roots: Optional[Iterable[str]] = None) -> Optional[float]:
    spans = tracer.select([name], roots)
    if not spans:
        return None
    return float(np.mean([s.duration for s in spans])) * scale


def span_metrics(tracer, run_start: float, run_end: float
                 ) -> Dict[str, Optional[float]]:
    """Every per-layer metric that is read off the spans.

    None marks a layer this workload never entered.
    """
    out: Dict[str, Optional[float]] = {}
    for name in ("data.generate", "data.k_core", "data.split"):
        spans = tracer.select([name])
        out[name + "_s"] = (median([s.duration for s in spans])
                            if spans else None)
    for name, unit in (("data.batch_wait", 1e3), ("eventlog.append", 1e3),
                       ("eventlog.verify", 1e3), ("train.forward", 1e3),
                       ("train.backward", 1e3), ("train.optimizer", 1e3),
                       ("plan.freeze", 1e3), ("plan.verify", 1e3)):
        out[f"{name}_ms"] = _mean(tracer, name, unit)
    for name in ("eval.ranks", "online.finetune", "ann.build",
                 "cluster.spawn", "cluster.swap"):
        out[name + "_s"] = _mean(tracer, name, 1.0)
    for name in ("plan.append_item", "retrieval.score", "retrieval.topk",
                 "ann.topk"):
        out[name + "_ms"] = _mean(tracer, name, 1e3, SERVING_ROOTS)

    encodes = tracer.select(["plan.encode"], SERVING_ROOTS)
    rows = sum(s.rows or 0 for s in encodes)
    out["plan.encode_ms_per_row"] = (
        sum(s.duration for s in encodes) / rows * 1e3 if rows else None)

    flushes = tracer.select(["service.flush"], SERVING_ROOTS)
    if flushes:
        inner = tracer.select(["service.flush", *FLUSH_CHILDREN],
                              SERVING_ROOTS)
        own = self_times(inner)
        out["service.flush_self_ms"] = float(
            np.mean([own[s.id] for s in flushes])) * 1e3
    else:
        out["service.flush_self_ms"] = None
    out["trace.coverage"] = coverage(tracer.spans, run_start, run_end)
    return out


def service_shares(stats: Dict[str, int], flushes: int) -> Dict[str, float]:
    """Where a service's requests were answered from, as shares."""
    requests = max(1, stats["requests"])
    return {"service.cache_hit_share": stats["cache_hits"] / requests,
            "service.incremental_share": stats["incremental_hits"] / requests,
            "service.full_encode_share": stats["full_encodes"] / requests,
            "service.rows_per_flush": stats["requests"] / max(1, flushes)}


def summed_stats(snapshots) -> Dict[str, int]:
    """Sum per-shard ``ServiceStats`` snapshots (counters only)."""
    total: Dict[str, int] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[key] = total.get(key, 0) + value
    return total
