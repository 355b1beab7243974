"""Workload ``serve-zipf``: session traffic through the sharded cluster.

SASRec trained for three epochs on ml-100k at quick scale is frozen and
served by a ``ClusterService`` with tight padding, the LRU cache and
KV-prefix incremental state.  Seeded Zipf(1.1) sessions drive it open
loop at the workload's fixed rate, then closed loop in ``max_batch``
flushes.  The service's cache, incremental and rolling-state paths and
the pipe round trips to the worker do most of the work.

A run is three rounds of set-up then serving; the serving metrics pool
the rounds' samples.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data import generate, leave_one_out_split
from repro.experiments.common import PreparedDataset
from repro.experiments.config import SCALES, max_len_for
from repro.registry import build, model_spec
from repro.serve import RecommendService
from repro.serve.plan import SASRecPlan
from repro.train import TrainConfig, Trainer

from . import layers
from .harness import (CACHE, K, MAX_BATCH, OPEN_SHARE, ORACLE_REQUESTS,
                      answer_in_chunks, bitwise_equal, freeze_verified,
                      overhead_share, replay_flushes, report_hit_rate,
                      report_train_rate, run_rounds, spawn_cluster,
                      top_k_overlap)
from .traffic import ZipfSessions, closed_loop, open_loop
from .training import StepClock, finite, same_weights, traced_fit

PROFILE = "ml-100k"
SCALE = SCALES["quick"]
EPOCHS = 3
#: data and model seeds are fixed: the served model is part of the
#: system under test; ``--seed`` drives the traffic.
DATA_SEED = MODEL_SEED = 0
WARM_REQUESTS = 256
#: closed-loop request pool per second of budget (above capacity).
CLOSED_POOL_PER_S = 12_000


def _make_service(plan):
    """Factory for in-process twins of one cluster worker's service."""
    return lambda: RecommendService(plan, k=K, max_batch=MAX_BATCH,
                                    cache_size=CACHE, padding="tight",
                                    verify=False)


def _setup(run, number: int) -> dict:
    start = time.perf_counter()
    with run.span("setup"):
        with run.span("data.generate"):
            dataset = generate(PROFILE, seed=DATA_SEED,
                               scale=SCALE.dataset_scale)
        max_len = max_len_for(PROFILE, SCALE)
        with run.span("data.split"):
            split = leave_one_out_split(
                dataset, max_len=max_len,
                augment_prefixes=SCALE.augment_prefixes)
        data_ready = time.perf_counter()
        prepared = PreparedDataset(PROFILE, dataset, split, max_len)
        model = build(model_spec("SASRec"), prepared, SCALE, rng=MODEL_SEED)
        config = TrainConfig(epochs=EPOCHS, batch_size=SCALE.batch_size,
                             patience=EPOCHS, seed=MODEL_SEED)
        steps = StepClock(model.loss, -(-len(split.train)
                                        // config.batch_size))
        with run.span("train.fit"):
            result = Trainer(model, split, config, loss_fn=steps).fit()
        plan = freeze_verified(run, model)
        cluster = spawn_cluster(run, plan, k=K, max_batch=MAX_BATCH,
                                cache_size=CACHE, padding="tight")
        histories = {user: dataset.sequences[user][:-2]
                     for user in range(1, dataset.num_users + 1)}
        traffic = ZipfSessions(run.seed, histories, dataset.num_items,
                               max_len)
        warm = traffic.take(WARM_REQUESTS)
        with run.span("serve.warm"):
            warm_answers = cluster.recommend_many(warm)
        first_answer = time.perf_counter()
    return {"setup_s": first_answer - start,
            "lags": [first_answer - data_ready],
            "train": steps.step_seconds(),
            "losses": [h["loss"] for h in result.history],
            "prepared": prepared, "model": model, "config": config,
            "plan": plan, "cluster": cluster, "traffic": traffic,
            "flushes": [warm], "answers": [warm_answers]}


def _serve(run, state, seconds: float) -> None:
    cluster, traffic, rate = state["cluster"], state["traffic"], \
        run.limits["rate"]
    open_seconds = seconds * OPEN_SHARE
    requests = traffic.take(int(rate * open_seconds))
    with run.span("serve.open"):
        phase = open_loop(cluster, requests, rate)
    state["opens"] = [phase]
    pool = traffic.take(int(CLOSED_POOL_PER_S * (seconds - open_seconds)))
    with run.span("serve.closed"):
        state["closed"] = closed_loop(cluster, pool, MAX_BATCH,
                                      seconds - open_seconds)
    state["flushes"] += [f.requests for f in phase.flushes]
    state["answers"] += [f.results for f in phase.flushes]


def _checks(run, state, number: int) -> None:
    cluster, closed = state["cluster"], state["closed"]
    run.check(f"finite training losses (round {number})",
              finite(state["losses"]))
    with run.span("replay"):
        replayed, _, _ = replay_flushes(_make_service(state["plan"]),
                                        state["flushes"],
                                        cluster.num_workers, run.tracer)
    run.check(f"cluster answers equal an in-process replay bitwise "
              f"(round {number})",
              all(bitwise_equal(a, b)
                  for a, b in zip(state["answers"], replayed)),
              {"flushes": len(replayed)})
    for answers in state["answers"]:
        run.requests(answers)
    run.attempted += closed.answered
    run.failed += closed.failed
    stats = cluster.stats
    sent = sum(len(f) for f in state["flushes"]) + closed.sent
    answered = sum(len(a) for a in state["answers"]) + closed.answered
    state["dropped"] = sent - answered
    run.check(f"no request dropped or failed (round {number})",
              sent == answered == stats.requests and stats.errors == 0
              and stats.worker_restarts == 0,
              {"sent": sent, "answered": answered, "errors": stats.errors,
               "worker_restarts": stats.worker_restarts})
    totals = layers.summed_stats(
        s for s in cluster.worker_stats().values() if s)
    state["worker_totals"] = totals
    run.check(f"no incremental-state failure in any worker "
              f"(round {number})",
              totals.get("incremental_failures", 0) == 0,
              totals.get("first_incremental_failure"))


def _last_round(run, state) -> None:
    plan, prepared = state["plan"], state["prepared"]
    with run.span("checks"):
        report_hit_rate(run, plan, [prepared.evaluator("valid"),
                                    prepared.evaluator("test")])
        opened = state["opens"][0].flushes
        requests = [r for f in opened for r in f.requests][:ORACLE_REQUESTS]
        served = [a for f in opened for a in f.results][:ORACLE_REQUESTS]
        oracle = answer_in_chunks(
            RecommendService(plan, k=K, max_batch=MAX_BATCH, cache_size=0,
                             padding="tight", verify=False),
            requests, MAX_BATCH)
    run.report("recall_at_10", top_k_overlap(served, oracle), len(served))
    if run.traced:
        _layers(run, state)


def _release(state) -> None:
    state["cluster"].close()


def run_workload(run) -> None:
    rounds = run_rounds(run, SASRecPlan, _setup, _serve, _checks,
                        _last_round, _release)
    report_train_rate(run, [r["train"] for r in rounds], SCALE.batch_size)


def _layers(run, state) -> None:
    """Traced-run extras: overhead, IPC time, loop parity, counts."""
    cluster, phase = state["cluster"], state["opens"][0]
    [untraced] = overhead_share(
        run, SASRecPlan, [(_make_service(state["plan"]), state["flushes"])],
        cluster.num_workers)
    # Flush 0 is the warm-up; the rest are the open-loop flushes.
    cluster_mean = np.mean([f.seconds for f in phase.flushes])
    run.report("cluster.ipc_ms", (cluster_mean - np.mean(untraced[1:])) * 1e3,
               len(phase.flushes))
    totals = state["worker_totals"]
    for name, value in layers.service_shares(
            totals, cluster.stats.dispatches).items():
        run.report(name, value, totals["requests"])
    run.report("cluster.dropped", state["dropped"])
    run.report("cluster.rerouted", cluster.stats.rerouted_requests)
    run.report("cluster.worker_restarts", cluster.stats.worker_restarts)

    prepared = state["prepared"]
    fresh = build(model_spec("SASRec"), prepared, SCALE, rng=MODEL_SEED)
    with run.span("train.traced"):
        losses = traced_fit(fresh, prepared.split, state["config"],
                            run.tracer)
    run.check("traced training loop equals Trainer.fit bitwise",
              same_weights(fresh, state["model"]))
    run.check("finite traced training losses", finite(losses))
