"""Workload ``online-ssdrec``: writes beside reads in the online loop.

The beauty profile at quick scale arrives as four waves of events
through ``EventLog.append``.  After each wave ``FineTuneStore.fine_tune``
trains SSDRec on the whole log; the plan is frozen, verified and
installed in the running cluster with ``ClusterService.swap_plan``.
Between waves, open-loop reads send fresh sequences from users the
installed plan knows, so SSDRec's denoise-then-encode runs for every
read.  Wave 0 belongs to set-up; the freshness lag is measured on
waves 1-3, from ``append`` returning to the first answer of the plan
trained on that wave.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.data import generate, leave_one_out_split, open_event_log
from repro.eval import make_evaluator
from repro.experiments.common import PreparedDataset
from repro.experiments.config import SCALES, max_len_for
from repro.registry import build, model_spec
from repro.serve import RecommendService
from repro.serve.plan import SSDRecPlan
from repro.train import FineTuneStore, dataset_from_log, fine_tune_spec

from . import layers
from .harness import (CACHE, K, MAX_BATCH, OPEN_SHARE, ORACLE_REQUESTS,
                      ROUNDS, answer_in_chunks, bitwise_equal,
                      freeze_verified, overhead_share, replay_flushes,
                      report_hit_rate, run_rounds, spawn_cluster,
                      top_k_overlap)
from .traffic import FreshReads, closed_loop, open_loop
from .training import finite, same_weights, traced_fit

PROFILE = "beauty"
SCALE = SCALES["quick"]
MAX_LEN = max_len_for(PROFILE, SCALE)
EPOCHS = 8
DATA_SEED = MODEL_SEED = 0
#: cumulative share of the position-ordered events in waves 0..3.
WAVE_CUTS = (0.55, 0.7, 0.85, 1.0)
WARM_REQUESTS = 64
CLOSED_POOL_PER_S = 12_000


def _make_service(plan):
    return lambda: RecommendService(plan, k=K, max_batch=MAX_BATCH,
                                    cache_size=CACHE, verify=False)


def _spec():
    return fine_tune_spec(model_spec("SSDRec"), scale=SCALE.name,
                          seed=MODEL_SEED, max_len=MAX_LEN,
                          train={"epochs": EPOCHS, "patience": EPOCHS})


def _waves(dataset) -> List[tuple]:
    """Every user's events in order, cut into waves by position."""
    users, items, stamps = [], [], []
    for user in range(1, dataset.num_users + 1):
        seq = dataset.sequences[user]
        users += [user] * len(seq)
        items += [int(i) for i in seq]
        stamps += list(range(len(seq)))
    users, items, stamps = map(np.asarray, (users, items, stamps))
    order = np.lexsort((users, stamps))
    users, items, stamps = users[order], items[order], stamps[order]
    cuts = [0] + [int(round(c * users.size)) for c in WAVE_CUTS]
    return [(users[a:b], items[a:b], stamps[a:b])
            for a, b in zip(cuts, cuts[1:])]


def _histories(waves) -> Dict[int, list]:
    histories: Dict[int, list] = {}
    for users, items, _ in waves:
        for user, item in zip(users.tolist(), items.tolist()):
            histories.setdefault(user, []).append(item)
    return histories


def _train_and_freeze(run, log, store, num_items):
    """Log verify -> fine-tune -> freeze -> verify: the freshness path."""
    with run.span("eventlog.verify"):
        log.verify()
    with run.span("online.finetune"):
        outcome = store.fine_tune(log, _spec(), num_items=num_items)
    return outcome, freeze_verified(run, outcome.model)


def _log_split(log, num_items):
    """The split a fine-tune on the log's current state trains on."""
    spec = _spec()
    dataset = dataset_from_log(log, num_items=num_items)
    return dataset, leave_one_out_split(dataset,
                                        max_len=spec.resolved_max_len(),
                                        min_length=spec.min_length)


def _retrigger(run, log, store, outcome, num_items, wave: int) -> None:
    """Fine-tune again on the unchanged log: must be a bitwise cache hit."""
    with run.span("online.retrigger"):
        again = store.fine_tune(log, _spec(), num_items=num_items)
    run.check(f"re-trigger on an unchanged log is a bitwise cache hit "
              f"(wave {wave})",
              again.cached and same_weights(again.model, outcome.model))


def _append(run, log, wave) -> float:
    users, items, stamps = wave
    with run.span("eventlog.append"):
        log.append(users, items, timestamps=stamps)
    return time.perf_counter()


def _setup(run, number: int) -> dict:
    root = run.workdir / f"round{number}"
    start = time.perf_counter()
    with run.span("setup"):
        with run.span("data.generate"):
            dataset = generate(PROFILE, seed=DATA_SEED,
                               scale=SCALE.dataset_scale)
        waves = _waves(dataset)
        log = open_event_log(root / "log")
        store = FineTuneStore(root / "jobs")
        reads = FreshReads(run.seed, _histories(waves[:1]),
                           dataset.num_items, MAX_LEN)
        warm = reads.take(WARM_REQUESTS)
        _append(run, log, waves[0])
        outcome, plan = _train_and_freeze(run, log, store,
                                          dataset.num_items)
        cluster = spawn_cluster(run, plan, k=K, max_batch=MAX_BATCH,
                                cache_size=CACHE)
        with run.span("serve.warm"):
            answers = cluster.recommend_many(warm)
        first_answer = time.perf_counter()
        _retrigger(run, log, store, outcome, dataset.num_items, 0)
    examples = len(_log_split(log, dataset.num_items)[1].train)
    return {"setup_s": first_answer - start,
            "dataset": dataset, "waves": waves, "log": log, "store": store,
            "reads": reads, "cluster": cluster,
            "epochs": [{"plan": plan, "outcome": outcome, "flushes": [warm],
                        "answers": [answers], "examples": examples}]}


def _serve(run, state, seconds: float) -> None:
    """Waves 1-3: append, fine-tune, swap, then read; then closed loop."""
    cluster, log, store = state["cluster"], state["log"], state["store"]
    dataset, waves, reads = state["dataset"], state["waves"], state["reads"]
    rate = run.limits["rate"]
    open_seconds = seconds * OPEN_SHARE
    per_wave = int(rate * open_seconds / (len(waves) - 1))
    state["lags"], state["opens"] = [], []
    for index in range(1, len(waves)):
        reads.set_histories(_histories(waves[:index + 1]))
        requests = reads.take(per_wave)
        with run.span("wave", request=index):
            appended = _append(run, log, waves[index])
            outcome, plan = _train_and_freeze(run, log, store,
                                              dataset.num_items)
            with run.span("cluster.swap"):
                cluster.swap_plan(plan)
            with run.span("serve.open"):
                phase = open_loop(cluster, requests, rate)
        state["lags"].append(phase.first_answer_at - appended)
        state["opens"].append(phase)
        _retrigger(run, log, store, outcome, dataset.num_items, index)
        state["epochs"].append({
            "plan": plan, "outcome": outcome,
            "flushes": [f.requests for f in phase.flushes],
            "answers": [f.results for f in phase.flushes],
            "examples": len(_log_split(log, dataset.num_items)[1].train)})
    pool = reads.take(int(CLOSED_POOL_PER_S * (seconds - open_seconds)))
    with run.span("serve.closed"):
        state["closed"] = closed_loop(cluster, pool, MAX_BATCH,
                                      seconds - open_seconds)


def _checks(run, state, number: int) -> None:
    cluster, closed = state["cluster"], state["closed"]
    examples = seconds = 0.0
    for wave, epoch in enumerate(state["epochs"]):
        result = epoch["outcome"].result
        examples += result.epochs_run * epoch["examples"]
        seconds += result.epochs_run * result.train_seconds_per_epoch
        run.check(f"finite training losses (round {number}, wave {wave})",
                  finite([h["loss"] for h in result.history]))
    state["train"] = (examples, seconds)
    with run.span("replay"):
        for wave, epoch in enumerate(state["epochs"]):
            replayed, _, totals = replay_flushes(
                _make_service(epoch["plan"]), epoch["flushes"],
                cluster.num_workers, run.tracer)
            epoch["totals"] = totals
            run.check(f"answers after swap {wave} equal a replay of the "
                      f"new plan bitwise, no stale answer (round {number})",
                      all(bitwise_equal(a, b) for a, b in
                          zip(epoch["answers"], replayed)))
    for epoch in state["epochs"]:
        for answers in epoch["answers"]:
            run.requests(answers)
    run.attempted += closed.answered
    run.failed += closed.failed
    stats = cluster.stats
    sent = sum(len(r) for e in state["epochs"] for r in e["flushes"]) \
        + closed.sent
    answered = sum(len(a) for e in state["epochs"]
                   for a in e["answers"]) + closed.answered
    state["dropped"] = sent - answered
    run.check(f"no request dropped or failed across every swap "
              f"(round {number})",
              sent == answered == stats.requests and stats.errors == 0,
              {"sent": sent, "answered": answered,
               "errors": stats.errors, "swaps": stats.plan_swaps})


def _last_round(run, state) -> None:
    plan = state["epochs"][-1]["plan"]
    last = state["epochs"][-1]
    requests = [r for f in last["flushes"] for r in f][:ORACLE_REQUESTS]
    served = [a for f in last["answers"] for a in f][:ORACLE_REQUESTS]
    with run.span("checks"):
        _, split = _log_split(state["log"], state["dataset"].num_items)
        report_hit_rate(run, plan, [make_evaluator(examples, max_len=MAX_LEN)
                                    for examples in (split.valid,
                                                     split.test)])
        oracle = answer_in_chunks(
            RecommendService(plan, k=K, max_batch=MAX_BATCH, cache_size=0,
                             verify=False), requests, MAX_BATCH)
    run.report("recall_at_10", top_k_overlap(served, oracle), len(served))
    if run.traced:
        _layers(run, state)


def _release(state) -> None:
    state["cluster"].close()


def run_workload(run) -> None:
    rounds = run_rounds(run, SSDRecPlan, _setup, _serve, _checks,
                        _last_round, _release)
    examples = sum(r["train"][0] for r in rounds)
    seconds = sum(r["train"][1] for r in rounds)
    run.report("train_examples_per_s", examples / seconds,
               ROUNDS * len(WAVE_CUTS))


def _layers(run, state) -> None:
    cluster, store, phases = state["cluster"], state["store"], state["opens"]
    untraced = overhead_share(
        run, SSDRecPlan,
        [(_make_service(e["plan"]), e["flushes"]) for e in state["epochs"]],
        cluster.num_workers)
    # Epoch 0 holds only the warm-up; epochs 1.. are the open loops.
    cluster_flushes = [f.seconds for p in phases for f in p.flushes]
    replay_flushes_s = [s for seconds in untraced[1:] for s in seconds]
    run.report("cluster.ipc_ms",
               (np.mean(cluster_flushes) - np.mean(replay_flushes_s)) * 1e3,
               len(cluster_flushes))
    totals = layers.summed_stats(e["totals"] for e in state["epochs"])
    flushes = sum(len(e["flushes"]) for e in state["epochs"])
    for name, value in layers.service_shares(totals, flushes).items():
        run.report(name, value, totals["requests"])
    calls = store.hits + store.misses
    run.report("online.cache_hit_share", store.hits / calls, calls)
    run.report("cluster.dropped", state["dropped"])
    run.report("cluster.rerouted", cluster.stats.rerouted_requests)
    run.report("cluster.worker_restarts", cluster.stats.worker_restarts)

    last = state["epochs"][-1]["outcome"]
    spec = _spec()
    dataset, split = _log_split(state["log"], state["dataset"].num_items)
    prepared = PreparedDataset(PROFILE, dataset, split,
                               spec.resolved_max_len())
    fresh = build(spec.model, prepared, spec.resolve_scale(), rng=spec.seed)
    with run.span("train.traced"):
        losses = traced_fit(fresh, split, spec.train_config(), run.tracer)
    run.check("traced training loop equals Trainer.fit bitwise",
              same_weights(fresh, last.model))
    run.check("finite traced training losses", finite(losses))
