"""Workload ``scale-1m``: the out-of-core path at full scale.

``generate_to_store("scale-1m")`` writes 1M users and 12M events to an
mmap store; the streaming 5-core filter and split follow.  SASRec
(dim 32) trains with ``sampled_loss`` over a fixed number of streamed
examples, is frozen with an ANN index over its ~120k items, and serves
held-out users, each once, from an in-process
``RecommendService(retrieval="ann")``.  The data store and stream, the
nn kernels under sampled loss and the ANN probe do the work; no request
repeats, so the service cache does none.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from repro.data import (generate_to_store, stream_k_core_filter,
                        streaming_leave_one_out)
from repro.data.batching import pad_sequences
from repro.data.stream import StreamSplit
from repro.eval import StreamingEvaluator
from repro.models import SASRec
from repro.serve import RecommendService, attach_ann_index
from repro.serve.plan import SASRecPlan
from repro.train import TrainConfig, Trainer

from . import layers
from .harness import (CACHE, K, MAX_BATCH, OPEN_SHARE, ROUNDS,
                      answer_in_chunks, freeze_verified, overhead_share,
                      report_hit_rate, report_train_rate, run_rounds,
                      top_k_overlap)
from .traffic import closed_loop, held_out_requests, open_loop, pooled
from .training import StepClock, finite, same_weights, traced_fit

PROFILE = "scale-1m"
K_CORE = 5
MAX_LEN = 30
DIM = 32
BATCH = 256
NEGATIVES = 128
#: training examples streamed per round (12 batches).
TRAIN_EXAMPLES = 3072
VALID_CAP = 1000
#: held-out users behind ``hr_at_10``, from each of the valid and test
#: streams (the first ones in stream order): about 100 hits in all, so
#: one hit moves the metric by about 1%.
HR_CAP = 12_000
SCORE_CHUNK = 256
DATA_SEED = MODEL_SEED = 0
NPROBE = 8
WARM_REQUESTS = 256
#: Open-loop segments and closed-loop bursts alternate this many times
#: per round, so capacity is sampled across the round: one 2 s block
#: per round read anywhere from 3.2k to 4.6k req/s on this host.
BURSTS = 4
#: held-out requests per second of closed-loop budget (above capacity).
CLOSED_POOL_PER_S = 5000
#: The item table of a model trained on 12 batches clusters loosely, so
#: nprobe=8 of ~346 clusters finds only about 0.6 of the exact top-10;
#: the floor catches a broken index, the gated metric any drift.
RECALL_FLOOR = 0.5


def _model(num_items: int) -> SASRec:
    return SASRec(num_items, dim=DIM, max_len=MAX_LEN,
                  rng=np.random.default_rng(MODEL_SEED))


def _make_service(plan):
    return lambda: RecommendService(plan, k=K, max_batch=MAX_BATCH,
                                    cache_size=CACHE, retrieval="ann",
                                    nprobe=NPROBE, verify=False)


def _train_parts(split, model):
    """The training subset, its validation, config and sampled loss."""
    subset = StreamSplit(dataset=split.dataset,
                         train=split.train.take(TRAIN_EXAMPLES),
                         valid=split.valid.take(VALID_CAP),
                         test=split.test, max_len=MAX_LEN)
    evaluator = StreamingEvaluator(subset.valid, batch_size=BATCH,
                                   max_len=MAX_LEN, score_chunk=SCORE_CHUNK)
    config = TrainConfig(epochs=1, batch_size=BATCH, seed=MODEL_SEED,
                         patience=1)
    return subset, evaluator, config, (
        lambda batch: model.sampled_loss(batch, NEGATIVES))


def _request_count(run) -> int:
    seconds = run.seconds / ROUNDS
    return (WARM_REQUESTS + int(run.limits["rate"] * seconds * OPEN_SHARE)
            + int(CLOSED_POOL_PER_S * seconds * (1 - OPEN_SHARE)))


def _setup(run, number: int) -> dict:
    root = run.workdir / f"round{number}"
    start = time.perf_counter()
    with run.span("setup"):
        with run.span("data.generate"):
            raw = generate_to_store(PROFILE, root / "raw", seed=DATA_SEED)
        with run.span("data.k_core"):
            core = stream_k_core_filter(raw, root / "core",
                                        min_seq_len=K_CORE,
                                        min_item_freq=K_CORE)
        with run.span("data.split"):
            split = streaming_leave_one_out(core, max_len=MAX_LEN)
        data_ready = time.perf_counter()
        model = _model(split.num_items)
        subset, evaluator, config, loss_fn = _train_parts(split, model)
        steps = StepClock(loss_fn, -(-len(subset.train) // BATCH))
        with run.span("train.fit"):
            result = Trainer(model, subset, config, loss_fn=steps,
                             evaluator=evaluator).fit()
        plan = freeze_verified(run, model)
        with run.span("ann.build"):
            attach_ann_index(plan, seed=MODEL_SEED)
        service = _make_service(plan)()
        requests = held_out_requests(core, [run.seed, number],
                                     _request_count(run), MAX_LEN)
        warm = requests[:WARM_REQUESTS]
        with run.span("serve.warm"):
            warm_answers = service.recommend_many(warm)
        first_answer = time.perf_counter()
    return {"setup_s": first_answer - start,
            "lags": [first_answer - data_ready],
            "train": steps.step_seconds(),
            "losses": [h["loss"] for h in result.history],
            "root": root, "split": split, "model": model, "plan": plan,
            "service": service, "requests": requests[WARM_REQUESTS:],
            "warm_answers": warm_answers}


def _serve(run, state, seconds: float) -> None:
    """Open-loop segments and closed-loop bursts, alternating."""
    rate, service = run.limits["rate"], state["service"]
    part = seconds / BURSTS
    per_open = int(rate * part * OPEN_SHARE)
    requests = state.pop("requests")
    state["open_requests"] = requests[:per_open * BURSTS]
    pool = requests[per_open * BURSTS:]
    state["opens"], bursts = [], []
    for burst in range(BURSTS):
        with run.span("serve.open"):
            state["opens"].append(open_loop(
                service, state["open_requests"][burst * per_open:
                                                (burst + 1) * per_open],
                rate))
        with run.span("serve.closed"):
            bursts.append(closed_loop(service, pool, MAX_BATCH,
                                      part * (1 - OPEN_SHARE)))
        pool = pool[bursts[-1].sent:]
    state["closed"] = pooled(bursts)


def _checks(run, state, number: int) -> None:
    closed = state["closed"]
    run.check(f"finite training losses (round {number})",
              finite(state["losses"]))
    run.requests(state["warm_answers"])
    served = [a for p in state["opens"] for f in p.flushes
              for a in f.results]
    run.requests(served)
    run.attempted += closed.answered
    run.failed += closed.failed
    run.check(f"no request dropped (round {number})",
              len(served) == len(state["open_requests"])
              and closed.answered == closed.sent,
              {"open": [len(state["open_requests"]), len(served)],
               "closed": [closed.sent, closed.answered]})
    # Overlap of this round's open-loop answers with exact scoring.
    with run.span("checks"):
        oracle = answer_in_chunks(
            RecommendService(state["plan"], k=K, max_batch=MAX_BATCH,
                             cache_size=0, verify=False),
            state["open_requests"], MAX_BATCH)
    state["recall"] = (top_k_overlap(served, oracle), len(oracle))


def _last_round(run, state) -> None:
    split = state["split"]
    with run.span("checks"):
        report_hit_rate(run, state["plan"], [
            StreamingEvaluator(examples.take(HR_CAP), batch_size=BATCH,
                               max_len=MAX_LEN, score_chunk=SCORE_CHUNK)
            for examples in (split.valid, split.test)])
    if run.traced:
        _layers(run, state)


def _release(state) -> None:
    shutil.rmtree(state["root"], ignore_errors=True)


def run_workload(run) -> None:
    rounds = run_rounds(run, SASRecPlan, _setup, _serve, _checks,
                        _last_round, _release)
    report_train_rate(run, [r["train"] for r in rounds], BATCH)
    served = sum(n for _, n in (r["recall"] for r in rounds))
    recall = sum(share * n for share, n in (r["recall"] for r in rounds)) \
        / served
    run.report("recall_at_10", recall, served)
    run.check(f"ANN recall@10 at or above {RECALL_FLOOR}",
              recall >= RECALL_FLOOR, round(recall, 4))


def _layers(run, state) -> None:
    plan, service = state["plan"], state["service"]
    requests = state["open_requests"]
    flushes = [f.requests for p in state["opens"] for f in p.flushes]
    overhead_share(run, SASRecPlan, [(_make_service(plan), flushes)], 1)

    flush_calls = 1 + len(flushes) + len(state["closed"].flushes)
    stats = service.stats.as_dict()
    for name, value in layers.service_shares(stats, flush_calls).items():
        run.report(name, value, stats["requests"])

    items, mask, _ = pad_sequences([list(s) for _, s in requests],
                                   max_len=MAX_LEN)
    users = np.asarray([u for u, _ in requests])
    probed = plan.ann_index.probe(plan.encode(items, mask, users), NPROBE)
    sizes = plan.ann_index.cluster_sizes()[probed].sum(axis=1)
    run.report("ann.candidates_per_query", float(sizes.mean()), sizes.size)

    split = state["split"]
    fresh = _model(split.num_items)
    subset, evaluator, config, loss_fn = _train_parts(split, fresh)
    with run.span("train.traced"):
        losses = traced_fit(fresh, subset, config, run.tracer,
                            loss_fn=loss_fn, evaluator=evaluator)
    run.check("traced training loop equals Trainer.fit bitwise",
              same_weights(fresh, state["model"]))
    run.check("finite traced training losses", finite(losses))
