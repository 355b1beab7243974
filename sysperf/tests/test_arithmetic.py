"""Tests for the benchmark's own arithmetic (no program code needed).

    python3 -m pytest sysperf/tests -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

from sysperf.run import workload_limits
from sysperf.stats import (MIN_TAIL_SAMPLES, median, percentile,
                           relative_spread, samples_beyond, slo_share)
from sysperf.tracing import Span, Tracer, coverage, covered, self_times
from sysperf.traffic import (FreshReads, ZipfSessions, closed_loop,
                             held_out_requests, open_loop)

HISTORIES = {user: list(range(1, user + 3)) for user in range(1, 41)}


# ----------------------------------------------------------------------
# seeded traffic
def test_zipf_sessions_repeat_for_one_seed():
    a = ZipfSessions(7, HISTORIES, num_items=50, max_len=6).take(500)
    b = ZipfSessions(7, HISTORIES, num_items=50, max_len=6).take(500)
    assert a == b


def test_zipf_sessions_differ_across_seeds():
    a = ZipfSessions(7, HISTORIES, num_items=50, max_len=6).take(500)
    b = ZipfSessions(8, HISTORIES, num_items=50, max_len=6).take(500)
    assert a != b


def test_zipf_sessions_name_only_known_users_and_items():
    requests = ZipfSessions(3, HISTORIES, num_items=50, max_len=6).take(2000)
    assert {user for user, _ in requests} <= set(HISTORIES)
    for _, seq in requests:
        assert 1 <= len(seq) <= 6
        assert all(1 <= item <= 50 for item in seq)


def test_zipf_sessions_grow_then_roll():
    requests = ZipfSessions(3, {1: [5, 6, 7]}, num_items=50,
                            max_len=4).take(200)
    lengths = [len(seq) for _, seq in requests]
    assert lengths[0] <= 3 and max(lengths) == 4
    repeats = sum(a == b for a, b in zip(requests, requests[1:]))
    assert 0 < repeats < len(requests) - 1


def test_zipf_popularity_is_skewed():
    requests = ZipfSessions(5, HISTORIES, num_items=50, max_len=6).take(4000)
    counts = np.bincount([user for user, _ in requests])
    top = np.sort(counts)[::-1]
    assert top[0] > 5 * top[len(HISTORIES) // 2]


def test_fresh_reads_never_repeat_and_are_seeded():
    reads = FreshReads(1, HISTORIES, num_items=50, max_len=6)
    first = reads.take(3000)
    assert len(set(first)) == len(first)
    reads.set_histories({1: [1, 2]})
    more = reads.take(200)
    assert not set(more) & set(first)
    assert {user for user, _ in more} == {1}
    assert FreshReads(1, HISTORIES, 50, 6).take(100) == first[:100]
    assert FreshReads(2, HISTORIES, 50, 6).take(100) != first[:100]


class _View:
    def __init__(self, sequences):
        self.sequences = sequences

    def seq_lengths(self):
        return np.asarray([len(s) for s in self.sequences])

    def sequence(self, user):
        return np.asarray(self.sequences[user])


def test_held_out_requests_are_distinct_seeded_test_inputs():
    view = _View([[]] + [list(range(1, n + 1)) for n in range(1, 60)])
    a = held_out_requests(view, 4, 30, max_len=5)
    assert a == held_out_requests(view, 4, 30, max_len=5)
    assert a != held_out_requests(view, 5, 30, max_len=5)
    users = [user for user, _ in a]
    assert len(set(users)) == 30 and all(len(view.sequences[u]) >= 3
                                         for u in users)
    for user, seq in a:
        assert seq == tuple(view.sequences[user][:-1][-5:])


# ----------------------------------------------------------------------
# load generators against a fake service
class _Answer:
    def __init__(self, failed=False):
        self.failed = failed


class _Service:
    def __init__(self, clock, cost):
        self.clock, self.cost, self.queue = clock, cost, []

    def enqueue(self, user, seq):
        self.queue.append(user)

    def flush(self):
        self.clock.now += self.cost
        out = [_Answer(user < 0) for user in self.queue]
        self.queue = []
        return out

    def recommend_many(self, requests):
        for request in requests:
            self.enqueue(*request)
        return self.flush()


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_open_loop_times_from_due_time(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr("sysperf.traffic.time.sleep",
                        lambda s: setattr(clock, "now", clock.now + s))
    service = _Service(clock, cost=0.015)      # slower than the schedule
    requests = [(i, (1,)) for i in range(10)]
    phase = open_loop(service, requests, rate=100.0, clock=clock)
    # Request 0 is due at 0 and answered at 0.015; request 1 (due 0.01)
    # waits behind it, so its latency includes the queueing.
    assert phase.latencies[0] == pytest.approx(0.015)
    assert phase.latencies[1] == pytest.approx(0.020)
    assert phase.lateness[1] == pytest.approx(0.005)
    assert (phase.latencies >= 0.015 - 1e-12).all()
    assert sum(len(f.requests) for f in phase.flushes) == 10


def test_closed_loop_rate_and_failures():
    clock = _Clock()
    service = _Service(clock, cost=0.5)
    requests = [(-1 if i % 4 == 0 else i, (1,)) for i in range(40)]
    result = closed_loop(service, requests, width=8, seconds=1.0,
                         clock=clock)
    assert (result.sent, result.answered) == (16, 16)
    assert result.failed == 4
    assert result.rate == pytest.approx(16.0)


# ----------------------------------------------------------------------
# percentiles, sample counts, SLO share
def test_samples_beyond():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(20, 50) == 10


def test_percentile_needs_ten_samples_beyond_it():
    assert MIN_TAIL_SAMPLES == 10
    assert percentile(np.arange(999.0), 99) is None
    assert percentile(np.arange(1000.0), 99) == pytest.approx(
        np.percentile(np.arange(1000.0), 99))
    assert percentile(np.arange(19.0), 50) is None
    assert percentile(np.arange(20.0), 50) == pytest.approx(9.5)
    assert percentile([], 50) is None


def test_slo_share_counts_failures_as_misses():
    latencies = [0.001, 0.002, 0.010, 0.001]
    failed = [False, False, False, True]
    assert slo_share(latencies, failed, 0.005) == 0.5
    assert slo_share(latencies, [False] * 4, 0.010) == 1.0
    with pytest.raises(ValueError):
        slo_share([0.1], [False, True], 0.5)
    with pytest.raises(ValueError):
        slo_share([], [], 0.5)


def test_median_and_relative_spread():
    assert median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        median([])
    assert relative_spread([5.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert relative_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


# ----------------------------------------------------------------------
# span self time and coverage
def _tree():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping) and a
    # grandchild [4, 5] under the second child; a second root [12, 14].
    return [Span(0, "root", 0.0, 10.0, None, 1),
            Span(1, "a", 1.0, 3.0, 0, 1),
            Span(2, "b", 2.0, 6.0, 0, 1),
            Span(3, "c", 4.0, 5.0, 2, 1),
            Span(4, "late", 12.0, 14.0, None, 2)]


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 6)], 0, 10) == 5
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_children_union():
    own = self_times(_tree())
    assert own[0] == pytest.approx(10 - 5)     # children cover [1, 6]
    assert own[1] == pytest.approx(2)
    assert own[2] == pytest.approx(4 - 1)
    assert own[3] == pytest.approx(1)
    assert own[4] == pytest.approx(2)


def test_coverage_of_top_level_spans():
    assert coverage(_tree(), 0.0, 20.0) == pytest.approx(12 / 20)
    with pytest.raises(ValueError):
        coverage(_tree(), 5.0, 5.0)


def test_tracer_records_parents_requests_and_rows():
    clock = _Clock()
    tracer = Tracer(True, clock=clock)
    with tracer.span("flush", request=7):
        clock.now = 1.0
        with tracer.span("encode", rows=4):
            clock.now = 3.0
    assert [s.name for s in tracer.spans] == ["encode", "flush"]
    encode, flush = tracer.spans
    assert encode.parent == flush.id and encode.request == 7
    assert encode.rows == 4 and flush.duration == 3.0


def test_disabled_tracer_records_and_patches_nothing():
    tracer = Tracer(False)
    with tracer.span("x"):
        pass
    assert tracer.spans == []


def test_patch_records_calls_once_and_remove_restores():
    class Plan:
        def encode(self, items):
            return self.encode_inner(items)

        def encode_inner(self, items):
            return len(items)

    clock = _Clock()
    tracer = Tracer(True, clock=clock)
    original = Plan.__dict__["encode"]
    tracer.patch(Plan, "encode", "plan.encode", rows=lambda s, i: len(i))
    tracer.patch(Plan, "encode_inner", "plan.encode")
    assert Plan().encode([1, 2, 3]) == 3
    assert [(s.name, s.rows) for s in tracer.spans] == [("plan.encode", 3)]
    tracer.remove()
    assert Plan.__dict__["encode"] is original
    assert "encode_inner" in Plan.__dict__


def test_select_filters_by_root():
    tracer = Tracer(True, clock=_Clock())
    tracer.spans = _tree()
    assert [s.name for s in tracer.select(["c"], ["root"])] == ["c"]
    assert tracer.select(["c"], ["late"]) == []


# ----------------------------------------------------------------------
def test_benchmark_json_states_each_rate_and_limit():
    spec = json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        limits = workload_limits(spec, workload["name"])
        assert limits["rate"] > 0 and limits["slo_ms"] > 0
    broken = {"workloads": [{"name": "w", "why": "no numbers"}]}
    with pytest.raises(ValueError):
        workload_limits(broken, "w")
