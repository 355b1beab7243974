"""Seeded request streams and the load generators that send them.

Every stream names only users and items the serving plan can answer:
users come from the plan's training data and items from its catalog, so
a failed request always means the program failed.

* :class:`ZipfSessions` — Zipf-popular users whose sessions start from
  their own history and grow (or roll past ``max_len``) as they return.
* :class:`FreshReads` — users drawn uniformly, each request a sequence
  never sent before, so no answer can come from a cache.

The generators talk to any service with ``enqueue``/``flush`` (a
``RecommendService`` or a ``ClusterService``) from one thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

Request = Tuple[int, tuple]

#: Popularity skew of the session users: P(rank r) ∝ 1 / r**1.1.
ZIPF_EXPONENT = 1.1
#: Chance that a returning session appends one item (else it repeats).
APPEND_PROBABILITY = 0.6
#: Shortest sequence a held-out user needs (two inputs plus a target).
MIN_HELD_OUT_LENGTH = 3
#: The open-loop generator sleeps until this long before a request is
#: due and spins the rest: on a busy virtual machine a sleeping thread
#: can wake milliseconds late, and that lateness would be charged to
#: every request it delays.
SPIN_SECONDS = 0.002


def zipf_probabilities(count: int, exponent: float) -> np.ndarray:
    """P(rank r) ∝ 1 / r**exponent over ``count`` ranks."""
    weights = np.arange(1, count + 1, dtype=np.float64) ** -exponent
    return weights / weights.sum()


class ZipfSessions:
    """Open-loop session traffic: Zipf users, growing sessions.

    The seed fixes which user holds which popularity rank, the user
    draws, and every appended item.  A user's first request is the last
    one to three items of their history, so sessions grow before they
    roll past ``max_len``; each return appends one item with
    probability :data:`APPEND_PROBABILITY` and otherwise repeats the
    session exactly.
    """

    def __init__(self, seed: int, histories: Mapping[int, Sequence[int]],
                 num_items: int, max_len: int):
        users = sorted(user for user, seq in histories.items() if len(seq))
        if not users:
            raise ValueError("no user has a history to start from")
        self._rng = np.random.default_rng(seed)
        self._users = np.asarray(users)[self._rng.permutation(len(users))]
        self._probs = zipf_probabilities(len(users), ZIPF_EXPONENT)
        self._histories = histories
        self.num_items = int(num_items)
        self.max_len = int(max_len)
        self._sessions: Dict[int, List[int]] = {}

    def take(self, count: int) -> List[Request]:
        ranks = self._rng.choice(len(self._users), size=count, p=self._probs)
        out: List[Request] = []
        for rank in ranks:
            user = int(self._users[rank])
            session = self._sessions.get(user)
            if session is None:
                start = int(self._rng.integers(1, 4))
                session = [int(i) for i in self._histories[user][-start:]]
                self._sessions[user] = session
            elif self._rng.random() < APPEND_PROBABILITY:
                session.append(int(self._rng.integers(1, self.num_items + 1)))
                del session[:-self.max_len]
            out.append((user, tuple(session)))
        return out


class FreshReads:
    """Reads that never repeat a sequence, from a fixed set of users.

    Each read is the user's history tail followed by one or two random
    catalog items; a draw that repeats an earlier read is drawn again.
    """

    def __init__(self, seed: int, histories: Mapping[int, Sequence[int]],
                 num_items: int, max_len: int):
        self._rng = np.random.default_rng(seed)
        self.num_items = int(num_items)
        self.max_len = int(max_len)
        self._sent: set = set()
        self.set_histories(histories)

    def set_histories(self, histories: Mapping[int, Sequence[int]]) -> None:
        """Read from these users from now on (no sequence is re-sent)."""
        self._users = np.asarray(sorted(u for u, s in histories.items()
                                        if len(s)))
        if self._users.size == 0:
            raise ValueError("no user has a history to read from")
        self._histories = histories

    def take(self, count: int) -> List[Request]:
        out: List[Request] = []
        while len(out) < count:
            user = int(self._users[self._rng.integers(self._users.size)])
            extra = self._rng.integers(1, self.num_items + 1,
                                       size=int(self._rng.integers(1, 3)))
            seq = (list(self._histories[user]) + [int(i) for i in extra])
            request = (user, tuple(seq[-self.max_len:]))
            if request in self._sent:
                continue
            self._sent.add(request)
            out.append(request)
        return out


def held_out_requests(view, seed, count: int,
                      max_len: int) -> List[Request]:
    """``count`` distinct held-out users, each as one test request.

    The request is the user's sequence without its last item (the
    leave-one-out test input), truncated to ``max_len``; the seed (an
    int or a sequence of ints) picks the users and their order.
    """
    lengths = np.asarray(view.seq_lengths())
    eligible = np.flatnonzero(lengths >= MIN_HELD_OUT_LENGTH)
    eligible = eligible[eligible > 0]
    rng = np.random.default_rng(seed)
    users = rng.choice(eligible, size=min(count, eligible.size),
                       replace=False)
    return [(int(user), tuple(int(i) for i in
                              view.sequence(int(user))[:-1][-max_len:]))
            for user in users]


# ----------------------------------------------------------------------
@dataclass
class Flush:
    """One flush as the generator saw it: what went in, what came out."""

    requests: List[Request]
    results: list
    seconds: float


@dataclass
class OpenLoop:
    """Per-request timings of one open-loop phase (seconds)."""

    latencies: np.ndarray
    lateness: np.ndarray
    failed: np.ndarray
    flushes: List[Flush] = field(default_factory=list)
    first_answer_at: Optional[float] = None


def open_loop(service, requests: Sequence[Request], rate: float,
              clock: Callable[[], float] = time.perf_counter) -> OpenLoop:
    """Send ``requests`` on the schedule ``i / rate`` from one thread.

    Every request that is due is enqueued and the queue is flushed; a
    request's latency runs from when it was *due* (not when it was
    sent) to the end of the flush that answered it, so a stall is
    charged to every request stuck behind it.  Lateness is send time
    minus due time.
    """
    count = len(requests)
    due = np.arange(count, dtype=np.float64) / rate
    latencies = np.empty(count)
    lateness = np.empty(count)
    failed = np.zeros(count, dtype=bool)
    phase = OpenLoop(latencies, lateness, failed)
    start = clock()
    i = 0
    while i < count:
        now = clock() - start
        if due[i] > now:
            if due[i] - now > SPIN_SECONDS:
                time.sleep(due[i] - now - SPIN_SECONDS)
            continue
        j = i
        while j < count and due[j] <= now:
            service.enqueue(*requests[j])
            j += 1
        lateness[i:j] = now - due[i:j]
        sent = clock()
        results = service.flush()
        done = clock()
        if phase.first_answer_at is None:
            phase.first_answer_at = done
        latencies[i:j] = (done - start) - due[i:j]
        # A flush that drops answers fails every request it held.
        failed[i:j] = ([r.failed for r in results]
                       if len(results) == j - i else True)
        phase.flushes.append(Flush(list(requests[i:j]), results,
                                   done - sent))
        i = j
    return phase


@dataclass
class ClosedLoop:
    sent: int
    answered: int
    failed: int
    seconds: float
    #: (requests, seconds) of every flush.
    flushes: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def rate(self) -> float:
        """Requests answered per second at the median full-width flush.

        The median flush time is robust to the bursts in which a shared
        host runs this process slowly; ``answered / seconds`` is not.
        """
        width = max(n for n, _ in self.flushes)
        times = [t for n, t in self.flushes if n == width]
        return width / float(np.median(times))


def pooled(phases: Sequence[ClosedLoop]) -> ClosedLoop:
    """One closed-loop phase holding every flush of ``phases``."""
    return ClosedLoop(sum(p.sent for p in phases),
                      sum(p.answered for p in phases),
                      sum(p.failed for p in phases),
                      sum(p.seconds for p in phases),
                      [f for p in phases for f in p.flushes])


def closed_loop(service, requests: Sequence[Request], width: int,
                seconds: float,
                clock: Callable[[], float] = time.perf_counter
                ) -> ClosedLoop:
    """Flush ``width``-wide batches back to back for ``seconds``.

    Stops early if ``requests`` runs out; the rate stays valid.  Each
    flush is timed on its own (see :attr:`ClosedLoop.rate`).
    """
    sent = answered = failed = 0
    start = clock()
    elapsed = 0.0
    flushes: List[Tuple[int, float]] = []
    for at in range(0, len(requests), width):
        chunk = requests[at:at + width]
        sent += len(chunk)
        before = clock()
        results = service.recommend_many(chunk)
        flushes.append((len(chunk), clock() - before))
        answered += len(results)
        failed += sum(r.failed for r in results)
        elapsed = clock() - start
        if elapsed >= seconds:
            break
    return ClosedLoop(sent, answered, failed, elapsed, flushes)
