import heapq
import random

import pytest

from ksssp import Path, QueueInvariantError, RankedPathQueue


def make_path(seq, weight):
    p = Path.single(seq[0])
    step = weight / max(1, len(seq) - 1)
    for v in seq[1:]:
        p = p.extend_to(v, step)
    return p


def test_dequeue_order_is_global_tie_break():
    q = RankedPathQueue()
    a = make_path((0, 1), 1.0)
    b = make_path((0, 2), 1.0)
    c = make_path((0, 1, 2), 1.0)
    d = make_path((0, 9), 0.5)
    for p in (c, a, d, b):
        q.enqueue(p)
    assert [q.dequeue_min() for _ in range(4)] == [d, a, b, c]


def test_duplicate_enqueue_rejected():
    q = RankedPathQueue()
    q.enqueue(make_path((0, 1), 1.0))
    with pytest.raises(QueueInvariantError):
        q.enqueue(make_path((0, 1), 7.0))   # same sequence, different weight


def test_reinsertion_after_dequeue_allowed():
    q = RankedPathQueue()
    p = make_path((0, 1), 1.0)
    q.enqueue(p)
    assert q.dequeue_min() is p
    q.enqueue(make_path((0, 1), 1.0))
    assert len(q) == 1


def test_membership_reflects_heap_exactly():
    rng = random.Random(7)
    q = RankedPathQueue()
    model = set()
    for step in range(4000):
        if model and rng.random() < 0.45:
            popped = q.dequeue_min()
            assert popped in model
            model.remove(popped)
        else:
            seq = tuple([0] + [rng.randrange(1, 30) for _ in range(rng.randint(1, 5))])
            p = make_path(seq, float(rng.randint(1, 9)))
            if p in q:
                assert any(m == p for m in model)
                continue
            q.enqueue(p)
            model.add(p)
        assert len(q) == q.member_count() == len(model)
        probe = make_path((0, rng.randrange(1, 30)), 1.0)
        assert (probe in q) == (probe in model)
    # drain monotonically
    last = -1.0
    while len(q):
        p = q.dequeue_min()
        assert p.weight >= last
        last = p.weight
    assert q.member_count() == 0


def test_peak_size_tracked():
    q = RankedPathQueue()
    for i in range(5):
        q.enqueue(make_path((0, i + 1), float(i)))
    for _ in range(5):
        q.dequeue_min()
    assert q.peak_size == 5


def test_lane_and_heap_pop_in_heap_order():
    """Lane-flagged inserts, in and out of order against the lane's tail,
    heap-only inserts and pops, against a plain heapq reference."""
    rng = random.Random(21)
    q = RankedPathQueue()
    reference: list = []
    peak = 0
    top = 1.0           # heavier than every path inserted so far
    for _ in range(6000):
        op = rng.random()
        if reference and op < 0.4:
            want = heapq.heappop(reference)
            assert q.dequeue_min() is want
        else:
            seq = tuple([0] + [rng.randrange(1, 30) for _ in range(rng.randint(1, 4))])
            if op < 0.65:       # in order: sorts after everything queued
                top += 1.0
                weight, lane = top, True
            else:               # out of order, to the lane or to the heap
                weight, lane = float(rng.randint(1, int(top))), op < 0.85
            p = make_path(seq, weight)
            if p in q:
                continue
            q.enqueue(p, lane)
            heapq.heappush(reference, p)
        peak = max(peak, len(reference))
        assert len(q) == q.member_count() == len(reference)
        probe = make_path((0, rng.randrange(1, 30)), 1.0)
        assert (probe in q) == (probe in reference)
    assert q.peak_size == peak
    while reference:
        assert q.dequeue_min() is heapq.heappop(reference)
    assert len(q) == q.member_count() == 0


def test_path_in_lane_refused_without_flag():
    q = RankedPathQueue()
    q.enqueue(make_path((0, 2), 1.0))
    q.enqueue(make_path((0, 1, 3), 2.0), lane=True)
    with pytest.raises(QueueInvariantError):
        q.enqueue(make_path((0, 1, 3), 2.0))
    with pytest.raises(QueueInvariantError):
        q.enqueue(make_path((0, 1, 3), 2.0), lane=True)
    assert len(q) == q.member_count() == 2


def test_in_order_lane_costs_one_comparison_per_operation(monkeypatch):
    calls = 0
    less = Path.__lt__

    def counting_lt(a, b):
        nonlocal calls
        calls += 1
        return less(a, b)

    monkeypatch.setattr(Path, "__lt__", counting_lt)
    q = RankedPathQueue()
    q.enqueue(make_path((0,), 0.0))
    paths = [make_path((0, v), float(v)) for v in range(1, 1001)]
    for p in paths:
        q.enqueue(p, lane=True)
    assert [q.dequeue_min() for _ in range(1001)][1:] == paths
    assert calls <= 2 * len(paths) + 1
