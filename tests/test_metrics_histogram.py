"""Model tests for the streaming log-spaced histogram.

The histogram backs every percentile field in bench and campaign
reports, so its contract is checked against a brute-force reference:
randomized sample sets compared with ``exact_percentile`` within the
advertised 3.125% relative error, merge associativity/commutativity
across shuffled shards (the byte-identical parallel-campaign gate rests
on it) and serialization round-trips.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.metrics import LogHistogram, exact_percentile
from repro.metrics.histogram import (SUB_BITS, bucket_index,
                                     bucket_upper_bound)

PERCENTILES = (1, 25, 50, 75, 90, 95, 99, 99.9, 100)
REL_ERROR = 1.0 / (1 << SUB_BITS)  # 3.125%


def fill(values):
    hist = LogHistogram()
    for value in values:
        hist.record(value)
    return hist


# -- bucketing ----------------------------------------------------------


def test_small_values_are_exact_singleton_buckets():
    for value in range(32):
        index = bucket_index(value)
        assert index == value
        assert bucket_upper_bound(index) == value


def test_bucket_index_is_monotone_and_bounds_consistent():
    previous = -1
    for value in sorted(list(range(0, 5000))
                        + [2 ** k for k in range(6, 40)]):
        index = bucket_index(value)
        assert index >= previous
        previous = index
        # The value lies at or below its bucket's representative...
        assert value <= bucket_upper_bound(index)
        # ...and above the previous bucket's upper bound.
        if index > 0:
            assert value > bucket_upper_bound(index - 1)


def test_bucket_relative_width_is_bounded():
    for value in [33, 100, 1000, 12345, 10**6, 10**8]:
        index = bucket_index(value)
        upper = bucket_upper_bound(index)
        assert (upper - value) / value <= REL_ERROR


# -- percentile accuracy vs. the exact reference ------------------------


@pytest.mark.parametrize("seed", range(8))
def test_randomized_percentiles_match_exact_reference(seed):
    rng = random.Random(seed)
    # A latency-shaped mixture: a bulk of small values plus a heavy tail,
    # the regime p99 estimation actually has to survive.
    samples = ([rng.randrange(0, 2000) for _ in range(400)]
               + [rng.randrange(2000, 500_000) for _ in range(40)]
               + [rng.randrange(0, 32) for _ in range(60)])
    hist = fill(samples)
    assert hist.count == len(samples)
    assert hist.minimum == min(samples)
    assert hist.maximum == max(samples)
    assert hist.total == sum(samples)
    for pct in PERCENTILES:
        exact = exact_percentile(samples, pct)
        estimate = hist.percentile(pct)
        # Conservative estimate: never below the exact rank value,
        # never more than one relative bucket width above it.
        assert estimate >= exact
        assert estimate <= max(exact + 1, int(exact * (1 + REL_ERROR)) + 1)


def test_small_value_percentiles_are_exact():
    rng = random.Random(7)
    samples = [rng.randrange(0, 32) for _ in range(500)]
    hist = fill(samples)
    for pct in PERCENTILES:
        assert hist.percentile(pct) == exact_percentile(samples, pct)


def test_empty_and_edge_cases():
    hist = LogHistogram()
    assert hist.count == 0
    assert hist.percentile(99) is None
    assert hist.mean == 0.0
    assert hist.summary()["p99"] is None
    hist.record(-5)  # clamps to zero
    assert hist.minimum == 0
    assert hist.percentile(0) == 0
    single = fill([777])
    for pct in PERCENTILES:
        assert single.percentile(pct) == 777  # clamped to observed max


# -- merge: exact, associative, order-independent -----------------------


@pytest.mark.parametrize("seed", range(4))
def test_merge_shuffled_shards_is_deterministic(seed):
    rng = random.Random(100 + seed)
    samples = [rng.randrange(0, 100_000) for _ in range(600)]
    whole = fill(samples)
    # Shard as the campaign pool does (per worker), then merge the
    # shards in several different orders.
    shards = [samples[i::5] for i in range(5)]
    reference = None
    for _ in range(4):
        order = shards[:]
        rng.shuffle(order)
        merged = LogHistogram.merge_many(fill(shard) for shard in order)
        blob = json.dumps(merged.as_dict(), sort_keys=True)
        if reference is None:
            reference = blob
        assert blob == reference
    assert reference == json.dumps(whole.as_dict(), sort_keys=True)


def test_merge_is_associative():
    a = fill([1, 50, 5000])
    b = fill([2, 60, 6000])
    c = fill([3, 70, 70_000])
    left = LogHistogram.merge_many([fill([1, 50, 5000]),
                                    fill([2, 60, 6000])]).merge(c)
    right = fill([1, 50, 5000]).merge(
        LogHistogram.merge_many([fill([2, 60, 6000]), fill([3, 70, 70_000])]))
    assert left.as_dict() == right.as_dict()
    assert a.merge(b).count == 6  # merge returns self, mutating a


def test_serialization_round_trip():
    hist = fill([0, 31, 32, 1000, 123456])
    clone = LogHistogram.from_dict(
        json.loads(json.dumps(hist.as_dict())))
    assert clone.as_dict() == hist.as_dict()
    assert clone.summary() == hist.summary()

