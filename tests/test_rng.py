import math

import numpy as np
import pytest

from grnnlab import ParameterError, Rng


def test_same_seed_same_stream():
    a, b = Rng(123), Rng(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]
    assert [a.standard_normal() for _ in range(10)] == [b.standard_normal() for _ in range(10)]


def test_known_substreams_differ():
    root = Rng(7)
    streams = [root.substream(p) for p in ("init", "data", "dropout", "negatives")]
    first = [s.next_u64() for s in streams]
    assert len(set(first)) == len(first)


def test_substream_independent_of_parent_state():
    a = Rng(99)
    expected = a.substream("data").u01()
    b = Rng(99)
    for _ in range(100):
        b.u01()  # advancing the parent must not shift derived streams
    assert b.substream("data").u01() == expected


def test_uniform_degenerate_interval():
    assert Rng(0).uniform(0.0, 0.0) == 0.0


def test_uniform_bounds_and_errors():
    rng = Rng(5)
    for _ in range(1000):
        v = rng.uniform(-2.0, 3.0)
        assert -2.0 <= v < 3.0
    with pytest.raises(ParameterError):
        rng.uniform(1.0, 0.0)


def test_log_uniform_support_and_median():
    rng = Rng(11)
    draws = [rng.log_uniform(1e-5, 1.0) for _ in range(100_000)]
    assert min(draws) >= 1e-5 and max(draws) <= 1.0
    median = float(np.median(draws))
    assert abs(median - 10**-2.5) / 10**-2.5 < 0.10


def test_log_uniform_errors():
    rng = Rng(1)
    with pytest.raises(ParameterError):
        rng.log_uniform(0.0, 1.0)
    with pytest.raises(ParameterError):
        rng.log_uniform(2.0, 1.0)


def test_standard_normal_law_of_large_numbers():
    rng = Rng(2024)
    n = 1_000_000
    total = 0.0
    total_sq = 0.0
    for _ in range(n):
        v = rng.standard_normal()
        total += v
        total_sq += v * v
    mean = total / n
    var = total_sq / n - mean * mean
    assert abs(mean) < 0.005
    assert abs(var - 1.0) < 0.01


def test_bernoulli():
    rng = Rng(3)
    hits = sum(rng.bernoulli(0.25) for _ in range(40_000))
    assert abs(hits / 40_000 - 0.25) < 0.01
    assert not Rng(0).bernoulli(0.0)
    assert Rng(0).bernoulli(1.0)
    with pytest.raises(ParameterError):
        rng.bernoulli(1.5)


def test_randrange():
    rng = Rng(8)
    counts = [0] * 7
    for _ in range(70_000):
        counts[rng.randrange(7)] += 1
    assert min(counts) > 9000 and max(counts) < 11000
    with pytest.raises(ParameterError):
        rng.randrange(0)


def test_gaussian_values_are_finite():
    rng = Rng(13)
    assert all(math.isfinite(rng.standard_normal()) for _ in range(10_000))
