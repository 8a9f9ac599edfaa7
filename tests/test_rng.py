import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("n", [1, 3, 60, 2**32 + 1, 2**63])
def test_randranges_draws_what_randrange_draws(n):
    # 4090 draws in, a block of 20 crosses the 4096-output block refill
    a, b = Rng(17), Rng(17)
    a.u01_array(4090)
    b.u01_array(4090)
    assert a.randranges(n, 20) == [b.randrange(n) for _ in range(20)]
    assert a.next_u64() == b.next_u64()
    assert a.randranges(n, 0) == []
    with pytest.raises(ParameterError):
        a.randranges(0, 3)


def test_keep_mask_checks_rate():
    rng = Rng(0)
    for rate in (float("nan"), -0.1, 1.5):
        with pytest.raises(ParameterError):
            rng.keep_mask(4, rate)
    assert rng.next_u64() == Rng(0).next_u64()  # a rejected rate draws nothing


def test_gaussian_values_are_finite():
    rng = Rng(13)
    assert all(math.isfinite(rng.standard_normal()) for _ in range(10_000))


def test_published_splitmix64_vector():
    rng = Rng(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]


# pure-Python SplitMix64 and the helpers on top of it, one draw at a time

_MASK = (1 << 64) - 1


class ReferenceRng:
    def __init__(self, seed):
        self.state = seed & _MASK
        self.spare = None

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def u01(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n):
        return (self.next_u64() * n) >> 64

    def bernoulli(self, p):
        return self.u01() < p

    def u01_array(self, n):
        return [self.u01() for _ in range(n)]

    def keep_mask(self, n, rate):
        return [self.u01() >= rate for _ in range(n)]

    def standard_normal(self):
        if self.spare is not None:
            g, self.spare = self.spare, None
            return g
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = self.u01()
        radius = math.sqrt(-2.0 * math.log(u1))
        self.spare = radius * math.sin(2.0 * math.pi * u2)
        return radius * math.cos(2.0 * math.pi * u2)


_SCALAR_OPS = st.one_of(
    st.just(("next_u64",)),
    st.just(("u01",)),
    st.just(("standard_normal",)),
    st.tuples(st.just("randrange"), st.integers(1, 2**70)),
    st.tuples(st.just("bernoulli"), st.sampled_from([0.0, 0.3, 0.5, 1.0])),
)
# sizes around the generator's 4096-output block
_BULK_OPS = st.one_of(
    st.tuples(st.just("u01_array"), st.sampled_from([0, 1, 4095, 4096, 4097, 10000])),
    st.tuples(st.just("keep_mask"), st.sampled_from([0, 1, 4095, 4096, 4097, 10000]),
              st.sampled_from([0.0, 0.3, 1.0])),
)


def _draw(rng, op):
    name, *args = op
    out = getattr(rng, name)(*args)
    return out.tolist() if isinstance(out, np.ndarray) else out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1, 1234567, 2**64 - 1])
@settings(max_examples=25, deadline=None)
@given(ops=st.lists(st.one_of(_SCALAR_OPS, _BULK_OPS), max_size=16))
def test_stream_matches_pure_python_reference(seed, ops):
    rng, ref = Rng(seed), ReferenceRng(seed)
    for op in ops:
        assert _draw(rng, op) == _draw(ref, op), op
    assert rng.next_u64() == ref.next_u64()
