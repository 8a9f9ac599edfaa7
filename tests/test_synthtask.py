import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grnnlab as g
from grnnlab.synthtask import sample_pair

from helpers import fifo_targets_bruteforce


def test_config_validation():
    with pytest.raises(g.ParameterError):
        g.SyntheticConfig(memory=0)
    with pytest.raises(g.ParameterError):
        g.SyntheticConfig(memory=1, num_nodes=1)
    with pytest.raises(g.ParameterError):
        g.SyntheticConfig(memory=1, edges_per_epoch=0)


def test_first_event_target_is_zero():
    state = g.OracleState.zeros(5, 3)
    assert g.oracle_step(state, 0, 1, 2.5) == 0.0


def test_memory_one_trace():
    # frozen hand trace: edges (A,B,1), (A,B,2), (A,B,0)
    state = g.OracleState.zeros(2, 1)
    ys = [g.oracle_step(state, 0, 1, x) for x in (1.0, 2.0, 0.0)]
    assert ys == [0.0, 0.0, 1.0]
    assert state.buffers[0].tolist() == [0.25, 1.0]


def test_fifo_fill_time():
    # with M=2 the first touches of a node contribute 0 from its buffer tail;
    # the value stored at touch 1 is first read at touch 1 + (M+1) = 4
    state = g.OracleState.zeros(2, 2)
    assert g.oracle_step(state, 0, 1, 5.0) == 0.0
    assert g.oracle_step(state, 0, 1, -3.0) == 0.0
    assert g.oracle_step(state, 0, 1, 1.0) == 0.0
    assert g.oracle_step(state, 0, 1, 0.0) == 5.0  # both tails hold 0.5 * 5.0


def test_oracle_rejects_self_loop():
    state = g.OracleState.zeros(3, 1)
    with pytest.raises(g.ParameterError):
        g.oracle_step(state, 2, 2, 1.0)


def test_oracle_matches_bruteforce_simulation():
    rng = g.Rng(31)
    pairs = []
    for _ in range(200):
        s = rng.randrange(7)
        d = rng.randrange(6)
        if d >= s:
            d += 1
        pairs.append((s, d))
    xs = [rng.standard_normal() for _ in range(200)]
    for memory in (1, 2, 4):
        state = g.OracleState.zeros(7, memory)
        ours = [g.oracle_step(state, s, d, x) for (s, d), x in zip(pairs, xs)]
        ref = fifo_targets_bruteforce(pairs, xs, memory)
        assert np.allclose(ours, ref, atol=0, rtol=0)


def test_generate_epoch_determinism_and_shape():
    cfg = g.SyntheticConfig(memory=2, num_nodes=10, edges_per_epoch=50)
    a = g.generate_epoch(cfg, g.Rng(5).substream("data"))
    b = g.generate_epoch(cfg, g.Rng(5).substream("data"))
    assert len(a) == 50
    for ea, eb in zip(a, b):
        assert (ea.src, ea.dst, ea.time, ea.y) == (eb.src, eb.dst, eb.time, eb.y)
        assert np.array_equal(ea.features, eb.features)
    assert all(ev.time == float(k) for k, ev in enumerate(a))
    assert all(ev.features.shape == (1,) for ev in a)
    assert all(ev.src != ev.dst for ev in a)


def test_generate_single_event_epoch():
    cfg = g.SyntheticConfig(memory=1, num_nodes=5, edges_per_epoch=1)
    (ev,) = g.generate_epoch(cfg, g.Rng(0).substream("data"))
    assert ev.y == 0.0


def test_pair_sampling_uniform_over_ordered_pairs():
    rng = g.Rng(17)
    counts = {}
    n = 4
    draws = 60_000
    for _ in range(draws):
        pair = sample_pair(rng, n)
        counts[pair] = counts.get(pair, 0) + 1
    assert len(counts) == n * (n - 1)
    expected = draws / (n * (n - 1))
    for pair, c in counts.items():
        assert abs(c - expected) < 0.1 * expected, (pair, c)


def test_stationary_target_variance_long_epochs():
    # burn-in from the per-epoch zero state vanishes for long epochs; the
    # stationary second moment of each buffer tail is 1/3, so targets give 2/3
    cfg = g.SyntheticConfig(memory=1, edges_per_epoch=10_000)
    rng = g.Rng(11).substream("data")
    total, count = 0.0, 0
    for _ in range(10):
        for ev in g.generate_epoch(cfg, rng):
            total += ev.y * ev.y
            count += 1
    assert abs(total / count - 2 / 3) < 0.05


def test_default_config_variance_matches_independent_simulation():
    # at the default epoch length the zero-state burn-in is visible; the
    # generated targets must match an independent brute-force simulation
    cfg = g.SyntheticConfig(memory=2)
    rng = g.Rng(13).substream("data")
    events = g.generate_epoch(cfg, rng)
    ref = fifo_targets_bruteforce(
        [(ev.src, ev.dst) for ev in events], [float(ev.features[0]) for ev in events], 2
    )
    assert np.allclose([ev.y for ev in events], ref, atol=0, rtol=0)


def test_baseline_mse():
    assert g.baseline_mse([]) == 0.0
    events = [
        g.Event(index=0, src=0, dst=1, time=0.0, features=np.zeros(1), y=3.0),
        g.Event(index=1, src=1, dst=2, time=1.0, features=np.zeros(1), y=-1.0),
    ]
    assert g.baseline_mse(events) == 5.0
    assert g.baseline_mse(events[:1]) == 9.0
    zero = [g.Event(index=0, src=0, dst=1, time=0.0, features=np.zeros(1), y=0.0)]
    assert g.baseline_mse(zero) == 0.0


@pytest.mark.parametrize("memory", [1, 2, 4])
def test_impulse_delay_is_memory_plus_one(memory):
    # a single nonzero feature first reaches a target M+1 touches later
    state = g.OracleState.zeros(2, memory)
    impulse_at = 3
    first_nonzero = None
    for k in range(impulse_at + memory + 5):
        x = 1.0 if k == impulse_at else 0.0
        y = g.oracle_step(state, 0, 1, x)
        if y != 0.0 and first_nonzero is None:
            first_nonzero = k
    assert first_nonzero == impulse_at + memory + 1


def test_zero_input_epoch_gives_zero_targets():
    rng = g.Rng(23)
    state = g.OracleState.zeros(6, 3)
    for _ in range(100):
        s, d = sample_pair(rng, 6)
        assert g.oracle_step(state, s, d, 0.0) == 0.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000), st.floats(-3, 3).filter(lambda c: abs(c) > 1e-6))
def test_linearity_in_features(seed, scale):
    rng = g.Rng(seed)
    pairs = []
    for _ in range(40):
        s = rng.randrange(5)
        d = rng.randrange(4)
        if d >= s:
            d += 1
        pairs.append((s, d))
    xs = [rng.standard_normal() for _ in range(40)]
    base = fifo_targets_bruteforce(pairs, xs, 2)
    scaled = fifo_targets_bruteforce(pairs, [scale * x for x in xs], 2)
    assert np.allclose(scaled, np.asarray(base) * scale, rtol=1e-12, atol=1e-12)


def test_endpoint_symmetry():
    rng = g.Rng(29)
    pairs, xs = [], []
    for _ in range(60):
        s = rng.randrange(6)
        d = rng.randrange(5)
        if d >= s:
            d += 1
        pairs.append((s, d))
        xs.append(rng.standard_normal())
    forward = fifo_targets_bruteforce(pairs, xs, 2)
    swapped = fifo_targets_bruteforce([(d, s) for s, d in pairs], xs, 2)
    assert forward == swapped
