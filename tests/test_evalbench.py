import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grnnlab as g
from grnnlab.evalbench import (
    SearchSpace,
    chrono_split,
    compute_metrics,
    early_stop_check,
    evaluate_ranking,
    load_jodie_csv,
    random_ranker_mrr,
    random_search,
    rank_scores,
    rank_true_destination,
    sample_negative,
    write_synthetic_linkstream,
)
from grnnlab.mlp import MlpParameters


HEADER = "user_id,item_id,timestamp,state_label,comma_separated_list_of_features"


def write_csv(tmp_path, rows, name="data.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return str(path)


# loader ----------------------------------------------------------------------


def test_loader_three_rows(tmp_path):
    path = write_csv(tmp_path, [
        "u1,i9,0.0,0,0.5,1.5",
        "u2,i9,1.0,0,-0.25,0.0",
        "u1,i7,2.5,1,3.0,4.0",
    ])
    ds = load_jodie_csv(path)
    assert len(ds.events) == 3
    assert ds.num_sources == 2 and ds.num_destinations == 2
    assert ds.feat_dim == 2
    # users map to 0..U-1 in appearance order; items continue the id space
    assert ds.source_map == {"u1": 0, "u2": 1}
    assert ds.dest_map == {"i9": 2, "i7": 3}
    assert [ (ev.src, ev.dst) for ev in ds.events ] == [(0, 2), (1, 2), (0, 3)]
    assert np.array_equal(ds.destinations, [2, 3])
    assert ds.events[2].features.tolist() == [3.0, 4.0]


def test_loader_non_numeric_feature_names_line(tmp_path):
    path = write_csv(tmp_path, [
        "u1,i1,0.0,0,1.0",
        "u2,i1,1.0,0,banana",
    ])
    with pytest.raises(g.IngestionError, match="line 3"):
        load_jodie_csv(path)


def test_loader_decreasing_timestamps(tmp_path):
    path = write_csv(tmp_path, [
        "u1,i1,5.0,0,1.0",
        "u2,i1,4.0,0,1.0",
    ])
    with pytest.raises(g.DataError):
        load_jodie_csv(path)


def test_loader_inconsistent_feature_dim(tmp_path):
    path = write_csv(tmp_path, [
        "u1,i1,0.0,0,1.0,2.0",
        "u2,i1,1.0,0,1.0",
    ])
    with pytest.raises(g.IngestionError, match="line 3"):
        load_jodie_csv(path)


def test_loader_short_row(tmp_path):
    path = write_csv(tmp_path, ["u1,i1"])
    with pytest.raises(g.IngestionError):
        load_jodie_csv(path)


def test_loader_max_events_slice(tmp_path):
    rows = [f"u{k % 3},i{k % 2},{float(k)},0,0.5" for k in range(10)]
    ds = load_jodie_csv(write_csv(tmp_path, rows), max_events=4)
    assert len(ds.events) == 4


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def jodie_rows(draw):
    """(user, item, timestamp, features) rows with non-decreasing timestamps
    and one feature dimension."""
    dim = draw(st.integers(0, 3))
    n = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n))
    start = draw(st.floats(-1e6, 1e6))
    rows, t = [], start
    for gap in gaps:
        t += gap
        rows.append((f"u{draw(st.integers(0, 4))}", f"i{draw(st.integers(0, 4))}", t,
                     draw(st.lists(_finite, min_size=dim, max_size=dim))))
    return rows


def _csv_lines(rows):
    return [",".join([user, item, repr(t), "0", *map(repr, feats)])
            for user, item, t, feats in rows]


def _load_lines(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w") as fh:
            fh.write(HEADER + "\n" + "\n".join(lines) + "\n")
        return load_jodie_csv(path)


@settings(max_examples=40, deadline=None)
@given(jodie_rows())
def test_loader_valid_rows_round_trip(rows):
    ds = _load_lines(_csv_lines(rows))
    assert len(ds.events) == len(rows)
    assert ds.feat_dim == len(rows[0][3])
    for k, (ev, (user, item, t, feats)) in enumerate(zip(ds.events, rows)):
        assert ev.index == k and ev.y is None
        assert ev.src == ds.source_map[user] and ev.dst == ds.dest_map[item]
        assert ev.time == t
        assert ev.features.tolist() == feats


@settings(max_examples=40, deadline=None)
@given(rows=jodie_rows(), data=st.data(),
       bad=st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999", "banana", "", "1.0.0"]))
def test_loader_bad_numeric_field_names_its_line(rows, data, bad):
    # any timestamp or feature that is non-finite or not a number is an
    # ingestion error carrying the 1-based line number (the header is line 1)
    lines = _csv_lines(rows)
    k = data.draw(st.integers(0, len(rows) - 1))
    fields = lines[k].split(",")
    col = data.draw(st.sampled_from([2] + list(range(4, len(fields)))))
    fields[col] = bad
    lines[k] = ",".join(fields)
    with pytest.raises(g.IngestionError, match=f"line {k + 2}:") as info:
        _load_lines(lines)
    assert info.value.line_no == k + 2


@pytest.mark.skipif(
    "GRNNLAB_WIKIPEDIA_CSV" not in os.environ,
    reason="set GRNNLAB_WIKIPEDIA_CSV to the published interaction CSV to verify counts",
)
def test_loader_wikipedia_counts():
    ds = load_jodie_csv(os.environ["GRNNLAB_WIKIPEDIA_CSV"])
    assert len(ds.events) == 157_474
    assert ds.num_destinations == 1_000


# splitting ---------------------------------------------------------------------


def make_events(n):
    return [
        g.Event(index=k, src=0, dst=1 + (k % 3), time=float(k), features=np.zeros(1))
        for k in range(n)
    ]


def test_split_100():
    train, val, test = chrono_split(make_events(100), 0.70, 0.15)
    assert (len(train), len(val), len(test)) == (70, 15, 15)


def test_split_10_floor_then_remainder():
    train, val, test = chrono_split(make_events(10), 0.70, 0.15)
    assert (len(train), len(val), len(test)) == (7, 1, 2)


def test_split_preserves_order_and_partition():
    events = make_events(37)
    train, val, test = chrono_split(events, 0.6, 0.2)
    assert train + val + test == events
    assert max(ev.time for ev in train) <= min(ev.time for ev in val)
    assert max(ev.time for ev in val) <= min(ev.time for ev in test)


def test_split_errors():
    with pytest.raises(g.ConfigError):
        chrono_split(make_events(10), 0.9, 0.2)
    with pytest.raises(g.ConfigError):
        chrono_split(make_events(10), 0.0, 0.5)
    with pytest.raises(g.ConfigError):
        chrono_split(make_events(3), 0.34, 0.1)  # empty val part


# negative sampling --------------------------------------------------------------


def fake_dataset(tmp_path, num_items=1000):
    # every item appears once so the destination universe is complete
    rows = [f"u0,i{j},0.0,0,1.0" for j in range(num_items)]
    return load_jodie_csv(write_csv(tmp_path, rows))


def test_negative_sampling_universe_of_one(tmp_path):
    ds = load_jodie_csv(write_csv(tmp_path, ["u0,i0,0.0,0,1.0", "u1,i0,1.0,0,1.0"]))
    edge = ds.events[0]
    assert all(sample_negative(edge, ds, g.Rng(s)) == ds.destinations[0] for s in range(20))


def test_negative_sampling_concentration(tmp_path):
    ds = fake_dataset(tmp_path, num_items=1000)
    rng = g.Rng(42)
    counts = np.zeros(1000, dtype=int)
    for _ in range(100_000):
        counts[sample_negative(ds.events[0], ds, rng) - ds.num_sources] += 1
    assert counts.min() >= 60 and counts.max() <= 140  # 100 +/- 40


def test_negative_sampling_determinism(tmp_path):
    ds = fake_dataset(tmp_path, num_items=50)
    a = [sample_negative(ds.events[0], ds, g.Rng(7)) for _ in range(100)]
    b = [sample_negative(ds.events[0], ds, g.Rng(7)) for _ in range(100)]
    assert a == b


# ranking -------------------------------------------------------------------------


def test_rank_scores_oracle_and_ties():
    scores = np.zeros(1000)
    scores[123] = 1.0
    assert rank_scores(scores, 123) == 1  # strictly best wins
    assert rank_scores(np.zeros(1000), 7) == 1000  # pessimistic ties
    scores = np.array([3.0, 2.0, 2.0, 1.0])
    assert rank_scores(scores, 1) == 3  # one better, one tied other


def test_random_scorer_mean_reciprocal_rank():
    rng = g.Rng(55)
    universe = 1000
    inv_ranks = []
    for _ in range(20_000):
        scores = np.random.default_rng(rng.next_u64()).standard_normal(universe)
        inv_ranks.append(1.0 / rank_scores(scores, 0))
    expectation = random_ranker_mrr(universe)
    assert abs(np.mean(inv_ranks) - expectation) < 0.25 * expectation


def one_hot_identity_model(num_nodes):
    """MLP that scores 0.5 exactly when the source state equals the candidate
    one-hot, 0 otherwise: hidden_i = relu(src_i + cand_i - 1.5)."""
    m = num_nodes
    w1 = np.hstack([np.eye(m), np.eye(m)])
    mlp = MlpParameters(w1=w1, b1=np.full(m, -1.5), w2=np.ones(m), b2=np.zeros(1))
    model = g.init_model(g.Rng(0), m, 1, "link_ranking")
    model.mlp = mlp
    return model


def test_rank_true_destination_with_memorizing_scorer():
    n = 6
    model = one_hot_identity_model(n)
    store = g.NodeStateStore.zeros(n, n)
    universe = np.arange(3, 6)
    for cand in universe:
        store.states[cand] = np.eye(n)[cand]
    ranks = []
    for src, true_dst in ((0, 3), (1, 4), (2, 5)):
        store.states[src] = np.eye(n)[true_dst]  # source remembers its destination
        edge = g.Event(index=0, src=src, dst=int(true_dst), time=0.0, features=np.zeros(1))
        ranks.append(rank_true_destination(model, store, edge, universe))
    metrics = compute_metrics(ranks)
    assert metrics["mrr"] == 1.0 and metrics["recall_at_10"] == 1.0


def test_rank_true_destination_constant_scorer_gives_universe_size():
    n = 5
    model = g.init_model(g.Rng(1), 3, 1, "link_ranking")
    for p in model.mlp.named().values():
        p.fill(0.0)
    store = g.NodeStateStore.zeros(n, 3)
    universe = np.arange(1, 5)
    edge = g.Event(index=0, src=0, dst=2, time=0.0, features=np.zeros(1))
    assert rank_true_destination(model, store, edge, universe) == len(universe)


def test_rank_unknown_destination_errors():
    model = g.init_model(g.Rng(1), 2, 1, "link_ranking")
    store = g.NodeStateStore.zeros(4, 2)
    edge = g.Event(index=0, src=0, dst=3, time=0.0, features=np.zeros(1))
    with pytest.raises(g.DataError):
        rank_true_destination(model, store, edge, np.array([1, 2]))


# metrics -------------------------------------------------------------------------


def test_metrics_examples():
    assert compute_metrics([1, 1, 1]) == {"mrr": 1.0, "recall_at_10": 1.0}
    m = compute_metrics([1, 2, 4])
    assert abs(m["mrr"] - (1 + 0.5 + 0.25) / 3) < 1e-12
    assert m["recall_at_10"] == 1.0
    assert compute_metrics([11, 11, 11])["recall_at_10"] == 0.0


def test_metrics_errors():
    with pytest.raises(g.ParameterError):
        compute_metrics([])
    with pytest.raises(g.ParameterError):
        compute_metrics([0, 1])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 500), min_size=1, max_size=50))
def test_metrics_bounds_and_monotonicity(ranks):
    m5 = compute_metrics(ranks, k=5)
    m20 = compute_metrics(ranks, k=20)
    assert 0.0 <= m5["mrr"] <= 1.0
    assert 0.0 <= m5["recall_at_5"] <= 1.0
    assert m5["recall_at_5"] <= m20["recall_at_20"]


# random search --------------------------------------------------------------------


def test_search_domains_25_trials():
    trials = random_search(SearchSpace(), 25, seed=3)
    assert len(trials) == 25
    for t in trials:
        assert 1e-3 <= t.learning_rate <= 1e-2
        assert 1e-5 <= t.weight_decay <= 1.0
        assert 0.0 <= t.mlp_dropout <= 0.3
        assert 0.0 <= t.state_dropout <= 0.3
        assert t.state_dropout_type in ("regular", "recurrent")


def test_search_determinism():
    a = random_search(SearchSpace(), 25, seed=9)
    b = random_search(SearchSpace(), 25, seed=9)
    assert [t.to_dict() for t in a] == [t.to_dict() for t in b]
    c = random_search(SearchSpace(), 25, seed=10)
    assert [t.to_dict() for t in a] != [t.to_dict() for t in c]


# early stopping -------------------------------------------------------------------


def hist(mrr_path, recall_path):
    return [{"mrr": m, "recall": r} for m, r in zip(mrr_path, recall_path)]


def test_early_stop_examples():
    flat = [0.5] * 250
    assert not early_stop_check(hist([0.6] + flat[:249], [0.6] + flat[:249]), patience=250)
    # mrr stagnant 300, recall improved 100 epochs ago: keep going
    mrr = [0.6] + [0.5] * 300
    recall = [0.1] * 201 + [0.7] + [0.5] * 99
    assert not early_stop_check(hist(mrr, recall), patience=250)
    both = [0.6] + [0.5] * 250
    assert early_stop_check(hist(both, both), patience=250)


def test_early_stop_needs_enough_history():
    assert not early_stop_check(hist([0.5], [0.5]), patience=250)


# evaluation over event batches ------------------------------------------------------


def test_evaluate_ranking_uses_batch_start_states(tmp_path):
    write_synthetic_linkstream(str(tmp_path / "s.csv"), num_events=300,
                               num_users=20, num_items=10, seed=3)
    ds = load_jodie_csv(str(tmp_path / "s.csv"))
    model = g.init_model(g.Rng(5), 4, ds.feat_dim, "link_ranking")
    store = g.NodeStateStore.zeros(ds.num_nodes, 4)
    ranks = evaluate_ranking(model, store, ds.events[:100], ds.destinations,
                             g.BatchingConfig("fixed_parallel", 32))
    assert len(ranks) == 100
    assert all(1 <= r <= ds.num_destinations for r in ranks)
    # deterministic for a fixed checkpoint and data
    store2 = g.NodeStateStore.zeros(ds.num_nodes, 4)
    ranks2 = evaluate_ranking(model, store2, ds.events[:100], ds.destinations,
                              g.BatchingConfig("fixed_parallel", 32))
    assert ranks == ranks2


@pytest.mark.parametrize("size", [None, 1, 7])
def test_sequential_evaluation_ranks_each_edge_after_every_earlier_update(tmp_path, size):
    write_synthetic_linkstream(str(tmp_path / "s.csv"), num_events=120,
                               num_users=12, num_items=6, seed=4)
    ds = load_jodie_csv(str(tmp_path / "s.csv"))
    model = g.init_model(g.Rng(6), 4, ds.feat_dim, "link_ranking")
    store = g.NodeStateStore.zeros(ds.num_nodes, 4)
    ranks = evaluate_ranking(model, store, ds.events, ds.destinations,
                             g.BatchingConfig("sequential", size))
    ref_store, producers, ref_ranks = g.NodeStateStore.zeros(ds.num_nodes, 4), {}, []
    for k, ev in enumerate(ds.events):
        ref_ranks.append(rank_true_destination(model, ref_store, ev, ds.destinations))
        g.run_batch(ref_store, producers, g.Batch([ev], "sequential", k), model)
    assert ranks == ref_ranks
    assert np.array_equal(store.states, ref_store.states)


def test_synthetic_linkstream_is_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_synthetic_linkstream(p1, num_events=500, seed=11)
    write_synthetic_linkstream(p2, num_events=500, seed=11)
    assert open(p1).read() == open(p2).read()
