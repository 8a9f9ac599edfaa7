"""Golden bits: per-epoch (mean_loss, grad_norm) pinned across versions.

Every other equivalence test compares two code paths of the same version, so
a refactor that moves a floating-point summation changes both sides alike and
goes unnoticed. These values were recorded once and must not drift: a change
here means the training arithmetic changed, not just its structure. A repr
of the gradient norm can miss a moved gradient bit, so GRADIENT_DIGESTS
pins the bytes of every gradient buffer as well.
"""

import hashlib

import pytest

import grnnlab as g
from grnnlab.adamw import AdamwState
from grnnlab.evalbench import load_jodie_csv, write_synthetic_linkstream

EPOCHS = 3

GOLDEN = {
    "synth_f_bptt": [
        "(0.4628958759402797, 26.7229584131799)",
        "(0.3618528836271507, 12.984364204644189)",
        "(0.32249157223659836, 22.757152690205167)",
    ],
    "synth_t_bptt": [
        "(0.4628958759402797, 26.69402249217206)",
        "(0.361818279654516, 12.924020896774758)",
        "(0.322556087039414, 22.78001666399899)",
    ],
    "synth_t_bptt_tbatch": [
        "(0.46289587594027976, 26.694022492172053)",
        "(0.361818279654516, 12.92402089677476)",
        "(0.3225560870394141, 22.780016663998985)",
    ],
    "synth_t_bptt_sequential3": [
        "(0.46289587594027987, 26.696035090327992)",
        "(0.3617906388459943, 12.941334499827462)",
        "(0.3224383949950792, 22.76495415140594)",
    ],
    "link_f_bptt_regular": [
        "(1.386677442173313, 1.5083603274688613)",
        "(1.38616737068895, 1.39847058142655)",
        "(1.3865251956027764, 1.1612588370176915)",
    ],
    "link_t_bptt_regular": [
        "(1.386677442173313, 1.432726279241403)",
        "(1.3861441383053719, 1.4064750400587056)",
        "(1.3865424796711041, 1.0768658544142908)",
    ],
    "link_f_bptt_recurrent": [
        "(1.3862999378011096, 1.2299952571970683)",
        "(1.3862038383282431, 2.439564865805431)",
        "(1.3862422771583078, 0.8498539259127317)",
    ],
    "link_t_bptt_recurrent": [
        "(1.3862999378011096, 1.2786554427750345)",
        "(1.3862069219657236, 1.9622523741491644)",
        "(1.3862665354265775, 0.7709453413002217)",
    ],
    "link_f_bptt_tbatch": [
        "(1.3863046461524429, 1.9513545938575094)",
        "(1.3859545625811107, 1.0461612568332346)",
        "(1.3860113685400144, 1.75193029801628)",
    ],
    "link_t_bptt_tbatch": [
        "(1.3863046461524429, 1.863005645421183)",
        "(1.3859627537406791, 0.9525107505526484)",
        "(1.385870301774656, 1.140111188337879)",
    ],
    "link_t_bptt_sequential5_regular": [
        "(1.3855576609329583, 1.4501674189234552)",
        "(1.386642484743415, 1.5317146651172502)",
        "(1.3860448478129972, 1.8623572179739818)",
    ],
    "link_t_bptt_sequential5_recurrent": [
        "(1.3858460585225623, 1.2338887896193333)",
        "(1.3867038657385289, 0.8714230096573432)",
        "(1.3861195920671392, 0.9644958644429876)",
    ],
}


GRADIENT_DIGESTS = {
    "synth_f_bptt_spanning": [
        "9a1ef18569a87913f56c5354ee053fc38d4d34dc50e933b4d09bbecc1d7116e8",
        "b01f3d3c63cc25cd5b12d7aed6a912e3c5187385ea0bfd304d5422b76b49dcdc",
    ],
    "synth_t_bptt_sequential7": [
        "2f70c94bb14d8b9e8f3be3944506829d9323c38404ce0d2dc4edcf536e141f39",
        "c830f60c8e7338c0128c6cfff822049aa2eea0798775a6fa59a66ce2cee1742c",
    ],
}


def synth_curve(mode, batching=None):
    cfg = g.SyntheticConfig(memory=2, num_nodes=12, edges_per_epoch=60)
    if batching is None:
        batching = g.BatchingConfig("sequential", None if mode == "f_bptt" else 1)
    root = g.Rng(2024)
    model = g.init_model(root.substream("init"), 5, 1, "regression")
    opt = AdamwState(lr=1e-2, weight_decay=1e-4)
    data_rng = root.substream("data")
    store = g.NodeStateStore.zeros(cfg.num_nodes, model.m)
    rows = []
    for _ in range(EPOCHS):
        events = g.generate_epoch(cfg, data_rng)
        stats = g.train_epoch(events, model, opt, mode, batching, store=store)
        rows.append(repr((stats["mean_loss"], stats["grad_norm"])))
    return rows


def link_curve(tmp_path, mode, kind, batching=g.BatchingConfig("fixed_parallel", 16)):
    path = str(tmp_path / "stream.csv")
    write_synthetic_linkstream(path, num_events=120, num_users=15, num_items=6,
                               feat_dim=2, seed=3)
    dataset = load_jodie_csv(path)
    root = g.Rng(31)
    model = g.init_model(root.substream("init"), 4, dataset.feat_dim, "link_ranking")
    opt = AdamwState(lr=5e-3, weight_decay=1e-3)
    dropout_rng = root.substream("dropout")
    neg_rng = root.substream("negatives")
    state_dropout = g.StateDropout(0.2, kind, dropout_rng)
    store = g.NodeStateStore.zeros(dataset.num_nodes, model.m)
    rows = []
    for _ in range(EPOCHS):
        stats = g.train_epoch(
            dataset.events, model, opt, mode, batching,
            task="link_ranking", rng=neg_rng, neg_universe=dataset.destinations,
            state_dropout=state_dropout, mlp_dropout=0.15, dropout_rng=dropout_rng,
            store=store,
        )
        rows.append(repr((stats["mean_loss"], stats["grad_norm"])))
    return rows


@pytest.mark.parametrize("mode", ["f_bptt", "t_bptt"])
def test_synth_golden_bits(mode):
    assert synth_curve(mode) == GOLDEN[f"synth_{mode}"]


def test_synth_tbatch_truncated_golden_bits():
    # t_batch batches of a regression stream read each earlier-batch row at
    # most once, so summing a batch's one-hop tails per row moves no bit here
    curve = synth_curve("t_bptt", g.BatchingConfig("t_batch", None))
    assert curve == GOLDEN["synth_t_bptt_tbatch"]


def test_synth_sequential_truncated_golden_bits():
    # sequential batches of three events have several dependency levels, and
    # a window of batches is swept level by level across its batches
    curve = synth_curve("t_bptt", g.BatchingConfig("sequential", 3))
    assert curve == GOLDEN["synth_t_bptt_sequential3"]


@pytest.mark.parametrize("kind", ["regular", "recurrent"])
@pytest.mark.parametrize("mode", ["f_bptt", "t_bptt"])
def test_link_ranking_golden_bits(tmp_path, mode, kind):
    assert link_curve(tmp_path, mode, kind) == GOLDEN[f"link_{mode}_{kind}"]


@pytest.mark.parametrize("mode", ["f_bptt", "t_bptt"])
def test_link_ranking_tbatch_golden_bits(tmp_path, mode):
    # a second parallel strategy: conflict-free batches of varying size
    curve = link_curve(tmp_path, mode, "regular", g.BatchingConfig("t_batch", None))
    assert curve == GOLDEN[f"link_{mode}_tbatch"]


@pytest.mark.parametrize("kind", ["regular", "recurrent"])
def test_link_ranking_sequential_truncated_golden_bits(tmp_path, kind):
    # each window spans several sequential batches, and every batch draws
    # from all three streams: its negatives, then its state-dropout masks
    # (event, then role), then its head-dropout masks, with state and head
    # masks sharing one stream
    curve = link_curve(tmp_path, "t_bptt", kind, g.BatchingConfig("sequential", 5))
    assert curve == GOLDEN[f"link_t_bptt_sequential5_{kind}"]


def synth_gradient_digests(mode, batching):
    """Per epoch, the sha256 of every gradient buffer's name and bytes."""
    cfg = g.SyntheticConfig(memory=2, num_nodes=10, edges_per_epoch=20)
    root = g.Rng(1)
    model = g.init_model(root.substream("init"), 4, 1, "regression")
    opt = AdamwState(lr=1e-2, weight_decay=1e-4)
    data_rng = root.substream("data")
    store = g.NodeStateStore.zeros(cfg.num_nodes, model.m)
    digests = []
    for _ in range(2):
        events = g.generate_epoch(cfg, data_rng)
        stats = g.train_epoch(events, model, opt, mode, batching, store=store)
        sha = hashlib.sha256()
        for name, buf in stats["gradient"].items():
            sha.update(name.encode())
            sha.update(buf.tobytes())
        digests.append(sha.hexdigest())
    return digests


def test_synth_full_gradient_golden_bytes():
    # one spanning batch: 5 of the first epoch's 10 sweep levels hold one event
    digests = synth_gradient_digests("f_bptt", g.BatchingConfig("sequential", None))
    assert digests == GRADIENT_DIGESTS["synth_f_bptt_spanning"]


def test_synth_truncated_gradient_golden_bytes():
    digests = synth_gradient_digests("t_bptt", g.BatchingConfig("sequential", 7))
    assert digests == GRADIENT_DIGESTS["synth_t_bptt_sequential7"]
