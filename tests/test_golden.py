"""Golden bits: per-epoch (mean_loss, grad_norm) pinned across versions.

Every other equivalence test compares two code paths of the same version, so
a refactor that moves a floating-point summation changes both sides alike and
goes unnoticed. These values were recorded once and must not drift: a change
here means the training arithmetic changed, not just its structure. A repr
of the gradient norm can miss a moved gradient bit, so GRADIENT_DIGESTS
pins the bytes of every gradient buffer as well.

The bits also depend on the OpenBLAS kernels numpy runs (conftest), so the
tables are kept per OpenBLAS core and looked up by the core this run uses;
a core with no tables fails every golden, and every assertion names the
recorded cores and the running one. test_golden_cores.py runs this module
under the Haswell kernels, so one host checks both tables.
"""

import hashlib

import pytest

import grnnlab as g
from conftest import openblas_core
from grnnlab.adamw import AdamwState
from grnnlab.evalbench import load_jodie_csv, write_synthetic_linkstream

EPOCHS = 3


def core_note() -> str:
    return (f"goldens recorded under OpenBLAS cores {', '.join(TABLES)}; "
            f"this run uses {openblas_core()}")

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
    "link_f_bptt_regular": [
        "b88cdc4a9c291d637060db3d967d2db0b50eb2c877ed8ef271eadd36d8a6d799",
        "b613f0c44ca3d1488cf1b47bdf92038b4c3c98e872b11b91671ed2cf693117c8",
        "bc54e483fa80d9d125217bb1ceceff47ca68f33e382d86a8e5da68f923c54fa7",
    ],
    "link_t_bptt_regular": [
        "e4f0cc72dee7f05da4241e33a79954b4c0b43623a05454946f321ec9ac14592c",
        "400b60c8a68a2ba734db758122636e013feae8ea056028c1c11aa410ef461675",
        "9355819005f56e6bceb05855a14e06d867b19fff0a190e44fb8f42e62b2317d6",
    ],
    "link_f_bptt_recurrent": [
        "f70d15651bee3d79a37afe02486404d276a4417e3601209a3a0aa41a451789ac",
        "b3b5989596bb2b22e49d855998025593576becaa29c24ba9bf8308e96f231fe1",
        "b1c94f6258d1700a820f9930011d5b2238c3cdf77d21d4a8a7538ce7563b4401",
    ],
    "link_t_bptt_recurrent": [
        "47df090c59c9c5497d708c5841d75acb7d283b723cf2d93ebadaa5e4749ca3f1",
        "0b310d5f70123600b98d04cab7d6a7104ca0fee424dae94f42d63779f0246396",
        "25b0f7c0931c03ac78337c187d8774c42114b927443624e2ac909484f2dea42b",
    ],
    "link_f_bptt_tbatch": [
        "f7433630a3fe3a8980010a901cde5406235bc0de27604deebf04efead387f9b9",
        "1c6149d6e5620e54115771259a56adf7daef4ac7e68fc54d7509be897c51135e",
        "75f1100b66aed7dd6b3a89cff60cdb4d00a52244f894803b6221516254dcc343",
    ],
    "link_t_bptt_tbatch": [
        "32fe8a69e2acfa31d6e9f124949357e67a7982aa25e5d52414beed0974a68b1e",
        "c7153a84aaf5a94e2b444c4f2d2753027a48a9aa903a0fbda154b6eeddc45849",
        "84b465b886cf0fa4001a779ff4b23f7b0d167802d32feb154ed872b795ebfa05",
    ],
    "link_f_bptt_sequential5_regular": [
        "7529a6427121903db6e3e4e3cfa88b0e43367c49e3757acbef81a35864e83ccf",
        "32372a5573b497b154abeb83a9ab3fcad3d8fd4f2539b6a190cab5d2611adb2d",
        "d5db08c4feb3063fa97121bac2581d5d15e59b734b3302b65d6a56e8dbed59e8",
    ],
    "link_f_bptt_sequential5_recurrent": [
        "b0555a67bf4ba0ffc4a8071a6655ee90fb207841ca4d7498ed0dd570ded16d1e",
        "e07e293872bba2cbf8c709eb72e403a94ed2f02d176491cad3b03a1df5bdf23e",
        "7e0903971a36c377297656ad032e818e020b62780270cda12f2bc6921d96b731",
    ],
    "link_t_bptt_sequential5_regular": [
        "10ce83dc95744e992fde42c3f7e69683f1d2cc143661c5b6e6a7e00717fc8b20",
        "0e8998c63b75621c0792f74a5a8f9368d61cca507737a7a934d16c9adb184fde",
        "27709452372665e224f301e660c987036be6f77d84174cc4b0632d6a94293ace",
    ],
    "link_t_bptt_sequential5_recurrent": [
        "c107f3a692ed678b0d372be25ea222bcf8ce87a6755cab8443361d993098ba64",
        "b35afaa47021124062012c6a26195deb636bb2afc5c631e9f35868c7417ff1f4",
        "fac30a791ce78f52c387e8d002b1fdb905c0a806d139fbcba6b3c264d8ba0f6d",
    ],
    "link_f_bptt_spanning_regular": [
        "a4941644878de7c652d819ab71bef266fa46514b242e04270392f89a712047a4",
        "e70cff2af716d58f17bd39e230729249d1842d1f08adbf435e3ab5300d509fcd",
        "288be011085c4f0fe10a61e25644416857a8805fa4ed8192204ec34b8bb221f4",
    ],
    "link_f_bptt_spanning_recurrent": [
        "5ba1f66daea48c7fba9c9d1478fe1367baa437b5e281dea4c0108c809ced3154",
        "d77772884b1ba44a6ea1f66cb83ae0c43a89d5324f04df4b64251cbde382a59d",
        "89f9c8da94f6d6d31e08bc15575166603de756749ede4028e39b25e0d29cd44b",
    ],
    "link_t_bptt_spanning_regular": [
        "a4941644878de7c652d819ab71bef266fa46514b242e04270392f89a712047a4",
        "e70cff2af716d58f17bd39e230729249d1842d1f08adbf435e3ab5300d509fcd",
        "288be011085c4f0fe10a61e25644416857a8805fa4ed8192204ec34b8bb221f4",
    ],
    "link_t_bptt_spanning_recurrent": [
        "5ba1f66daea48c7fba9c9d1478fe1367baa437b5e281dea4c0108c809ced3154",
        "d77772884b1ba44a6ea1f66cb83ae0c43a89d5324f04df4b64251cbde382a59d",
        "89f9c8da94f6d6d31e08bc15575166603de756749ede4028e39b25e0d29cd44b",
    ],
}


def loss_and_norm(stats):
    return repr((stats["mean_loss"], stats["grad_norm"]))


def gradient_digest(stats):
    """The sha256 of every gradient buffer's name and bytes."""
    sha = hashlib.sha256()
    for name, buf in stats["gradient"].items():
        sha.update(name.encode())
        sha.update(buf.tobytes())
    return sha.hexdigest()


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
        rows.append(loss_and_norm(stats))
    return rows


def link_curve(tmp_path, mode, kind, batching=g.BatchingConfig("fixed_parallel", 16),
               row=loss_and_norm):
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
        rows.append(row(stats))
    return rows


@pytest.mark.parametrize("mode", ["f_bptt", "t_bptt"])
def test_synth_golden_bits(mode):
    assert synth_curve(mode) == recorded("golden", f"synth_{mode}"), core_note()


def test_synth_tbatch_truncated_golden_bits():
    # t_batch batches of a regression stream read each earlier-batch row at
    # most once, so summing a batch's one-hop tails per row moves no bit here
    curve = synth_curve("t_bptt", g.BatchingConfig("t_batch", None))
    assert curve == recorded("golden", "synth_t_bptt_tbatch"), core_note()


def test_synth_sequential_truncated_golden_bits():
    # sequential batches of three events have several dependency levels, and
    # a window of batches is swept level by level across its batches
    curve = synth_curve("t_bptt", g.BatchingConfig("sequential", 3))
    assert curve == recorded("golden", "synth_t_bptt_sequential3"), core_note()


@pytest.mark.parametrize("kind", ["regular", "recurrent"])
@pytest.mark.parametrize("mode", ["f_bptt", "t_bptt"])
def test_link_ranking_golden_bits(tmp_path, mode, kind):
    curve = link_curve(tmp_path, mode, kind)
    assert curve == recorded("golden", f"link_{mode}_{kind}"), core_note()


@pytest.mark.parametrize("mode", ["f_bptt", "t_bptt"])
def test_link_ranking_tbatch_golden_bits(tmp_path, mode):
    # a second parallel strategy: conflict-free batches of varying size
    curve = link_curve(tmp_path, mode, "regular", g.BatchingConfig("t_batch", None))
    assert curve == recorded("golden", f"link_{mode}_tbatch"), core_note()


@pytest.mark.parametrize("kind", ["regular", "recurrent"])
def test_link_ranking_sequential_truncated_golden_bits(tmp_path, kind):
    # each window spans several sequential batches, and every batch draws
    # from all three streams: its negatives, then its state-dropout masks
    # (event, then role), then its head-dropout masks, with state and head
    # masks sharing one stream
    curve = link_curve(tmp_path, "t_bptt", kind, g.BatchingConfig("sequential", 5))
    assert curve == recorded("golden", f"link_t_bptt_sequential5_{kind}"), core_note()


def synth_gradient_digests(mode, batching):
    """Per epoch, the gradient_digest."""
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
        digests.append(gradient_digest(stats))
    return digests


def test_synth_full_gradient_golden_bytes():
    # one spanning batch: 5 of the first epoch's 10 sweep levels hold one event
    digests = synth_gradient_digests("f_bptt", g.BatchingConfig("sequential", None))
    assert digests == recorded("gradients", "synth_f_bptt_spanning"), core_note()


def test_synth_truncated_gradient_golden_bytes():
    digests = synth_gradient_digests("t_bptt", g.BatchingConfig("sequential", 7))
    assert digests == recorded("gradients", "synth_t_bptt_sequential7"), core_note()


LINK_DIGEST_CASES = [
    ("link_f_bptt_regular", "f_bptt", "regular", g.BatchingConfig("fixed_parallel", 16)),
    ("link_t_bptt_regular", "t_bptt", "regular", g.BatchingConfig("fixed_parallel", 16)),
    ("link_f_bptt_recurrent", "f_bptt", "recurrent", g.BatchingConfig("fixed_parallel", 16)),
    ("link_t_bptt_recurrent", "t_bptt", "recurrent", g.BatchingConfig("fixed_parallel", 16)),
    ("link_f_bptt_tbatch", "f_bptt", "regular", g.BatchingConfig("t_batch", None)),
    ("link_t_bptt_tbatch", "t_bptt", "regular", g.BatchingConfig("t_batch", None)),
]


@pytest.mark.parametrize("name,mode,kind,batching", LINK_DIGEST_CASES,
                         ids=[case[0] for case in LINK_DIGEST_CASES])
def test_link_ranking_gradient_golden_bytes(tmp_path, name, mode, kind, batching):
    # the parallel strategies' gradients, byte for byte: the GOLDEN reprs of
    # the same runs can miss a moved gradient bit
    digests = link_curve(tmp_path, mode, kind, batching, row=gradient_digest)
    assert digests == recorded("gradients", name), core_note()


SEQUENTIAL_BATCHINGS = [("sequential5", g.BatchingConfig("sequential", 5)),
                        ("spanning", g.BatchingConfig("sequential", None))]
LINK_SEQUENTIAL_DIGEST_CASES = [
    (f"link_{mode}_{batch_name}_{kind}", mode, kind, batching)
    for batch_name, batching in SEQUENTIAL_BATCHINGS
    for mode in ("f_bptt", "t_bptt")
    for kind in ("regular", "recurrent")
]


@pytest.mark.parametrize("name,mode,kind,batching", LINK_SEQUENTIAL_DIGEST_CASES,
                         ids=[case[0] for case in LINK_SEQUENTIAL_DIGEST_CASES])
def test_link_ranking_sequential_gradient_golden_bytes(tmp_path, name, mode, kind, batching):
    # sequential batches with both state-dropout kinds and head dropout:
    # t_bptt forwards its windows as dependency levels, whose rows run out
    # of event order, and f_bptt forwards event by event
    digests = link_curve(tmp_path, mode, kind, batching, row=gradient_digest)
    assert digests == recorded("gradients", name), core_note()


FORWARD_DIGESTS = {
    "fixed_parallel_regular": "35140472811609c5664487a5f925ea92291a71fa5bf7bd4af15b84fb60f48950",
    "fixed_parallel_recurrent": "c1749c916814400a72abaa09bdcbcf188053c2adbd02f6de5dc3f944d3cfcf1c",
    "tbatch_regular": "db09b22c5ee73bcd548c0ee9378cbfbcc52bae1f62fd6e6bbd46631b6a020d8b",
    "tbatch_recurrent": "d58864e21c26ed233f1f654758612fb75c33bb21e90454d8a4de32d25caaeefa",
    "sequential5_regular": "c515d0345e55019a2a33fd9422cd26b416886c8dda6ea5ad0c4e650f06a30b1d",
    "sequential5_recurrent": "eed2d293fab6fb99d441a18917a4bdf57dede8cc8df42571fff9262932355cd8",
    "spanning_regular": "aa9bb4473ab667a115d891c8ab23908d9ca1b688332abf22c89a926d512ae9ff",
    "spanning_recurrent": "fbdbb431fae473ec1e966a96600ecbdeef30d61af633ffa302b0255cc67475fe",
}


# The same runs under OpenBLAS's Haswell (AVX2) kernels, recorded with
# OPENBLAS_CORETYPE=Haswell set on the recording process: the entries whose
# bits differ from SkylakeX's. Every gradient digest differs.
HASWELL_GOLDEN = {
    "link_f_bptt_tbatch": [
        "(1.3863046461524429, 1.9513545938575096)",
        "(1.3859545625811107, 1.0461612568332344)",
        "(1.3860113685400144, 1.7519302980162799)",
    ],
    "link_t_bptt_sequential5_regular": [
        "(1.3855576609329583, 1.4501674189234555)",
        "(1.386642484743415, 1.5317146651172502)",
        "(1.3860448478129972, 1.8623572179739818)",
    ],
}

HASWELL_GRADIENT_DIGESTS = {
    "synth_f_bptt_spanning": [
        "a503664ac1544744ef150c776498c7e5b726e0070f024073b1161169d5afcb08",
        "2814d9d994ee4cc9ebb9ca8c9057d96cd5f0ceb9dd6d663e38b7ff17d6f6b4eb",
    ],
    "synth_t_bptt_sequential7": [
        "d9373350e3340fed7cfef43d94a485a87cac5e1e44731a793c5e7edc0b015f7a",
        "57a59817ccba235afbce5d99bb585cf8929fc8a7f4d6a67353f6b32b100699bf",
    ],
    "link_f_bptt_regular": [
        "82b01cfe52826c4be33d243822b25015f9d2acf78d509279b22f02e532649d65",
        "1d0fc3e1b122a669f1314e29b66349c3fab510f5ce3d92840d9961947c938faa",
        "3a83a5f3a708c7328b2e1f514e7727b165833ae4890095aa2272d6d06b039f7a",
    ],
    "link_t_bptt_regular": [
        "99534668ede264ed3ede8d00d554afc1ffb08e031e84fde7cc1ed8c963bec236",
        "0843a025d32b5a242d2db6c8482b79a0bdbfc30edd1c9b28a0aee0936e43aeb7",
        "cc9e32b528efd8ab18f5b66465edbb7b097de1dc02968c932eed3d442bc6a3a0",
    ],
    "link_f_bptt_recurrent": [
        "c5bdad9f64517d8e8a6a84521f8644ccaf81465746150bbc7bb0f42685e56bcc",
        "6adf386e0b059a240f7d1e77a4d5d5bfd5728566e6f7c50b7ee3597121f6944d",
        "73b73ff387f3a1d942a2d6ad50e4d824965cfc4c4deea640cd27c55fa868b65a",
    ],
    "link_t_bptt_recurrent": [
        "861c23c83dcf363b8b7263e70836d69dc5c1145fcec793b61cf5fd34e4f8e792",
        "8ffc574c7465ec24b33833d1d51e1812075b8c1d66a6065be6dbde75dcd4e43d",
        "a21a55ccd67b44d3d976537d7cb4f10495395f28482af73a2d1c08d0b585c110",
    ],
    "link_f_bptt_tbatch": [
        "3997ea50df8bacef567bcdfe7c9bd6d5365be86f5d958696267491a88e5ebe7c",
        "d26f53b98684fc6e9dbf749facde3db3f7e7fb01f5c910a4ebf54da0b402c28c",
        "d800438d24bbb2a5d19de8dd9aac51dbe7057a532dec270ced82cbd49bc865ef",
    ],
    "link_t_bptt_tbatch": [
        "ef0c225380deee83dc6fc590bd1de09a927efebbf1ca7e9935720b2805e15a6d",
        "96dab3afa2753d13a113d2a66bd9c7924428f8f7dae5488dd06ab7ba0488ea1a",
        "ada9a5046032d2420af5ac8139b049edd1be8accf87cb35bfc0d57d451cb393e",
    ],
    "link_f_bptt_sequential5_regular": [
        "1f48270b5e86c18b31abad8da4515ed1c20d2d67cdcfe7a8e01955ffa426ae90",
        "6f408547cc640301d7704dfab4e9b0aa3b5658df6857d4321f56fd3221a30575",
        "0d4e628550a6490e66eec2f39f2888b3cd129ab52084b1e516e62a8ae4b0529c",
    ],
    "link_f_bptt_sequential5_recurrent": [
        "c86a218af5f722609716fa37fe46f86bf121287011b088b0a0a2407ddd47ff1d",
        "4ab0f487e50251497e050e5e377d0c9b5935598e73eb7ce2f56d677027866601",
        "6be64bb7e48bca86d5e7767e328481ed5325918b23bf388a4b81a6c008ea7a3a",
    ],
    "link_t_bptt_sequential5_regular": [
        "7067b7f29b285f3de94885200cc9d43f2551f3f223dfd7d9a1c7900ddfa0e8a8",
        "3f0c0a1a842f375bce58beff40d3912d6907c50ff2c1b9ee76196629018ed9c2",
        "dec84b546d2cf7c1882b221b1bf557ba877a90910a3c777d55db5123a6060913",
    ],
    "link_t_bptt_sequential5_recurrent": [
        "8857691dad3b3c1855b19db8ae61a77f8d118fb256e4a2c5035ddbdf5c1e6053",
        "750f48eecd364e5ef8d468ed30e18d2afede1f044cfe3fb66e48fbb6843a8a92",
        "011927c7836938031f5c70863f536838367d56341b4bb26e6cd3e60a8e160561",
    ],
    "link_f_bptt_spanning_regular": [
        "72caa61e9e118b9143fa5aa2aa98497ad8ef32b406fe4990f0864c6742b7c896",
        "ef85ac16919941497166c2c272153a808827da692b7c94c63fe95c12ec3d3302",
        "0dfe37d06c719ba616fcbfbe486cb6e7ad6ff94d0b0184ba12e930deee49fa24",
    ],
    "link_f_bptt_spanning_recurrent": [
        "28562db75dff779999842d35c483997ca56b80b004f5f7c291b566eccc76074e",
        "beb8782b4fffc3f052eb9536168d6e2b6ea6ed749bfa86f34938928eb0c5825d",
        "21ecf2f91e06261742c057af44fd4341dd6f8a714f86e1319387e65c469e17ba",
    ],
    "link_t_bptt_spanning_regular": [
        "72caa61e9e118b9143fa5aa2aa98497ad8ef32b406fe4990f0864c6742b7c896",
        "ef85ac16919941497166c2c272153a808827da692b7c94c63fe95c12ec3d3302",
        "0dfe37d06c719ba616fcbfbe486cb6e7ad6ff94d0b0184ba12e930deee49fa24",
    ],
    "link_t_bptt_spanning_recurrent": [
        "28562db75dff779999842d35c483997ca56b80b004f5f7c291b566eccc76074e",
        "beb8782b4fffc3f052eb9536168d6e2b6ea6ed749bfa86f34938928eb0c5825d",
        "21ecf2f91e06261742c057af44fd4341dd6f8a714f86e1319387e65c469e17ba",
    ],
}

HASWELL_FORWARD_DIGESTS = {
    "fixed_parallel_regular": "fa46452ae2a5fda90570e16f85de64384fc7ae1feac6e010fbf27d43a0656756",
    "tbatch_regular": "047eb3ded5d01a1b938e6e963d452a81bf2269e7a29e4620aa326d2bc5e74956",
    "sequential5_regular": "d9e5d8fb96e119c98da14158a0c0d5df78079386f141461a31140e0704de4fb1",
    "spanning_regular": "938cc083982a0eb590d84703bdbb8e911fd2dfe42c264d118dd8e135b1395451",
    "spanning_recurrent": "3429b726b1752f76e9fd7eea01753c32fa7cbec059aaf5cdc7f7475ce721132b",
}

# per OpenBLAS core, every table's values
TABLES = {
    "SkylakeX": {"golden": GOLDEN, "gradients": GRADIENT_DIGESTS, "forward": FORWARD_DIGESTS},
    "Haswell": {"golden": {**GOLDEN, **HASWELL_GOLDEN}, "gradients": HASWELL_GRADIENT_DIGESTS,
                "forward": {**FORWARD_DIGESTS, **HASWELL_FORWARD_DIGESTS}},
}


def recorded(table: str, name: str):
    """Entry name of table ("golden", "gradients" or "forward") as recorded
    under this run's OpenBLAS core, or None under a core with no tables."""
    tables = TABLES.get(openblas_core())
    return None if tables is None else tables[table][name]


def forward_digest(tmp_path, kind, batching):
    """The sha256 of what one recorded training forward_epoch leaves: its
    loss, the tape's arrays, the store and each rng's next draw. m = 8
    keeps the records free of alignment padding."""
    path = str(tmp_path / "stream.csv")
    write_synthetic_linkstream(path, num_events=120, num_users=15, num_items=6,
                               feat_dim=2, seed=3)
    dataset = load_jodie_csv(path)
    root = g.Rng(31)
    model = g.init_model(root.substream("init"), 8, dataset.feat_dim, "link_ranking")
    dropout_rng, neg_rng = root.substream("dropout"), root.substream("negatives")
    store = g.NodeStateStore.zeros(dataset.num_nodes, model.m)
    fw = g.forward_epoch(dataset.events, model, store, batching, task="link_ranking",
                         rng=neg_rng, neg_universe=dataset.destinations,
                         state_dropout=g.StateDropout(0.2, kind, dropout_rng),
                         mlp_dropout=0.15, dropout_rng=dropout_rng, training=True)
    sha = hashlib.sha256(repr(fw.total_loss).encode())
    for name in ("links", "records", "head_in", "head_grad", "head_mask"):
        sha.update(getattr(fw.tape, name).tobytes())
    sha.update(store.states.tobytes())
    sha.update(store.last_update_event.tobytes())
    sha.update(repr((neg_rng.next_u64(), dropout_rng.next_u64())).encode())
    return sha.hexdigest()


FORWARD_CASES = [
    ("fixed_parallel_regular", "regular", g.BatchingConfig("fixed_parallel", 16)),
    ("fixed_parallel_recurrent", "recurrent", g.BatchingConfig("fixed_parallel", 16)),
    ("tbatch_regular", "regular", g.BatchingConfig("t_batch", None)),
    ("tbatch_recurrent", "recurrent", g.BatchingConfig("t_batch", None)),
]


@pytest.mark.parametrize("name,kind,batching", FORWARD_CASES,
                         ids=[case[0] for case in FORWARD_CASES])
def test_parallel_forward_epoch_golden_bytes(tmp_path, name, kind, batching):
    # the recorded parallel forward perfbench's linkrank tape_forward runs:
    # batches of 16 repeat nodes, so some updates are dropped, and state
    # and head masks share one stream
    assert forward_digest(tmp_path, kind, batching) == recorded("forward", name), core_note()


SEQUENTIAL_FORWARD_CASES = [(f"{batch_name}_{kind}", kind, batching)
                            for batch_name, batching in SEQUENTIAL_BATCHINGS
                            for kind in ("regular", "recurrent")]


@pytest.mark.parametrize("name,kind,batching", SEQUENTIAL_FORWARD_CASES,
                         ids=[case[0] for case in SEQUENTIAL_FORWARD_CASES])
def test_sequential_forward_epoch_golden_bytes(tmp_path, name, kind, batching):
    # a recorded forward_epoch runs sequential batches as dependency levels,
    # out of event order, with every mask drawn in event order
    assert forward_digest(tmp_path, kind, batching) == recorded("forward", name), core_note()

