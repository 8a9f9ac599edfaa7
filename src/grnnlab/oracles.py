"""Independent reference implementations used only for verification.

These deliberately re-derive the forward math in a separate, straight-line
style (and in a caller-chosen dtype, so finite differences can run in
extended precision where float64 roundoff would drown small gradient
coordinates). They share no code with the engine or cell modules beyond the
parameter values themselves.
"""

from __future__ import annotations

import numpy as np

from .events import Event


def _sig(v):
    out = np.empty_like(v)
    for i, x in enumerate(v):
        if x >= 0:
            out[i] = 1.0 / (1.0 + np.exp(-x))
        else:
            e = np.exp(x)
            out[i] = e / (1.0 + e)
    return out


def gru_forward_reference(weights: dict, h_prev, x_in, dtype=np.float64):
    """Scalar-by-scalar recomputation of one cell application.

    weights maps {wz, wr, wn, bz, br, bn} to arrays (any prefix stripped).
    """
    wz = np.asarray(weights["wz"], dtype=dtype)
    wr = np.asarray(weights["wr"], dtype=dtype)
    wn = np.asarray(weights["wn"], dtype=dtype)
    bz = np.asarray(weights["bz"], dtype=dtype)
    br = np.asarray(weights["br"], dtype=dtype)
    bn = np.asarray(weights["bn"], dtype=dtype)
    h = np.asarray(h_prev, dtype=dtype)
    x = np.asarray(x_in, dtype=dtype)
    m = h.shape[0]
    joint = np.concatenate((h, x))
    z = _sig(wz @ joint + bz)
    r = _sig(wr @ joint + br)
    gated = np.concatenate((r * h, x))
    n = np.tanh(wn @ gated + bn)
    out = np.empty(m, dtype=dtype)
    for i in range(m):
        out[i] = (1 - z[i]) * h[i] + z[i] * n[i]
    return out


def mlp_forward_reference(weights: dict, x, dtype=np.float64):
    w1 = np.asarray(weights["w1"], dtype=dtype)
    b1 = np.asarray(weights["b1"], dtype=dtype)
    w2 = np.asarray(weights["w2"], dtype=dtype)
    b2 = np.asarray(weights["b2"], dtype=dtype)
    hidden = w1 @ np.asarray(x, dtype=dtype) + b1
    hidden = np.where(hidden > 0, hidden, dtype(0.0))
    return w2 @ hidden + b2[0]


def _tbatch_indices(events: list[Event]) -> list[list[int]]:
    last: dict[int, int] = {}
    buckets: list[list[int]] = []
    for pos, ev in enumerate(events):
        b = max(last.get(ev.src, -1), last.get(ev.dst, -1)) + 1
        if b == len(buckets):
            buckets.append([])
        buckets[b].append(pos)
        last[ev.src] = b
        last[ev.dst] = b
    return buckets


def _reference_pass(params, events, num_nodes, m, strategy, batch_size, dtype, tails=None):
    """One straight-line forward over the epoch: (total loss, tails).

    tails[pos] holds, for the src and dst reads of event pos, the inputs
    (own pre-state, GRU input) of the update that produced the state read,
    when that update ran in an earlier batch, else None. Passing tails back
    in recomputes each such read from those fixed inputs under params.
    """
    params = {k.split(".", 1)[-1] if "." in k else k: v for k, v in params.items()}
    gru_w = {k: params[k] for k in ("wz", "wr", "wn", "bz", "br", "bn")}
    mlp_w = {k: params[k] for k in ("w1", "b1", "w2", "b2")}

    if strategy == "t_batch":
        groups = _tbatch_indices(events)
    elif batch_size is None:
        groups = [list(range(len(events)))]
    else:
        groups = [
            list(range(i, min(i + batch_size, len(events))))
            for i in range(0, len(events), batch_size)
        ]

    sequential = strategy == "sequential"
    states = np.zeros((num_nodes, m), dtype=dtype)
    made: dict[int, tuple] = {}  # node -> (batch, own pre-state, GRU input) of its last update
    read_tails: list = [None] * len(events)
    total = dtype(0.0)
    for b, group in enumerate(groups):
        # sequential batches read live states; parallel ones the batch start,
        # and apply only each node's last in-batch update
        read_states, read_made = (states, made) if sequential else (states.copy(), dict(made))
        last_of_node: dict[int, int] = {}
        for pos in group:
            last_of_node[events[pos].src] = pos
            last_of_node[events[pos].dst] = pos
        for pos in group:
            ev = events[pos]
            feats = np.asarray(ev.features, dtype=dtype)
            pre, read_tails[pos] = [], []
            for k, node in enumerate((ev.src, ev.dst)):
                prod = read_made.get(node)
                read_tails[pos].append(prod[1:] if prod is not None and prod[0] != b else None)
                if tails is not None and tails[pos][k] is not None:
                    pre.append(gru_forward_reference(gru_w, *tails[pos][k], dtype))
                else:
                    pre.append(read_states[node].copy())
            h_s, h_d = pre
            pred = mlp_forward_reference(mlp_w, np.concatenate((h_s, h_d, feats)), dtype)
            total = total + (pred - dtype(ev.y)) ** 2
            for node, h_own, h_other in ((ev.src, h_s, h_d), (ev.dst, h_d, h_s)):
                if sequential or last_of_node[node] == pos:
                    x_in = np.concatenate((h_other, feats))
                    states[node] = gru_forward_reference(gru_w, h_own, x_in, dtype)
                    made[node] = (b, h_own, x_in)
    return total, read_tails


def epoch_loss_reference(
    params: dict[str, np.ndarray],
    events: list[Event],
    num_nodes: int,
    m: int,
    strategy: str,
    batch_size: int | None,
    dtype=np.float64,
) -> float:
    """Total regression loss of an epoch, recomputed from first principles.

    Predictions read the states each event's batch semantics expose
    (live states when sequential, batch-start states otherwise); parallel
    batches apply only each node's last in-batch update.
    """
    return _reference_pass(params, events, num_nodes, m, strategy, batch_size, dtype)[0]


def truncated_loss_reference(
    params: dict[str, np.ndarray],
    params0: dict[str, np.ndarray],
    events: list[Event],
    num_nodes: int,
    m: int,
    strategy: str,
    batch_size: int | None,
    dtype=np.float64,
) -> float:
    """Epoch loss whose gradient at params0 is the one-hop truncated one.

    The forward reruns at params with one change: a state read across a
    batch boundary is recomputed as GRU_params(producer's own pre-state at
    params0, [counterparty pre-state at params0, features]), so it depends
    on the parameters only through the single update that produced it -
    the BPTT(h; h') family of Williams & Peng (1990), applied per node.
    """
    _, tails = _reference_pass(params0, events, num_nodes, m, strategy, batch_size, dtype)
    return _reference_pass(
        params, events, num_nodes, m, strategy, batch_size, dtype, tails
    )[0]
