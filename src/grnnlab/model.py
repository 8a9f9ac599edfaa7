"""Model bundle: per-event GRU state updates plus an MLP prediction head.

One GRU cell serves both endpoint updates of an event (source and
destination share its parameters), so F-BPTT and T-BPTT train the same
parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .gru import GruParameters, init_gru_parameters
from .mlp import MlpParameters, init_mlp_parameters
from .rng import Rng

TASKS = ("regression", "link_ranking")


def mlp_input_dim(task: str, m: int, feat_dim: int) -> int:
    """Regression reads both pre-update states plus the edge features;
    link ranking reads the two states only (nothing about the edge itself)."""
    if task == "regression":
        return 2 * m + feat_dim
    if task == "link_ranking":
        return 2 * m
    raise ConfigError(f"unknown task {task!r}")


@dataclass
class GrnnModel:
    gru: GruParameters
    mlp: MlpParameters
    m: int
    feat_dim: int
    task: str

    def named_params(self) -> dict[str, np.ndarray]:
        return {**self.gru.named("gru."), **self.mlp.named("mlp.")}

    def copy(self) -> "GrnnModel":
        gp = self.gru
        return GrnnModel(
            gru=GruParameters(*(a.copy() for a in (gp.wz, gp.wr, gp.wn, gp.bz, gp.br, gp.bn))),
            mlp=MlpParameters(
                self.mlp.w1.copy(), self.mlp.b1.copy(), self.mlp.w2.copy(), self.mlp.b2.copy()
            ),
            m=self.m,
            feat_dim=self.feat_dim,
            task=self.task,
        )


def init_model(rng: Rng, m: int, feat_dim: int, task: str) -> GrnnModel:
    """Fresh model; the GRU input is concat(counterparty state, edge features)."""
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    d_in = m + feat_dim
    gru = init_gru_parameters(rng, m, d_in)
    mlp = init_mlp_parameters(rng, mlp_input_dim(task, m, feat_dim), m)
    return GrnnModel(gru=gru, mlp=mlp, m=m, feat_dim=feat_dim, task=task)
