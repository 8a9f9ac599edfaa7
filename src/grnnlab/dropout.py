"""Dropout variants for node states and MLP hiddens.

Two kinds:
  regular   - zero each element with probability `rate`, scale survivors by
              1/(1-rate) (inverted dropout).
  recurrent - each element keeps the *previous* state's value with
              probability `rate` instead of taking the newly computed one.
              No rescaling: the output mixes two valid states, so scaling
              would bias state magnitudes.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .rng import Rng


def check_rate(rate: float, what: str) -> None:
    """A dropout rate must lie in [0, 1): NaN or a negative rate would train
    without dropout, and 1 divides by zero when survivors are rescaled."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"{what} rate {rate} out of [0, 1)")


def regular_dropout(vec: np.ndarray, rate: float, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """vec of any shape; its mask is drawn in row-major order, so one (k, m)
    call draws what k (m,) calls draw, row after row."""
    check_rate(rate, "regular dropout")
    mask = rng.keep_mask(vec.size, rate).reshape(vec.shape)
    return vec * mask / (1.0 - rate), mask


def recurrent_mix(
    new: np.ndarray, prev: np.ndarray, rate: float, rng: Rng
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise: prev where the mask drops, new where it keeps. Any
    shape; the mask is drawn as in regular_dropout."""
    keep = rng.keep_mask(new.size, rate).reshape(new.shape)
    return np.where(keep, new, prev), keep
