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

from .rng import Rng


def regular_dropout(vec: np.ndarray, rate: float, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    mask = rng.keep_mask(vec.size, rate)
    return vec * mask / (1.0 - rate), mask


def recurrent_mix(
    new: np.ndarray, prev: np.ndarray, rate: float, rng: Rng
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise: prev where the mask drops, new where it keeps."""
    keep = rng.keep_mask(new.size, rate)
    return np.where(keep, new, prev), keep
