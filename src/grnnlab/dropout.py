"""Dropout variants for node states and MLP hiddens.

Two kinds:
  regular   - zero each element with probability `rate`, scale survivors by
              1/(1-rate) (inverted dropout).
  recurrent - each element keeps the *previous* state's value with
              probability `rate` instead of taking the newly computed one.
              No rescaling: the output mixes two valid states, so scaling
              would bias state magnitudes.

The kernels apply keep masks they are given (True: keep); the engine's
forward draws them.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def check_rate(rate: float, what: str) -> None:
    """A dropout rate must lie in [0, 1): NaN or a negative rate would train
    without dropout, and 1 divides by zero when survivors are rescaled."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"{what} rate {rate} out of [0, 1)")


def regular_dropout(vec: np.ndarray, keep: np.ndarray, rate: float) -> np.ndarray:
    """vec where the keep mask (vec's shape) keeps, scaled by 1/(1-rate),
    and 0 where it drops."""
    return vec * keep / (1.0 - rate)


def recurrent_mix(new: np.ndarray, prev: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Elementwise: new where the keep mask keeps, prev where it drops."""
    return np.where(keep, new, prev)
