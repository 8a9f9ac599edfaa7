"""Portable seeded randomness.

The generator is SplitMix64 (Steele, Lea & Flood's 64-bit mixer with a
Weyl-sequence counter): pure integer arithmetic, so identical seeds give
bit-identical streams on every platform and Python build. Outputs are
generated in blocks of numpy uint64 (whose arithmetic wraps like the masked
Python form) and handed out in order, so scalar and array draws read one
sequential stream. Normal variates use Box-Muller on top of the raw uniforms.

Substreams for distinct purposes (parameter init, data generation, dropout
masks, negative sampling, hyperparameter search) are derived from the root
seed via fixed offsets, so advancing one stream never perturbs another.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 4096  # outputs generated per refill
# counter increments 1..BLOCK times the Weyl constant, wrapped to 64 bits
_BLOCK_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)

# Fixed substream offsets. Adding entries is fine; changing existing ones
# breaks reproducibility of stored results.
SUBSTREAMS = {
    "init": 1,
    "data": 2,
    "dropout": 3,
    "negatives": 4,
    "search": 5,
    "eval": 6,
}


def _mix64(z: int) -> int:
    """SplitMix64 output mixer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """_mix64 over a uint64 array, in place; array products wrap silently."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class Rng:
    """SplitMix64 stream with the distribution helpers the lab needs."""

    __slots__ = ("seed", "_state", "_buf", "_pos", "_gauss")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed  # counter of the last output generated
        self._buf = np.empty(0, dtype=np.uint64)  # last generated block
        self._pos = 0  # index in _buf of the next output to hand out
        self._gauss: float | None = None  # spare Box-Muller variate

    def substream(self, purpose: str | int) -> "Rng":
        """Independent stream derived from the root seed and a fixed offset."""
        offset = SUBSTREAMS[purpose] if isinstance(purpose, str) else int(purpose)
        return Rng(_mix64((self.seed + offset * _GOLDEN) & _MASK64))

    def _refill(self) -> None:
        self._buf = _mix64_array(_BLOCK_STEPS + np.uint64(self._state))
        self._state = (self._state + _BLOCK * _GOLDEN) & _MASK64
        self._pos = 0

    def _take(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array."""
        end = self._pos + n
        if end <= len(self._buf):
            self._pos = end
            return self._buf[end - n:end]
        parts = [self._buf[self._pos:]]
        n = end - len(self._buf)
        while n > 0:
            self._refill()
            self._pos = min(n, _BLOCK)
            parts.append(self._buf[:self._pos])
            n -= self._pos
        return np.concatenate(parts)

    def next_u64(self) -> int:
        if self._pos == len(self._buf):
            self._refill()
        self._pos += 1
        return int(self._buf[self._pos - 1])

    def u01(self) -> float:
        """Uniform in [0, 1), 53-bit resolution."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def u01_array(self, n: int) -> np.ndarray:
        """n draws of u01, in stream order."""
        return (self._take(n) >> np.uint64(11)).astype(np.float64) * (2.0**-53)

    def _u01_positive(self) -> float:
        """Uniform in (0, 1]; safe as a log argument."""
        return ((self.next_u64() >> 11) + 1) * (2.0**-53)

    def uniform(self, a: float, b: float) -> float:
        if a > b:
            raise ParameterError(f"uniform: need a <= b, got [{a}, {b}]")
        return a + (b - a) * self.u01()

    def log_uniform(self, a: float, b: float) -> float:
        """Uniform in log-space over [a, b]; requires 0 < a < b."""
        if a <= 0 or a >= b:
            raise ParameterError(f"log_uniform: need 0 < a < b, got [{a}, {b}]")
        return math.exp(self.uniform(math.log(a), math.log(b)))

    def standard_normal(self) -> float:
        """N(0, 1) via Box-Muller; generates pairs, caches the spare."""
        if self._gauss is not None:
            g, self._gauss = self._gauss, None
            return g
        u1 = self._u01_positive()
        u2 = self.u01()
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._gauss = radius * math.sin(theta)
        return radius * math.cos(theta)

    def bernoulli(self, p: float) -> bool:
        if not 0.0 <= p <= 1.0:
            raise ParameterError(f"bernoulli: need 0 <= p <= 1, got {p}")
        return self.u01() < p

    def keep_mask(self, n: int, rate: float) -> np.ndarray:
        """Boolean mask of n draws, each False with probability rate; element
        i equals not bernoulli(rate) on the same draw."""
        if not 0.0 <= rate <= 1.0:
            raise ParameterError(f"keep_mask: need 0 <= rate <= 1, got {rate}")
        return self.u01_array(n) >= rate

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). Multiply-shift reduction of one u64."""
        if n <= 0:
            raise ParameterError(f"randrange: need n >= 1, got {n}")
        return (self.next_u64() * n) >> 64

    def randranges(self, n: int, count: int) -> list[int]:
        """count draws of randrange(n), in stream order, from one block: the
        high 64 bits of each u64 * n product, exact in Python ints."""
        if n <= 0:
            raise ParameterError(f"randrange: need n >= 1, got {n}")
        return [(x * n) >> 64 for x in self._take(count).tolist()]

