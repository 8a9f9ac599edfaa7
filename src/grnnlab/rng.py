"""Portable seeded randomness.

The generator is SplitMix64 (Steele, Lea & Flood's 64-bit mixer with a
Weyl-sequence counter): pure integer arithmetic, so identical seeds give
bit-identical streams on every platform and Python build. Normal variates
use Box-Muller on top of the raw uniforms.

Substreams for distinct purposes (parameter init, data generation, dropout
masks, negative sampling, hyperparameter search) are derived from the root
seed via fixed offsets, so advancing one stream never perturbs another.
"""

from __future__ import annotations

import math

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

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


class Rng:
    """SplitMix64 stream with the distribution helpers the lab needs."""

    __slots__ = ("seed", "_state", "_gauss")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed
        self._gauss: float | None = None  # spare Box-Muller variate

    def substream(self, purpose: str | int) -> "Rng":
        """Independent stream derived from the root seed and a fixed offset."""
        offset = SUBSTREAMS[purpose] if isinstance(purpose, str) else int(purpose)
        return Rng(_mix64((self.seed + offset * _GOLDEN) & _MASK64))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def u01(self) -> float:
        """Uniform in [0, 1), 53-bit resolution."""
        return (self.next_u64() >> 11) * (2.0**-53)

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

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n). Multiply-shift reduction of one u64."""
        if n <= 0:
            raise ParameterError(f"randrange: need n >= 1, got {n}")
        return (self.next_u64() * n) >> 64

    def choice(self, items):
        return items[self.randrange(len(items))]
