"""Counter-based deterministic random numbers.

Every draw mixes ``seed + counter * GOLDEN`` through the splitmix64 finalizer,
so a given (seed, call sequence) pair produces the same stream on every
platform and process. Constants are the published splitmix64 values:

    GOLDEN = 0x9E3779B97F4A7C15   (2^64 / golden ratio, the increment)
    MIX1   = 0xBF58476D1CE4E5B9
    MIX2   = 0x94D049BB133111EB

Uniforms take the top 53 bits of the mixed word; Gaussians use Box-Muller on
consecutive counter values (one fresh pair per value, nothing cached across
calls, so the stream position is always ``counter``).
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

_TWO53_INV = 2.0 ** -53


def mix64(x):
    """splitmix64 finalizer: avalanche a 64-bit word (an int or a uint64 array)."""
    x = x & MASK64  # not in place: an array argument stays unchanged
    x = ((x ^ (x >> 30)) * MIX1) & MASK64
    x = ((x ^ (x >> 27)) * MIX2) & MASK64
    return x ^ (x >> 31)


class Rng:
    """Seeded counter stream. Not thread-safe; use one per context."""

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self.counter = 0

    def next_u64(self) -> int:
        self.counter += 1
        return mix64((self.seed + self.counter * GOLDEN) & MASK64)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * _TWO53_INV  # in [0, 1)
        return lo + (hi - lo) * u

    def normal(self) -> float:
        """One standard-normal draw; consumes exactly two counter steps."""
        u1 = 1.0 - (self.next_u64() >> 11) * _TWO53_INV  # in (0, 1]
        u2 = (self.next_u64() >> 11) * _TWO53_INV
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int) -> list[float]:
        """`n` draws, bit for bit those of `n` calls to `normal`: one `_words` call, then
        `math`'s log and cos per value, since numpy's differ from them in the last bit."""
        u = self._words(2 * n).tolist()
        return [math.sqrt(-2.0 * math.log(1.0 - a)) * math.cos(2.0 * math.pi * b) for a, b in zip(u[0::2], u[1::2])]

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """`n` draws as a float64 array, bit for bit those of `n` calls to `uniform`."""
        return lo + (hi - lo) * self._words(n)

    def _words(self, n: int) -> np.ndarray:
        """The next `n` counter words as float64 in [0, 1), as `uniform` maps them.

        uint64 arithmetic wraps, which is the ``& MASK64`` of the scalar path.
        """
        if n < 0:
            raise ValueError(f"cannot draw {n} values; a negative count would rewind the counter")
        steps = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        words = mix64(np.uint64(self.seed) + steps * np.uint64(GOLDEN))
        return (words >> 11).astype(np.float64) * _TWO53_INV

    def randint(self, n: int) -> int:
        """Integer in [0, n). Modulo bias is < 2^-50 for desk-scale n."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def child(self, key: int | str) -> "Rng":
        """Independent substream keyed by an integer or string label."""
        if isinstance(key, str):
            from ..hashutil import fnv1a64

            key = fnv1a64(key)
        return Rng(mix64(self.seed ^ mix64((key * GOLDEN) & MASK64)))
