"""Deterministic dense numeric primitives and seeded, splittable randomness.

Everything here is 64-bit float and pure: functions return new values and
never mutate their inputs. RngStream is the single source of randomness for
the whole package; any draw is addressable by (seed, stream id, block), which
makes every experiment bit-reproducible regardless of call-site ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_MASK64 = (1 << 64) - 1

# Counter gap between consecutive draw calls on one stream. A single call may
# consume at most ~4 raw 64-bit outputs per requested value (worst case for
# rejection sampling), so one block per 2**18 values keeps calls disjoint.
_DRAW_BLOCK = 1 << 20
_VALUES_PER_BLOCK = 1 << 18


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: full-avalanche 64-bit integer hash."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream id).

    Draw methods return (values, advanced_stream); the stream object itself is
    immutable, so sharing one across workers can never race. Identical
    (seed, stream) always replays identical values; distinct stream ids are
    statistically independent (they select distinct Philox keys).
    """

    seed: int
    stream: int = 0
    block: int = 0

    def child(self, tag: int) -> "RngStream":
        """Derive an independent substream addressed by an integer tag."""
        mixed = _mix64(_mix64(self.stream + 0x9E3779B97F4A7C15) ^ _mix64(tag))
        return RngStream(self.seed, mixed, 0)

    def _generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        bg = np.random.Philox(key=key)
        bg.advance(self.block * _DRAW_BLOCK)
        return np.random.Generator(bg)

    def _advanced(self, n_values: int) -> "RngStream":
        blocks = 1 + n_values // _VALUES_PER_BLOCK
        return replace(self, block=self.block + blocks)

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0):
        vals = self._generator().uniform(low, high, size=n)
        return vals, self._advanced(n)

    def normal(self, n: int, sigma: float = 1.0):
        vals = self._generator().normal(0.0, sigma, size=n)
        return vals, self._advanced(n)

    def integers(self, n: int, low: int, high: int):
        """n integers uniform on [low, high)."""
        vals = self._generator().integers(low, high, size=n)
        return vals, self._advanced(n)

    def permutation(self, n: int):
        vals = self._generator().permutation(n)
        return vals, self._advanced(n)

    def choice(self, n: int, size: int, replace_: bool = False):
        """size indices chosen from range(n), without replacement by default."""
        vals = self._generator().choice(n, size=size, replace=replace_)
        return vals, self._advanced(n + size)

    def key_pair(self):
        """Two fresh 64-bit words, e.g. to seed a detached transformation."""
        vals = self._generator().integers(0, 1 << 63, size=2)
        return (int(vals[0]), int(vals[1])), self._advanced(2)


def as_vec(values) -> np.ndarray:
    """Coerce to a 1-D float64 vector without copying when already one."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def softmax(logits) -> np.ndarray:
    """Max-shifted softmax over a logit vector.

    Output entries are nonnegative and sum to 1 within 1e-12 for any finite
    input; adding a constant to all logits does not change the result.
    """
    v = as_vec(logits)
    if v.size == 0:
        raise ValueError("softmax of an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("softmax input must be finite")
    shifted = v - v.max()
    e = np.exp(shifted)
    return e / e.sum()
