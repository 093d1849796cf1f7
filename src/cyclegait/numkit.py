"""Seeded, splittable randomness (RngStream), and read_header, the reader of
the JSON header line that starts every binary file of the package.

RngStream is the single source of randomness for the whole package; any draw
is addressable by (seed, stream id, block), which makes every experiment
bit-reproducible regardless of call-site ordering.
Draws come from one Philox per thread, reset to (key, counter) before each
draw, so no state carries from one draw to the next.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

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


_THREAD = threading.local()


def _thread_philox():
    """This thread's Philox, its Generator and the state dict that resets it.

    Built once per thread. The state dict's counter words 1-3 stay 0 and its
    buffer fields stay empty (buffer_pos 4, no buffered 32-bit half); draws
    write only the counter's first word and the key.
    """
    try:
        return _THREAD.philox
    except AttributeError:
        bit_gen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        _THREAD.philox = (bit_gen, np.random.Generator(bit_gen), bit_gen.state)
        return _THREAD.philox


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream id).

    Draw methods return (values, advanced_stream); the stream object itself is
    immutable, so sharing one across workers can never race. Each draw resets
    its thread's one Philox to key (seed, stream) and counter
    block * _DRAW_BLOCK, so no state carries from one draw to the next and
    threads never share a generator. Identical (seed, stream) always replays
    identical values; distinct stream ids are statistically independent (they
    select distinct Philox keys).
    """

    seed: int
    stream: int = 0
    block: int = 0

    def child(self, tag: int) -> "RngStream":
        """Derive an independent substream addressed by an integer tag."""
        mixed = _mix64(_mix64(self.stream + 0x9E3779B97F4A7C15) ^ _mix64(tag))
        return RngStream(self.seed, mixed, 0)

    def _generator(self) -> np.random.Generator:
        start = self.block * _DRAW_BLOCK
        if start > _MASK64:
            raise ValueError(f"draw block {self.block} is past the end of the stream")
        bit_gen, gen, state = _thread_philox()
        state["state"]["counter"][0] = start
        key = state["state"]["key"]
        key[0] = self.seed & _MASK64
        key[1] = self.stream & _MASK64
        bit_gen.state = state
        return gen

    def _advanced(self, n_values: int) -> "RngStream":
        blocks = 1 + n_values // _VALUES_PER_BLOCK
        return RngStream(self.seed, self.stream, self.block + blocks)

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



def read_header(fh, path, what: str, version: int, keys: dict) -> dict:
    """The JSON header line at fh's position, read past.

    A ValueError names path when the line is not a JSON object, when its
    format_version is not version (naming the file kind, what), or when it
    lacks one of keys or holds a value there that is not of the type keys
    maps it to (a bool is never a number); those messages name the key too.
    """
    try:
        header = json.loads(fh.readline().decode("utf-8"))
    except ValueError as err:
        raise ValueError(f"{path}: header line is not JSON ({err})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header line is not a JSON object")
    if header.get("format_version") != version:
        raise ValueError(f"unsupported {what} format in {path}")
    for key, kind in keys.items():
        if key not in header:
            raise ValueError(f"{path}: header lacks key {key!r}")
        value = header[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{path}: header key {key!r} holds a {type(value).__name__}")
    return header
