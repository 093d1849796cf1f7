"""Machine-speed calibration for the benchmark's time metrics.

On a shared machine the same work runs 20-40 % faster or slower from one
minute to the next, and process CPU time drifts with wall time. So the
benchmark also times a fixed calibration block between its measured steps.
The block mimics the program's mix: small-batch set-encoder arithmetic in
numpy and a JSON parse. It never calls cyclegait, so a change to the program
cannot move it. Each measured step is followed by 5 blocks, and its time is
reported multiplied by REFERENCE_S / (their median block time). It then
reads as if measured at the reference speed; a change to the program still
shows in full.

The blocks run right after the step, before its files are flushed: after an
idle wait the processor runs short bursts faster than sustained work.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy

# Median block time on the reference machine at its fastest (2 vCPUs, numpy 2.4.6,
# Python 3.11, one BLAS thread).
REFERENCE_S = 0.021
BLOCKS = 5

_RNG = numpy.random.default_rng(0)
_FRAMES = _RNG.random((32, 30, 16))
_W_IN = _RNG.random((64, 16))
_W_OUT = _RNG.random((32, 128))
_TEXT = json.dumps([_RNG.random((30, 16)).tolist() for _ in range(40)])


def _block_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(20):
        pre = _FRAMES @ _W_IN.T
        hidden = numpy.maximum(pre, 0.0)
        pooled = numpy.concatenate([hidden.max(axis=1), hidden.mean(axis=1)], axis=1)
        pooled @ _W_OUT.T
        numpy.einsum("bth,btd->hd", hidden * (pre > 0.0), _FRAMES)
    json.loads(_TEXT)
    return time.perf_counter() - t0


def speed_factor() -> float:
    """Multiply a time just measured by this to read it at the reference speed."""
    return REFERENCE_S / statistics.median(_block_seconds() for _ in range(BLOCKS))
