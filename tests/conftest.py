import weakref

import numpy as np
import pytest

from cyclegait.setnet import ModelParams, forward_batch


def central_difference(loss_fn, params: ModelParams, index: int, step: float = 1e-5) -> float:
    """Independent finite-difference oracle for d(loss)/d(params[index])."""
    plus = params.copy()
    plus.flat[index] += step
    minus = params.copy()
    minus.flat[index] -= step
    return (loss_fn(plus) - loss_fn(minus)) / (2.0 * step)


def assert_grad_close(analytic: float, numeric: float, rel: float = 1e-4, floor: float = 1e-8):
    err = abs(analytic - numeric)
    scale = max(abs(analytic), abs(numeric))
    assert err <= max(rel * scale, floor), (
        f"gradient mismatch: analytic={analytic:.10g} numeric={numeric:.10g} "
        f"abs_err={err:.3g}"
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


def record_dropped_caches(monkeypatch, module):
    """Patch module.forward_batch to check, on every call, that no cache an
    earlier call returned is still alive; returns the list of weak refs."""
    refs = []

    def forward_then_check(frame_sets, params):
        alive = sum(ref() is not None for ref in refs)
        assert alive == 0, f"{alive} earlier forward cache(s) still alive"
        z, p, cache = forward_batch(frame_sets, params)
        refs.append(weakref.ref(cache))
        return z, p, cache

    monkeypatch.setattr(module, "forward_batch", forward_then_check)
    return refs
