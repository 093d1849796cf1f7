import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclegait import numkit
from cyclegait.numkit import _DRAW_BLOCK, _VALUES_PER_BLOCK, RngStream
from reference import entropy, fresh_generator, philox_generator, softmax


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_shift_invariance_constant_vector(self):
        for c in (-1e6, -3.2, 0.0, 7.5, 1e6):
            assert np.allclose(softmax([c] * 4), [0.25] * 4, atol=1e-15)

    def test_frozen_value(self):
        # oracle: direct high-precision evaluation of exp / sum
        expected = np.exp([1.0, 2.0, 3.0])
        expected /= expected.sum()
        got = softmax([1.0, 2.0, 3.0])
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(got, [0.090031, 0.244728, 0.665241], atol=1e-5)

    def test_sums_to_one_and_nonnegative(self):
        v = np.array([100.0, -50.0, 3.0, 700.0])
        p = softmax(v)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            softmax([1.0, np.inf])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=12),
           st.floats(-50, 50))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance_property(self, logits, shift):
        base = softmax(logits)
        shifted = softmax(np.asarray(logits) + shift)
        assert np.max(np.abs(base - shifted)) < 1e-12


class TestEntropy:
    def test_one_hot(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_uniform_is_log_c(self):
        for c in (2, 3, 7, 41):
            assert abs(entropy([1.0 / c] * c) - math.log(c)) < 1e-12

    def test_frozen_value(self):
        # oracle: direct evaluation of -sum p ln p
        expected = -(0.8 * math.log(0.8) + 0.2 * math.log(0.2))
        assert abs(entropy([0.8, 0.2]) - expected) < 1e-12
        assert abs(entropy([0.8, 0.2]) - 0.500402) < 1e-5

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            entropy([1.2, -0.2])

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.6])

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_entropy_of_softmax_bounded(self, logits):
        assert entropy(softmax(logits)) <= math.log(len(logits)) + 1e-12


class TestRngStream:
    def test_replay_first_10000(self):
        a, _ = RngStream(99, 5).uniform(10_000)
        b, _ = RngStream(99, 5).uniform(10_000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a, _ = RngStream(99, 5).uniform(1000)
        b, _ = RngStream(99, 6).uniform(1000)
        assert not np.array_equal(a, b)
        # crude independence: low correlation
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_draws_advance(self):
        s = RngStream(1, 2)
        a, s2 = s.normal(100)
        b, _ = s2.normal(100)
        assert not np.array_equal(a, b)

    def test_immutability(self):
        s = RngStream(1, 2)
        s.uniform(10)
        a, _ = s.uniform(10)
        b, _ = s.uniform(10)
        assert np.array_equal(a, b)  # drawing never mutates the stream object

    def test_children_independent(self):
        s = RngStream(3)
        a, _ = s.child(1).uniform(500)
        b, _ = s.child(2).uniform(500)
        assert not np.array_equal(a, b)

    def test_choice_without_replacement(self):
        vals, _ = RngStream(4).choice(10, 10)
        assert sorted(vals.tolist()) == list(range(10))

    def test_large_draw_does_not_collide_with_next(self):
        s = RngStream(5)
        big, s2 = s.uniform(400_000)
        nxt, _ = s2.uniform(100)
        # the follow-up draw must not replay any tail of the big draw
        assert not np.array_equal(big[-100:], nxt)

    @pytest.mark.parametrize("block", [0, 1, 37, 2**64 // _DRAW_BLOCK - 1])
    def test_counter_start_matches_advanced_generator(self, block):
        # each draw method reads a generator whose Philox counter starts at
        # block * _DRAW_BLOCK; the oracle advances a fresh Philox that far
        s = RngStream(7, 2**63 + 5, block)
        draws = {
            "uniform": (lambda g: g.uniform(-1.0, 2.0, size=50), s.uniform(50, -1.0, 2.0)),
            "normal": (lambda g: g.normal(0.0, 0.3, size=50), s.normal(50, 0.3)),
            "integers": (lambda g: g.integers(3, 90, size=50), s.integers(50, 3, 90)),
            "permutation": (lambda g: g.permutation(40), s.permutation(40)),
            "choice": (lambda g: g.choice(40, size=9, replace=False), s.choice(40, 9)),
            "key_pair": (lambda g: tuple(int(v) for v in g.integers(0, 1 << 63, size=2)),
                         s.key_pair()),
        }
        for name, (oracle, (values, after)) in draws.items():
            expected = oracle(philox_generator(s, _DRAW_BLOCK))
            assert np.array_equal(values, expected), name
            assert after.block > s.block, name

    def test_block_past_the_counter_range_rejected(self):
        RngStream(1, 3).normal(5)
        with pytest.raises(ValueError, match="past the end"):
            RngStream(1, 0, 2**64 // _DRAW_BLOCK).uniform(1)
        # the error is raised before the thread's generator is touched
        s = RngStream(1, 3, 2**64 // _DRAW_BLOCK - 1)
        assert np.array_equal(s.permutation(30)[0], fresh_generator(s).permutation(30))


LAST_BLOCK = 2**64 // _DRAW_BLOCK - 1

# what a test draws from a yield of RngStream.generators, as generator -> values
GENERATOR_DRAWS = {
    "standard_normal": lambda g: g.standard_normal(50),
    "normal": lambda g: g.normal(0.0, 0.3, size=50),
    "integers": lambda g: g.integers(3, 90, size=51),
    "uniform": lambda g: g.uniform(-1.0, 2.0, size=50),
}


def _philox_words(bit_gen):
    """Every word of a Philox's state, as plain lists and ints."""
    state = bit_gen.state
    return ({k: v.tolist() for k, v in state["state"].items()}, state["buffer"].tolist(),
            state["buffer_pos"], state["has_uint32"], state["uinteger"])


class TestGenerators:
    """RngStream.generators yields the thread's Generator once per draw of a
    chain, reset to that draw's (key, counter)."""

    @pytest.mark.parametrize("block", [0, 1, 37, LAST_BLOCK])
    @pytest.mark.parametrize("sid", [0, 5, 2**63 + 5])
    def test_each_yield_matches_fresh_generator(self, block, sid):
        stream = RngStream(7, sid, block)
        for name, draw in GENERATOR_DRAWS.items():
            (gen,) = stream.generators([50])
            assert np.array_equal(draw(gen), draw(fresh_generator(stream))), name

    @pytest.mark.parametrize("block", [0, 1, 37])
    def test_chain_matches_the_draw_methods(self, block):
        # a draw of 2**18 values spans two blocks, so the third yield is two past
        # the second; each yield reads what the chain's draw call returns
        sizes = [5, _VALUES_PER_BLOCK, 3, 1]
        stream, expected = RngStream(7, 9, block), []
        for n in sizes:
            values, stream = stream.normal(n, 0.3)
            expected.append(values)
        for n, gen, want in zip(sizes, RngStream(7, 9, block).generators(sizes), expected):
            got = gen.standard_normal(n)
            got *= 0.3
            got += 0.0
            assert got.tobytes() == want.tobytes()

    def test_block_past_the_counter_range_raises_before_the_generator_is_touched(self):
        gens = RngStream(1, 3, LAST_BLOCK).generators([4, 4])
        gen = next(gens)
        gen.integers(0, 3, size=3, dtype=np.uint32)  # leaves a buffered 32-bit half
        words = _philox_words(gen.bit_generator)
        with pytest.raises(ValueError, match="past the end"):
            next(gens)
        assert _philox_words(gen.bit_generator) == words
        with pytest.raises(ValueError, match="past the end"):
            next(RngStream(1, 0, LAST_BLOCK + 1).generators([1]))
        assert _philox_words(gen.bit_generator) == words

    def test_draws_between_yields_do_not_leak_into_the_next(self):
        # between two yields of one chain: a draw method on another stream and
        # a yield of another chain, each leaving the generator mid-buffer
        a, b, c = RngStream(9, 1), RngStream(9, 2, 4), RngStream(9, 3)
        chain_a, chain_c = a.generators([7, 7, 7]), c.generators([5, 5])
        got = []
        for k in range(2):
            got.append(next(chain_a).integers(0, 3, size=7, dtype=np.uint32))
            b.integers(5, 0, 3)
            got.append(next(chain_c).integers(0, 3, size=5, dtype=np.uint32))
        got.append(next(chain_a).integers(0, 3, size=7, dtype=np.uint32))
        expected = [fresh_generator(RngStream(seed, sid, blk)).integers(0, 3, size=n,
                                                                        dtype=np.uint32)
                    for seed, sid, blk, n in ((9, 1, 0, 7), (9, 3, 0, 5), (9, 1, 1, 7),
                                              (9, 3, 1, 5), (9, 1, 2, 7))]
        for values, want in zip(got, expected, strict=True):
            assert np.array_equal(values, want)

    def test_nothing_is_reset_before_a_yield_is_taken(self):
        gens = RngStream(1, 0, LAST_BLOCK + 1).generators([1])
        with pytest.raises(ValueError, match="past the end"):
            next(gens)


# Every draw method as (stream, size) -> result, with sizes that leave the
# generator mid-buffer: odd counts of 32-bit integers keep a buffered half.
DRAWS = {
    "uniform": lambda s, n: s.uniform(n, -1.0, 2.0),
    "normal": lambda s, n: s.normal(n, 0.3),
    "integers": lambda s, n: s.integers(n, 0, 3),
    "permutation": lambda s, n: s.permutation(n),
    "choice": lambda s, n: s.choice(n + 5, 5),
    "key_pair": lambda s, n: s.key_pair(),
}


def _run_draws(plan):
    return [DRAWS[name](stream, n) for stream, name, n in plan]


def _draw_in_threads(plans, run=_run_draws):
    """Run each plan in its own thread; the results in plan order."""
    results = [None] * len(plans)

    def work(i):
        results[i] = run(plans[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(plans))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None for r in results)
    return results


def _assert_same_draws(plan, got, expected):
    for (stream, name, n), (values, after), (want, want_after) in zip(plan, got, expected):
        assert np.array_equal(values, want), (stream, name, n)
        assert after == want_after, (stream, name, n)


class TestThreadPhilox:
    """One Philox per thread serves every draw; each draw must read exactly
    what a freshly constructed generator gives (reference.fresh_generator)."""

    @pytest.mark.parametrize("block", [0, 1, 37, 2**64 // _DRAW_BLOCK - 1])
    def test_interleaved_draws_match_fresh_generator(self, block, monkeypatch):
        streams = [RngStream(7, sid, block) for sid in (0, 5, 2**63 + 5, 2**64 - 1)]
        streams.append(RngStream(-3, 11, block))
        names = sorted(DRAWS)
        pick = np.random.default_rng(block % 1009)
        plan = [
            (streams[int(pick.integers(len(streams)))], names[int(pick.integers(len(names)))],
             int(pick.integers(1, 40)))
            for _ in range(300)
        ]
        got = _run_draws(plan)
        monkeypatch.setattr(RngStream, "_generator", fresh_generator)
        _assert_same_draws(plan, got, _run_draws(plan))

    def test_buffered_half_does_not_leak_into_the_next_draw(self, monkeypatch):
        a, b = RngStream(9, 1), RngStream(9, 2)
        plan = [(a, "integers", 5), (b, "permutation", 9), (a, "integers", 3),
                (b, "choice", 12), (a, "normal", 3), (b, "uniform", 2)]
        got = _run_draws(plan)
        monkeypatch.setattr(RngStream, "_generator", fresh_generator)
        _assert_same_draws(plan, got, _run_draws(plan))

    def test_two_threads_draw_as_if_alone(self, monkeypatch):
        # each draw resets its generator and then waits until the other
        # thread has reset too, so a generator shared across threads would
        # hand one of them the other's key
        streams = [RngStream(11, 1), RngStream(11, 2)]
        plans = [[(s, name, 7) for name in sorted(DRAWS) for _ in range(4)] for s in streams]
        serial = [_run_draws(plan) for plan in plans]
        barrier = threading.Barrier(2, timeout=10)
        reset = RngStream._generator

        def reset_then_wait(stream):
            gen = reset(stream)
            barrier.wait()
            return gen

        monkeypatch.setattr(RngStream, "_generator", reset_then_wait)
        for plan, got, expected in zip(plans, _draw_in_threads(plans), serial):
            _assert_same_draws(plan, got, expected)

    def test_two_threads_run_generators_as_if_alone(self, monkeypatch):
        # as above, for the yields of RngStream.generators: each reset waits
        # until the other thread's chain has reset too
        chains = [(RngStream(11, sid), [7, 3, 30, 1, 12] * 3) for sid in (1, 2)]

        def run_chain(chain):
            stream, sizes = chain
            return [gen.standard_normal(n) for n, gen in zip(sizes, stream.generators(sizes))]

        serial = [run_chain(chain) for chain in chains]
        barrier = threading.Barrier(2, timeout=10)
        reset = numkit._reset

        def reset_then_wait(seed, stream, block):
            gen = reset(seed, stream, block)
            barrier.wait()
            return gen

        monkeypatch.setattr(numkit, "_reset", reset_then_wait)
        for got, expected in zip(_draw_in_threads(chains, run_chain), serial, strict=True):
            assert len(got) == len(expected)
            for values, want in zip(got, expected):
                assert np.array_equal(values, want)

    def test_many_threads_under_fast_switching(self):
        plans = [[(RngStream(13, i), name, 9) for _ in range(30) for name in sorted(DRAWS)]
                 for i in range(4)]
        serial = [_run_draws(plan) for plan in plans]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _draw_in_threads(plans)
        finally:
            sys.setswitchinterval(interval)
        for plan, got, expected in zip(plans, results, serial):
            _assert_same_draws(plan, got, expected)
