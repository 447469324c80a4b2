"""Addressed random streams: determinism and independence of the keying."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dispatchlab.rng import RawDraws, stream


def test_same_address_same_bits():
    a = stream(7, 1, 2).random(100)
    b = stream(7, 1, 2).random(100)
    assert np.array_equal(a, b)


def test_distinct_addresses_differ():
    base = stream(7).random(50)
    assert not np.array_equal(base, stream(8).random(50))
    assert not np.array_equal(base, stream(7, 0).random(50))
    assert not np.array_equal(stream(7, 1).random(50), stream(7, 2).random(50))
    # key order matters
    assert not np.array_equal(stream(7, 1, 2).random(50), stream(7, 2, 1).random(50))


def test_streams_are_order_free():
    """Drawing stream k never perturbs stream j, whatever the interleaving."""
    first = [stream(3, k).random(10) for k in range(5)]
    second = [stream(3, k).random(10) for k in reversed(range(5))]
    for k in range(5):
        assert np.array_equal(first[k], second[4 - k])


# 2**31 + 1 rejects about half its half-words, so rejection loops run long
# and the pending high half carries through them.
RANGES = [1, 2, 4, 5, 400, 2280, 86400, 2**31 + 1]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([None, *RANGES]) | st.tuples(st.just("top_up"), st.integers(0, 5)),
             max_size=120),
)
def test_raw_draws_replay_numpy_scalar_draws(seed, ops):
    """Interleaved doubles and bounded integers, with block top-ups between them, match numpy's own."""
    rng = stream(seed, 99)
    draws = RawDraws(stream(seed, 99).bit_generator)
    for op in ops:
        if op is None:
            assert draws.random() == rng.random()
        elif isinstance(op, tuple):
            draws.top_up(op[1])
        else:
            assert draws.integers(op) == int(rng.integers(op))
