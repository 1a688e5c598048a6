"""Tests for deterministic RNG derivation."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import (
    _FIRST_BLOCK,
    _MAX_BLOCK,
    IndexedStream,
    derive_seed,
    rng_for,
    seed_sequence_state,
)

#: roots at the edges of the one- and two-word entropy encodings
_EDGE_ROOTS = (0, 2**32 - 1, 2**32, 2**64 - 1)
_ROOTS = st.one_of(
    st.sampled_from(_EDGE_ROOTS), st.integers(0, 2**64 - 1)
)


def test_derive_seed_deterministic():
    assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)


def test_derive_seed_differs_by_key():
    assert derive_seed(42, "a") != derive_seed(42, "b")


def test_derive_seed_differs_by_root():
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_derive_seed_order_sensitive():
    assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")


def test_derive_seed_in_64_bit_range():
    seed = derive_seed(2**80, "huge")
    assert 0 <= seed < 2**64


def test_rng_for_reproducible_stream():
    a = rng_for(3, "stream").normal(size=8)
    b = rng_for(3, "stream").normal(size=8)
    assert (a == b).all()


def test_rng_for_independent_streams():
    a = rng_for(3, "s1").normal(size=8)
    b = rng_for(3, "s2").normal(size=8)
    assert (a != b).any()


@given(st.integers(min_value=0, max_value=2**64 - 1), st.text(max_size=20))
def test_derive_seed_always_valid(root, key):
    seed = derive_seed(root, key)
    assert 0 <= seed < 2**64


@given(
    st.integers(min_value=0, max_value=1000),
    st.lists(st.integers(), max_size=4),
)
def test_derive_seed_stable_under_repr_keys(root, keys):
    assert derive_seed(root, *keys) == derive_seed(root, *keys)


# ---------------------------------------------------------------------------
# IndexedStream: the rng_for loop is the reference
# ---------------------------------------------------------------------------
def _reference(root, index, scale):
    return rng_for(root, "noise", index).normal(0.0, scale)


@settings(max_examples=60, deadline=None)
@given(
    _ROOTS,
    # indices around the first few block boundaries, in any order, so
    # draws land mid-block, jump back before the block and skip ahead
    st.lists(
        st.integers(0, 8 * _FIRST_BLOCK), min_size=1, max_size=40
    ),
    st.floats(0.0, 2.0, allow_nan=False),
)
def test_indexed_stream_matches_rng_for(root, indices, scale):
    stream = IndexedStream(root, "noise")
    for index in indices:
        assert stream.normal(index, scale) == _reference(root, index, scale)


def test_indexed_stream_matches_rng_for_through_the_block_cap():
    stream = IndexedStream(3, "noise")
    for index in range(1, 2 * _MAX_BLOCK + 3):
        assert stream.normal(index, 0.01) == _reference(3, index, 0.01)


def test_indexed_stream_keys_like_rng_for():
    stream = IndexedStream(5, "a", 2)
    assert stream.normal(7, 1.0) == rng_for(5, "a", 2, 7).normal(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(_ROOTS, min_size=1, max_size=20))
def test_seed_sequence_state_matches_numpy(seeds):
    """Fails loudly if a numpy release changes how SeedSequence mixes
    entropy, instead of letting the noise stream drift silently."""
    state = seed_sequence_state(np.array(seeds, dtype=np.uint64))
    assert state.shape == (8, len(seeds))
    assert state.dtype == np.uint32
    for column, seed in enumerate(seeds):
        expected = np.random.SeedSequence(seed).generate_state(
            8, np.uint32
        )
        assert (state[:, column] == expected).all()
