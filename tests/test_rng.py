"""Stream keys derived together, and the one Philox generator that reads them."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from seqrisk.rng import KeyedStream, stream_keys, substream

SEEDS = [0, 3, 9, 2**32, 2**40 + 5, 2**70 + 1, 2**200 + 7]


def numpy_key(seed, key):
    return np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(2, np.uint64)


def assert_numpy_keys(seed, key, keys):
    """``keys`` holds, row by row, numpy's key of every spawn key of the
    broadcast elements ``key``."""
    spawn = np.stack(np.broadcast_arrays(*map(np.asarray, key)), axis=-1).reshape(-1, len(key))
    assert keys.dtype == np.uint64 and keys.shape == (len(spawn), 2)
    for row, got in zip(spawn.tolist(), keys):
        assert got.tobytes() == numpy_key(seed, row).tobytes(), row


class TestStreamKeys:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("length", [2, 3, 4])
    def test_every_key_of_edge_elements_is_numpys(self, seed, length):
        # every spawn key of the given length over the elements 0, 1 and
        # 2**32 - 1, one column per position
        spawn = np.array(list(itertools.product([0, 1, 2**32 - 1], repeat=length)))
        assert_numpy_keys(seed, spawn.T, stream_keys(seed, *spawn.T))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("prefix", [(7,), (8,), (6,), (3, 2)])
    def test_a_prefix_and_a_range(self, seed, prefix):
        key = (*prefix, np.arange(300))
        assert_numpy_keys(seed, key, stream_keys(seed, *key))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key", [(2**33, np.arange(4)), (np.array([1, 2**32]), 0, 5)])
    def test_an_element_of_two_words_goes_through_seed_sequence(self, seed, key):
        assert_numpy_keys(seed, key, stream_keys(seed, *key))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_key_of_ints(self, seed):
        assert_numpy_keys(seed, (5, 0, 2), stream_keys(seed, 5, 0, 2))

    def test_bad_keys_raise(self):
        with pytest.raises(ValueError, match="length >= 2"):
            stream_keys(0, np.arange(3))
        # SeedSequence's own errors
        with pytest.raises(ValueError):
            stream_keys(0, -1, np.arange(3))
        with pytest.raises(ValueError):
            stream_keys(-1, 2, np.arange(3))


class TestKeyedStream:
    @pytest.mark.parametrize("j", range(1, 10))
    def test_set_to_a_key_it_is_that_keys_substream(self, j):
        keys = stream_keys(9, 6, np.arange(3))
        stream = KeyedStream()
        # an earlier key's stream, left part-way through a Philox block
        stream.at(keys[0]).random(3)
        assert stream.at(keys[2]).random(j).tobytes() == substream(9, 6, 2).random(j).tobytes()
        # set again, the same key starts over
        assert stream.at(keys[2]).random(j).tobytes() == substream(9, 6, 2).random(j).tobytes()

    @pytest.mark.parametrize("counter", range(4))
    def test_a_counter_starts_at_that_philox_block(self, counter):
        # Philox makes 4 doubles per counter value: after 4 * counter draws,
        # any number of further draws (every k mod 4) continues the stream
        keys = stream_keys(2, 7, np.arange(2))
        stream = KeyedStream()
        for j in range(1, 10):
            stream.at(keys[0], 5).random(2)
            whole = substream(2, 7, 1).random(4 * counter + j)
            got = stream.at(keys[1], counter).random(j)
            assert got.tobytes() == whole[4 * counter:].tobytes()

    def test_bounded_integers_start_afresh(self):
        # integers() below 2**32 reads half words and buffers the other half
        keys = stream_keys(4, 9, np.arange(2))
        stream = KeyedStream()
        stream.at(keys[0]).integers(0, 100, size=3)
        got = stream.at(keys[1]).integers(0, 100, size=5)
        assert np.array_equal(got, substream(4, 9, 1).integers(0, 100, size=5))
