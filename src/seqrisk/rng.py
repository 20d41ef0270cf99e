"""Counter-based random streams with deterministic derivation.

All sampling in the package draws from Philox generators keyed through
``numpy.random.SeedSequence`` spawn keys, so any consumer can be handed an
independent stream identified by ``(seed, key...)`` alone.  A query
(``estimate``, ``paired_estimates``) reads all of its trajectories, in
order, from the one stream ``trajectory_stream(seed)``, keyed ``(0,)``.
Experiment stages use keys of length >= 2 and therefore never collide
with it.  An experiment reads its seed from its spec alone and derives
every stage stream from it with :func:`substream`.

A stage with one stream per chain of a stack (a cohort's patients, a
sweep's points) takes the streams' Philox keys instead, derived together
by :func:`stream_keys`: ``SeedSequence``'s pool mixing and its
``generate_state(2, np.uint64)`` run once over all the keys, since their
hash constants do not depend on the data.  A :class:`KeyedStream`, one
Philox generator set to a key at counter 0, then reads each key's stream
from its start, and only where that stream is read.
"""

from __future__ import annotations

import operator

import numpy as np

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def trajectory_stream(seed: int) -> np.random.Generator:
    """The stream a query's trajectories are drawn from, one after another."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    )


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent stream for a labeled experiment stage.

    ``key`` must have at least two elements so stage streams and trajectory
    streams partition the spawn-key space.
    """
    if len(key) < 2:
        raise ValueError("stage streams require a key of length >= 2")
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))
    )


def stream_keys(seed: int, *key) -> np.ndarray:
    """``(P, 2)`` uint64 Philox keys: row ``i`` is the key of
    ``substream(seed, *k)`` for the ``i``-th ``k`` of the key elements
    broadcast together, each an int or a 1-D array of them.

    ``stream_keys(seed, 6, np.arange(3))`` keys ``substream(seed, 6, 0)``,
    ``(seed, 6, 1)`` and ``(seed, 6, 2)``.  The keys are numpy's bit for
    bit.  One key of ints, and keys with a negative seed or element or one
    of ``2**32`` or more (which ``SeedSequence`` splits into several
    words), are derived through ``SeedSequence`` key by key.
    """
    if len(key) < 2:
        raise ValueError("stage streams require a key of length >= 2")
    if all(type(k) is int for k in key):
        return np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64)[None]
    spawn = np.stack(np.broadcast_arrays(*map(np.asarray, key)), axis=-1).reshape(-1, len(key))
    words = _words(seed)
    if (words is None or spawn.dtype.kind not in "iu" or spawn.size
            and not (spawn.min() >= 0 and spawn.max() <= _MASK)):
        return np.array([np.random.SeedSequence(seed, spawn_key=tuple(k)).generate_state(
            2, np.uint64) for k in spawn.tolist()], dtype=np.uint64).reshape(-1, 2)
    # the seed's words, padded to the pool size, are the same for every
    # key: mix them once, then each spawn-key column over all keys at once
    words += [0] * (_POOL_SIZE - len(words))
    hash_a = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(w, hash_a) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_a))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(w, hash_a))
    pool = [np.full(len(spawn), w, dtype=np.uint32) for w in pool]
    for column in spawn.astype(np.uint32).T:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(column, hash_a))
    # generate_state(2, np.uint64): four 32-bit words, little-endian pairs
    hash_b = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i], hash_b).astype(np.uint64) for i in range(4)]
    keys = np.empty((len(spawn), 2), dtype=np.uint64)
    np.bitwise_or(state[0], state[1] << np.uint64(32), out=keys[:, 0])
    np.bitwise_or(state[2], state[3] << np.uint64(32), out=keys[:, 1])
    return keys


def _words(seed):
    """The 32-bit words ``SeedSequence`` makes of a nonnegative int seed,
    low word first; None for any other seed."""
    try:
        seed = operator.index(seed)
    except TypeError:
        return None
    if seed < 0:
        return None
    words = [seed & _MASK]
    while seed > _MASK:
        seed >>= 32
        words.append(seed & _MASK)
    return words


def _hash_constants(init, mult):
    """SeedSequence's running hash constant: the ``(before, after)`` pair of
    every hash, ``after = before * mult`` modulo ``2**32``."""
    while True:
        after = init * mult & _MASK
        yield init, after
        init = after


def _hashmix(value, constants):
    """SeedSequence's ``hashmix`` of an int or a uint32 array."""
    before, after = next(constants)
    value = (value ^ before) * after & _MASK
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix`` of two ints or uint32 arrays."""
    result = (_MIX_L * x - _MIX_R * y) & _MASK
    return result ^ result >> 16


class KeyedStream:
    """One Philox generator, set to one key after another.

    ``at(key)`` returns the generator set to ``key`` at counter 0 with an
    empty buffer: the stream ``Generator(Philox(key=key))`` from its start,
    which for a row of :func:`stream_keys` is that key's ``substream``.
    Philox makes its doubles 4 at a time, one block per counter value, so
    ``at(key, counter)`` is that stream from its ``4 * counter``-th double
    on.  It is the same generator every time, so a call ends the stream of
    the key before.  Setting a key takes about 2 us, building a
    ``substream`` about 20 us.
    """

    def __init__(self):
        self._gen = np.random.Generator(np.random.Philox(key=0))
        self._state = self._gen.bit_generator.state

    def at(self, key, counter: int = 0) -> np.random.Generator:
        self._state["state"]["key"] = key
        self._state["state"]["counter"] = (counter, 0, 0, 0)
        self._gen.bit_generator.state = self._state
        return self._gen
