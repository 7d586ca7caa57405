"""Deterministic replication streams on a counter-based generator.

Scheme: Philox 4x64 (counter-based), keyed through
``numpy.random.SeedSequence(master_seed, spawn_key=(stream_index,))``.
The triple (master_seed, stream_index, draw_index) uniquely determines every
variate, so ensembles may be produced on any number of workers, in any
completion order, provided stream_index equals the replication index.

`SeedSpec.generator` opens one stream. The sampler draws a whole row block
with `standard_normal_rows`, which gives the same bits faster: it computes
the SeedSequence keys of all the block's streams in one vectorized pass of
numpy's ``seed_seq_fe`` hash (`_stream_keys`), then draws every row through
one Philox that is re-keyed per row, counter 0 and empty buffer, as a fresh
one would be. A one-word spawn key limits stream indices to below 2**32.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_SEED = 2**64
_MAX_STREAMS = 2**32

# numpy's SeedSequence (O'Neill's seed_seq_fe): pool size and hash constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one deterministic stream of random draws.

    Parameters
    ----------
    master_seed : int
        Experiment-level seed, 0 <= master_seed < 2**64.
    stream_index : int
        Replication index within the experiment, >= 0.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.master_seed, (int, np.integer)):
            raise TypeError("master_seed must be an integer")
        if not isinstance(self.stream_index, (int, np.integer)):
            raise TypeError("stream_index must be an integer")
        if not 0 <= self.master_seed < _MAX_SEED:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if self.stream_index < 0:
            raise ValueError("stream_index must be >= 0")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at draw_index 0 of this stream."""
        seq = np.random.SeedSequence(
            entropy=int(self.master_seed), spawn_key=(int(self.stream_index),)
        )
        return np.random.Generator(np.random.Philox(seq))


def _hashmix(value, hash_const: int):
    """seed_seq_fe's hashmix on an int or uint32 array; returns the new
    multiplier as well, which the hash threads through every call."""
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x, y):
    r = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return r ^ (r >> _XSHIFT)


def _stream_keys(master_seed: int, first: int, count: int) -> np.ndarray:
    """Philox keys of streams first .. first + count - 1, one row each.

    Row j equals ``SeedSequence(entropy=master_seed, spawn_key=(first + j,))
    .generate_state(2, np.uint64)``. The entropy is the master seed's 32-bit
    words padded to the pool size, then the stream index. The pool after
    the first two mixing rounds depends on the master seed alone, so it is
    hashed in scalars; only the stream word's round and the output hash
    run on uint32 arrays.
    """
    if first + count > _MAX_STREAMS:
        raise ValueError(f"stream index must be below 2**32, got {first + count - 1}")
    seed = int(master_seed)
    hash_a = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word, hash_a = _hashmix((seed >> (32 * i)) & _MASK32, hash_a)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, hash_a = _hashmix(pool[src], hash_a)
                pool[dst] = _mix(pool[dst], word)

    stream = np.arange(first, first + count, dtype=np.uint32)
    words = np.empty((count, _POOL_SIZE), dtype=np.uint32)
    hash_b = _INIT_B
    with np.errstate(over="ignore"):
        for i in range(_POOL_SIZE):
            word, hash_a = _hashmix(stream, hash_a)
            word = _mix(pool[i], word)
            # generate_state's output hash
            word ^= hash_b
            hash_b = (hash_b * _MULT_B) & _MASK32
            word *= hash_b
            words[:, i] = word ^ (word >> _XSHIFT)
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64)


def standard_normal_rows(master_seed: int, first_stream: int, out: np.ndarray) -> np.ndarray:
    """Fill row j of out with the first out.shape[1] standard normals of
    stream first_stream + j; returns out.

    Bit for bit ``SeedSpec(master_seed, first_stream + j).generator()
    .standard_normal(out.shape[1])``. The Philox and its Generator live in
    this call only, so concurrent calls never share a generator.
    """
    SeedSpec(master_seed, first_stream)  # validates both
    keys = _stream_keys(master_seed, int(first_stream), out.shape[0])
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # the state setter reads Python ints faster than array elements
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for row, key in zip(out, keys.tolist()):
        state["state"]["key"] = key
        bitgen.state = state
        gen.standard_normal(out=row)
    return out
