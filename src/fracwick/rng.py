"""Deterministic replication streams on a counter-based generator.

Scheme: Philox 4x64 (counter-based), keyed through
``numpy.random.SeedSequence(master_seed, spawn_key=(stream_index,))``.
The triple (master_seed, stream_index, draw_index) uniquely determines every
variate, so ensembles may be produced on any number of workers, in any
completion order, provided stream_index equals the replication index.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MAX_SEED = 2**64


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
