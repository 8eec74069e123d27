"""Named, counter-based random streams.

Every stream is addressed by (seed, name, cursor) and materializes a fresh
Philox generator, so draws for data order, parameter init, and noise never
share state, and any stream can be re-entered at an arbitrary cursor. This
is what makes mid-run checkpoint resume bit-exact: the cursor (epoch or
step index) is the only state worth persisting.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ValidationError


class SeededStreams:
    """Factory for independent named random streams under one master seed."""

    def __init__(self, seed: int):
        seed = int(seed)
        # the seed is a u32 in the .v2ds header and an entropy word for numpy
        if not 0 <= seed < 2**32:
            raise ValidationError(f"seed must be in [0, 2**32), got {seed}")
        self.seed = seed

    def generator(self, name: str, cursor: int = 0) -> np.random.Generator:
        """Return a fresh generator for stream `name` at position `cursor`.

        The same (seed, name, cursor) triple always yields the same draw
        sequence; distinct names or cursors yield independent streams.
        """
        tag = zlib.crc32(name.encode("utf-8"))
        seq = np.random.SeedSequence((self.seed, tag, int(cursor)))
        return np.random.Generator(np.random.Philox(seq))
