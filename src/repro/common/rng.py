"""Deterministic random-number streams.

Every source of randomness in the simulator draws from a named substream
of a single experiment seed.  Substreams are derived with a stable hash
of the stream name, so adding a new consumer never perturbs existing
streams and identical seeds reproduce identical runs byte for byte.
"""

from __future__ import annotations

import random
import zlib

__all__ = ["RngStreams", "derive_stream_seed"]


def derive_stream_seed(seed: int, name: str) -> int:
    """The substream seed for ``name`` under master ``seed``."""
    return (int(seed) << 32) ^ zlib.crc32(name.encode("utf-8"))


class RngStreams:
    """A family of named, independently seeded random streams.

    Parameters
    ----------
    seed:
        The experiment master seed.

    Examples
    --------
    >>> streams = RngStreams(7)
    >>> a = streams.stream("client.think")
    >>> b = streams.stream("client.think")
    >>> a is b
    True
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The master seed this family was created with."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = random.Random(derive_stream_seed(self._seed, name))
        self._streams[name] = stream
        return stream

    def spawn(self, name: str) -> "RngStreams":
        """Return a child family rooted at a derived seed.

        Useful when a subsystem wants to manage its own namespace of
        streams without risking collisions with the parent's names.
        """
        derived = derive_stream_seed(self._seed, name)
        return RngStreams(derived & 0x7FFF_FFFF_FFFF_FFFF)
