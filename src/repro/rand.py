"""Seeded random-number streams.

Every stochastic subsystem (topology generation, congestion dynamics,
measurement noise, ...) draws from its own named sub-stream derived from
a single experiment seed.  This keeps results reproducible *and* stable:
adding draws to one subsystem does not perturb another subsystem's
stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ConfigError


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``root_seed`` and ``name``."""
    digest = hashlib.sha256(f"{root_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stable_index(key: str) -> int:
    """A 31-bit stream index derived from ``key`` by sha256.

    For string keys that pick an element of a spawned stream
    (:meth:`RandomStreams.spawn_generator`): builtin ``hash()`` of a
    string changes with ``PYTHONHASHSEED``, this does not.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF


class RandomStreams:
    """A family of independent, named ``numpy`` generators.

    >>> streams = RandomStreams(seed=42)
    >>> topo_rng = streams.stream("topology")
    >>> cong_rng = streams.stream("congestion")

    Requesting the same name twice returns the *same* generator object,
    so sequential draws within a subsystem stay sequential.
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise ConfigError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for subsystem ``name`` (created on demand)."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(_derive_seed(self.seed, name))
        return self._streams[name]

    def fork(self, name: str) -> "RandomStreams":
        """Return a child family whose root seed is derived from ``name``.

        Useful for per-trial isolation: each measurement iteration can
        fork its own family so iterations are independent yet
        reproducible.
        """
        return RandomStreams(_derive_seed(self.seed, name) & 0x7FFF_FFFF)

    def spawn_generator(self, name: str, index: int) -> np.random.Generator:
        """Return a fresh generator for element ``index`` of stream ``name``.

        Unlike :meth:`stream`, repeated calls with the same arguments
        return *new* generator objects seeded identically — convenient
        for replaying a specific element's noise.
        """
        return np.random.default_rng(_derive_seed(self.seed, f"{name}[{index}]"))
