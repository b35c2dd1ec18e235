"""Deterministic seeds and RNGs; no other module makes a numpy Generator.

`seed_for` hashes a pipeline stage's name into an integer seed; the
SeedSequence helpers turn integer seeds into Generators. SeedSequence entropy
must be non-negative, so raw integer seeds are reduced modulo 2**63 first.

`path_key` and `KeyedStream` give one stream per node of a tree: a node's key
mixes its parent's key with the side it hangs on, and `KeyedStream.at` puts
one reused Generator at the stream of a key. Nodes therefore draw
independently of the order in which they are grown, and of which other
nodes draw at all.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np


def seed_for(master_seed: int, cell, stage: str) -> int:
    """Derive a stage seed: sha256 over "master|balancing|tuning|method|stage",
    first 8 big-endian bytes reduced modulo 2**63."""
    b, t, m = cell
    key = f"{int(master_seed)}|{b}|{t}|{m}|{stage}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") % (1 << 63)


def seed_entropy(*parts) -> list[int]:
    return [int(p) % (1 << 63) for p in parts]


def spawn_rng(*parts) -> np.random.Generator:
    """A Generator keyed by the given integer parts."""
    return np.random.default_rng(np.random.SeedSequence(seed_entropy(*parts)))


def stream_rngs(seed: int, n: int) -> Iterator[np.random.Generator]:
    """``n`` independent Generators spawned from ``seed``, made one at a time;
    stream i does not depend on ``n``, so a prefix of a larger set equals a
    smaller set."""
    return (np.random.default_rng(s) for s in np.random.SeedSequence(seed_entropy(seed)).spawn(n))


_MASK64 = (1 << 64) - 1


def path_key(parent: int, side: int) -> int:
    """The 64-bit key of the child on ``side`` (0 left, 1 right) of the node
    keyed ``parent``: the splitmix64 finalizer over parent + (side + 1) * golden
    ratio, so keys stay 64 bits at any depth."""
    z = (parent + (side + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class KeyedStream:
    """One Generator that `at` moves to the stream of a 64-bit key.

    The key k sets the PCG64 state to k * (2**64 + 1), on PCG's default
    increment. A root key is a uniform draw and a child key a splitmix64
    output, so each stream starts at a well-mixed point of PCG64's 2**128
    cycle. A node takes under a hundred draws, so two nodes' streams
    overlapping is negligible, though nothing rules it out. Moving the
    state costs less than making a Generator, so one instance serves every
    node of a forest. `at` also clears the buffered 32-bit half, so the
    draws at a key do not depend on what the instance drew before.
    """

    _INC = 0x5851F42D4C957F2D14057B7EF767814F

    def __init__(self):
        self._bits = np.random.PCG64(0)
        self._rng = np.random.Generator(self._bits)

    def at(self, key: int) -> np.random.Generator:
        self._bits.state = {"bit_generator": "PCG64",
                            "state": {"state": (key << 64) | key, "inc": self._INC},
                            "has_uint32": 0, "uinteger": 0}
        return self._rng


def derive_seed(*parts) -> int:
    """Mix integer parts into one reproducible 64-bit seed."""
    ss = np.random.SeedSequence(seed_entropy(*parts))
    a, b = ss.generate_state(2)
    return (int(a) << 32) | int(b)
