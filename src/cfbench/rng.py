"""Deterministic seeds and RNGs; no other module makes a numpy Generator.

`seed_for` hashes a pipeline stage's name into an integer seed; the
SeedSequence helpers turn integer seeds into Generators. SeedSequence entropy
must be non-negative, so raw integer seeds are reduced modulo 2**63 first.
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


def derive_seed(*parts) -> int:
    """Mix integer parts into one reproducible 64-bit seed."""
    ss = np.random.SeedSequence(seed_entropy(*parts))
    a, b = ss.generate_state(2)
    return (int(a) << 32) | int(b)
