"""Deterministic substream derivation for reproducible Monte Carlo.

Each (master seed, chunk index) pair is hashed with SHA-256 and the first
8 bytes (little-endian) key a counter-based Philox generator.  The map is
platform-independent and collision-resistant, so a chunked sample
depends only on (master seed, sample size, chunk size).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np


def derive_seed(master_seed, chunk_index):
    """64-bit substream seed for the given chunk, bit-stable across runs."""
    digest = hashlib.sha256(
        struct.pack("<qq", master_seed, chunk_index)).digest()
    return int.from_bytes(digest[:8], "little")


def substream(master_seed, chunk_index):
    """A Philox generator keyed by derive_seed."""
    return np.random.Generator(
        np.random.Philox(key=derive_seed(master_seed, chunk_index)))
