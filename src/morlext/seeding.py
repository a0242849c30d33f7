"""Derived random streams.

Every random draw in a run flows from one root seed. Sub-streams are
addressed by a path of tags (strings or ints), hashed into a
``numpy.random.SeedSequence``, so adding parallelism or reordering stages
never perturbs unrelated streams.
"""

from __future__ import annotations

import zlib

import numpy as np


def _tag_to_int(tag: str | int) -> int:
    if isinstance(tag, int):
        return tag & 0xFFFFFFFF
    return zlib.crc32(tag.encode("utf-8"))


def seed_sequence(root_seed: int, *path: str | int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(root_seed) & 0xFFFFFFFF] + [_tag_to_int(t) for t in path])


def derive_seed(root_seed: int, *path: str | int) -> int:
    """Plain integer seed for APIs that take one (stable, collision-resistant)."""
    return int(seed_sequence(root_seed, *path).generate_state(1, dtype=np.uint64)[0] & 0x7FFFFFFF)
