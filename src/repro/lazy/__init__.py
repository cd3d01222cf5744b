"""Lazy pc-guarded K-round sequentialization (Lazy-CSeq style).

This package interprets the round-robin schedule in its real order:
per-instance one-hot pc flags, step functions that resume each thread
at its saved pc, and an unrolled K-segment driver.  Shared globals
always hold true values, so asserts fail on the spot and nothing is
guessed.  Direct, non-recursive calls are flattened into the calling
thread.  See ``docs/SEQUENTIALIZATION.md`` and ``docs/SWARM.md``.
"""

from .transform import (
    DONE,
    TAG_LZ_SPAWN,
    LazyTransformer,
    lazy_transform,
)
from .tracemap import map_trace

__all__ = [
    "DONE",
    "TAG_LZ_SPAWN",
    "LazyTransformer",
    "lazy_transform",
    "map_trace",
]
