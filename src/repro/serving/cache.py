"""Cross-request story-encoding cache: skip Eqs. 1-2 on replayed stories.

The memory-write phase of the MANN (Eqs. 1-2) depends only on the
story, never on the question — yet production QA traffic replays the
same story with many different questions (the zipf-skewed "millions of
users" shape the ROADMAP targets). :class:`MemoryCache` memoises the
written memory matrices per story so a replayed story skips straight to
the read hops and the output scan: the dominant per-request cost on a
hot story becomes one dict lookup.

What is cached, and why it is bit-exact
---------------------------------------
The unit of caching is one story *as it appears in a stacked batch*:
the padded ``(slots, words)`` int64 token matrix, trimmed to the
story's real sentence count (its resolved length). Each memory row is
its sentence's word rows and then its slot's temporal row, added left
to right one whole word plane at a time, whatever the chunk, batch (or
batch *size*) or slot padding it is computed in — see
``repro.mann.batch._bag_of_words``. A story's memory rows are
therefore bit-identical whether
:meth:`~repro.mann.batch.BatchInferenceEngine.write_memory` embedded
them among a whole batch or the miss path of
:meth:`~repro.mann.batch.BatchInferenceEngine.write_memory_cached`
embedded only the flush's missed stories, straight into the flush's
memory through the same call.

Exact keys
----------
An entry's key is the story itself: its padded **words** width and its
trimmed int64 token bytes (:meth:`MemoryCache.key`). Width and byte
count fix the story's shape, so two keys are equal exactly when the
trimmed stories are equal, shape included; the dict's own key
comparison checks the whole story on every hit, and a hit can never
serve another story's memories. Keying by the padded width, rather
than stripping trailing pad words (which add exact zeros), costs no
hits: every request stream encoded by one vocabulary shares a single
sentence width.

The cache is an LRU bounded in entries. One lock guards the table, so
direct callers on several threads may share a cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

#: ``(words width, trimmed int64 token bytes)`` of one story.
StoryKey = tuple[int, bytes]


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`MemoryCache`.

    ``hits``/``misses`` count lookups, ``evictions`` entries dropped by
    the LRU bound, and ``dedupes`` rows that rode along with an
    identical story in the *same* flush (encoded once, fanned out —
    they touched neither the table nor the write phase).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dedupes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class MemoryCache:
    """LRU of written memory matrices, keyed by the story itself.

    ``capacity_entries`` bounds the entry count; the least recently
    used entry is evicted past it. All methods are thread-safe.
    """

    def __init__(self, capacity_entries: int = 1024):
        if capacity_entries < 1:
            raise ValueError("capacity_entries must be >= 1")
        self.capacity_entries = int(capacity_entries)
        self.stats = CacheStats()
        self._entries: OrderedDict[StoryKey, tuple[np.ndarray, np.ndarray]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    # -- keys ----------------------------------------------------------
    @staticmethod
    def key(story: np.ndarray) -> StoryKey:
        """The exact key of one trimmed ``(length, words)`` story.

        The width rides along with the bytes so ``(2, 6)`` and ``(3, 4)``
        stories with identical flat content cannot alias; the tokens are
        taken as int64, so the bytes of another dtype cannot alias either.
        """
        story = np.asarray(story, dtype=np.int64)
        return story.shape[1], story.tobytes()

    # -- lookup / insert ----------------------------------------------
    def get(self, key: StoryKey) -> tuple[np.ndarray, np.ndarray] | None:
        """The cached ``(mem_a, mem_c)`` rows of the story ``key``
        names, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: StoryKey, mem_a: np.ndarray, mem_c: np.ndarray) -> None:
        """Insert one story's memory rows, evicting the LRU entry past
        the bound. The entry stores copies: callers pass views into a
        flush's batch arrays, which must not stay alive with the entry."""
        entry = (np.array(mem_a), np.array(mem_c))
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = entry
            if len(self._entries) > self.capacity_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def note_dedupe(self, n: int = 1) -> None:
        """Record ``n`` rows served by within-flush dedupe (an identical
        story earlier in the same batch), without a table lookup."""
        with self._lock:
            self.stats.dedupes += n

    # -- accounting ----------------------------------------------------
    @property
    def entries(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return self.entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryCache(entries={self.entries}/{self.capacity_entries}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
