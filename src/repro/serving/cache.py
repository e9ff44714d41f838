"""Cross-request story-encoding cache: skip Eqs. 1-2 on replayed stories.

The memory-write phase of the MANN (Eqs. 1-2) depends only on the
story, never on the question — yet production QA traffic replays the
same story with many different questions (the zipf-skewed "millions of
users" shape the ROADMAP targets). :class:`MemoryCache` memoises the
written memory matrices per story so a replayed story skips straight to
the read hops and the output scan: the dominant per-request cost on a
hot story becomes one hash lookup.

What is cached, and why it is bit-exact
---------------------------------------
The unit of caching is one story *as it appears in a stacked batch*:
the padded ``(slots, words)`` int64 token matrix, trimmed to the
story's real sentence count (its resolved length). Each memory row is
its sentence's embedding rows summed left to right over the word
columns, plus the slot's temporal vector, whatever the chunk, batch
(or batch *size*) or slot padding it is computed in — see
``repro.mann.batch._bag_of_words``. A story's memory rows are
therefore bit-identical whether
:meth:`~repro.mann.batch.BatchInferenceEngine.write_memory` embedded
them among a whole padded batch or the miss path of
:meth:`~repro.mann.batch.BatchInferenceEngine.write_memory_cached`
embedded only the real sentences of the flush's misses. The padded
**words** width is also part of the key (trimmed stories of shape
``(length, words)`` hash whole). Trailing pad words add exact zeros,
so this is not needed for exactness, but it is harmless: every request
stream encoded by one vocabulary shares a single sentence width.

Keys are a BLAKE2b content hash of the trimmed story bytes + shape.
Hash collisions are guarded, not assumed away: every entry keeps its
trimmed story and a hit verifies full-array equality before the cached
memories are reused (a mismatch counts in ``stats.collisions`` and is
served as a miss).

The cache is an LRU bounded in **entries** and optionally **bytes**
(stories + both memory matrices), safe under concurrent flush workers
(one lock around the table — ``worker_mode="thread"`` shares one cache
per route; ``worker_mode="process"`` rebuilds one per worker process
from its :class:`~repro.serving.worker.WorkerSpec` and merges hit
statistics parent-side via :meth:`absorb_delta`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`MemoryCache`.

    ``hits``/``misses`` count lookups, ``evictions`` entries dropped by
    the LRU bound, ``collisions`` lookups whose hash matched but whose
    stored story did not (served as misses), and ``dedupes`` rows that
    rode along with an identical story in the *same* flush (encoded
    once, fanned out — they touched neither the table nor the write
    phase). Process-mode serving adds worker-side deltas into the
    parent's stats, so these totals cover every process that served
    through the predictor.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    collisions: int = 0
    dedupes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def skip_rate(self) -> float:
        """Fraction of rows that skipped the write phase entirely
        (cross-request hits plus within-flush dedupes)."""
        total = self.hits + self.misses + self.dedupes
        return (self.hits + self.dedupes) / total if total else 0.0


@dataclass
class _Entry:
    story: np.ndarray  # trimmed (length, words) int64, collision guard
    mem_a: np.ndarray  # (length, embed) address memory rows
    mem_c: np.ndarray  # (length, embed) content memory rows

    @property
    def nbytes(self) -> int:
        return self.story.nbytes + self.mem_a.nbytes + self.mem_c.nbytes


class MemoryCache:
    """LRU of written memory matrices, keyed by story content hash.

    ``capacity_entries`` bounds the entry count, ``capacity_bytes``
    (optional) additionally bounds the resident payload size; the least
    recently used entries are evicted when either bound is exceeded.
    All methods are thread-safe.
    """

    def __init__(
        self,
        capacity_entries: int = 1024,
        capacity_bytes: int | None = None,
    ):
        if capacity_entries < 1:
            raise ValueError("capacity_entries must be >= 1")
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1 (or None)")
        self.capacity_entries = int(capacity_entries)
        self.capacity_bytes = capacity_bytes
        self.stats = CacheStats()
        self._entries: OrderedDict[bytes, _Entry] = OrderedDict()
        self._nbytes = 0
        self._lock = threading.Lock()

    # -- keys ----------------------------------------------------------
    @staticmethod
    def key(story: np.ndarray) -> bytes:
        """Content hash of one trimmed ``(length, words)`` story.

        The shape is hashed alongside the bytes so ``(2, 6)`` and
        ``(3, 4)`` stories with identical flat content cannot alias.
        """
        story = np.ascontiguousarray(story, dtype=np.int64)
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.asarray(story.shape, dtype=np.int64).tobytes())
        digest.update(story.tobytes())
        return digest.digest()

    # -- lookup / insert ----------------------------------------------
    def get(
        self, key: bytes, story: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The cached ``(mem_a, mem_c)`` rows for ``story``, or None.

        ``story`` is the trimmed token matrix the key was derived from;
        a hit only counts after full-array equality against the stored
        story (the hash-collision guard).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and not np.array_equal(entry.story, story):
                self.stats.collisions += 1
                entry = None
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.mem_a, entry.mem_c

    def put(
        self,
        key: bytes,
        story: np.ndarray,
        mem_a: np.ndarray,
        mem_c: np.ndarray,
    ) -> None:
        """Insert one story's memory rows, evicting LRU entries past the
        bounds. The entry stores copies: callers pass views into a
        flush's batch arrays, which must not stay alive with the entry
        (nor count against ``capacity_bytes`` at only the view's size)."""
        entry = _Entry(
            story=np.array(story, dtype=np.int64),
            mem_a=np.array(mem_a),
            mem_c=np.array(mem_c),
        )
        if self.capacity_bytes is not None and entry.nbytes > self.capacity_bytes:
            return  # larger than the whole budget: not cacheable
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._nbytes -= previous.nbytes
            self._entries[key] = entry
            self._nbytes += entry.nbytes
            while len(self._entries) > self.capacity_entries or (
                self.capacity_bytes is not None
                and self._nbytes > self.capacity_bytes
            ):
                _, evicted = self._entries.popitem(last=False)
                self._nbytes -= evicted.nbytes
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

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._nbytes

    def counters(self) -> tuple[int, int, int]:
        """Cumulative ``(hits, misses, evictions)`` — the triple
        :class:`~repro.serving.api.ServingStats` mirrors."""
        with self._lock:
            return self.stats.hits, self.stats.misses, self.stats.evictions

    def absorb_delta(self, delta: tuple[int, int, int]) -> None:
        """Fold a worker process's per-call counter delta into this
        (parent-side) cache's statistics."""
        hits, misses, evictions = delta
        with self._lock:
            self.stats.hits += int(hits)
            self.stats.misses += int(misses)
            self.stats.evictions += int(evictions)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._nbytes = 0

    def __len__(self) -> int:
        return self.entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryCache(entries={self.entries}/{self.capacity_entries}, "
            f"nbytes={self.nbytes}, hits={self.stats.hits}, "
            f"misses={self.stats.misses})"
        )
