"""Vectorised batch inference engine for the MANN (Eqs. 1-6).

Runs the full forward pass over a whole encoded batch in pure numpy
tensor ops — bag-of-words embedding of every story and question in
cache-sized chunks, length-masked softmax attention across all
examples per hop, and a ``(B, V)`` output projection — with no
per-example Python loop.

This is the one implementation of Eqs. 1-6: serving, evaluation and
threshold fits run it on whole batches, the golden trace
(:meth:`repro.mann.inference.InferenceEngine.forward_trace`) on a
one-row batch, and the accelerator co-simulation's modules call the
methods of :class:`_ForwardPass` on one row, so by the contract below
all give a query the same bits. The independent per-example reference
is in ``tests/mann/test_batch_parity.py``.

**Batch independence.** A row's bits depend only on its own story,
question and model: never on the batch size (1 included), the row's
position, or the slot and word padding that wider rows impose on it.
A served answer therefore does not change with what it was batched
with, and :class:`EngineStack` answers rows of several same-shaped
models in one call, bit for bit as each model's own engine. Every
reduction runs in a fixed order over the row's own data:

* bag-of-words sums (Eq. 2) add one whole word plane per step, left
  to right (:func:`_bag_of_words`), and a memory row adds its slot's
  temporal vector as one more plane, last, so it equals ``bow + t``;
  pad words add an exact zero. Rows one value wide take a running
  sum, because numpy would add a lone contiguous run pairwise;
* the contractions whose shape the model fixes — Eq. 4's ``key @ w_r``
  (E x E) and the Eq. 6 logits (V x E) — are one BLAS gemv call per
  row (:func:`~repro.mips.backend.inner_products`). Every row's call
  has the same routine, shape and strides whatever the batch, and
  whether its operand is shared or gathered per row;
* the Eq. 1 scores and the Eq. 5 read are einsums: the scores' innermost
  loop runs along the E axis, the read's along the E output columns
  while the slots add up in order, one at a time. A memory one value
  wide reads with a running sum over the slots instead, because its
  slots are one contiguous run, which numpy adds unrolled once there
  are 8 or more;
* the softmax denominator is a running sum over the slots, left to
  right. Pad slots carry zero attention mass, so in the read and the
  denominator they add exact zeros at the end.

Eqs. 1 and 5 stay einsum because their shape is the padded slot count,
which the batch sets: a gemv over L slots may round a row's real slots
differently once pad slots make L larger. A whole-batch BLAS matmul
(gemm) suits none of the four: it picks micro-kernels, and with them
reduction orders, by the batch's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.mann.weights import MannWeights
from repro.mips.backend import (
    MipsBackend,
    as_query_matrix,
    get_backend,
    inner_products,
    ordered_scan,
)
from repro.mips.exact import ExactMips
from repro.mips.stats import BatchSearchResult
from repro.mips.thresholding import InferenceThresholding

#: Bytes of gathered embedding rows the bag-of-words kernel holds at
#: once: small enough to stay in a core's L2 cache, large enough that
#: the per-chunk interpreter cost stays small. On a 2-vCPU Xeon host
#: (2 MiB L2 per core), ``write_memory`` with the word-major kernel ran
#: fastest at 192-320 KiB both at the synthetic serving shape (V=400,
#: E=64, W=10, a 128-row flush) and on a 64-row stacked flush of 20
#: bAbI-shaped models (V=158, E=20, W=6); 128 and 512 KiB ran 5-20%
#: slower, 32 KiB and 4 MiB 1.4-3x slower.
_GATHER_BUDGET_BYTES = 256 * 1024


def _bag_of_words(matrix: np.ndarray, sentences: np.ndarray) -> np.ndarray:
    """Bag-of-words embeddings (Eq. 2) of a flat ``(N, W)`` index array.

    Row ``n`` is ``matrix[sentences[n, 0]] + matrix[sentences[n, 1]] +
    ...`` added left to right. The kernel is word-major: a chunk's
    ``(W, n, D)`` gather is reduced over its outer axis, one whole
    contiguous ``(n, D)`` plane per step, so pass the transpose of a
    word-major ``(W, N)`` array to gather without copying the indices.
    A row's bits depend only on its own words, not on ``N``, the chunk
    it lands in, or the batch and slot padding it came from. Pad tokens
    gather ``matrix[0]``, which callers zero. The gather is
    materialised at most ``_GATHER_BUDGET_BYTES`` at a time.
    """
    words = sentences.T
    n = len(sentences)
    out = np.empty((n, matrix.shape[1]), dtype=matrix.dtype)
    sentence_bytes = max(1, len(words)) * matrix[0].nbytes
    chunk = max(1, _GATHER_BUDGET_BYTES // sentence_bytes)
    for lo in range(0, n, chunk):
        # ``take`` gathers the same rows as ``matrix[words]`` without
        # the advanced-indexing machinery.
        planes = matrix.take(words[:, lo : lo + chunk], axis=0)
        if matrix.shape[1] == 1 and len(planes):
            # A lone 1-wide row is one contiguous run, which numpy would
            # sum pairwise; a running sum keeps it left to right.
            out[lo : lo + chunk] = np.cumsum(planes, axis=0)[-1]
        else:
            planes.sum(axis=0, out=out[lo : lo + chunk])
    return out


def infer_story_lengths(stories: np.ndarray) -> np.ndarray:
    """Per-example story length: index of the last non-pad sentence + 1.

    Fully-empty stories count as occupying one (all-pad) slot. Shared
    by the batch engine, the per-example golden engine and the serving
    facade so every path infers identical lengths when the caller does
    not pin them.
    """
    nonpad = stories.any(axis=2)  # (B, L)
    slots = stories.shape[1]
    last = slots - np.argmax(nonpad[:, ::-1], axis=1)
    return np.where(nonpad.any(axis=1), last, 1).astype(np.int64)


@dataclass
class BatchTrace:
    """Stacked intermediates of a whole batch's forward pass.

    Shapes: B = batch, L = memory slots, E = embed dim, V = vocab,
    T = hops. Slots at or beyond an example's story length hold
    all-zero memory rows, ``-inf`` attention scores and exactly zero
    attention mass, so per-example views can simply be sliced with
    ``lengths[b]``.
    """

    mem_a: np.ndarray  # (B, L, E) address memory after write
    mem_c: np.ndarray  # (B, L, E) content memory after write
    slot_mask: np.ndarray  # (B, L) bool, True on real sentences
    keys: list[np.ndarray] = field(default_factory=list)  # T x (B, E)
    scores: list[np.ndarray] = field(default_factory=list)  # T x (B, L)
    attentions: list[np.ndarray] = field(default_factory=list)  # T x (B, L)
    reads: list[np.ndarray] = field(default_factory=list)  # T x (B, E)
    controller_outputs: list[np.ndarray] = field(default_factory=list)  # T x (B, E)
    logits: np.ndarray | None = None  # (B, V)
    predictions: np.ndarray | None = None  # (B,) int64
    # Per-example output-search statistics when the engine runs a MIPS
    # backend: stacked labels/logits/comparisons/early-exit flags.
    search: BatchSearchResult | None = None

    def __len__(self) -> int:
        return self.mem_a.shape[0]

    @property
    def h_final(self) -> np.ndarray:
        """Final controller outputs h_T, shape (B, E)."""
        return self.controller_outputs[-1]

    @property
    def comparisons(self) -> np.ndarray:
        """Per-example output-scan comparison counts (Fig. 3 y-axis)."""
        if self.search is None:
            raise ValueError("trace has no search stats: engine ran without a MIPS backend")
        return self.search.comparisons

    @property
    def early_exits(self) -> np.ndarray:
        """Per-example speculative-exit flags of the MIPS backend."""
        if self.search is None:
            raise ValueError("trace has no search stats: engine ran without a MIPS backend")
        return self.search.early_exits


#: The output backends whose scan :class:`EngineStack` runs over
#: per-row operands (:func:`~repro.mips.backend.ordered_scan`).
_STACKABLE_BACKENDS = (ExactMips, InferenceThresholding)
_WEIGHT_FIELDS = ("w_emb_a", "w_emb_c", "w_emb_q", "w_r", "w_o", "t_a", "t_c")


class _ForwardPass:
    """Eqs. 1-5 for a batch whose rows may run on different models.

    Holds the weight operands of one or more models that share their
    vocabulary size, embedding width and hop count. The write phase has
    one gather matrix: model r's block starts at row ``r * (V + M)``
    (M the longest memory) and holds its V word rows ``[w_emb_a |
    w_emb_c]`` with the pad row zeroed, so a pad token gathers nothing
    whatever its model, then its temporal rows ``[t_a | t_c]``,
    zero-padded to M. Question embeddings sit at offset ``r * V`` of
    their own matrix; controller weights stack along a leading model
    axis. ``route`` (B,) names each row's model. ``None`` runs every
    row on model 0 and broadcasts its operands without a copy; by the
    module's batch-independence contract both give a row the same bits.
    """

    def __init__(self, weights: Sequence[MannWeights]):
        config = weights[0].config
        self.hops = config.hops
        self._vocab = config.vocab_size
        self._memory_sizes = np.array([w.config.memory_size for w in weights])
        self.memory_size = int(self._memory_sizes.max())
        # Columns [:E] of ``_w_emb_ac`` are the address side, [E:] the
        # content side: one gather serves both memories.
        self._model_rows = self._vocab + self.memory_size
        blocks = []
        for w in weights:
            words = np.concatenate([w.w_emb_a, w.w_emb_c], axis=1)
            temporal = np.concatenate([w.t_a, w.t_c], axis=1)
            # A slot sums its words and its temporal row in one
            # reduction, so both must already be in the dtype it runs in.
            if words.dtype != temporal.dtype:
                raise ValueError(
                    f"word embeddings are {words.dtype} but temporal vectors "
                    f"are {temporal.dtype}: the write phase sums both in one dtype"
                )
            temporal = np.pad(temporal, ((0, self.memory_size - len(temporal)), (0, 0)))
            blocks.append(np.concatenate([words, temporal]))
        self._w_emb_ac = np.concatenate(blocks)
        self._w_emb_ac[:: self._model_rows] = 0
        self._w_emb_q = np.concatenate([w.w_emb_q for w in weights])
        self._w_emb_q[:: self._vocab] = 0
        # Eq. 4 runs as ``w_r.T @ key``, one gemv per row
        # (:func:`~repro.mips.backend.inner_products`), over operands
        # transposed once here.
        self._w_r_t = np.ascontiguousarray(
            np.stack([w.w_r for w in weights]).transpose(0, 2, 1)
        )

    @property
    def dtype(self) -> np.dtype:
        """The dtype every memory row and hop runs in: the weights'."""
        return self._w_emb_ac.dtype

    # -- write path ----------------------------------------------------
    def _new_memory(self, batch: int, slots: int) -> np.ndarray:
        """Zeroed ``(2, B, L, E)`` memory: ``[0]`` is the address memory,
        ``[1]`` the content memory. Each is contiguous because the hop
        einsums run ~1.4x slower over the strided halves of a
        ``(B, L, 2E)`` array."""
        embed = self._w_emb_ac.shape[1] // 2
        return np.zeros((2, batch, slots, embed), dtype=self._w_emb_ac.dtype)

    def memory_rows(
        self,
        sentences: np.ndarray,
        slots: np.ndarray,
        model: np.ndarray | None = None,
    ) -> np.ndarray:
        """Memory rows (Eq. 2 plus the temporal vectors) ``(N, 2E)``,
        ``[address | content]``, of ``(N, W)`` sentences written to
        ``slots`` (N,) of models ``model`` (N,; None: model 0). Each
        sentence gathers its W word rows and then its slot's temporal
        row, so its sum equals ``bow + t`` bit for bit."""
        n, words = sentences.shape
        index = np.empty((words + 1, n), dtype=np.int64)
        index[:words] = sentences.T
        index[words] = slots + self._vocab
        if model is not None:
            index += model * self._model_rows
        return _bag_of_words(self._w_emb_ac, index.T)

    def _embed_into(
        self,
        memory: np.ndarray,
        stories: np.ndarray,
        cells: np.ndarray,
        model: np.ndarray | None,
    ) -> None:
        """Write the memory rows of the sentences at flat ``(B * L)``
        indices ``cells`` of ``stories`` into the same cells of
        ``memory``, one scatter along the flat cell axis for both
        memories; sentence n belongs to a story of model ``model[n]``
        (None: every sentence is model 0's)."""
        batch, slots, words = stories.shape
        rows = self.memory_rows(
            stories.reshape(-1, words).take(cells, axis=0), cells % slots, model
        )
        memory.reshape(2, batch * slots, -1)[:, cells] = rows.reshape(
            len(cells), 2, -1
        ).swapaxes(0, 1)

    def write_memory(
        self,
        stories: np.ndarray,
        lengths: np.ndarray,
        route: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Embed every story of the batch into address/content memories.

        Returns ``(mem_a, mem_c, slot_mask)`` with memories of shape
        (B, L, E); rows of pad slots are exactly zero. ``route`` picks
        each row's model (see the class docstring).
        """
        batch, slots, _ = stories.shape
        slot_mask = np.arange(slots)[None, :] < lengths[:, None]  # (B, L)
        # Real sentences only: pad slots are never gathered. Cheaper than
        # the padded layout for every batch but a single row, and the
        # saving grows with the slot padding a mixed batch carries.
        cells = np.flatnonzero(slot_mask)
        memory = self._new_memory(batch, slots)
        self._embed_into(
            memory, stories, cells, None if route is None else route[cells // slots]
        )
        return memory[0], memory[1], slot_mask

    def _write(self, stories, lengths, route):
        """The write phase ``_forward`` runs (engines add their cache)."""
        return self.write_memory(stories, lengths, route)

    # -- read path -----------------------------------------------------
    @staticmethod
    def attention(
        mem_a: np.ndarray, keys: np.ndarray, slot_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Content-based addressing (Eq. 1) for the whole batch.

        Returns ``(scores, weights)`` of shape (B, L); masked slots get
        a score of ``-inf`` and exactly zero attention weight, so the
        softmax normalises over each example's real sentences only.
        """
        scores = np.einsum("ble,be->bl", mem_a, keys, optimize=False)
        scores = np.where(slot_mask, scores, -np.inf)
        shifted = scores - scores.max(axis=1, keepdims=True)
        exps = np.exp(shifted)  # exp(-inf) == 0: pad slots drop out
        # A running sum adds slots strictly left to right; ``sum`` pairs
        # them up in an order that depends on the padded slot count.
        return scores, exps / np.cumsum(exps, axis=1)[:, -1:]

    @staticmethod
    def read_memory(attention: np.ndarray, mem_c: np.ndarray) -> np.ndarray:
        """Read vectors (Eq. 5), (B, E): the innermost loop runs along
        the E output columns while the slots add up in order. A 1-wide
        memory's slots are one contiguous run, which numpy would add
        unrolled; a running sum keeps them left to right."""
        if mem_c.shape[2] == 1:
            return np.cumsum(attention * mem_c[:, :, 0], axis=1)[:, -1:]
        return np.einsum("bl,ble->be", attention, mem_c, optimize=False)

    def embed_questions(
        self, questions: np.ndarray, route: np.ndarray | None = None
    ) -> np.ndarray:
        """The first read keys (Eq. 3, t = 1): each question's
        bag-of-words embedding, shape (B, E). ``route`` picks each row's
        model (see the class docstring)."""
        if route is not None:
            questions = questions + (route * self._vocab)[:, None]
        return _bag_of_words(self._w_emb_q, questions)

    # -- forward -------------------------------------------------------
    def _resolve_lengths(
        self, stories: np.ndarray, lengths: np.ndarray | None
    ) -> np.ndarray:
        batch, slots, _ = stories.shape
        if lengths is None:
            return infer_story_lengths(stories)
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (batch,):
            raise ValueError(
                f"lengths has shape {lengths.shape}, expected ({batch},)"
            )
        if np.any((lengths < 1) | (lengths > slots)):
            raise ValueError(f"story lengths outside [1, {slots}]")
        return lengths

    def _forward(
        self,
        stories: np.ndarray,
        questions: np.ndarray,
        lengths: np.ndarray | None,
        record: bool,
        route: np.ndarray | None = None,
    ) -> tuple[np.ndarray, BatchTrace | None]:
        """Run Eqs. 1-5; returns final controller outputs (B, E)."""
        stories = np.asarray(stories, dtype=np.int64)
        questions = np.asarray(questions, dtype=np.int64)
        if stories.ndim != 3:
            raise ValueError(f"stories must be 3-D, got shape {stories.shape}")
        if questions.ndim != 2:
            raise ValueError(f"questions must be 2-D, got shape {questions.shape}")
        if len(questions) != len(stories):
            raise ValueError("stories and questions must have the same length")
        if stories.shape[1] > self.memory_size:
            raise ValueError(
                f"stories have {stories.shape[1]} slots, engine supports "
                f"at most {self.memory_size}"
            )
        lengths = self._resolve_lengths(stories, lengths)
        if route is not None and np.any(lengths > self._memory_sizes[route]):
            raise ValueError("a story is longer than its model's memory")
        # A word index outside [0, V) must fail whatever the batch: ``take``
        # wraps a negative one to the end of the gather matrix, and a
        # stacked call would read another model's rows.
        for words in (stories, questions):
            if words.size and (words.min() < 0 or words.max() >= self._vocab):
                raise IndexError(f"word index outside [0, {self._vocab})")

        mem_a, mem_c, slot_mask = self._write(stories, lengths, route)
        trace = (
            BatchTrace(mem_a=mem_a, mem_c=mem_c, slot_mask=slot_mask)
            if record
            else None
        )

        w_r_t = self._w_r_t[0] if route is None else self._w_r_t[route]
        key = self.embed_questions(questions, route)  # Eq. 3, t=1: (B, E)
        h = key
        for _ in range(self.hops):
            scores, attention = self.attention(mem_a, key, slot_mask)  # Eq. 1
            read = self.read_memory(attention, mem_c)  # Eq. 5
            h = read + inner_products(key, w_r_t)  # Eq. 4
            if trace is not None:
                trace.keys.append(key)
                trace.scores.append(scores)
                trace.attentions.append(attention)
                trace.reads.append(read)
                trace.controller_outputs.append(h)
            key = h  # Eq. 3, t > 1

        return h, trace


class BatchInferenceEngine(_ForwardPass):
    """Vectorised Eqs. 1-6 on frozen weights, a whole batch at a time.

    Padding is handled by masks rather than by trusting the trained
    pad row: word index 0 contributes nothing to any embedding (Eq. 2)
    even when the embedding matrices have a non-zero row 0, and
    attention mass beyond a story's real length is exactly zero —
    matching the accelerator, which writes exactly one memory element
    per streamed sentence.

    The output projection (Eq. 6) is pluggable: pass ``mips_backend``
    (a registry name such as ``"exact"``/``"threshold"``/``"alsh"``/
    ``"clustering"``, or an already-built backend instance) and the
    argmax runs through that backend's vectorized ``search_batch``,
    surfacing per-example comparison counts and early-exit flags in
    :class:`BatchTrace`. With no backend (the default) or with the
    exact backend, predictions are the ``np.argmax`` over the full
    logit matrix, and each row's label and logit have the bits of the
    golden trace (this engine on that row alone).

    Serving callers normally do not construct this class directly:
    :func:`repro.serving.open_predictor` wraps it (device ``"sw"``)
    behind typed ``QueryRequest``/``QueryResponse`` objects, and
    :class:`repro.serving.BatchScheduler` feeds it coalesced
    micro-batches from individually submitted requests.
    """

    def __init__(
        self,
        weights: MannWeights,
        mips_backend: str | MipsBackend | None = None,
        *,
        threshold_model=None,
        memory_cache=None,
        **backend_params,
    ):
        # Weights are a frozen snapshot, so the pad-zeroed gather
        # matrices are prepared once (a stack of one model).
        super().__init__([weights])
        self.weights = weights
        self.config = weights.config
        self.mips = self._resolve_backend(
            mips_backend, threshold_model, backend_params
        )
        #: Optional cross-request story-encoding cache
        #: (:class:`repro.serving.cache.MemoryCache`, duck-typed so the
        #: model layer does not depend on the serving layer): when set,
        #: the write phase (Eqs. 1-2) is served from the cache for
        #: replayed stories and identical stories within one batch are
        #: encoded once.
        self.memory_cache = memory_cache

    def _resolve_backend(
        self,
        mips_backend: str | MipsBackend | None,
        threshold_model,
        backend_params: dict,
    ) -> MipsBackend | None:
        if mips_backend is None:
            if threshold_model is not None or backend_params:
                raise ValueError(
                    "backend parameters given without a mips_backend"
                )
            return None
        if isinstance(mips_backend, str):
            return get_backend(mips_backend).build(
                self.weights.w_o,
                threshold_model=threshold_model,
                **backend_params,
            )
        if threshold_model is not None or backend_params:
            raise ValueError(
                "threshold_model/backend parameters cannot be combined "
                "with an already-built backend instance"
            )
        if mips_backend.weight.shape[0] != self.config.vocab_size:
            raise ValueError(
                f"mips backend covers {mips_backend.weight.shape[0]} indices, "
                f"model vocabulary is {self.config.vocab_size}"
            )
        return mips_backend

    # -- write path ----------------------------------------------------
    def write_memory_cached(
        self, stories: np.ndarray, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Memory write (Eqs. 1-2) through :attr:`memory_cache`.

        Bit-identical to :meth:`write_memory` by construction: each
        memory row is its sentence's word rows and then its slot's
        temporal row, added left to right, whatever the chunk, batch or
        slot padding it is computed in. So the real sentences of the
        batch's cache misses — one representative per distinct story
        (within-flush dedupe) — are embedded straight into the flush's
        memory by the call :meth:`write_memory` makes, and each
        duplicate copies its representative's rows. Cached rows are
        trimmed to the story's real length; the rows at and beyond it
        are exactly zero either way.

        One pass over the rows builds each row's exact story key once
        (:meth:`~repro.serving.cache.MemoryCache.key`). A row whose key
        already missed earlier in this flush joins that story's group
        (a dedupe); any other row looks the key up. Misses are embedded
        together and put in first-seen order. Falls back to the plain
        path when no cache is configured.
        """
        cache = self.memory_cache
        if cache is None:
            return self.write_memory(stories, lengths)
        batch, slots, _ = stories.shape
        memory = self._new_memory(batch, slots)
        mem_a, mem_c = memory
        slot_mask = np.arange(slots)[None, :] < lengths[:, None]
        n_rows = lengths.tolist()
        # key -> the rows of one story missed in this flush, first row first
        missed: dict[tuple[int, bytes], list[int]] = {}
        dedupes = 0
        for i, n in enumerate(n_rows):
            key = cache.key(stories[i, :n])
            rows = missed.get(key)
            if rows is not None:
                rows.append(i)  # duplicate within this flush
                dedupes += 1
                continue
            hit = cache.get(key)
            if hit is None:
                missed[key] = [i]
            else:
                mem_a[i, :n], mem_c[i, :n] = hit
        if dedupes:
            cache.note_dedupe(dedupes)
        if missed:
            reps = np.array([rows[0] for rows in missed.values()])
            # Real sentences only, story by story, as write_memory.
            cells = reps[:, None] * slots + np.arange(slots)
            self._embed_into(memory, stories, cells[slot_mask[reps]], None)
            for key, (first, *rest) in missed.items():
                n = n_rows[first]
                cache.put(key, mem_a[first, :n], mem_c[first, :n])
                if rest:
                    memory[:, rest] = memory[:, [first]]
        return mem_a, mem_c, slot_mask

    def _write(self, stories, lengths, route):
        # One model, so ``route`` is None: the story cache serves it.
        return self.write_memory_cached(stories, lengths)

    def _project(self, h: np.ndarray) -> np.ndarray:
        """Full output projection (Eq. 6): logits (B, V), one gemv per
        row."""
        return inner_products(h, self.weights.w_o)

    def forward_trace(
        self,
        stories: np.ndarray,
        questions: np.ndarray,
        lengths: np.ndarray | None = None,
    ) -> BatchTrace:
        """Forward pass of the whole batch recording every intermediate.

        ``trace.logits`` is always the full (B, V) matrix; with a MIPS
        backend configured, ``trace.search`` carries the backend's
        stacked per-example statistics and ``trace.predictions`` are the
        backend's labels (identical to the argmax for exact backends).
        The traced path therefore pays Eq. 6 twice (full projection for
        the trace plus the backend's own scan) by design;
        the untraced ``predict``/``search`` path pays only the backend.
        """
        h, trace = self._forward(stories, questions, lengths, record=True)
        trace.logits = self._project(h)
        if self.mips is None:
            trace.predictions = np.argmax(trace.logits, axis=1)
        else:
            trace.search = self.mips.search_batch(h)
            trace.predictions = trace.search.labels
        return trace

    def logits(
        self,
        stories: np.ndarray,
        questions: np.ndarray,
        lengths: np.ndarray | None = None,
    ) -> np.ndarray:
        """Logit matrix (B, V) without recording intermediates."""
        h, _ = self._forward(stories, questions, lengths, record=False)
        return self._project(h)

    def search(
        self,
        stories: np.ndarray,
        questions: np.ndarray,
        lengths: np.ndarray | None = None,
    ) -> BatchSearchResult:
        """Run the output search via the configured MIPS backend."""
        if self.mips is None:
            raise ValueError(
                "engine was built without a MIPS backend; pass "
                "mips_backend= to BatchInferenceEngine"
            )
        h, _ = self._forward(stories, questions, lengths, record=False)
        return self.mips.search_batch(h)

    def predict(
        self,
        stories: np.ndarray,
        questions: np.ndarray,
        lengths: np.ndarray | None = None,
    ) -> np.ndarray:
        """Greedy predictions (B,) for the whole batch."""
        if self.mips is None:
            return np.argmax(self.logits(stories, questions, lengths), axis=1)
        return self.search(stories, questions, lengths).labels

    def accuracy(
        self,
        stories: np.ndarray,
        questions: np.ndarray,
        answers: np.ndarray,
        lengths: np.ndarray | None = None,
    ) -> float:
        preds = self.predict(stories, questions, lengths)
        return float((preds == np.asarray(answers)).mean())


class EngineStack(_ForwardPass):
    """Several same-shaped engines answered in one forward pass.

    Row b of :meth:`search` runs on ``engines[route[b]]`` and gets the
    bits that engine's own :meth:`BatchInferenceEngine.search` gives it
    (the module's batch-independence contract): a batch that mixes
    models costs one call instead of one per model. Word embeddings
    become one (R·V, 2E) gather matrix, and each row gathers its
    model's temporal vectors, controller weights and output operands.

    Engines stack when they share a non-None :meth:`key`. Each
    threshold backend's ``theta`` is snapshotted here: retuning it
    later does not reach the stack.
    """

    def __init__(self, engines: Sequence[BatchInferenceEngine]):
        keys = {self.key(engine) for engine in engines}
        if not engines or None in keys or len(keys) != 1:
            raise ValueError(
                "engines must share one EngineStack.key: same vocabulary, "
                "embedding width, hops, weight dtypes and exact or "
                "threshold backend, and no story cache"
            )
        super().__init__([engine.weights for engine in engines])
        backends = [engine.mips for engine in engines]
        self._ordered_weight = np.stack([b.weight[b.order] for b in backends])
        self._order = np.stack([b.order for b in backends])
        self._theta = (
            np.stack([b.theta[b.order] for b in backends])
            if isinstance(backends[0], InferenceThresholding)
            else None
        )

    @staticmethod
    def key(engine: BatchInferenceEngine) -> tuple | None:
        """Engines with equal keys can stack; None never stacks."""
        backend = type(engine.mips)
        if engine.memory_cache is not None or backend not in _STACKABLE_BACKENDS:
            return None
        config, weights = engine.config, engine.weights
        dtypes = tuple(getattr(weights, name).dtype for name in _WEIGHT_FIELDS)
        return (config.vocab_size, config.embed_dim, config.hops, dtypes, backend)

    def search(
        self,
        stories: np.ndarray,
        questions: np.ndarray,
        lengths: np.ndarray | None,
        route: np.ndarray,
    ) -> BatchSearchResult:
        """Output search (Eq. 6) of every row on its own engine."""
        route = np.asarray(route, dtype=np.int64)
        if route.shape != (len(questions),) or np.any(
            (route < 0) | (route >= len(self._memory_sizes))
        ):
            raise ValueError(
                f"route must hold one engine index in [0, "
                f"{len(self._memory_sizes)}) per row"
            )
        h, _ = self._forward(stories, questions, lengths, record=False, route=route)
        theta = None if self._theta is None else self._theta[route]
        return ordered_scan(
            as_query_matrix(h), self._ordered_weight[route], self._order[route], theta
        )
