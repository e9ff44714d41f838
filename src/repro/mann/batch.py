"""Vectorised batch inference engine for the MANN (Eqs. 1-6).

Runs the full forward pass over a whole encoded batch in pure numpy
tensor ops — bag-of-words embedding of every story and question in
cache-sized chunks, length-masked softmax attention across all
examples per hop, and a single ``(B, V)`` output projection — with no
per-example Python loop. Results are ``np.allclose``-equal to the
per-example golden engine
(:meth:`repro.mann.inference.InferenceEngine.forward_trace`), which
stays the bit-exact per-example reference the hardware simulator is
co-simulated against; this engine is the fast host-side path that the
evaluation suite, thresholding fits, benchmarks and serving run on.

**Batch independence.** A row's bits depend only on its own story,
question and model: never on the batch size (1 included), the row's
position, or the slot and word padding that wider rows impose on it.
A served answer therefore does not change with what it was batched
with, and :class:`EngineStack` answers rows of several same-shaped
models in one call, bit for bit as each model's own engine. Every
reduction runs in a fixed order over the row's own data:

* bag-of-words sums (Eq. 2) add word columns left to right
  (:func:`_bag_of_words`); pad words add an exact zero;
* the Eq. 1 scores and the Eq. 6 logits are einsum dot products
  whose innermost loop runs along the E axis
  (:func:`~repro.mips.backend.inner_products`), a length no batch
  changes;
* the Eq. 5 read and Eq. 4's ``key @ w_r`` are einsums whose innermost
  loop runs along the E output columns while the slots (resp. key
  entries) add up in order, one at a time;
* the softmax denominator is a running sum over the slots, left to
  right. Pad slots carry zero attention mass, so in the read and the
  denominator they add exact zeros at the end.

BLAS matmul cannot promise this. It picks micro-kernels, and with them
reduction orders, by operand shape: a one-row ``key @ w_r`` runs gemv
where two rows run gemm, and a padded memory changes the gemv shape.
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
    ordered_scan,
)
from repro.mips.exact import ExactMips
from repro.mips.stats import BatchSearchResult
from repro.mips.thresholding import InferenceThresholding

#: Bytes of gathered embedding rows the bag-of-words kernel holds at
#: once: small enough to stay in a core's L2 cache, large enough that
#: the per-chunk interpreter cost stays small. On a 2-vCPU Xeon host at
#: the production shape (V=400, E=64, W=10, a 128-row flush), 256-512
#: KiB chunks ran 2.4-4x faster than one whole-flush gather; 32 KiB and
#: 4 MiB chunks were slower.
_GATHER_BUDGET_BYTES = 256 * 1024


def _bag_of_words(matrix: np.ndarray, sentences: np.ndarray) -> np.ndarray:
    """Bag-of-words embeddings (Eq. 2) of a flat ``(N, W)`` index array.

    Row ``n`` is ``matrix[sentences[n, 0]] + matrix[sentences[n, 1]] +
    ...`` added left to right: numpy reduces the words axis, which is
    not the contiguous one, one word column at a time. A row's bits
    therefore depend only on its own words, not on ``N``, the chunk it
    lands in, or the batch and slot padding it came from. Pad tokens
    gather ``matrix[0]``, which callers zero. The ``(N, W, D)`` gather
    is materialised at most ``_GATHER_BUDGET_BYTES`` at a time.
    """
    # ``take`` gathers the same rows as ``matrix[sentences]``, 7-40%
    # faster on the serving shapes (no advanced-indexing machinery).
    word_bytes = matrix.shape[1] * matrix.itemsize
    if sentences.size * word_bytes <= _GATHER_BUDGET_BYTES:
        return matrix.take(sentences, axis=0).sum(axis=1)
    n, words = sentences.shape
    chunk = max(1, _GATHER_BUDGET_BYTES // (words * word_bytes))
    out = np.empty((n, matrix.shape[1]), dtype=matrix.dtype)
    for lo in range(0, n, chunk):
        matrix.take(sentences[lo : lo + chunk], axis=0).sum(
            axis=1, out=out[lo : lo + chunk]
        )
    return out


def infer_story_lengths(stories: np.ndarray) -> np.ndarray:
    """Per-example story length: index of the last non-pad sentence + 1.

    Fully-empty stories count as occupying one (all-pad) slot — the
    same inference the golden engine applies per example. Shared by
    the batch engine and the serving facade so both paths infer
    identical lengths when the caller does not pin them.
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
    vocabulary size, embedding width and hop count. Word embeddings sit
    in gather matrices with model r's rows at offset ``r * V`` (every
    model's pad row zeroed, so a pad token gathers nothing whatever its
    model); temporal vectors and controller weights stack along a
    leading model axis, temporal vectors zero-padded to the longest
    memory. ``route`` (B,) names each row's model. ``None``
    runs every row on model 0 and broadcasts its operands without a
    copy; by the module's batch-independence contract both give a row
    the same bits.
    """

    def __init__(self, weights: Sequence[MannWeights]):
        config = weights[0].config
        self.hops = config.hops
        self._vocab = config.vocab_size
        self._memory_sizes = np.array([w.config.memory_size for w in weights])
        self.memory_size = int(self._memory_sizes.max())
        # Columns [:E] of ``_w_emb_ac`` are the address embedding, [E:]
        # the content embedding: one gather serves both memories.
        self._w_emb_ac = np.concatenate(
            [np.concatenate([w.w_emb_a, w.w_emb_c], axis=1) for w in weights]
        )
        self._w_emb_ac[:: self._vocab] = 0
        self._w_emb_q = np.concatenate([w.w_emb_q for w in weights])
        self._w_emb_q[:: self._vocab] = 0
        shape = (len(weights), self.memory_size, config.embed_dim)
        self._t_a = np.zeros(shape, dtype=weights[0].t_a.dtype)
        self._t_c = np.zeros(shape, dtype=weights[0].t_c.dtype)
        for r, w in enumerate(weights):
            self._t_a[r, : w.config.memory_size] = w.t_a
            self._t_c[r, : w.config.memory_size] = w.t_c
        self._w_r = np.stack([w.w_r for w in weights])

    # -- write path ----------------------------------------------------
    def _embed_sentences(
        self, sentences: np.ndarray, slot: np.ndarray, model: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Address/content memory rows (Eq. 2 plus the temporal
        vectors) of a flat ``(N, W)`` sentence array: sentence n fills
        slot ``slot[n]`` of a story of model ``model[n]`` (None: every
        sentence is model 0's)."""
        if model is None:
            t_a, t_c = self._t_a[0, slot], self._t_c[0, slot]
        else:
            sentences = sentences + (model * self._vocab)[:, None]
            t_a, t_c = self._t_a[model, slot], self._t_c[model, slot]
        # One fused gather serves both memories; pad tokens gather the
        # zeroed row and contribute nothing.
        bow = _bag_of_words(self._w_emb_ac, sentences)
        embed = t_a.shape[1]
        return bow[:, :embed] + t_a, bow[:, embed:] + t_c

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
        example, slot = np.nonzero(slot_mask)
        rows_a, rows_c = self._embed_sentences(
            stories[example, slot], slot, None if route is None else route[example]
        )
        mem_a = np.zeros((batch, slots, rows_a.shape[1]), dtype=rows_a.dtype)
        mem_c = np.zeros((batch, slots, rows_c.shape[1]), dtype=rows_c.dtype)
        mem_a[example, slot] = rows_a
        mem_c[example, slot] = rows_c
        return mem_a, mem_c, slot_mask

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
        if route is not None:
            if np.any(lengths > self._memory_sizes[route]):
                raise ValueError("a story is longer than its model's memory")
            # A word index outside [0, V) would read another model's rows
            # of the shared gather matrices instead of failing.
            for words in (stories, questions):
                if words.size and (words.min() < 0 or words.max() >= self._vocab):
                    raise IndexError(f"word index outside [0, {self._vocab})")

        mem_a, mem_c, slot_mask = self._write(stories, lengths, route)
        trace = (
            BatchTrace(mem_a=mem_a, mem_c=mem_c, slot_mask=slot_mask)
            if record
            else None
        )

        if route is None:
            w_r, eq4 = self._w_r[0], "be,ef->bf"
        else:
            questions = questions + (route * self._vocab)[:, None]
            w_r, eq4 = self._w_r[route], "be,bef->bf"
        key = _bag_of_words(self._w_emb_q, questions)  # Eq. 3, t=1: (B, E)
        h = key
        for _ in range(self.hops):
            scores, attention = self.attention(mem_a, key, slot_mask)  # Eq. 1
            # Eqs. 5 and 4: each innermost loop runs along the E output
            # columns, and slots (resp. key entries) add up in order.
            read = np.einsum("bl,ble->be", attention, mem_c, optimize=False)
            h = read + np.einsum(eq4, key, w_r, optimize=False)
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
    matching the golden engine, which writes exactly one memory element
    per streamed sentence.

    The output projection (Eq. 6) is pluggable: pass ``mips_backend``
    (a registry name such as ``"exact"``/``"threshold"``/``"alsh"``/
    ``"clustering"``, or an already-built backend instance) and the
    argmax runs through that backend's vectorized ``search_batch``,
    surfacing per-example comparison counts and early-exit flags in
    :class:`BatchTrace`. With no backend (the default) or with the
    exact backend, predictions are bit-identical to the golden trace's
    ``np.argmax`` over the full logit matrix.

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
        memory row is its sentence's left-to-right sum over word
        columns plus the slot's temporal vector, whatever the chunk,
        batch or slot padding it is computed in. So embedding only the
        real sentences of the batch's cache misses — one representative
        per distinct story (within-flush dedupe) — and scattering the
        rows back yields exactly the arrays a full recompute would.
        Cached rows are trimmed to the story's real length; the rows at
        and beyond it are exactly zero either way. Falls back to the
        plain path when no cache is configured.
        """
        cache = self.memory_cache
        if cache is None:
            return self.write_memory(stories, lengths)
        w = self.weights
        batch, slots, _ = stories.shape
        embed = self.config.embed_dim
        dtype = np.result_type(self._w_emb_ac, w.t_a)
        mem_a = np.zeros((batch, slots, embed), dtype=dtype)
        mem_c = np.zeros((batch, slots, embed), dtype=dtype)
        slot_mask = np.arange(slots)[None, :] < lengths[:, None]
        #: key -> story groups sharing that hash, each group the rows of
        #: one *verified-equal* story, so duplicates inside one flush
        #: encode once and fan out (within-flush dedupe). Same guard as
        #: the cache itself: hash equality never substitutes for array
        #: equality, so colliding stories land in separate groups.
        pending: dict[bytes, list[list[int]]] = {}
        groups: list[tuple[bytes, list[int]]] = []
        for i in range(batch):
            trimmed = stories[i, : lengths[i]]
            key = cache.key(trimmed)
            deduped = False
            for rows in pending.get(key, ()):
                rep = rows[0]
                if lengths[rep] == lengths[i] and np.array_equal(
                    stories[rep, : lengths[rep]], trimmed
                ):
                    rows.append(i)  # duplicate within this flush
                    cache.note_dedupe()
                    deduped = True
                    break
            if deduped:
                continue
            hit = cache.get(key, trimmed)
            if hit is not None:
                rows_a, rows_c = hit
                mem_a[i, : rows_a.shape[0]] = rows_a
                mem_c[i, : rows_c.shape[0]] = rows_c
            else:
                rows = [i]
                pending.setdefault(key, []).append(rows)
                groups.append((key, rows))
        if groups:
            reps = np.array([rows[0] for _, rows in groups])
            # Real sentences only, story by story, as write_memory.
            example, slot = np.nonzero(slot_mask[reps])
            miss_a, miss_c = self._embed_sentences(
                stories[reps[example], slot], slot, None
            )
            end = 0
            for key, rows in groups:
                n = lengths[rows[0]]
                rows_a = miss_a[end : end + n]
                rows_c = miss_c[end : end + n]
                end += n
                cache.put(key, stories[rows[0], :n], rows_a, rows_c)
                for i in rows:
                    mem_a[i, :n] = rows_a
                    mem_c[i, :n] = rows_c
        return mem_a, mem_c, slot_mask

    def _write(self, stories, lengths, route):
        # One model, so ``route`` is None: the story cache serves it.
        return self.write_memory_cached(stories, lengths)

    def _project(self, h: np.ndarray) -> np.ndarray:
        """Full output projection (Eq. 6): logits (B, V)."""
        return h @ self.weights.w_o.T

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
        the golden-parity trace plus the backend's own scan) by design;
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
