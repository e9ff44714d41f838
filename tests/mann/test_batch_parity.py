"""Parity tests for the forward pass (Eqs. 1-6).

The batch engine must reproduce an independent per-example numpy
reference (:func:`reference_trace`, written out below) on arbitrary
weights and ragged batches — including weights whose pad embedding row
is NOT zero, stories with interior all-pad sentences, single-sentence
stories and all-pad questions — to within float tolerance, across many
random seeds. The per-example golden engine
(``InferenceEngine.forward_trace``) runs the batch engine's kernels on
one row, so it must match the batch engine bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mann import (
    BatchInferenceEngine,
    InferenceEngine,
    MannConfig,
    MannWeights,
)
from repro.mann import batch as batch_module
from repro.mann.batch import EngineStack, _bag_of_words
from repro.mann.inference import InferenceTrace
from repro.mips import BatchSearchResult, fit_threshold_model
from repro.serving.cache import MemoryCache

ATOL = 1e-10


def random_weights(
    rng: np.random.Generator,
    vocab: int = 13,
    embed: int = 6,
    memory: int = 5,
    hops: int = 3,
    dtype=np.float64,
) -> MannWeights:
    """Dense random weights — deliberately without a zeroed pad row."""
    config = MannConfig(
        vocab_size=vocab, embed_dim=embed, memory_size=memory, hops=hops
    )

    def m(*shape):
        return rng.normal(0.0, 1.0, size=shape).astype(dtype)

    return MannWeights(
        config=config,
        w_emb_a=m(vocab, embed),
        w_emb_c=m(vocab, embed),
        w_emb_q=m(vocab, embed),
        w_r=m(embed, embed),
        w_o=m(vocab, embed),
        t_a=m(memory, embed),
        t_c=m(memory, embed),
    )


def random_batch(
    rng: np.random.Generator,
    vocab: int = 13,
    memory: int = 5,
    sentence_len: int = 4,
    batch: int = 12,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ragged stories: random lengths, random interior pads."""
    stories = rng.integers(1, vocab, size=(batch, memory, sentence_len))
    questions = rng.integers(1, vocab, size=(batch, sentence_len))
    lengths = rng.integers(1, memory + 1, size=batch)
    # Zero everything past each story's length and sprinkle pad tokens
    # inside real sentences (including some fully-pad sentences).
    slot_mask = np.arange(memory)[None, :] < lengths[:, None]
    stories *= slot_mask[:, :, None]
    stories[rng.random(stories.shape) < 0.25] = 0
    questions[rng.random(questions.shape) < 0.25] = 0
    return stories.astype(np.int64), questions.astype(np.int64), lengths


# -- the independent reference: one example at a time, plain numpy ------
def reference_embed(word_indices: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Bag-of-words embedding (Eq. 2): the sum of the non-pad rows."""
    return matrix[word_indices[word_indices != 0]].sum(axis=0)


def reference_trace(
    weights: MannWeights, story: np.ndarray, question: np.ndarray, n: int
) -> InferenceTrace:
    """Eqs. 1-6 for one example over its ``n`` real sentences."""
    w = weights
    trace = InferenceTrace(
        mem_a=np.array(
            [reference_embed(story[s], w.w_emb_a) + w.t_a[s] for s in range(n)]
        ),
        mem_c=np.array(
            [reference_embed(story[s], w.w_emb_c) + w.t_c[s] for s in range(n)]
        ),
    )
    key = reference_embed(question, w.w_emb_q)  # Eq. 3, t=1
    for _ in range(w.config.hops):
        scores = trace.mem_a @ key  # Eq. 1
        exps = np.exp(scores - scores.max())
        attention = exps / exps.sum()
        read = trace.mem_c.T @ attention  # Eq. 5
        h = read + w.w_r.T @ key  # Eq. 4 (key @ w_r for row vectors)
        trace.keys.append(key)
        trace.scores.append(scores)
        trace.attentions.append(attention)
        trace.reads.append(read)
        trace.controller_outputs.append(h)
        key = h  # Eq. 3, t > 1
    trace.logits = w.w_o @ key  # Eq. 6
    trace.prediction = int(np.argmax(trace.logits))
    return trace


def story_length(story: np.ndarray) -> int:
    """Index of the last non-pad sentence + 1; an all-pad story takes one
    slot."""
    used = np.flatnonzero(story.any(axis=1))
    return int(used[-1]) + 1 if used.size else 1


def reference_stack(weights, stories, questions, lengths):
    """Per-example reference results stacked: logits, predictions, h_T."""
    traces = [
        reference_trace(weights, stories[i], questions[i], int(lengths[i]))
        for i in range(len(stories))
    ]
    return (
        np.stack([t.logits for t in traces]),
        np.array([t.prediction for t in traces]),
        np.stack([t.h_final for t in traces]),
    )


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_batch_matches_golden_on_ragged_batches(seed):
    rng = np.random.default_rng(seed)
    weights = random_weights(rng)
    stories, questions, lengths = random_batch(rng)
    golden = InferenceEngine(weights)
    batch = BatchInferenceEngine(weights)

    r_logits, r_preds, r_h = reference_stack(weights, stories, questions, lengths)
    b_logits = batch.logits(stories, questions, lengths)
    b_preds = batch.predict(stories, questions, lengths)
    trace = batch.forward_trace(stories, questions, lengths)

    assert np.allclose(b_logits, r_logits, atol=ATOL)
    assert np.array_equal(b_preds, r_preds)
    assert np.allclose(trace.h_final, r_h, atol=ATOL)
    assert same_bits(trace.logits, b_logits)
    assert np.array_equal(trace.predictions, b_preds)
    for i in range(len(stories)):
        g = golden.forward_trace(stories[i], questions[i], int(lengths[i]))
        assert same_bits(g.logits, b_logits[i])
        assert same_bits(g.h_final, trace.h_final[i])
        assert g.prediction == b_preds[i]


@pytest.mark.parametrize("seed", range(6))
def test_batch_trace_intermediates_match_golden(seed):
    rng = np.random.default_rng(100 + seed)
    weights = random_weights(rng, hops=2)
    stories, questions, lengths = random_batch(rng)
    golden = InferenceEngine(weights)
    trace = BatchInferenceEngine(weights).forward_trace(
        stories, questions, lengths
    )

    for i in range(len(stories)):
        n = int(lengths[i])
        r = reference_trace(weights, stories[i], questions[i], n)
        g = golden.forward_trace(stories[i], questions[i], n)
        assert np.allclose(trace.mem_a[i, :n], r.mem_a, atol=ATOL)
        assert np.allclose(trace.mem_c[i, :n], r.mem_c, atol=ATOL)
        assert same_bits(g.mem_a, trace.mem_a[i, :n])
        assert same_bits(g.mem_c, trace.mem_c[i, :n])
        # Pad slots carry zero memory rows and zero attention mass.
        assert np.all(trace.mem_a[i, n:] == 0)
        assert np.all(trace.mem_c[i, n:] == 0)
        for t in range(weights.config.hops):
            assert np.allclose(trace.keys[t][i], r.keys[t], atol=ATOL)
            assert np.allclose(trace.scores[t][i, :n], r.scores[t], atol=ATOL)
            assert np.all(np.isneginf(trace.scores[t][i, n:]))
            assert np.allclose(
                trace.attentions[t][i, :n], r.attentions[t], atol=ATOL
            )
            assert np.all(trace.attentions[t][i, n:] == 0)
            assert np.isclose(trace.attentions[t][i].sum(), 1.0)
            assert np.allclose(trace.reads[t][i], r.reads[t], atol=ATOL)
            assert np.allclose(
                trace.controller_outputs[t][i], r.controller_outputs[t],
                atol=ATOL,
            )
            assert same_bits(g.keys[t], trace.keys[t][i])
            assert same_bits(g.scores[t], trace.scores[t][i, :n])
            assert same_bits(g.attentions[t], trace.attentions[t][i, :n])
            assert same_bits(g.reads[t], trace.reads[t][i])
            assert same_bits(
                g.controller_outputs[t], trace.controller_outputs[t][i]
            )


@pytest.mark.parametrize("seed", range(8))
def test_inferred_lengths_match_golden_inference(seed):
    """With lengths omitted, every engine infers per-example lengths."""
    rng = np.random.default_rng(200 + seed)
    weights = random_weights(rng)
    stories, questions, _ = random_batch(rng)
    golden = InferenceEngine(weights)
    batch = BatchInferenceEngine(weights)

    lengths = [story_length(story) for story in stories]
    r_logits, _, _ = reference_stack(weights, stories, questions, lengths)
    b_logits = batch.logits(stories, questions)
    assert np.allclose(b_logits, r_logits, atol=ATOL)
    for i in range(len(stories)):
        g = golden.forward_trace(stories[i], questions[i])
        assert same_bits(g.logits, b_logits[i])


def test_degenerate_cases_match_golden():
    rng = np.random.default_rng(7)
    weights = random_weights(rng, memory=4)
    golden = InferenceEngine(weights)
    batch = BatchInferenceEngine(weights)

    memory, width = 4, 4
    one_sentence = np.zeros((memory, width), dtype=np.int64)
    one_sentence[0] = [3, 0, 5, 1]
    all_pad_story = np.zeros((memory, width), dtype=np.int64)
    full_story = rng.integers(1, 13, size=(memory, width))
    stories = np.stack([one_sentence, all_pad_story, full_story])
    questions = np.array(
        [[2, 4, 0, 0], [0, 0, 0, 0], [7, 7, 7, 7]], dtype=np.int64
    )
    lengths = np.array([1, 1, memory])

    r_logits, r_preds, _ = reference_stack(weights, stories, questions, lengths)
    b_logits = batch.logits(stories, questions, lengths)
    assert np.allclose(b_logits, r_logits, atol=ATOL)
    assert np.array_equal(batch.predict(stories, questions, lengths), r_preds)
    for i in range(len(stories)):
        g = golden.forward_trace(stories[i], questions[i], int(lengths[i]))
        assert same_bits(g.logits, b_logits[i])

    # A single-example batch degenerates cleanly too.
    assert np.allclose(
        batch.logits(stories[:1], questions[:1], lengths[:1]),
        r_logits[:1],
        atol=ATOL,
    )


def test_batch_validates_inputs():
    rng = np.random.default_rng(0)
    weights = random_weights(rng, memory=5)
    batch = BatchInferenceEngine(weights)
    stories = np.ones((2, 5, 4), dtype=np.int64)
    questions = np.ones((2, 4), dtype=np.int64)

    with pytest.raises(ValueError):
        batch.logits(stories[0], questions)  # 2-D stories
    with pytest.raises(ValueError):
        batch.logits(stories, questions[0])  # 1-D questions
    with pytest.raises(ValueError):
        batch.logits(stories, questions, np.array([0, 3]))  # length < 1
    with pytest.raises(ValueError):
        batch.logits(stories, questions, np.array([6, 3]))  # length > L
    with pytest.raises(ValueError):
        batch.logits(stories, questions, np.array([3]))  # wrong shape
    with pytest.raises(ValueError):
        batch.logits(np.ones((2, 9, 4), dtype=np.int64), questions)  # L > mem
    # Word indices outside [0, V), with and without a story cache: numpy
    # would wrap a negative one to the end of the vocabulary.
    cached = BatchInferenceEngine(
        weights, memory_cache=MemoryCache(capacity_entries=4)
    )
    for engine in (batch, cached):
        for word in (-1, -100, weights.config.vocab_size):
            bad_stories = stories.copy()
            bad_stories[1, 2, 0] = word
            with pytest.raises(IndexError):
                engine.logits(bad_stories, questions)
            bad_questions = questions.copy()
            bad_questions[0, 3] = word
            with pytest.raises(IndexError):
                engine.logits(stories, bad_questions)


def test_engine_batch_helpers_delegate_to_batch_engine():
    """InferenceEngine.predict/logits_batch/accuracy run the batch path."""
    rng = np.random.default_rng(3)
    weights = random_weights(rng)
    stories, questions, lengths = random_batch(rng, batch=6)
    engine = InferenceEngine(weights)

    assert isinstance(engine.batch, BatchInferenceEngine)
    assert engine.batch is engine.batch  # cached
    assert np.allclose(
        engine.logits_batch(stories, questions, lengths),
        engine.batch.logits(stories, questions, lengths),
    )
    answers = engine.predict(stories, questions, lengths)
    assert engine.accuracy(stories, questions, answers, lengths) == 1.0


# -- batch independence: a row's bits never depend on its batch ---------
def _row_bits(result) -> list:
    """Each row's answer as bits: a search's label and winning logit, or
    a row of the logit matrix."""
    if isinstance(result, BatchSearchResult):
        logits = [logit.tobytes() for logit in result.logits]
        return list(zip(result.labels.tolist(), logits))
    return [row.tobytes() for row in result]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    # Narrow rows too: numpy sums a lone contiguous run of 9 or more
    # values pairwise, so a 1-wide row alone could round unlike the
    # same row in a batch.
    embed=st.one_of(st.sampled_from([1, 2]), st.integers(min_value=8, max_value=24)),
    memory=st.integers(min_value=3, max_value=14),
    batch=st.integers(min_value=2, max_value=8),
    words=st.integers(min_value=5, max_value=12),
    extra_slots=st.integers(min_value=1, max_value=4),
    extra_words=st.integers(min_value=1, max_value=3),
)
@example(seed=1, embed=1, memory=3, batch=5, words=12, extra_slots=1, extra_words=1)
@example(seed=1, embed=2, memory=3, batch=5, words=12, extra_slots=1, extra_words=1)
# Padding 6 real slots to 9 makes a 1-wide Eq. 5 read long enough for
# numpy to unroll it: it fails without the read's running sum.
@example(seed=0, embed=1, memory=6, batch=2, words=5, extra_slots=3, extra_words=1)
def test_search_bits_independent_of_the_batch(
    seed, embed, memory, batch, words, extra_slots, extra_words
):
    """For both stackable backends, ``search`` gives a row the same label
    and logit bits alone, at every position of a larger batch, and with
    extra all-pad slots and words — the contract that lets a served
    answer ignore what it was batched with. ``logits()`` gives a row the
    same bits in each of those layouts too."""
    rng = np.random.default_rng(seed)
    vocab = 17
    weights = random_weights(
        rng, vocab=vocab, embed=embed, memory=memory + extra_slots
    )
    stories, questions, lengths = random_batch(
        rng, vocab=vocab, memory=memory, sentence_len=words, batch=batch
    )
    train_logits = rng.normal(size=(80, vocab))
    model = fit_threshold_model(train_logits, train_logits.argmax(axis=1))
    padded_stories = np.pad(stories, ((0, 0), (0, extra_slots), (0, extra_words)))
    padded_questions = np.pad(questions, ((0, 0), (0, extra_words)))
    calls = {"logits": BatchInferenceEngine(weights).logits}
    for backend in ("exact", "threshold"):
        calls[backend] = BatchInferenceEngine(
            weights, backend, threshold_model=model
        ).search
    for name, call in calls.items():
        whole = _row_bits(call(stories, questions, lengths))
        alone = [
            _row_bits(
                call(stories[i : i + 1], questions[i : i + 1], lengths[i : i + 1])
            )[0]
            for i in range(batch)
        ]
        assert whole == alone, name
        padded = call(padded_stories, padded_questions, lengths)
        assert _row_bits(padded) == whole, name
        for shift in range(1, batch):
            order = np.roll(np.arange(batch), shift)
            moved = call(stories[order], questions[order], lengths[order])
            assert _row_bits(moved) == [whole[i] for i in order], name


# -- chunked bag-of-words gather: bit identity across chunk boundaries ---
CHUNK = 10  # story sentences per gather chunk in the tests below


def shrink_gather_budget(monkeypatch, engine) -> None:
    """Set the kernel's byte budget to exactly CHUNK story sentences of
    random_batch's 4 words plus their temporal row, so small batches
    cross chunk boundaries. Questions (4 words, half as wide an
    embedding) get 2.5 * CHUNK rows a chunk."""
    sentence_bytes = (4 + 1) * engine._w_emb_ac[0].nbytes
    monkeypatch.setattr(batch_module, "_GATHER_BUDGET_BYTES", CHUNK * sentence_bytes)


def one_shot_write(engine, stories, lengths):
    """The write phase as one (B, L, W, 2E) gather-and-sum: the
    reference every chunked path must match bit for bit."""
    w = engine.weights
    embed = w.config.embed_dim
    slots = stories.shape[1]
    m = (np.arange(slots)[None, :] < lengths[:, None])[:, :, None]
    bow = engine._w_emb_ac[stories].sum(axis=2)
    mem_a = (bow[..., :embed] + w.t_a[:slots]) * m
    mem_c = (bow[..., embed:] + w.t_c[:slots]) * m
    return mem_a, mem_c


def assert_same_bits_on_real_slots(expected, actual, lengths):
    assert expected.dtype == actual.dtype
    for i, n in enumerate(lengths):
        assert expected[i, :n].tobytes() == actual[i, :n].tobytes()
        assert not actual[i, n:].any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "batch_size",
    # x 5 slots = 5, 10, 20, 25, 120 and 150 sentences against CHUNK =
    # 10: below, at, a multiple of, not a multiple of, and well above
    # one chunk; 30 questions cross the questions' 25-row chunk too.
    [1, 2, 4, 5, 24, 30],
)
def test_write_memory_bit_identical_across_chunks(monkeypatch, dtype, batch_size):
    rng = np.random.default_rng(300 + batch_size)
    weights = random_weights(rng, dtype=dtype)
    stories, questions, lengths = random_batch(rng, batch=batch_size)
    engine = BatchInferenceEngine(weights)
    shrink_gather_budget(monkeypatch, engine)

    ref_a, ref_c = one_shot_write(engine, stories, lengths)
    mem_a, mem_c, _ = engine.write_memory(stories, lengths)
    assert_same_bits_on_real_slots(ref_a, mem_a, lengths)
    assert_same_bits_on_real_slots(ref_c, mem_c, lengths)
    trace = engine.forward_trace(stories, questions, lengths)
    expected_keys = engine._w_emb_q[questions].sum(axis=1)
    assert trace.keys[0].tobytes() == expected_keys.tobytes()

    # The stacked write: each row's word offsets and temporal rows come
    # from its own model (memories zero-padded to 9 slots) across the
    # same chunk boundaries.
    models = [weights] + [random_weights(rng, memory=m, dtype=dtype) for m in (7, 9)]
    stack = EngineStack([BatchInferenceEngine(w, "exact") for w in models])
    route = rng.integers(0, len(models), batch_size)
    mem_a, mem_c, _ = stack.write_memory(stories, lengths, route)
    for r, w in enumerate(models):
        rows = route == r
        ref_a, ref_c = one_shot_write(
            BatchInferenceEngine(w), stories[rows], lengths[rows]
        )
        assert_same_bits_on_real_slots(ref_a, mem_a[rows], lengths[rows])
        assert_same_bits_on_real_slots(ref_c, mem_c[rows], lengths[rows])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cached_miss_path_bit_identical_across_chunks(monkeypatch, dtype):
    """One flush mixing cache hits, misses and within-flush duplicates:
    the miss path embeds only real sentences, several chunks' worth,
    and must reproduce the padded whole-batch write bit for bit."""
    rng = np.random.default_rng(400)
    weights = random_weights(rng, dtype=dtype)
    stories, _, lengths = random_batch(rng, batch=12)
    cache = MemoryCache(capacity_entries=64)
    engine = BatchInferenceEngine(weights, memory_cache=cache)
    shrink_gather_budget(monkeypatch, engine)

    engine.write_memory_cached(stories[:4], lengths[:4])  # rows 0-3 will hit
    rows = list(range(12)) + [5, 9, 5]  # rows 5 and 9 repeat in the flush
    flush, flush_lengths = stories[rows], lengths[rows]
    mem_a, mem_c, _ = engine.write_memory_cached(flush, flush_lengths)
    assert (cache.stats.hits, cache.stats.misses, cache.stats.dedupes) == (4, 12, 3)
    assert lengths[4:].sum() > CHUNK  # the misses span several chunks

    ref_a, ref_c = one_shot_write(engine, flush, flush_lengths)
    plain_a, plain_c, _ = engine.write_memory(flush, flush_lengths)
    for expected_a, expected_c in ((ref_a, ref_c), (plain_a, plain_c)):
        assert_same_bits_on_real_slots(expected_a, mem_a, flush_lengths)
        assert_same_bits_on_real_slots(expected_c, mem_c, flush_lengths)


class TestEmbeddingDtype:
    """Regression: embeddings must follow the matrix dtype, including
    the empty-sentence zero vector (previously always float64)."""

    def test_mixed_embedding_and_temporal_dtypes_rejected(self):
        """A slot sums its words and its temporal row in one reduction:
        float64 temporal vectors would lift float32 word sums to float64."""
        rng = np.random.default_rng(5)
        weights = random_weights(rng, dtype=np.float32)
        mixed = dataclasses.replace(
            weights,
            t_a=weights.t_a.astype(np.float64),
            t_c=weights.t_c.astype(np.float64),
        )
        with pytest.raises(ValueError, match="float32.*float64"):
            BatchInferenceEngine(mixed)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_embedding_dtype(self, dtype):
        rng = np.random.default_rng(2)
        weights = random_weights(rng, dtype=dtype)
        batch = BatchInferenceEngine(weights)
        indices = np.array([[0, 0, 0, 0], [3, 0, 5, 0]], dtype=np.int64)
        out = _bag_of_words(batch._w_emb_q, indices)
        assert out.dtype == dtype
        assert np.array_equal(out[0], np.zeros(weights.config.embed_dim, dtype))
        assert np.array_equal(out[1], weights.w_emb_q[3] + weights.w_emb_q[5])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logits_dtype_follows_weights(self, dtype):
        rng = np.random.default_rng(4)
        weights = random_weights(rng, dtype=dtype)
        stories, questions, lengths = random_batch(rng, batch=3)
        engine = InferenceEngine(weights)
        assert engine.logits_batch(stories, questions, lengths).dtype == dtype
        assert (
            engine.forward_trace(stories[0], questions[0], int(lengths[0]))
            .logits.dtype
            == dtype
        )
