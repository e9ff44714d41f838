"""Seeded workload generator: models, request pools, reference answers.

One module builds every input the benchmark feeds the serving stack:

* the **bAbI suite** (20 tasks, trained with a fixed seed, so the model
  never depends on ``--seed``) and its request pool — every test example
  of every task, drawn with a uniform task mix;
* the **synthetic model** shaped like a production deployment (V=400,
  E=64, L=32, W=10, fixed-seed random weights) wrapped as a one-task
  suite so it goes through the same artifact save/load path, with a
  **zipf** story pool (384 stories, s=1.2, independent questions) and a
  **fresh-story** pool (8,192 stories visited in one fixed cycle, so the
  reuse distance is far beyond the 96-entry story cache);
* the **item stream** — which pool item each request carries — and, for
  the open loop, the **arrival schedule**, both from ``--seed``.

The serving stack only ever receives the generated ``QueryRequest``
objects. Reference answers come from ``BatchInferenceEngine.search`` on
the in-memory weights, outside the serving stack (no artifacts, no
cache, no router, no scheduler).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.babi.dataset import EncodedBatch
from repro.babi.vocab import Vocab
from repro.eval.suite import BabiSuite, SuiteConfig, TaskSystem
from repro.mann.batch import BatchInferenceEngine
from repro.mann.config import MannConfig
from repro.mann.inference import InferenceEngine
from repro.mann.trainer import TrainResult
from repro.mann.weights import MannWeights
from repro.mips.thresholding import fit_threshold_model
from repro.serving import QueryRequest

# bAbI suite: the default SuiteConfig sizes give the paper's shapes
# (V=158, E=20, L<=14); a short training run is enough because the
# benchmark measures serving, and answers are checked against the same
# weights, not against bAbI labels.
BABI_CONFIG = SuiteConfig(n_train=200, n_test=100, epochs=8, seed=7)
BABI_BACKEND = dict(mips_backend="threshold", rho=1.0)

SYNTH_VOCAB, SYNTH_EMBED, SYNTH_SLOTS, SYNTH_WORDS = 400, 64, 32, 10
SYNTH_TASK = 0
SYNTH_WEIGHT_SEED = 11
ZIPF_STORIES, ZIPF_QUESTIONS, ZIPF_S = 384, 16, 1.2
FRESH_STORIES = 8192
CACHE_ENTRIES = 96

# Reference answers are computed in chunks of at least two rows: numpy
# routes a one-row matmul through BLAS gemv, whose last bits differ from
# the gemm every multi-row batch uses (see Pool.check).
REF_CHUNK = 256


@dataclass
class Pool:
    """Distinct requests a workload draws from, with their references.

    ``ref_labels``/``ref_logits`` are the engine's answers when the item
    is computed together with other rows. A serving flush that hands a
    route a single row takes numpy's matrix-vector path instead, which
    can change the last bits of the logit; ``check`` therefore accepts
    exactly two answers per item, each bit for bit: the co-batched one
    and the engine's own one-row answer.
    """

    requests: list[QueryRequest]
    engines: dict  # route key -> reference BatchInferenceEngine
    ref_labels: list[int] = field(default_factory=list)
    ref_logits: list[float] = field(default_factory=list)
    _solo: dict = field(default_factory=dict)

    def compute_references(self) -> None:
        by_route: dict = {}
        for i, request in enumerate(self.requests):
            by_route.setdefault(request.task, []).append(i)
        labels = np.zeros(len(self.requests), dtype=np.int64)
        logits = np.zeros(len(self.requests), dtype=np.float64)
        for route, items in by_route.items():
            engine = self.engines[route]
            for lo in range(0, len(items), REF_CHUNK):
                chunk = items[lo : lo + REF_CHUNK]
                if len(chunk) == 1:  # keep every reference call multi-row
                    chunk = items[lo - 1 : lo + 1]
                stories, questions, lengths = _stack([self.requests[i] for i in chunk])
                result = engine.search(stories, questions, lengths)
                labels[chunk] = result.labels
                logits[chunk] = result.logits
        self.ref_labels = labels.tolist()
        self.ref_logits = logits.tolist()

    def compute_solo_references(self) -> None:
        """Answer every item alone up front, for workloads whose flushes
        often hand a route a single row (so the check costs no engine
        call inside the measured window)."""
        for item in range(len(self.requests)):
            self._solo_reference(item)

    def _solo_reference(self, item: int) -> tuple[int, float]:
        if item not in self._solo:
            request = self.requests[item]
            stories, questions, lengths = _stack([request])
            result = self.engines[request.task].search(stories, questions, lengths)
            self._solo[item] = (int(result.labels[0]), float(result.logits[0]))
        return self._solo[item]

    def check(self, item: int, label: int, logit: float) -> bool:
        """Whether a served (label, logit) is bit-identical to a reference."""
        if label == self.ref_labels[item] and _same_bits(logit, self.ref_logits[item]):
            return True
        solo_label, solo_logit = self._solo_reference(item)
        return label == solo_label and _same_bits(logit, solo_logit)


def _same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def _stack(requests):
    stories = np.stack([r.story for r in requests])
    questions = np.stack([r.question for r in requests])
    lengths = np.array([r.n_sentences for r in requests], dtype=np.int64)
    return stories, questions, lengths


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------
def babi_suite() -> BabiSuite:
    """The 20-task suite; seed-fixed, so identical in every run."""
    return BabiSuite.build(BABI_CONFIG)


def babi_pool(suite: BabiSuite) -> Pool:
    """Every test example of every task; item ids grouped by task."""
    requests = []
    for task in suite.task_ids:
        batch = suite.tasks[task].test_batch
        for j in range(len(batch)):
            requests.append(
                QueryRequest(
                    batch.stories[j],
                    batch.questions[j],
                    n_sentences=int(batch.story_lengths[j]),
                    request_id=len(requests),
                    task=task,
                )
            )
    engines = {
        task: suite.tasks[task].batch_engine_with(**BABI_BACKEND)
        for task in suite.task_ids
    }
    pool = Pool(requests, engines)
    pool.compute_references()
    pool.compute_solo_references()  # ~3 rows per route call: many are single
    return pool


def _random_stories(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` stories of L/2..L sentences of W random non-pad words."""
    lengths = rng.integers(SYNTH_SLOTS // 2, SYNTH_SLOTS + 1, n)
    stories = rng.integers(1, SYNTH_VOCAB, (n, SYNTH_SLOTS, SYNTH_WORDS))
    stories[np.arange(SYNTH_SLOTS)[None, :] >= lengths[:, None]] = 0
    return stories.astype(np.int64), lengths.astype(np.int64)


def _random_questions(rng, n: int) -> np.ndarray:
    questions = rng.integers(1, SYNTH_VOCAB, (n, SYNTH_WORDS))
    n_words = rng.integers(3, SYNTH_WORDS + 1, n)
    questions[np.arange(SYNTH_WORDS)[None, :] >= n_words[:, None]] = 0
    return questions.astype(np.int64)


def synth_suite() -> BabiSuite:
    """The production-shaped synthetic model as a one-task suite.

    Weights are N(0, 0.1) from a fixed seed. The few train/test rows
    exist only because the artifact format stores them (and fits a
    threshold model from them); the workloads never draw from them.
    """
    rng = np.random.default_rng(SYNTH_WEIGHT_SEED)
    config = MannConfig(
        vocab_size=SYNTH_VOCAB,
        embed_dim=SYNTH_EMBED,
        memory_size=SYNTH_SLOTS,
        hops=3,
        seed=SYNTH_WEIGHT_SEED,
    )

    def w(*shape):
        return rng.normal(0.0, 0.1, shape)

    v, e, l = SYNTH_VOCAB, SYNTH_EMBED, SYNTH_SLOTS
    weights = MannWeights(
        config, w(v, e), w(v, e), w(v, e), w(e, e), w(v, e), w(l, e), w(l, e)
    )
    engine = InferenceEngine(weights)
    batches = {}
    for split, n in (("train", 64), ("test", 16)):
        stories, lengths = _random_stories(rng, n)
        questions = _random_questions(rng, n)
        logits = engine.batch.logits(stories, questions, lengths)
        batches[split] = (EncodedBatch(stories, questions, logits.argmax(1), lengths), logits)
    train_batch, train_logits = batches["train"]
    system = TaskSystem(
        task_id=SYNTH_TASK,
        train=None,
        test=None,
        train_batch=train_batch,
        test_batch=batches["test"][0],
        weights=weights,
        engine=engine,
        batch_engine=engine.batch,
        threshold_model=fit_threshold_model(train_logits, train_batch.answers),
        train_result=TrainResult(model=None),
        train_logits=train_logits,
    )
    vocab = Vocab(f"w{i}" for i in range(1, SYNTH_VOCAB))
    suite = BabiSuite(
        config=SuiteConfig(task_ids=(SYNTH_TASK,), embed_dim=SYNTH_EMBED, seed=SYNTH_WEIGHT_SEED),
        vocab=vocab,
    )
    suite.tasks[SYNTH_TASK] = system
    return suite


def _synth_pool(suite: BabiSuite, stories, lengths, questions, pairs) -> Pool:
    requests = [
        QueryRequest(
            stories[s],
            questions[q],
            n_sentences=int(lengths[s]),
            request_id=i,
            task=SYNTH_TASK,
        )
        for i, (s, q) in enumerate(pairs)
    ]
    engine = BatchInferenceEngine(suite.tasks[SYNTH_TASK].weights, "exact")
    pool = Pool(requests, {SYNTH_TASK: engine})
    pool.compute_references()
    return pool


def zipf_pool(suite: BabiSuite, seed: int) -> Pool:
    """384 stories x 16 questions; item = story * 16 + question."""
    rng = np.random.default_rng([seed, 1])
    stories, lengths = _random_stories(rng, ZIPF_STORIES)
    questions = _random_questions(rng, ZIPF_QUESTIONS)
    pairs = [(s, q) for s in range(ZIPF_STORIES) for q in range(ZIPF_QUESTIONS)]
    return _synth_pool(suite, stories, lengths, questions, pairs)


def fresh_pool(suite: BabiSuite, seed: int) -> Pool:
    """8,192 distinct stories, each with its own question."""
    rng = np.random.default_rng([seed, 2])
    stories, lengths = _random_stories(rng, FRESH_STORIES)
    questions = _random_questions(rng, FRESH_STORIES)
    pairs = [(s, s) for s in range(FRESH_STORIES)]
    return _synth_pool(suite, stories, lengths, questions, pairs)


# ---------------------------------------------------------------------------
# item streams
# ---------------------------------------------------------------------------
class ItemStream:
    """Endless seeded sequence of pool item ids, drawn in chunks."""

    CHUNK = 1 << 16

    def __init__(self, draw):
        self._draw = draw
        self._buf: list[int] = []
        self._pos = 0

    def __iter__(self):
        return self

    def __next__(self) -> int:
        if self._pos == len(self._buf):
            self._buf = self._draw(self.CHUNK).tolist()
            self._pos = 0
        self._pos += 1
        return self._buf[self._pos - 1]


def uniform_task_stream(suite: BabiSuite, seed: int) -> ItemStream:
    """Uniform task mix, then a uniform test example of that task."""
    rng = np.random.default_rng([seed, 3])
    sizes = np.array([len(suite.tasks[t].test_batch) for t in suite.task_ids])
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    def draw(n):
        tasks = rng.integers(0, len(sizes), n)
        return offsets[tasks] + (rng.random(n) * sizes[tasks]).astype(np.int64)

    return ItemStream(draw)


def zipf_stream(seed: int) -> ItemStream:
    """Story popularity ~ rank^-s; the question is drawn independently."""
    rng = np.random.default_rng([seed, 4])
    ranks = np.arange(1, ZIPF_STORIES + 1, dtype=np.float64)
    p = ranks**-ZIPF_S
    p /= p.sum()

    def draw(n):
        stories = rng.choice(ZIPF_STORIES, size=n, p=p)
        return stories * ZIPF_QUESTIONS + rng.integers(0, ZIPF_QUESTIONS, n)

    return ItemStream(draw)


def fresh_stream(seed: int) -> ItemStream:
    """One seeded permutation of the fresh pool, repeated: every story
    comes back only after all 8,191 others (reuse distance 8,192)."""
    order = np.random.default_rng([seed, 5]).permutation(FRESH_STORIES)
    assert ItemStream.CHUNK % FRESH_STORIES == 0  # chunks end on a cycle
    return ItemStream(lambda n: np.resize(order, n))
