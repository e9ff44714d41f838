"""Typed messages exchanged between modules over the FIFOs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StartExampleMsg:
    """Control word opening one QA example's stream."""

    n_sentences: int
    hops: int


@dataclass(frozen=True)
class SentenceMsg:
    """One story sentence: the word indices to embed and write."""

    slot: int
    word_indices: np.ndarray  # (W,) word indices, pad words 0


@dataclass(frozen=True)
class QuestionMsg:
    """The question's word indices (terminates the write stream)."""

    word_indices: np.ndarray


@dataclass(frozen=True)
class MemoryRowMsg:
    """An embedded sentence headed for the address/content memories."""

    slot: int
    row_a: np.ndarray  # (E,)
    row_c: np.ndarray  # (E,)


@dataclass(frozen=True)
class KeyMsg:
    """A read key k_t sent from READ to MEM (Eq. 3)."""

    hop: int
    key: np.ndarray  # (E,)


@dataclass(frozen=True)
class ReadVectorMsg:
    """The read vector r_t returned from MEM to READ (Eq. 5)."""

    hop: int
    read: np.ndarray  # (E,)
    scores: np.ndarray  # (L,) pre-softmax, for co-simulation checks
    attention: np.ndarray  # (L,)


@dataclass(frozen=True)
class SearchRequestMsg:
    """Final controller output h_T handed to the OUTPUT module."""

    h: np.ndarray  # (E,)


@dataclass(frozen=True)
class AnswerMsg:
    """Predicted label streamed back to the host."""

    label: int
    logit: float
    comparisons: int
    early_exit: bool
