"""Pluggable MIPS backend layer: protocol, registry, shared kernels.

Every output-layer search engine (the exact scan, the paper's inference
thresholding, and the related-work ALSH/clustering baselines) is a
*backend*: an object exposing

* ``search(query) -> SearchResult`` — one query,
* ``search_batch(queries) -> BatchSearchResult`` — a genuinely
  vectorized whole-batch kernel returning stacked arrays,

built from a string-keyed registry::

    from repro.mips import get_backend
    engine = get_backend("threshold").build(
        weights.w_o, threshold_model=tm, rho=1.0
    )

Each registered class carries a ``build(weight, order=None, **context)``
classmethod with a uniform keyword surface (``threshold_model``,
``rho``, ``index_ordering``, ``seed`` plus backend-specific tuning
knobs), so backend choice is one constructor argument for every
consumer — the batch inference engine, the evaluation experiments, the
hardware simulator's OUTPUT module and the CLI.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.mips.stats import BatchSearchResult, SearchResult


@runtime_checkable
class MipsBackend(Protocol):
    """Structural interface every registered MIPS engine satisfies.

    Classes may additionally set ``requires_threshold_model = True`` so
    consumers (e.g. the accelerator constructor) can fail fast when no
    fitted :class:`~repro.mips.thresholding.ThresholdModel` is at hand.
    """

    weight: np.ndarray

    def search(self, query: np.ndarray) -> SearchResult: ...

    def search_batch(self, queries: np.ndarray) -> BatchSearchResult: ...


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_REGISTRY: dict[str, type] = {}
_CANONICAL: dict[str, type] = {}


def register_backend(name: str, *aliases: str):
    """Class decorator adding a backend under ``name`` (plus aliases)."""

    def decorator(cls: type) -> type:
        for key in (name, *aliases):
            key = key.strip().lower()
            if key in _REGISTRY and _REGISTRY[key] is not cls:
                raise ValueError(
                    f"MIPS backend name {key!r} is already registered "
                    f"to {_REGISTRY[key].__name__}"
                )
            _REGISTRY[key] = cls
        cls.backend_name = name
        _CANONICAL[name] = cls
        return cls

    return decorator


def available_backends() -> tuple[str, ...]:
    """Canonical names of every registered backend, sorted."""
    return tuple(sorted(_CANONICAL))


def get_backend(name: str) -> type:
    """Look up a backend class by name or alias (case-insensitive)."""
    try:
        key = name.strip().lower()
    except AttributeError:
        raise TypeError(f"backend name must be a string, got {type(name).__name__}")
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown MIPS backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    return _REGISTRY[key]


def build_backend(
    name: str, weight: np.ndarray, order: np.ndarray | None = None, **context
) -> MipsBackend:
    """Shorthand for ``get_backend(name).build(weight, order, **context)``."""
    return get_backend(name).build(weight, order, **context)


# ---------------------------------------------------------------------------
# Shared batched kernels
# ---------------------------------------------------------------------------
def inner_products(queries: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (B, N) inner-product matrix ``queries @ rows.T``, one BLAS
    gemv call per query.

    ``queries`` must be C-contiguous, as :func:`as_query_matrix` returns
    them. ``rows`` is one (N, E) matrix every query meets, or a
    (B, N, E) stack holding query b's own matrix at ``rows[b]`` (several
    models answered in one call).

    Every scoring engine routes its logit evaluations through this one
    function because batch independence (a row's answer never depends
    on what it is batched with) needs a numeric guarantee a plain BLAS
    ``queries @ rows.T`` cannot give: that is one gemm call, whose
    micro-kernels and reduction orders follow the batch's shape, so
    ``Q[a:b] @ W.T`` can differ from ``(Q @ W.T)[a:b]`` in the last ulp.
    ``np.matmul(rows, q[:, :, None])`` instead loops over the queries
    and makes one gemv call each — ``rows`` (or ``rows[b]``) times the
    column ``q[b]``. Every call has the same routine, shape and strides
    whatever the batch, shared or stacked rows alike; only the data
    pointers change. So a query gets the same bits alone, at any
    position of any batch, and beside any other model's rows.

    The strides are the reason for the contiguity precondition: numpy
    passes a strided query to BLAS with its increment, and a reversed
    (negative-stride) one to its own non-BLAS loop, each of which may
    round differently from the contiguous call.
    """
    return np.matmul(rows, queries[:, :, None])[:, :, 0]


def ordered_scan(
    queries: np.ndarray,
    ordered_weight: np.ndarray,
    order: np.ndarray,
    theta: np.ndarray | None = None,
) -> BatchSearchResult:
    """The output scan of Fig. 2 over a whole batch.

    ``queries`` come as :func:`as_query_matrix` returns them.
    ``ordered_weight`` holds the output rows in visit order, ``order``
    maps visit positions to labels and ``theta`` are the inference
    thresholds in visit order. Each is either shared by every query —
    (N, E), (N,), (N,) — or per query — (B, N, E), (B, N), (B, N) — as
    :func:`inner_products` allows.

    With ``theta`` (Algorithm 1, Step 4) the first position whose logit
    clears its threshold wins, with ``comparisons`` equal to its 1-based
    position. Queries where none clears — every query when ``theta`` is
    None, the exact scan of Fig. 2a — take the first maximum in visit
    order after all N comparisons, like the sequential comparator's
    strict ``>``.
    """
    logits = inner_products(queries, ordered_weight)  # (B, N) in visit order
    rows = np.arange(len(queries))
    n = logits.shape[1]
    pos = np.argmax(logits, axis=1)
    if theta is None:
        comparisons = np.full(len(queries), n, dtype=np.int64)
        early_exits = np.zeros(len(queries), dtype=bool)
    else:
        exceed = logits > theta
        early_exits = exceed.any(axis=1)
        first = np.argmax(exceed, axis=1)  # first clearing position
        pos = np.where(early_exits, first, pos)
        comparisons = np.where(early_exits, first + 1, n)
    labels = order[pos] if order.ndim == 1 else order[rows, pos]
    return BatchSearchResult(
        labels=labels,
        logits=logits[rows, pos],
        comparisons=comparisons,
        early_exits=early_exits,
    )


def scan_candidates(
    weight: np.ndarray,
    queries: np.ndarray,
    candidates: list[np.ndarray],
    base_comparisons: int | np.ndarray = 0,
) -> BatchSearchResult:
    """Score per-query candidate lists in one padded gather + einsum.

    ``candidates[b]`` is query b's visit order; ties break to the first
    candidate in that order, exactly like the sequential scan's strict
    ``>`` running maximum. ``base_comparisons`` adds fixed per-query
    costs (e.g. the centroid dot products of the clustering index).
    """
    queries = np.asarray(queries, dtype=np.float64)
    n_queries = len(candidates)
    counts = np.array([len(c) for c in candidates], dtype=np.int64)
    if n_queries == 0 or int(counts.max(initial=0)) == 0:
        return BatchSearchResult(
            labels=np.full(n_queries, -1, dtype=np.int64),
            logits=np.full(n_queries, -np.inf),
            comparisons=np.broadcast_to(
                np.asarray(base_comparisons, dtype=np.int64), (n_queries,)
            ).copy(),
            early_exits=np.zeros(n_queries, dtype=bool),
        )
    width = int(counts.max())
    padded = np.zeros((n_queries, width), dtype=np.int64)
    for b, cand in enumerate(candidates):
        padded[b, : len(cand)] = cand
    valid = np.arange(width)[None, :] < counts[:, None]
    # (B, C) candidate logits; padding slots are masked to -inf so the
    # row argmax lands on the first real maximum in visit order.
    scores = np.einsum("bce,be->bc", weight[padded], queries)
    scores = np.where(valid, scores, -np.inf)
    pos = np.argmax(scores, axis=1)
    rows = np.arange(n_queries)
    # Rows with no candidates keep the sequential scan's -1 sentinel
    # instead of claiming padding index 0 with a -inf logit.
    return BatchSearchResult(
        labels=np.where(counts > 0, padded[rows, pos], -1),
        logits=scores[rows, pos],
        comparisons=base_comparisons + counts,
        early_exits=np.zeros(n_queries, dtype=bool),
    )


def as_query_matrix(queries: np.ndarray) -> np.ndarray:
    """Normalise ``search_batch`` input to a C-contiguous float64 (B, E)
    matrix: the operand :func:`inner_products` needs to give a query
    the same bits in every layout it arrives in (a copy at any offset,
    an F-ordered, transposed or reversed view, a row alone)."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[None, :]
    if queries.ndim != 2:
        raise ValueError(f"queries must be 1-D or 2-D, got shape {queries.shape}")
    return np.ascontiguousarray(queries)
