"""Array codecs (and the manifest format version) for fitted state.

A fitted :class:`~repro.mips.thresholding.ThresholdModel` is one
non-trivial artifact: two per-index histogram count matrices over one
shared set of bin edges, optional Gaussian KDEs (ragged sample
vectors), priors, silhouettes and the visit order. The histograms are
stored as the rows with samples (``pos_indices``, ``pos_edges`` with
the shared edges repeated per row, ``pos_counts``, and the same for
``neg_``), the layout of every version. The other is a
:class:`~repro.mann.quantize.QuantizedWeights` snapshot, stored as the
integer codes a device memory would hold plus its Qm.n format. Both
directions of both codecs are bit-exact — edges, counts, samples,
bandwidths and codes are stored verbatim, and fixed-point
dequantisation multiplies by an exact power of two.

The artifact manifest (``suite.json``) carries ``format_version`` so a
reader can tell a directory written by a newer build from a corrupt
one. Version history:

* **1** — weights, vocab, threshold models, encoded batches (``.npz``
  files per task).
* **2** — optional per-task quantized weights (``quantized.npz`` + a
  ``quantization`` block in ``meta.json``).
* **3** — one ``arrays.bin`` per task holds every array of the task,
  these codecs' dicts included, as raw bytes at aligned offsets, and
  ``meta.json`` a table of their dtypes, shapes and offsets; no
  ``.npz`` files. Versions 1 and 2 are no longer read: re-save such a
  directory with ``repro train --save DIR``.
"""

from __future__ import annotations

import numpy as np

from repro.mann.quantize import QFormat, QuantizedWeights
from repro.mips.histograms import GaussianKde
from repro.mips.thresholding import ThresholdModel

#: Version written into every new manifest.
FORMAT_VERSION = 3
#: Versions this build reads.
SUPPORTED_VERSIONS = (3,)


def check_format_version(version) -> int:
    """Validate a manifest's ``format_version``; returns it as an int.

    Unknown *future* versions get a clear upgrade message, and versions
    this build no longer reads a re-save hint, instead of an arbitrary
    KeyError deep inside the loader.
    """
    # JSON ``true`` parses to a bool, which is an int equal to 1.
    if not isinstance(version, int) or isinstance(version, bool):
        raise ValueError(
            f"artifact manifest has no integer format_version (got "
            f"{version!r}); the directory is not a suite artifact"
        )
    if version in SUPPORTED_VERSIONS:
        return version
    hint = ""
    if version > FORMAT_VERSION:
        hint = (
            " — the artifacts were written by a newer build; "
            "upgrade this checkout or re-save the suite"
        )
    elif version > 0:
        hint = (
            " — this build no longer reads it; re-save the suite with "
            "`repro train --save DIR`"
        )
    raise ValueError(
        f"artifact format version {version} not supported: this build "
        f"reads versions {SUPPORTED_VERSIONS}{hint}"
    )


def _encode_counts(
    counts: np.ndarray, edges: np.ndarray, prefix: str, out: dict[str, np.ndarray]
) -> None:
    """Store the rows of ``counts`` with samples as
    ``prefix_{indices,edges,counts}``, one copy of ``edges`` per row."""
    indices = np.flatnonzero(counts.any(axis=1)).astype(np.int64)
    out[f"{prefix}_indices"] = indices
    if indices.size:
        out[f"{prefix}_edges"] = np.tile(edges, (indices.size, 1))
        out[f"{prefix}_counts"] = counts[indices]
    else:
        out[f"{prefix}_edges"] = np.zeros((0, 2), dtype=np.float64)
        out[f"{prefix}_counts"] = np.zeros((0, 1), dtype=np.int64)


def _encode_kdes(
    kdes: dict[int, GaussianKde], prefix: str, out: dict[str, np.ndarray]
) -> None:
    """Ragged KDE samples become one concatenated vector plus offsets."""
    indices = np.array(sorted(kdes), dtype=np.int64)
    samples = [kdes[int(i)].samples for i in indices]
    lengths = np.array([len(s) for s in samples], dtype=np.int64)
    out[f"{prefix}_indices"] = indices
    out[f"{prefix}_offsets"] = np.concatenate([[0], np.cumsum(lengths)])
    out[f"{prefix}_samples"] = (
        np.concatenate(samples) if samples else np.zeros(0, dtype=np.float64)
    )
    out[f"{prefix}_bandwidths"] = np.array(
        [kdes[int(i)].bandwidth for i in indices], dtype=np.float64
    )


def _decode_kdes(data, prefix: str) -> dict[int, GaussianKde]:
    kdes: dict[int, GaussianKde] = {}
    indices = data[f"{prefix}_indices"]
    offsets = data[f"{prefix}_offsets"]
    samples = data[f"{prefix}_samples"]
    bandwidths = data[f"{prefix}_bandwidths"]
    for row, index in enumerate(indices):
        chunk = samples[int(offsets[row]) : int(offsets[row + 1])].copy()
        kdes[int(index)] = GaussianKde(chunk, bandwidth=float(bandwidths[row]))
    return kdes


def encode_threshold_model(model: ThresholdModel) -> dict[str, np.ndarray]:
    """Flatten a fitted model into plain arrays (one artifact group)."""
    arrays: dict[str, np.ndarray] = {
        "n_indices": np.array(model.n_indices, dtype=np.int64),
        "priors": model.priors,
        "silhouettes": model.silhouettes,
        "order": model.order,
        "uses_kde": np.array(model.uses_kde),
    }
    _encode_counts(model.positive_counts, model.edges, "pos", arrays)
    _encode_counts(model.negative_counts, model.edges, "neg", arrays)
    if model.uses_kde:
        _encode_kdes(model.positive_kdes or {}, "pos_kde", arrays)
        _encode_kdes(model.negative_kdes or {}, "neg_kde", arrays)
    return arrays


def encode_quantized_weights(quantized: QuantizedWeights) -> dict[str, np.ndarray]:
    """Flatten a fixed-point snapshot into integer-code arrays."""
    arrays: dict[str, np.ndarray] = {
        "int_bits": np.array(quantized.qformat.int_bits, dtype=np.int64),
        "frac_bits": np.array(quantized.qformat.frac_bits, dtype=np.int64),
    }
    for name, codes in quantized.codes().items():
        arrays[f"code_{name}"] = codes
    return arrays


def decode_quantized_weights(data, config) -> QuantizedWeights:
    """Inverse of :func:`encode_quantized_weights`.

    ``config`` is the task's :class:`~repro.mann.config.MannConfig`;
    the rebuilt float weights land exactly on the stored grid.
    """
    qformat = QFormat(int(data["int_bits"]), int(data["frac_bits"]))
    codes = {
        key[len("code_"):]: np.asarray(data[key])
        for key in data
        if key.startswith("code_")
    }
    return QuantizedWeights.from_codes(config, qformat, codes)


def decode_threshold_model(data) -> ThresholdModel:
    """Inverse of :func:`encode_threshold_model`."""
    n_indices = int(data["n_indices"])
    indices = {sign: data[f"{sign}_indices"] for sign in ("pos", "neg")}
    edge_rows = [data[f"{sign}_edges"] for sign in indices if len(indices[sign])]
    # A model with no samples at all stores no edges; one bin of any
    # width gives it the same all-inf thresholds.
    edges = edge_rows[0][0].copy() if edge_rows else np.zeros(2)
    for rows in edge_rows:
        if rows.shape[1:] != edges.shape or (rows != edges).any():
            raise ValueError("threshold histograms do not share one set of bin edges")
    counts = {}
    for sign, rows in indices.items():
        counts[sign] = np.zeros((n_indices, len(edges) - 1), dtype=np.int64)
        counts[sign][rows] = data[f"{sign}_counts"]
    uses_kde = bool(data["uses_kde"])
    return ThresholdModel(
        edges=edges,
        positive_counts=counts["pos"],
        negative_counts=counts["neg"],
        priors=np.asarray(data["priors"], dtype=np.float64).copy(),
        silhouettes=np.asarray(data["silhouettes"], dtype=np.float64).copy(),
        order=np.asarray(data["order"], dtype=np.int64).copy(),
        positive_kdes=_decode_kdes(data, "pos_kde") if uses_kde else None,
        negative_kdes=_decode_kdes(data, "neg_kde") if uses_kde else None,
    )
