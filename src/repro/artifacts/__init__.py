"""Persistent model artifacts: save a trained suite once, serve it forever.

The deployment-shaped entry points of the repro:

* :func:`save_suite` / :func:`load_suite` — round-trip a trained
  :class:`~repro.eval.suite.BabiSuite` (weights, vocabulary, fitted
  threshold models, encoded batches, training summary) through an
  ``.npz`` + JSON directory, bit-exactly.
* :func:`verify_artifacts` — reload a directory and prove predictions
  and logits match the arrays recorded at save time.

Built artifacts feed :func:`repro.serving.open_predictor`,
:class:`repro.serving.ModelRouter` and every CLI experiment subcommand
via ``--artifacts DIR``. Manifests carry a ``format_version``
(validated by :func:`check_format_version`); version 2 adds optional
per-task fixed-point weight snapshots
(``save_suite(..., qformat=QFormat(3, 8))``) so quantized models serve
straight from the artifact directory.
"""

from repro.artifacts.codec import (
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    check_format_version,
    decode_quantized_weights,
    decode_threshold_model,
    encode_quantized_weights,
    encode_threshold_model,
)
from repro.artifacts.store import (
    load_suite,
    save_suite,
    verify_artifacts,
)

__all__ = [
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "check_format_version",
    "decode_quantized_weights",
    "decode_threshold_model",
    "encode_quantized_weights",
    "encode_threshold_model",
    "load_suite",
    "save_suite",
    "verify_artifacts",
]
