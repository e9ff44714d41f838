"""Persistent suite artifacts: train once, serve forever.

``save_suite(suite, directory)`` writes one self-contained artifact
directory; ``load_suite(directory)`` restores a fully functional
:class:`~repro.eval.suite.BabiSuite` — frozen weights, shared vocab,
fitted :class:`~repro.mips.thresholding.ThresholdModel` per task, the
encoded train/test batches and the training summary — without running
a single training step. Layout::

    directory/
      suite.json            # format version, SuiteConfig, vocab words
      task_01/
        arrays.bin          # every array of the task as raw bytes, each
                            # at a 64-byte-aligned offset: weights,
                            # encoded batches, train logits, reference
                            # test predictions, the fitted ThresholdModel
                            # (see codec.py), optional Qm.n integer codes
        meta.json           # MannConfig + TrainResult summary, and the
                            # table of arrays.bin: each array's dtype,
                            # shape and offset, in groups "model",
                            # "threshold" and (optional) "quantized"
      task_02/ ...

A task's arrays are written in one pass and read in one pass, each into
a buffer of its own. The reader trusts nothing in the table: it accepts
only bool, integer and float dtypes, every array must lie inside the
file, and every read must fill its array. Everything numeric
round-trips bit-exactly (raw bytes under their dtype; JSON floats use
``repr`` round-tripping), which :func:`verify_artifacts` checks by
recomputing predictions and logits from the restored weights. The
serving layer (:func:`repro.serving.open_predictor`,
:class:`repro.serving.ModelRouter`) accepts these directories directly;
``save_suite(..., qformat=QFormat(3, 8))`` additionally persists a
fixed-point snapshot of every task so quantized models can be served
with ``open_predictor(..., quantized=True)``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.artifacts.codec import (
    FORMAT_VERSION,
    check_format_version,
    decode_quantized_weights,
    decode_threshold_model,
    encode_quantized_weights,
    encode_threshold_model,
)
from repro.babi.dataset import EncodedBatch
from repro.babi.vocab import Vocab
from repro.eval.suite import BabiSuite, SuiteConfig, TaskSystem
from repro.mann.config import MannConfig
from repro.mann.inference import InferenceEngine
from repro.mann.quantize import QFormat, QuantizedWeights
from repro.mann.trainer import TrainResult
from repro.mann.weights import MannWeights

_WEIGHT_FIELDS = ("w_emb_a", "w_emb_c", "w_emb_q", "w_r", "w_o", "t_a", "t_c")
_BATCH_FIELDS = ("stories", "questions", "answers", "story_lengths")


def _task_dirname(task_id: int) -> str:
    return f"task_{task_id:02d}"


# ---------------------------------------------------------------------------
# arrays.bin
# ---------------------------------------------------------------------------
#: Every array in ``arrays.bin`` starts at a multiple of this many bytes.
_ALIGN = 64


def _plain_dtype(dtype) -> np.dtype:
    """``dtype`` if it names a bool, integer or float type. Raw bytes
    read as any other kind would be object pointers, strings or records."""
    try:
        plain = np.dtype(dtype)
    except TypeError:
        plain = None
    if plain is None or plain.kind not in "biuf":
        raise ValueError(
            f"arrays.bin holds only bool, integer and float arrays, not {dtype!r}"
        )
    return plain


def _write_arrays(path: Path, groups: dict[str, dict[str, np.ndarray]]) -> dict:
    """Write every array of ``groups`` to ``path`` from its own buffer;
    returns the table ``{group: {name: {dtype, shape, offset}}}``."""
    table: dict = {}
    offset = 0
    with open(path, "wb") as f:
        for group, arrays in groups.items():
            entries = table[group] = {}
            for name, array in arrays.items():
                array = np.asarray(array)
                _plain_dtype(array.dtype)
                if not array.flags.c_contiguous:
                    array = array.copy(order="C")
                pad = -offset % _ALIGN
                f.write(bytes(pad))
                offset += pad
                entries[name] = {
                    "dtype": array.dtype.str,
                    "shape": list(array.shape),
                    "offset": offset,
                }
                f.write(array)
                offset += array.nbytes
    return table


def _table_entry(name: str, entry) -> tuple[np.dtype, tuple[int, ...], int]:
    """(dtype, shape, offset) of one table entry, checked."""
    try:
        dtype, shape, offset = entry["dtype"], tuple(entry["shape"]), entry["offset"]
    except (KeyError, TypeError) as error:
        raise ValueError(f"arrays.bin table entry {name!r} is malformed") from error
    if not isinstance(dtype, str) or not all(
        type(n) is int and n >= 0 for n in (*shape, offset)
    ):
        raise ValueError(
            f"arrays.bin table entry {name!r} needs a dtype string, and a shape "
            f"and an offset of non-negative integers: {entry!r}"
        )
    return _plain_dtype(dtype), shape, offset


def _read_arrays(path: Path, table: dict) -> dict[str, dict[str, np.ndarray]]:
    """Read the arrays ``table`` names from ``path``, each into a newly
    allocated buffer (so no array keeps another alive).

    The whole table is checked before anything is read; an array that
    runs past the end of the file, or a read that does not fill its
    array, raises ``ValueError``.
    """
    layout = [
        (group, name, *_table_entry(f"{group}/{name}", entry))
        for group, entries in table.items()
        for name, entry in entries.items()
    ]
    groups: dict = {group: {} for group in table}
    with open(path, "rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        for group, name, dtype, shape, offset in layout:
            nbytes = math.prod(shape) * dtype.itemsize
            if offset + nbytes > size:
                raise ValueError(
                    f"{path}: {group}/{name} ({nbytes} bytes at offset {offset}) "
                    f"runs past the end of the file ({size} bytes)"
                )
            array = np.empty(shape, dtype)
            f.seek(offset)
            if f.readinto(array.reshape(-1).view(np.uint8)) != nbytes:
                raise ValueError(f"{path}: short read of {group}/{name}")
            groups[group][name] = array
    return groups


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------
def save_suite(suite: BabiSuite, directory, qformat: QFormat | None = None) -> Path:
    """Write ``suite`` to ``directory`` (created if missing).

    Returns the directory as a :class:`~pathlib.Path`. Raises if the
    directory already holds a ``suite.json`` for different task ids —
    refusing to silently mix two suites in one place. With ``qformat``
    every task additionally persists a fixed-point snapshot
    (:class:`~repro.mann.quantize.QuantizedWeights`) servable via
    ``open_predictor(..., quantized=True)``; without it, any quantized
    snapshot already attached to a task (e.g. from a previous load)
    is preserved as-is.
    """
    directory = Path(directory)
    marker = directory / "suite.json"
    if marker.exists():
        existing = json.loads(marker.read_text())
        if existing.get("task_ids") != sorted(suite.tasks):
            raise FileExistsError(
                f"{directory} already holds artifacts for tasks "
                f"{existing.get('task_ids')}; refusing to overwrite with "
                f"tasks {sorted(suite.tasks)}"
            )
    directory.mkdir(parents=True, exist_ok=True)

    for task_id, system in suite.tasks.items():
        _save_task_system(system, directory / _task_dirname(task_id), qformat)

    marker.write_text(
        json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "config": asdict(suite.config),
                "task_ids": sorted(suite.tasks),
                "vocab": suite.vocab.words(),
            },
            indent=2,
        )
        + "\n"
    )
    return directory


def _save_task_system(
    system: TaskSystem, task_dir: Path, qformat: QFormat | None = None
) -> None:
    task_dir.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {
        name: getattr(system.weights, name) for name in _WEIGHT_FIELDS
    }
    for split, batch in (("train", system.train_batch), ("test", system.test_batch)):
        for field in _BATCH_FIELDS:
            arrays[f"{split}_{field}"] = getattr(batch, field)
    arrays["train_logits"] = system.train_logits
    # Reference predictions let verify_artifacts (and the CI round-trip
    # job) assert bit-exactness in a fresh process without retraining.
    arrays["expected_test_predictions"] = system.batch_engine.predict(
        system.test_batch.stories,
        system.test_batch.questions,
        system.test_batch.story_lengths,
    )
    groups = {
        "model": arrays,
        "threshold": encode_threshold_model(system.threshold_model),
    }

    quantized = system.quantized
    if qformat is not None:  # explicit request wins: re-snap the floats
        quantized, _ = QuantizedWeights.quantize(system.weights, qformat)
    if quantized is not None:
        groups["quantized"] = encode_quantized_weights(quantized)

    result = system.train_result
    meta = {
        "task_id": system.task_id,
        "model_config": asdict(system.weights.config),
        "train_result": {
            "train_losses": list(result.train_losses),
            "train_accuracies": list(result.train_accuracies),
            "test_accuracy": result.test_accuracy,
            "majority_accuracy": result.majority_accuracy,
            "epochs_run": result.epochs_run,
        },
    }
    if quantized is not None:
        meta["quantization"] = {
            "int_bits": quantized.qformat.int_bits,
            "frac_bits": quantized.qformat.frac_bits,
        }
    # A reader sees only what this table lists, so nothing of an earlier
    # save into the directory (say, its quantized codes) is read back.
    meta["arrays"] = _write_arrays(task_dir / "arrays.bin", groups)
    # Compact: json's C encoder runs only without indentation.
    meta_json = json.dumps(meta, separators=(",", ":"))
    (task_dir / "meta.json").write_text(meta_json + "\n")


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------
def load_suite(directory) -> BabiSuite:
    """Restore a :class:`BabiSuite` saved by :func:`save_suite`.

    The restored systems are ready for every experiment driver and for
    :func:`repro.serving.open_predictor`; their ``train``/``test``
    dataset fields are ``None`` (raw examples are not persisted — the
    encoded batches are).
    """
    directory = Path(directory)
    marker = directory / "suite.json"
    if not marker.is_file():
        raise FileNotFoundError(f"no suite artifacts at {directory} (suite.json missing)")
    manifest = json.loads(marker.read_text())
    check_format_version(manifest.get("format_version"))

    words = manifest["vocab"]
    vocab = Vocab(words[1:])  # index 0 is always the reserved pad token
    if vocab.words() != words:
        raise ValueError(f"corrupt vocabulary list in {marker}")

    config_dict = dict(manifest["config"])
    config_dict["task_ids"] = tuple(config_dict["task_ids"])
    suite = BabiSuite(config=SuiteConfig(**config_dict), vocab=vocab)
    for task_id in manifest["task_ids"]:
        suite.tasks[int(task_id)] = _load_task_system(
            directory / _task_dirname(int(task_id))
        )
    return suite


def _load_task_system(task_dir: Path) -> TaskSystem:
    meta = json.loads((task_dir / "meta.json").read_text())
    model_config = MannConfig(**meta["model_config"])

    arrays = _read_arrays(task_dir / "arrays.bin", meta["arrays"])
    model = arrays["model"]
    weights = MannWeights(model_config, *(model[name] for name in _WEIGHT_FIELDS))
    batches = {
        split: EncodedBatch(*(model[f"{split}_{field}"] for field in _BATCH_FIELDS))
        for split in ("train", "test")
    }
    threshold_model = decode_threshold_model(arrays["threshold"])
    quantized = None
    if "quantized" in arrays:
        quantized = decode_quantized_weights(arrays["quantized"], model_config)

    summary = meta["train_result"]
    train_result = TrainResult(
        model=None,  # the autograd model is not persisted, only its weights
        train_losses=list(summary["train_losses"]),
        train_accuracies=list(summary["train_accuracies"]),
        test_accuracy=float(summary["test_accuracy"]),
        majority_accuracy=float(summary["majority_accuracy"]),
        epochs_run=int(summary["epochs_run"]),
    )
    engine = InferenceEngine(weights)
    return TaskSystem(
        task_id=int(meta["task_id"]),
        train=None,
        test=None,
        train_batch=batches["train"],
        test_batch=batches["test"],
        weights=weights,
        engine=engine,
        batch_engine=engine.batch,
        threshold_model=threshold_model,
        train_result=train_result,
        train_logits=model["train_logits"],
        quantized=quantized,
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------
def verify_artifacts(directory) -> BabiSuite:
    """Load ``directory`` and prove the round-trip is bit-exact.

    Recomputes every task's test-set predictions and training logits
    from the restored weights and asserts they equal the arrays stored
    at save time — the check the CI round-trip job runs in a fresh
    process. Returns the verified suite.
    """
    directory = Path(directory)
    suite = load_suite(directory)
    for task_id, system in suite.tasks.items():
        task_dir = directory / _task_dirname(task_id)
        table = json.loads((task_dir / "meta.json").read_text())["arrays"]["model"]
        names = ("expected_test_predictions", "train_logits")
        expected = _read_arrays(
            task_dir / "arrays.bin", {"model": {name: table[name] for name in names}}
        )["model"]
        preds = system.batch_engine.predict(
            system.test_batch.stories,
            system.test_batch.questions,
            system.test_batch.story_lengths,
        )
        if not np.array_equal(preds, expected["expected_test_predictions"]):
            raise AssertionError(
                f"task {task_id}: restored predictions differ from the "
                "predictions recorded at save time"
            )
        logits = system.batch_engine.logits(
            system.train_batch.stories,
            system.train_batch.questions,
            system.train_batch.story_lengths,
        )
        if not np.array_equal(logits, expected["train_logits"]):
            raise AssertionError(
                f"task {task_id}: restored train logits are not bit-exact"
            )
        if system.quantized is not None:
            # The fixed-point snapshot must be exactly the float model
            # snapped to its stored grid — re-quantise and compare.
            qformat = system.quantized.qformat
            for name in _WEIGHT_FIELDS:
                restored = getattr(system.quantized.weights, name)
                expected = qformat.quantize(getattr(system.weights, name))
                if not np.array_equal(restored, expected):
                    raise AssertionError(
                        f"task {task_id}: quantized weight {name} does not "
                        f"match the float model snapped to {qformat}"
                    )
    return suite
