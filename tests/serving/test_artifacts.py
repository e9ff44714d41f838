"""Artifact round-trip: save_suite / load_suite must be bit-exact."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts import (
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    check_format_version,
    decode_quantized_weights,
    decode_threshold_model,
    encode_quantized_weights,
    encode_threshold_model,
    load_suite,
    save_suite,
    verify_artifacts,
)
from repro.artifacts.store import _read_arrays
from repro.eval.experiments import run_table1
from repro.eval.suite import BabiSuite, SuiteConfig
from repro.mann.quantize import QFormat, QuantizedWeights
from repro.mips.thresholding import fit_threshold_model


class TestRoundTrip:
    def test_config_and_vocab_survive(self, tiny_suite, artifacts_dir):
        loaded = load_suite(artifacts_dir)
        assert loaded.config == tiny_suite.config
        assert loaded.task_ids == tiny_suite.task_ids
        assert loaded.vocab.words() == tiny_suite.vocab.words()

    def test_weights_bit_exact(self, tiny_suite, artifacts_dir):
        loaded = load_suite(artifacts_dir)
        for task_id, system in tiny_suite.tasks.items():
            restored = loaded.tasks[task_id]
            for name in ("w_emb_a", "w_emb_c", "w_emb_q", "w_r", "w_o", "t_a", "t_c"):
                original = getattr(system.weights, name)
                assert np.array_equal(getattr(restored.weights, name), original)
                assert getattr(restored.weights, name).dtype == original.dtype

    def test_logits_and_predictions_bit_exact(self, tiny_suite, artifacts_dir):
        """load_suite(save_suite(suite)) reproduces identical outputs."""
        loaded = load_suite(artifacts_dir)
        for task_id, system in tiny_suite.tasks.items():
            restored = loaded.tasks[task_id]
            batch = system.test_batch
            args = (batch.stories, batch.questions, batch.story_lengths)
            assert np.array_equal(
                restored.batch_engine.logits(*args), system.batch_engine.logits(*args)
            )
            assert np.array_equal(
                restored.batch_engine.predict(*args),
                system.batch_engine.predict(*args),
            )
            assert np.array_equal(restored.train_logits, system.train_logits)

    def test_threshold_model_bit_exact(self, tiny_suite, artifacts_dir):
        loaded = load_suite(artifacts_dir)
        for task_id, system in tiny_suite.tasks.items():
            restored = loaded.tasks[task_id].threshold_model
            original = system.threshold_model
            assert np.array_equal(restored.order, original.order)
            assert np.array_equal(restored.silhouettes, original.silhouettes)
            for name in ("edges", "positive_counts", "negative_counts"):
                stored = getattr(restored, name)
                assert stored.tobytes() == getattr(original, name).tobytes()
            for rho in (1.0, 0.99, 0.9):
                assert np.array_equal(
                    restored.thresholds(rho), original.thresholds(rho)
                )

    def test_encoded_batches_and_summary_survive(self, tiny_suite, artifacts_dir):
        loaded = load_suite(artifacts_dir)
        for task_id, system in tiny_suite.tasks.items():
            restored = loaded.tasks[task_id]
            assert np.array_equal(
                restored.test_batch.answers, system.test_batch.answers
            )
            assert np.array_equal(
                restored.train_batch.stories, system.train_batch.stories
            )
            assert restored.test_accuracy == system.test_accuracy
            assert (
                restored.train_result.majority_accuracy
                == system.train_result.majority_accuracy
            )
            assert restored.train is None and restored.test is None
            assert restored.vocab_size == system.vocab_size

    def test_verify_artifacts_passes(self, artifacts_dir):
        suite = verify_artifacts(artifacts_dir)
        assert suite.task_ids == [1, 6]

    def test_suite_save_load_methods(self, tiny_suite, tmp_path):
        tiny_suite.save(tmp_path / "arts")
        loaded = BabiSuite.load(tmp_path / "arts")
        assert loaded.task_ids == tiny_suite.task_ids


class TestExperimentsFromArtifacts:
    def test_table1_matches_fresh_suite(self, tiny_suite, artifacts_dir):
        """`table1 --artifacts DIR` == freshly built suite, no retraining."""
        fresh = run_table1(tiny_suite)
        restored = run_table1(load_suite(artifacts_dir))
        assert restored.rows == fresh.rows
        assert restored.accuracy_plain == fresh.accuracy_plain
        assert restored.accuracy_ith == fresh.accuracy_ith


class TestKdeCodec:
    def test_kde_threshold_model_round_trips(self, tiny_suite):
        system = tiny_suite.tasks[1]
        model = fit_threshold_model(
            system.train_logits, system.train_batch.answers, density="kde"
        )
        restored = decode_threshold_model(encode_threshold_model(model))
        assert restored.uses_kde
        assert np.array_equal(restored.thresholds(0.9), model.thresholds(0.9))


class TestHistogramCodec:
    def test_model_without_samples_round_trips(self):
        # The one example is predicted wrong, so neither sign has a row.
        model = fit_threshold_model(np.array([[5.0, 0.0]]), np.array([1]))
        arrays = encode_threshold_model(model)
        for sign in ("pos", "neg"):
            assert arrays[f"{sign}_indices"].shape == (0,)
            assert arrays[f"{sign}_edges"].shape == (0, 2)
            assert arrays[f"{sign}_counts"].shape == (0, 1)
        restored = decode_threshold_model(arrays)
        assert restored.n_indices == 2
        assert not restored.positive_counts.any() and not restored.negative_counts.any()
        assert np.array_equal(restored.thresholds(1.0), [np.inf, np.inf])

    def test_decode_rejects_differing_edge_rows(self, tiny_suite):
        arrays = encode_threshold_model(tiny_suite.tasks[1].threshold_model)
        arrays["neg_edges"] = arrays["neg_edges"].copy()
        arrays["neg_edges"][-1, 0] -= 1.0
        with pytest.raises(ValueError, match="one set of bin edges"):
            decode_threshold_model(arrays)


class TestFormatVersion:
    def test_current_version_is_supported(self, artifacts_dir):
        assert FORMAT_VERSION == 3
        assert SUPPORTED_VERSIONS == (3,)
        assert check_format_version(FORMAT_VERSION) == FORMAT_VERSION
        for task in ("task_01", "task_06"):
            files = sorted(path.name for path in (artifacts_dir / task).iterdir())
            assert files == ["arrays.bin", "meta.json"]

    def test_older_versions_refused_with_resave_hint(self, tiny_suite, tmp_path):
        """Version 1 and 2 directories (``.npz`` files) are not read any
        more; the error says how to get a readable directory."""
        directory = save_suite(tiny_suite, tmp_path / "arts")
        marker = directory / "suite.json"
        manifest = json.loads(marker.read_text())
        for version in (1, 2):
            manifest["format_version"] = version
            marker.write_text(json.dumps(manifest))
            with pytest.raises(
                ValueError,
                match=f"version {version} .*re-save the suite with `repro train --save",
            ):
                load_suite(directory)

    def test_future_version_rejected_with_upgrade_hint(
        self, tiny_suite, tmp_path
    ):
        directory = save_suite(tiny_suite, tmp_path / "arts")
        marker = directory / "suite.json"
        manifest = json.loads(marker.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        marker.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="newer build"):
            load_suite(directory)

    def test_non_integer_version_rejected(self):
        with pytest.raises(ValueError, match="format_version"):
            check_format_version(None)
        with pytest.raises(ValueError, match="format_version"):
            check_format_version("2")
        with pytest.raises(ValueError, match="format_version"):
            check_format_version(True)  # JSON true, which equals 1


class TestQuantizedArtifacts:
    @pytest.fixture(scope="class")
    def quantized_dir(self, tiny_suite, tmp_path_factory):
        directory = tmp_path_factory.mktemp("quantized_artifacts")
        return save_suite(tiny_suite, directory, qformat=QFormat(3, 8))

    def test_round_trip_is_bit_exact(self, tiny_suite, quantized_dir):
        loaded = load_suite(quantized_dir)
        for task_id, system in tiny_suite.tasks.items():
            restored = loaded.tasks[task_id].quantized
            assert restored is not None
            assert restored.qformat == QFormat(3, 8)
            snapped, _ = QuantizedWeights.quantize(
                system.weights, QFormat(3, 8)
            )
            for name in ("w_emb_a", "w_emb_c", "w_emb_q", "w_r", "w_o", "t_a", "t_c"):
                assert np.array_equal(
                    getattr(restored.weights, name),
                    getattr(snapped.weights, name),
                )

    def test_verify_covers_quantized_weights(self, quantized_dir):
        assert verify_artifacts(quantized_dir).task_ids == [1, 6]

    def test_verify_detects_tampered_codes(self, tiny_suite, tmp_path):
        directory = save_suite(
            tiny_suite, tmp_path / "arts", qformat=QFormat(3, 8)
        )
        task_dir = directory / "task_01"
        meta = json.loads((task_dir / "meta.json").read_text())
        entry = meta["arrays"]["quantized"]["code_w_o"]
        dtype = np.dtype(entry["dtype"])
        with open(task_dir / "arrays.bin", "r+b") as f:
            f.seek(entry["offset"])
            code = np.frombuffer(f.read(dtype.itemsize), dtype) + 1
            f.seek(entry["offset"])
            f.write(code.astype(dtype).tobytes())
        with pytest.raises(AssertionError, match="quantized weight"):
            verify_artifacts(directory)

    def test_codec_inverse(self, tiny_suite):
        system = tiny_suite.tasks[1]
        quantized, report = QuantizedWeights.quantize(
            system.weights, QFormat(2, 6)
        )
        decoded = decode_quantized_weights(
            encode_quantized_weights(quantized), system.weights.config
        )
        assert decoded.qformat == quantized.qformat
        assert np.array_equal(decoded.weights.w_o, quantized.weights.w_o)
        assert report.compression_ratio > 1.0

    def test_resave_preserves_loaded_snapshot(self, quantized_dir, tmp_path):
        """Saving a *loaded* suite keeps its quantized weights without
        re-deriving them (the float model is still present, so they
        must re-verify too)."""
        loaded = load_suite(quantized_dir)
        resaved = save_suite(loaded, tmp_path / "resave")
        again = verify_artifacts(resaved)
        assert again.tasks[1].quantized is not None

    def test_unquantized_artifacts_have_no_snapshot(self, artifacts_dir):
        assert load_suite(artifacts_dir).tasks[1].quantized is None

    def test_resave_leaves_no_stale_snapshot(self, tiny_suite, tmp_path):
        """A suite saved without ``qformat`` over a quantized save of
        another suite (same task ids) loads no quantized weights: none
        of the first suite's codes are attached to the second's model."""
        directory = save_suite(tiny_suite, tmp_path / "arts", qformat=QFormat(3, 8))
        other = BabiSuite.build(
            SuiteConfig(task_ids=(1, 6), n_train=20, n_test=5, epochs=2, seed=1)
        )
        save_suite(other, directory)
        assert all(
            system.quantized is None for system in load_suite(directory).tasks.values()
        )
        assert verify_artifacts(directory).task_ids == [1, 6]

    def test_quantized_serving_matches_in_memory_quantization(
        self, tiny_suite, quantized_dir
    ):
        """open_predictor(quantized=True) serves the snapped weights."""
        from repro.mann.batch import BatchInferenceEngine
        from repro.serving import QueryRequest, open_predictor

        batch = tiny_suite.tasks[1].test_batch
        requests = [
            QueryRequest(
                batch.stories[i], batch.questions[i], int(batch.story_lengths[i])
            )
            for i in range(len(batch))
        ]
        predictor = open_predictor(str(quantized_dir), 1, quantized=True)
        responses = predictor.predict_batch(requests)

        snapped, _ = QuantizedWeights.quantize(
            tiny_suite.tasks[1].weights, QFormat(3, 8)
        )
        engine = BatchInferenceEngine(snapped.weights, "exact")
        reference = engine.search(
            batch.stories, batch.questions, batch.story_lengths
        )
        assert [r.label for r in responses] == list(reference.labels)

    def test_quantized_predictor_requires_snapshot(self, artifacts_dir):
        from repro.serving import open_predictor

        with pytest.raises(ValueError, match="quantized"):
            open_predictor(str(artifacts_dir), 1, quantized=True)


WEIGHTS = ("w_emb_a", "w_emb_c", "w_emb_q", "w_r", "w_o", "t_a", "t_c")


def _task_files(directory, task_id=1):
    task_dir = directory / f"task_{task_id:02d}"
    return task_dir / "meta.json", task_dir / "arrays.bin"


def _edit_entry(meta_path, group, name, **changes):
    meta = json.loads(meta_path.read_text())
    meta["arrays"][group][name].update(changes)
    meta_path.write_text(json.dumps(meta))


class TestArrayFile:
    """``arrays.bin`` and the table in ``meta.json`` that describes it."""

    @pytest.fixture(scope="class")
    def mixed_suite(self, tiny_suite):
        """tiny_suite with KDE densities on task 1, Fortran-ordered train
        logits (not C-contiguous) there too, and on task 6 a threshold
        model with no correct sample: its count rows are (0, 2) and
        (0, 1) arrays."""
        one, six = tiny_suite.tasks[1], tiny_suite.tasks[6]
        suite = BabiSuite(config=tiny_suite.config, vocab=tiny_suite.vocab)
        suite.tasks[1] = replace(
            one,
            threshold_model=fit_threshold_model(
                one.train_logits, one.train_batch.answers, density="kde"
            ),
            train_logits=np.asfortranarray(one.train_logits),
        )
        suite.tasks[6] = replace(
            six,
            threshold_model=fit_threshold_model(np.array([[5.0, 0.0]]), np.array([1])),
        )
        return suite

    def test_round_trip_keeps_every_array(self, mixed_suite, tmp_path):
        """Every array comes back with its dtype, shape and bytes, in a
        buffer of its own: 0-d, empty, bool, KDE and quantized ones."""
        qformat = QFormat(3, 8)
        directory = save_suite(mixed_suite, tmp_path / "arts", qformat=qformat)
        for task_id, system in mixed_suite.tasks.items():
            meta_path, bin_path = _task_files(directory, task_id)
            stored = _read_arrays(bin_path, json.loads(meta_path.read_text())["arrays"])
            batches = {"train": system.train_batch, "test": system.test_batch}
            test = system.test_batch
            expected = {
                "model": {
                    **{name: getattr(system.weights, name) for name in WEIGHTS},
                    **{
                        f"{split}_{field}": getattr(batch, field)
                        for split, batch in batches.items()
                        for field in ("stories", "questions", "answers", "story_lengths")
                    },
                    "train_logits": system.train_logits,
                    "expected_test_predictions": system.batch_engine.predict(
                        test.stories, test.questions, test.story_lengths
                    ),
                },
                "threshold": encode_threshold_model(system.threshold_model),
                "quantized": encode_quantized_weights(
                    QuantizedWeights.quantize(system.weights, qformat)[0]
                ),
            }
            assert stored.keys() == expected.keys()
            for group, arrays in expected.items():
                assert stored[group].keys() == arrays.keys()
                for name, array in arrays.items():
                    array, restored = np.asarray(array), stored[group][name]
                    assert restored.dtype == array.dtype, (group, name)
                    assert restored.shape == array.shape, (group, name)
                    assert restored.tobytes() == array.tobytes(), (group, name)
                    assert restored.flags.owndata, (group, name)
            if task_id == 6:  # the cases this test is for are present
                assert stored["threshold"]["uses_kde"].shape == ()
                assert stored["threshold"]["uses_kde"].dtype == np.bool_
                assert stored["threshold"]["pos_edges"].shape == (0, 2)
                assert stored["threshold"]["pos_counts"].shape == (0, 1)
        loaded = verify_artifacts(directory)
        assert loaded.tasks[1].threshold_model.uses_kde
        assert np.array_equal(
            loaded.tasks[1].threshold_model.thresholds(0.9),
            mixed_suite.tasks[1].threshold_model.thresholds(0.9),
        )

    @pytest.mark.parametrize("dtype", ["|O", "<U4", "|S8", "no such type"])
    def test_non_numeric_dtype_rejected_before_reading(
        self, tiny_suite, tmp_path, dtype
    ):
        directory = save_suite(tiny_suite, tmp_path / "arts")
        meta_path, bin_path = _task_files(directory)
        _edit_entry(meta_path, "threshold", "order", dtype=dtype)
        bin_path.unlink()  # a read would fail with FileNotFoundError
        with pytest.raises(ValueError, match="only bool, integer and float"):
            load_suite(directory)

    def test_truncated_file_rejected(self, tiny_suite, tmp_path):
        directory = save_suite(tiny_suite, tmp_path / "arts")
        _, bin_path = _task_files(directory)
        data = bin_path.read_bytes()
        bin_path.write_bytes(data[: len(data) - 1])
        with pytest.raises(ValueError, match="past the end"):
            load_suite(directory)

    @pytest.mark.parametrize(
        "change",
        [{"shape": [-2, -3]}, {"shape": [2.0, 3]}, {"offset": True}, {"offset": -64}],
        ids=["negative-dims", "float-dim", "bool-offset", "negative-offset"],
    )
    def test_malformed_entry_rejected(self, tiny_suite, tmp_path, change):
        directory = save_suite(tiny_suite, tmp_path / "arts")
        meta_path, _ = _task_files(directory)
        _edit_entry(meta_path, "model", "w_o", **change)
        with pytest.raises(ValueError, match="non-negative integers"):
            load_suite(directory)

    def test_offset_past_end_rejected(self, tiny_suite, tmp_path):
        directory = save_suite(tiny_suite, tmp_path / "arts")
        meta_path, bin_path = _task_files(directory)
        _edit_entry(meta_path, "model", "w_o", offset=bin_path.stat().st_size + 64)
        with pytest.raises(ValueError, match="past the end"):
            load_suite(directory)


class TestFailureModes:
    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_suite(tmp_path / "nope")

    def test_version_mismatch_rejected(self, tiny_suite, tmp_path):
        directory = save_suite(tiny_suite, tmp_path / "arts")
        marker = directory / "suite.json"
        manifest = json.loads(marker.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        marker.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version"):
            load_suite(directory)

    def test_refuses_to_mix_suites(self, tiny_suite, tmp_path):
        directory = save_suite(tiny_suite, tmp_path / "arts")
        other = BabiSuite.build(
            SuiteConfig(task_ids=(2,), n_train=20, n_test=5, epochs=2, seed=1)
        )
        with pytest.raises(FileExistsError):
            save_suite(other, directory)

    def test_resave_same_suite_is_allowed(self, tiny_suite, tmp_path):
        directory = save_suite(tiny_suite, tmp_path / "arts")
        save_suite(tiny_suite, directory)  # idempotent overwrite
        assert verify_artifacts(directory).task_ids == [1, 6]
