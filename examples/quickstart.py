#!/usr/bin/env python3
"""Quickstart: train a MANN on one bAbI task and run it on the
simulated FPGA accelerator.

Runs in a few seconds:
1. generate synthetic bAbI task 1 (single supporting fact) data,
2. train an End-to-End Memory Network on it,
3. fit inference thresholding (Algorithm 1) on the training logits,
4. run the test set through the cycle-level accelerator simulation at
   25 MHz and 100 MHz, with and without inference thresholding,
5. print timing/energy reports and check every answer, label and
   winning-logit bits, against the host engine on the same output
   search; exits non-zero on a mismatch.
"""

import sys

import numpy as np

from repro.babi import generate_task_dataset
from repro.hw import HwConfig, MannAccelerator
from repro.mann import BatchInferenceEngine, InferenceEngine, train_task_model
from repro.mips import fit_threshold_model


def main() -> None:
    print("=== 1. Generate synthetic bAbI task 1 ===")
    train, test = generate_task_dataset(task_id=1, n_train=300, n_test=100, seed=42)
    print(f"train={len(train)} test={len(test)} vocab={train.vocab_size}")
    print("\nA sample story:")
    print(test.examples[0].text())

    print("\n=== 2. Train the memory network ===")
    result = train_task_model(train, test, epochs=50, seed=0)
    print(
        f"epochs={result.epochs_run} train_acc={result.train_accuracies[-1]:.3f} "
        f"test_acc={result.test_accuracy:.3f} "
        f"(majority baseline {result.majority_accuracy:.3f})"
    )

    print("\n=== 3. Fit inference thresholding on training logits ===")
    weights = result.model.export_weights()
    engine = InferenceEngine(weights)
    train_batch = train.encode()
    train_logits = engine.logits_batch(
        train_batch.stories, train_batch.questions, train_batch.story_lengths
    )
    threshold_model = fit_threshold_model(train_logits, train_batch.answers)
    order = threshold_model.order[:5]
    print(f"first 5 visited indices (by silhouette): {order.tolist()}")

    print("\n=== 4. Run the accelerator simulation ===")
    test_batch = test.encode()
    all_match = True
    for ith in (False, True):
        backend = "threshold" if ith else "exact"
        golden = BatchInferenceEngine(
            weights, backend, threshold_model=threshold_model, rho=1.0
        ).search(test_batch.stories, test_batch.questions, test_batch.story_lengths)
        for mhz in (25.0, 100.0):
            config = (
                HwConfig(frequency_mhz=mhz)
                .with_embed_dim(weights.config.embed_dim)
                .with_ith(ith, rho=1.0)
            )
            accelerator = MannAccelerator(weights, config, threshold_model)
            report = accelerator.run(test_batch, keep_examples=True)
            hw_logits = np.array([run.logit for run in report.examples])
            matches = np.array_equal(report.predictions, golden.labels) and (
                hw_logits.tobytes() == golden.logits.tobytes()
            )
            all_match = all_match and matches
            label = "FPGA+ITH" if ith else "FPGA    "
            print(
                f"{label} @{mhz:5.0f} MHz: acc={report.accuracy:.3f} "
                f"cycles={report.total_cycles:>8d} "
                f"wall={report.wall_seconds * 1e3:7.3f} ms "
                f"power={report.average_power_w:5.2f} W "
                f"mean comparisons={report.mean_comparisons:6.1f}"
                f"  golden-match={matches}"
            )

    print("\nDone. See examples/babi_qa_accelerator.py for the full suite.")
    if not all_match:
        sys.exit("an accelerator answer differs from the host engine's")


if __name__ == "__main__":
    main()
