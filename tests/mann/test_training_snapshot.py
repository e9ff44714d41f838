"""Training snapshot: the seven weight arrays that a fixed-seed
one-task training run exports are pinned **by value** in a committed
.npz, so a change to the autograd, the loss, the optimizer, the
schedule or the trainer that moves a trained number fails here. The
tests that only check a falling loss or an accuracy would miss it.

``SNAPSHOT_ATOL`` covers the OpenBLAS kernel families: this run differs
by up to ~5e-12 between cores. Changing Adam's eps from 1e-8 to 1e-7
moves it by ~2e-3, far outside the tolerance.

Regenerate (only after an intentional numerical change) with:

    PYTHONPATH=src python tests/mann/test_training_snapshot.py
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.eval.suite import BabiSuite, SuiteConfig

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "training_snapshot.npz"
SNAPSHOT_ATOL = 1e-9
CONFIG = SuiteConfig(task_ids=(1,), n_train=60, n_test=20, epochs=3, seed=7)
WEIGHT_FIELDS = ("w_emb_a", "w_emb_c", "w_emb_q", "w_r", "w_o", "t_a", "t_c")


def compute_snapshot() -> dict[str, np.ndarray]:
    weights = BabiSuite.build(CONFIG).tasks[1].weights
    return {name: getattr(weights, name) for name in WEIGHT_FIELDS}


@pytest.fixture(scope="module")
def snapshot():
    if not FIXTURE.exists():
        pytest.fail(
            f"missing fixture {FIXTURE}; regenerate with "
            "`PYTHONPATH=src python tests/mann/test_training_snapshot.py`"
        )
    with np.load(FIXTURE) as data:
        return {key: data[key] for key in data.files}


def test_trained_weights_match_snapshot_by_value(snapshot):
    current = compute_snapshot()
    assert set(current) == set(snapshot)
    for key, expected in snapshot.items():
        np.testing.assert_allclose(
            current[key],
            expected,
            rtol=0.0,
            atol=SNAPSHOT_ATOL,
            err_msg=f"trained weight {key!r} drifted from the snapshot",
        )


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(FIXTURE, **compute_snapshot())
    print(f"wrote {FIXTURE}")
