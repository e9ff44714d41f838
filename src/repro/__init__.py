"""repro — reproduction of Park et al., DATE 2019.

"Energy-Efficient Inference Accelerator for Memory-Augmented Neural
Networks on an FPGA".

Public API overview
-------------------
``repro.nn``
    Minimal numpy reverse-mode autograd with the Adam optimiser: only
    what MemN2N training runs.
``repro.babi``
    Synthetic bAbI story-world generator for all 20 QA task types.
``repro.mann``
    End-to-End Memory Network (MemN2N) model, trainer, golden
    inference engine and fixed-point quantization.
``repro.mips``
    Maximum inner-product search engines, including the paper's
    inference thresholding (Algorithm 1) and related-work baselines.
``repro.hw``
    Cycle-level dataflow simulation of the FPGA accelerator (Fig. 1),
    energy model, host-interface model and calibration constants.
``repro.devices``
    Analytic CPU/GPU baseline device models.
``repro.eval``
    Experiment drivers reproducing every table and figure.
``repro.artifacts``
    Persistent model artifacts: save/load a trained suite bit-exactly.
``repro.serving``
    Serving facade: ``open_predictor`` + micro-batching
    ``BatchScheduler`` over typed query requests/responses.
"""

from repro import artifacts, babi, devices, eval, hw, mann, mips, nn, serving, utils

__version__ = "1.1.0"

__all__ = [
    "artifacts",
    "babi",
    "devices",
    "eval",
    "hw",
    "mann",
    "mips",
    "nn",
    "serving",
    "utils",
    "__version__",
]
